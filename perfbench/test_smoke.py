"""Smoke test of the benchmark at a tiny size (one second per run).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that no operation fails on the current code, that every tampered document
is rejected, and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric_and_nothing_fails(workload: str, trace: int) -> None:
    p = bench(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, p.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["fail_ratio"] == 0
        assert values["certificates.check.reject_ratio"] == 1.0
        assert values["certificates.check.tampered"] >= 1
        # the benchmark's own code between calls is a sliver of each item
        assert values["trace.self_coverage"] > 0.9
    else:
        assert "fail_ratio 0.0 ratio" in p.stdout


def test_refuses_to_run_without_the_package() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        p = bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0
    assert not p.stdout.strip().startswith("{")
