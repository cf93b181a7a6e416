"""Benchmark of the anthyphairesis package: emit, verify, rational chain, CLI.

Run from the repository root:

    python3 perfbench/run.py --workload emit_long --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports per-layer metrics from spans around each call into the package.
Lines starting with "#" give context; every other line but the last names
one metric, its value and its unit; the last line is a JSON object with
keys correct, attempted, failed and metrics.
Full results (environment, tail percentile, failures, spans) are written
under perfbench/out/.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("emit_long", "verify_corpus", "rational_chain", "cli_session")
SETUP_REPEATS = 5
# Every item is timed ROUNDS times, one round over all the run's items after
# another, and keeps its best time, so that a burst of other tenants' work
# during one attempt does not count.
ROUNDS = 3


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Run:
    """Counts operations and failures over one run of one workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, what: str, fn):
        """Run one checked operation; fn returns an error message or None."""
        self.attempted += 1
        try:
            err = fn()
        except Exception:
            err = traceback.format_exc(limit=4)
        if err:
            self.failures.append(f"{what}: {err}")
        return err


def tail(values: list[float], percentile: int) -> tuple[int, float, int]:
    """(percentile, value, values beyond it) by nearest rank.  If fewer than
    ten values lie beyond the given percentile, the highest percentile that
    has ten beyond it is used instead (p50 if none has)."""
    v = sorted(values)
    n = len(v)
    for p in (percentile, *range(percentile - 1, 49, -1)):
        k = math.ceil(p * n / 100)
        if n - k >= 10 or p == 50:
            return p, v[k - 1], n - k
    raise AssertionError("unreachable")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(ctx, run: Run) -> tuple[float, float]:
    """Median time to import the package in a fresh interpreter, scaled by
    the machine's speed (see speed.py) and unscaled."""
    code = ("import time; t = time.perf_counter(); import anthyphairesis; "
            "print(time.perf_counter() - t)")
    values: list[float] = []
    references: list[float] = []

    def once(keep: bool):
        reference = speed.reference_s()
        p = subprocess.run([sys.executable, "-c", code], cwd=ctx.root, env=ctx.env,
                           capture_output=True, text=True, timeout=120)
        if p.returncode:
            return f"import failed: {p.stderr.strip()[-300:]}"
        if keep:
            values.append(float(p.stdout))
            references.append(reference)
        return None

    once(False)  # the first import writes the bytecode caches
    for _ in range(SETUP_REPEATS):
        run.op("setup import", lambda: once(True))
    if not values:
        return math.nan, math.nan
    scaled = [v * f for v, f in zip(values, speed.factors(references))]
    return statistics.median(scaled), statistics.median(values)


def peak_mib(fn) -> tuple[float, object]:
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, result


class Rounds:
    """Times a workload's items ROUNDS times each.  Every attempt is scaled
    by the machine's speed next to it (see speed.py); every item keeps its
    best scaled time and, for the record, its best unscaled one."""

    def __init__(self, wl, run: Run) -> None:
        from workloads import NULL

        self.wl, self.run, self.null = wl, run, NULL
        self.items: list = []
        self.failed: set[int] = set()
        self.attempts: list[tuple[int, float, float]] = []  # (item, wall, reference)
        self.busy = 0.0
        self.hwm_kb = 0

    def time(self, j: int) -> None:
        item, got = self.items[j], {}

        def one():
            gc.collect()  # start each item from the same collector state
            got["reference"] = speed.reference_s()
            t0 = time.perf_counter()
            try:
                got["result"] = self.wl.run(item, self.null)
            finally:
                got["wall"] = time.perf_counter() - t0
            return self.wl.verify(item, got["result"])

        if self.run.op(f"item {item.id}", one) is None:
            self.attempts.append((j, got["wall"], got["reference"]))
            self.hwm_kb = max(self.hwm_kb, getattr(got["result"], "hwm_kb", 0))
        else:
            self.failed.add(j)
        self.busy += got["wall"]

    def measure(self, items, seconds: float) -> None:
        # Objects alive now (interpreter, package, benchmark) are left out of
        # collections, so the collection before each item costs well under a
        # millisecond; the program's own objects are collected as usual.
        gc.collect()
        gc.freeze()
        try:
            # the first round draws whole cycles of the workload's schedule
            # until it has used its share of the time; the later rounds
            # repeat exactly those items
            while not self.items or self.busy < seconds / ROUNDS or not self.items[-1].ends_cycle:
                self.items.append(next(items))
                self.time(len(self.items) - 1)
            for _ in range(ROUNDS - 1):
                for j in range(len(self.items)):
                    if j not in self.failed:
                        self.time(j)
        finally:
            gc.unfreeze()

    def samples(self, scaled: bool) -> list[tuple[float, int]]:
        """(best time, quotients) per item that never failed."""
        walls = [wall for _, wall, _ in self.attempts]
        if scaled:
            factors = speed.factors([ref for _, _, ref in self.attempts])
            walls = [w * f for w, f in zip(walls, factors)]
        best: dict[int, float] = {}
        for (j, _, _), w in zip(self.attempts, walls):
            best[j] = min(best.get(j, w), w)
        return [(best[j], self.items[j].quotients) for j in sorted(best) if j not in self.failed]

    def factor(self) -> float:
        """The run's median speed factor."""
        return statistics.median(speed.factors([ref for _, _, ref in self.attempts]))


def timing_metrics(samples: list[tuple[float, int]], percentile: int) -> tuple[dict, dict]:
    walls = [w for w, _ in samples]
    per_quotient = [1e6 * w / q for w, q in samples if q]
    us_p, us_tail, us_beyond = tail(per_quotient, percentile)
    ms_p, ms_tail, ms_beyond = tail([1e3 * w for w in walls], percentile)
    metrics = {
        "quotients_per_s": metric(sum(q for _, q in samples) / sum(walls), "1/s"),
        "us_per_quotient_p50": metric(statistics.median(per_quotient), "us"),
        "us_per_quotient_tail": metric(us_tail, "us"),
        "call_ms_p50": metric(1e3 * statistics.median(walls), "ms"),
        "call_ms_tail": metric(ms_tail, "ms"),
    }
    tails = {
        "us_per_quotient_tail": {"percentile": us_p, "items": len(per_quotient), "beyond": us_beyond},
        "call_ms_tail": {"percentile": ms_p, "items": len(walls), "beyond": ms_beyond},
    }
    return metrics, tails


def untraced(wl, ctx, seed: int, seconds: float, run: Run) -> tuple[dict, dict]:
    from workloads import NULL, CliSession

    phases = {"start": time.perf_counter()}
    setup_s, setup_raw = measure_setup(ctx, run)
    phases["setup"] = time.perf_counter()
    rounds = Rounds(wl, run)
    rounds.measure(wl.items(random.Random(seed)), seconds)
    phases["loop"] = time.perf_counter()

    fn, check = wl.peak()
    peak = {}

    def do_peak():
        peak["mib"], result = peak_mib(fn)
        return check(result)

    run.op("peak pass", do_peak)
    phases["peak"] = time.perf_counter()
    hwm_kb = rounds.hwm_kb
    child = wl.child()
    if child is not None:
        cli = CliSession(ctx)

        def do_child():
            nonlocal hwm_kb
            result = cli.run(child, NULL)
            hwm_kb = max(hwm_kb, result.hwm_kb)
            return cli.verify(child, result)

        run.op(f"child {' '.join(child.args)[:40]}", do_child)
    run.op("child peak RSS", lambda: None if hwm_kb else "no child reported its peak RSS")
    phases["child"] = time.perf_counter()

    timing, tails = timing_metrics(rounds.samples(scaled=True), wl.tail_percentile)
    unscaled, _ = timing_metrics(rounds.samples(scaled=False), wl.tail_percentile)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        **timing,
        "peak_mib": metric(peak.get("mib", math.nan), "MiB"),
        "child_peak_rss_mib": metric(hwm_kb / 1024, "MiB"),
    }
    names = list(phases)
    info = {
        "phase_s": {b: phases[b] - phases[a] for a, b in zip(names, names[1:])},
        "timed_s": rounds.busy,
        "speed_factor": rounds.factor(),
        "unscaled": {"setup_s": setup_raw, **{k: m["value"] for k, m in unscaled.items()}},
        "tails": tails,
        "attempts": [[rounds.items[j].id, wall, ref] for j, wall, ref in rounds.attempts],
    }
    return metrics, info


def traced(wl, ctx, seed: int, seconds: float, run: Run) -> tuple[dict, dict]:
    """Each item runs twice, untraced and traced in alternating order, so the
    tracing overhead is measured on identical inputs."""
    import anthyphairesis as A
    from tracing import Tracer
    from oracles import sqrt_expansion
    from workloads import ANCHOR_RADICANDS, NULL, anchor_pass

    loop, probe = Tracer(), Tracer()
    walls = {False: 0.0, True: 0.0}
    log_ratios: list[float] = []
    rng = random.Random(seed)
    gc.collect()
    gc.freeze()  # as in Rounds.measure
    for i, item in enumerate(wl.items(rng)):
        def one():
            wall = {}
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                gc.collect()
                t0 = time.perf_counter()
                if with_trace:
                    with loop.span("item", item.id):
                        result = wl.run(item, loop)
                else:
                    result = wl.run(item, NULL)
                wall[with_trace] = time.perf_counter() - t0
                walls[with_trace] += wall[with_trace]
                err = wl.verify(item, result)
                if err:
                    return err
            log_ratios.append(math.log(wall[True] / wall[False]))
            return wl.extras(item, result, loop)

        run.op(f"item {item.id}", one)
        if walls[False] + walls[True] >= seconds:
            break
    gc.unfreeze()

    readings, failures, ops = anchor_pass(ctx, probe, rng)
    run.attempted += ops
    run.failures += failures
    walk = {}

    def do_walk_peak():
        D = ANCHOR_RADICANDS[-1]
        walk["mib"], trace = peak_mib(lambda: A.anthyphairesis(A.make_sqrt(D), 1))
        a0, period = sqrt_expansion(D, 10**6)
        return None if list(trace.quotients) == [a0, *period] else "walk differs from the oracle"

    run.op("walk peak", do_walk_peak)

    metrics = layer_metrics(loop, probe)
    metrics["engine.anthyphairesis.peak_mib"] = metric(walk.get("mib", float("nan")), "MiB")
    # geometric mean over items; alternating the order cancels the speed-up a
    # second run of the same input gets from memory the first one left behind
    metrics["trace.overhead_ratio"] = metric(math.exp(statistics.fmean(log_ratios)), "ratio")
    own = loop.self_times()
    items = [(s.end - s.start, t) for s, t in zip(loop.spans, own) if s.name == "item"]
    metrics["trace.self_coverage"] = metric(1 - sum(t for _, t in items) / sum(d for d, _ in items), "ratio")
    for name, value in readings.items():
        metrics[name] = metric(value, "us" if name.endswith("us_per_step") else "ms")
    spans = loop.records("loop") + probe.records("anchor")
    layers = {"loop": loop.stats(), "anchor": probe.stats()}
    return metrics, {"spans": spans, "layers": layers}


def layer_metrics(loop, probe) -> dict:
    """Per-layer numbers from the workload's own spans; a layer the workload
    never calls is read from the anchor pass instead."""
    ls, ps = loop.stats(), probe.stats()

    def st(name: str) -> dict:
        return ls.get(name) or ps[name]

    def per_n(name: str, scale: float) -> float:
        s = st(name)
        return scale * s["busy_with_n_s"] / s["n"]

    def per_call(name: str, scale: float) -> float:
        s = st(name)
        return scale * s["busy_s"] / s["calls"]

    counts = loop.counts if loop.counts["certificates.check.tampered"] else probe.counts
    parse = st("certificates.parse")
    m = {
        "engine.anthyphairesis.us_per_quotient": metric(per_n("engine.anthyphairesis", 1e6), "us"),
        "engine.anthyphairesis.quotients": metric(st("engine.anthyphairesis")["n"], "count"),
        "engine.anthyphairesis.rational_us_per_quotient":
            metric(per_n("engine.anthyphairesis.rational", 1e6), "us"),
        "engine.verdict.busy_s": metric(st("engine.verdict")["busy_s"], "s"),
        "surd.anth_step.us_per_step": metric(per_n("surd.anth_step", 1e6), "us"),
        "surd.make_sqrt.us_per_call": metric(per_call("surd.make_sqrt", 1e6), "us"),
        "euclid.anth_nat.us_per_quotient": metric(per_n("euclid.anth_nat", 1e6), "us"),
        "certificates.periodic_anth_certificate.busy_s":
            metric(st("certificates.periodic_anth_certificate")["busy_s"], "s"),
        "certificates.finite_anth_certificate.busy_s":
            metric(st("certificates.finite_anth_certificate")["busy_s"], "s"),
        "certificates.serialize.busy_s": metric(st("certificates.serialize")["busy_s"], "s"),
        "certificates.serialize.bytes": metric(st("certificates.serialize")["n"], "bytes"),
        "certificates.parse.mb_per_s": metric(parse["n"] / parse["busy_s"] / 1e6, "MB/s"),
        "certificates.check.us_per_quotient": metric(per_n("certificates.check", 1e6), "us"),
        "certificates.check.tampered": metric(counts["certificates.check.tampered"], "count"),
        "certificates.check.reject_ratio": metric(
            counts["certificates.check.rejected"] / counts["certificates.check.tampered"], "ratio"),
        "reconstructions.parity_proof.us_per_call":
            metric(per_call("reconstructions.parity_proof", 1e6), "us"),
        "reconstructions.residue_prover.us_per_call":
            metric(per_call("reconstructions.residue_prover", 1e6), "us"),
        "reconstructions.theodorus_table.ms_per_row":
            metric(per_n("reconstructions.theodorus_table", 1e3), "ms"),
        "cli.startup_ms": metric(per_call("cli.startup", 1e3), "ms"),
        "cli.anth.ms": metric(per_call("cli.anth", 1e3), "ms"),
        "cli.check.ms": metric(per_call("cli.check", 1e3), "ms"),
        "cli.table.ms": metric(per_call("cli.table", 1e3), "ms"),
        "cli.stdout_bytes": metric(
            sum(st(f"cli.{k}")["n"] for k in ("startup", "anth", "check", "table")), "bytes"),
    }
    return m


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Run]:
    from workloads import WORKLOADS, Ctx

    ctx = Ctx.create(ROOT)
    wl = WORKLOADS[name](ctx)
    run = Run()
    if trace:
        metrics, info = traced(wl, ctx, seed, seconds, run)
    else:
        metrics, info = untraced(wl, ctx, seed, seconds, run)
    fail_ratio = metric(len(run.failures) / max(run.attempted, 1), "ratio")
    if trace:
        metrics["fail_ratio"] = fail_ratio
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    spans = info.pop("spans", None)
    if spans is not None:
        (ctx.out / f"{stem}-spans.json").write_text(json.dumps(spans))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "claim": None,
        "environment": environment(ROOT), "metrics": metrics, "info": info,
        "attempted": run.attempted, "fail_ratio": fail_ratio, "failures": run.failures[:50],
    }
    (ctx.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, t in info.get("tails", {}).items():
        print(f"# {name} {key} = p{t['percentile']} of {t['items']} items ({t['beyond']} beyond)")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']} {m['unit']}")
    if not trace:
        print(f"{name} fail_ratio {fail_ratio['value']} ratio ({len(run.failures)} of {run.attempted})")
    return metrics, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "anthyphairesis" / "__init__.py").is_file():
        fail_setup(f"no package source at {ROOT / 'src' / 'anthyphairesis'}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import anthyphairesis  # noqa: F401
    except ImportError as exc:
        fail_setup(f"cannot import the package: {exc}")

    # One CPU for the benchmark and the CLI processes it starts, so that the
    # reference loop (speed.py) reads the speed of the CPU doing the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(ROOT)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = NAMES if args.workload == "all" else (args.workload,)
    combined: dict = {}
    attempted = failed = 0
    for name in names:
        print(f"# workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        try:
            metrics, run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            metrics, run = {}, Run()
            run.op(f"workload {name}", lambda: "the benchmark stopped with an exception")
        attempted += run.attempted
        failed += len(run.failures)
        if args.workload == "all":
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        combined.update(metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))


if __name__ == "__main__":
    main()
