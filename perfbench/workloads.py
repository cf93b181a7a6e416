"""The four workloads: what each feeds the package and how it checks the answer.

Each workload is a closed loop with one client: the next item starts when
the previous one has returned.  Items come from a seeded generator, anchors
first, then a fixed repeating schedule of size classes whose concrete inputs
the seed picks.  The fixed schedule keeps the mix of item sizes the same from
seed to seed, so per-item medians and tails stay comparable between runs.

`run` is the timed part and only calls the package's public functions;
`verify` compares its result with the oracles in `oracles.py`; `extras` is
extra work done in traced runs only (reference replays and in-process
re-runs) so the per-layer numbers have something to stand on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import anthyphairesis as A
import anthyphairesis.cli

from oracles import (
    division_chain,
    finite_document,
    is_square,
    periodic_document,
    residue_status,
    sqrt_expansion,
    surd_expansion,
    surd_over_rational,
    table_row,
    tamper,
)
from tracing import NullTracer, Tracer

NULL = NullTracer()

# ROADMAP anchors: always part of the runs that exercise them.
ANCHOR_RADICANDS = (10**8 + 3, 10**10 + 7, 10**12 + 3)
ANCHOR_PAIR = (Fraction(2**7000), Fraction(3**4000))
ANCHOR_TABLE = (2, 2000)

ANCHOR_REPEATS = 3  # anchor readings are the best of this many runs
CHILD_TIMEOUT_S = 120.0

# Runs `python -m anthyphairesis ARGS` and reports the child's own peak RSS
# on its last stderr line.  getrusage() cannot be used: on Linux a child's
# ru_maxrss starts from the parent's high-water mark at fork/exec.
_HWM_MARK = "perfbench-vmhwm-kb"
_HWM_WRAPPER = (
    "import atexit, runpy, sys\n"
    "def report():\n"
    "    with open('/proc/self/status') as f:\n"
    "        kb = [line.split()[1] for line in f if line.startswith('VmHWM:')]\n"
    f"    sys.stderr.write('\\n{_HWM_MARK} ' + kb[0] + '\\n')\n"
    "atexit.register(report)\n"
    "runpy.run_module('anthyphairesis', run_name='__main__', alter_sys=True)\n"
)


@dataclass
class Ctx:
    root: Path
    out: Path  # results, traces and scratch files; ignored by git
    env: dict  # environment for child interpreters

    @classmethod
    def create(cls, root: Path) -> "Ctx":
        out = root / "perfbench" / "out"
        (out / "tmp").mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        return cls(root, out, env)


@dataclass
class Item:
    id: str
    kind: str
    args: tuple
    expect: object = None
    quotients: int = 0  # quotients the item emits or replays
    tampered: bool = False
    stdout: Path | None = None  # where a CLI item's output goes
    ends_cycle: bool = False  # last item of the anchors or of a schedule cycle


class Workload:
    name = ""
    # Percentile reported as the tail.  It is fixed per workload so that a
    # faster program, which completes more items, is still compared at the
    # same percentile; it is set so a run at the seed's speed has at least
    # ten items beyond it.
    tail_percentile = 90

    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx

    def extras(self, item: Item, result, tr: Tracer) -> str | None:
        return None


# ---------------------------------------------------------------------------
# input generation


def radicand(rng, band: int, lo: int, hi: int) -> tuple[int, int, list[int]]:
    """A non-square D in [10^band, 2*10^band) whose period lies in [lo, hi]."""
    base = 10**band
    while True:
        D = base + rng.randrange(base)
        if is_square(D):
            continue
        found = sqrt_expansion(D, hi)
        if found and len(found[1]) >= lo:
            return D, found[0], found[1]


def surd_pair(rng, band: int, lo: int, hi: int):
    """A same-field pair (P + sqrt(D))/Q : r/s whose ratio has period in [lo, hi]."""
    while True:
        P, Q = rng.randrange(1, 1000), rng.randrange(2, 300)
        r, s = rng.randrange(1, 13), rng.randrange(1, 13)
        target = 10**band + rng.randrange(10**band)
        D = P * P + Q * ((target - P * P) // Q)
        if is_square(D):
            continue
        start = surd_over_rational(P, Q, D, r, s)
        found = surd_expansion(*start, hi + 64)
        if found and lo <= found[2] <= hi:
            return (P, Q, D, r, s), start, found


def rational_pair(rng, bits: int) -> tuple[Fraction, Fraction]:
    """Two distinct fractions, larger first, numerators and denominators of `bits` bits."""
    def draw() -> Fraction:
        top = 1 << (bits - 1)
        return Fraction(top | rng.getrandbits(bits - 1), top | rng.getrandbits(bits - 1))

    while True:
        a, b = draw(), draw()
        if a != b:
            return (a, b) if a > b else (b, a)


def full_expansion(D: int) -> tuple[int, int, list[int]]:
    """(D, a0, period) for an anchor radicand."""
    return (D, *sqrt_expansion(D, 10**6))


def in_cycles(items, length: int):
    """Mark every `length`-th item as the end of a cycle of the schedule.
    Runs stop drawing items only at a cycle's end, so every run holds the
    same mix of sizes whatever the machine's speed."""
    for i, item in enumerate(items, 1):
        item.ends_cycle = i % length == 0
        yield item


def sqrt_item(item_id: str, D: int, a0: int, period: list[int]) -> Item:
    expect = ([a0, *period], 1, len(period), periodic_document(D, a0, period))
    return Item(item_id, "sqrt", (D,), expect, 1 + len(period))


def document_item(item_id: str, kind: str, text: str, quotients: int) -> Item:
    return Item(item_id, kind, (text,), None, quotients)


def _replay(start, count: int, item_id: str, tr: Tracer) -> list[int]:
    """Walk `count` steps with the reference step anth_step."""
    out = []
    with tr.span("surd.anth_step", item_id) as sp:
        state = start
        for _ in range(count):
            q, state = A.anth_step(state)
            out.append(q)
        sp.n = count
    return out


# ---------------------------------------------------------------------------
# emit_long: anthyphairesis -> verdict -> periodic certificate -> serialize

# (kind, radicand band, lowest period, highest period); log-spaced sizes
EMIT_SCHEDULE = (
    ("sqrt", 8, 1000, 1500), ("sqrt", 10, 2250, 3400), ("pair", 8, 1000, 3400), ("sqrt", 10, 11000, 17000),
    ("sqrt", 8, 1500, 2250), ("sqrt", 10, 3400, 5000), ("pair", 10, 3400, 11000), ("sqrt", 12, 11000, 17000),
    ("sqrt", 8, 2250, 3400), ("sqrt", 10, 5000, 7500), ("pair", 8, 1000, 3400), ("sqrt", 12, 25000, 38000),
    ("sqrt", 8, 3400, 5000), ("sqrt", 10, 7500, 11000), ("pair", 10, 3400, 11000), ("sqrt", 12, 17000, 25000),
)


class EmitLong(Workload):
    name = "emit_long"
    tail_percentile = 80

    def items(self, rng):
        anchors = (sqrt_item(f"anchor-{D}", *full_expansion(D)) for D in ANCHOR_RADICANDS)
        yield from in_cycles(anchors, len(ANCHOR_RADICANDS))
        yield from in_cycles((self._item(rng, i) for i in itertools.count()), len(EMIT_SCHEDULE))

    @staticmethod
    def _item(rng, i: int) -> Item:
        kind, band, lo, hi = EMIT_SCHEDULE[i % len(EMIT_SCHEDULE)]
        if kind == "sqrt":
            return sqrt_item(f"{i}", *radicand(rng, band, lo, hi))
        (P, Q, D, r, s), start, found = surd_pair(rng, band, lo, hi)
        args = (A.QuadraticSurd(P, Q, D), Fraction(r, s), start)
        return Item(f"{i}", "pair", args, found, len(found[0]))

    def run(self, item: Item, tr) -> tuple:
        if item.kind == "pair":
            a, b, _ = item.args
            with tr.span("engine.anthyphairesis", item.id) as sp:
                trace = A.anthyphairesis(a, b)
                sp.n = len(trace.quotients)
            with tr.span("engine.verdict", item.id):
                v = A.verdict(trace)
            return trace, v, None
        with tr.span("surd.make_sqrt", item.id):
            x = A.make_sqrt(item.args[0])
        with tr.span("engine.anthyphairesis", item.id) as sp:
            trace = A.anthyphairesis(x, 1)
            sp.n = len(trace.quotients)
        with tr.span("engine.verdict", item.id):
            v = A.verdict(trace)
        with tr.span("certificates.periodic_anth_certificate", item.id):
            cert = A.periodic_anth_certificate(trace)
        with tr.span("certificates.serialize", item.id) as sp:
            text = A.serialize(cert)
            sp.n = len(text)
        return trace, v, text

    def verify(self, item: Item, result) -> str | None:
        trace, v, text = result
        quotients, pre, per = item.expect[:3]
        if item.kind == "sqrt" and text != item.expect[3]:
            return "certificate text differs from the oracle's document"
        if list(trace.quotients) != quotients:
            return "quotients differ from the oracle"
        t = trace.termination
        if not isinstance(t, A.EventuallyPeriodic) or (t.preperiod_len, t.period_len) != (pre, per):
            return "preperiod/period differ from the oracle"
        if not isinstance(v, A.Incommensurable):
            return "verdict is not incommensurable"
        return None

    def extras(self, item: Item, result, tr: Tracer) -> str | None:
        start = item.args[2] if item.kind == "pair" else (0, 1, item.args[0])
        replayed = _replay(A.QuadraticSurd(*start), item.quotients, item.id, tr)
        return None if replayed == list(result[0].quotients) else "anth_step replay disagrees"

    def peak(self):
        D = ANCHOR_RADICANDS[-1]
        item = sqrt_item("peak", *full_expansion(D))
        return lambda: self.run(item, NULL), lambda r: self.verify(item, r)

    def child(self) -> Item:
        D = ANCHOR_RADICANDS[-1]
        return CliSession.anth_item("child", *full_expansion(D))


# ---------------------------------------------------------------------------
# verify_corpus: parse -> check over documents of all four kinds

VERIFY_SCHEDULE = (
    ("periodic", 8, 1500, 2250), ("finite",), ("periodic", 8, 3400, 5000), ("parity",),
    ("periodic", 8, 2250, 3400), ("finite",), ("periodic", 10, 7500, 11000), ("residue",),
    ("periodic", 10, 17000, 25000), ("finite",), ("periodic", 10, 25000, 38000), ("parity",),
    ("periodic", 8, 5000, 7500), ("finite",), ("periodic", 10, 11000, 17000), ("residue",),
)  # finite documents take their sizes in turn from RATIONAL_BITS
# slots whose document gets one integer changed by +-1 (the seed picks which
# integer); fixed slots keep the mix of accepted and rejected work the same
# from seed to seed
TAMPERED_SLOTS = (2, 5, 10, 11)


def periodic_doc_item(item_id: str, D: int, a0: int, period: list[int]) -> Item:
    return document_item(item_id, "periodic", periodic_document(D, a0, period), 1 + len(period))


class VerifyCorpus(Workload):
    name = "verify_corpus"
    tail_percentile = 85  # only the 9 accepted replays in 16 count per quotient

    def items(self, rng):
        anchors = (periodic_doc_item(f"anchor-{D}", *full_expansion(D)) for D in ANCHOR_RADICANDS)
        yield from in_cycles(anchors, len(ANCHOR_RADICANDS))
        yield from in_cycles(self._documents(rng), len(VERIFY_SCHEDULE))

    def _documents(self, rng):
        n = len(VERIFY_SCHEDULE)
        sizes = itertools.cycle(RATIONAL_BITS)
        for cycle in itertools.count():
            for slot, spec in enumerate(VERIFY_SCHEDULE):
                if spec[0] == "finite":
                    spec = ("finite", next(sizes))
                item = self._document(rng, f"{cycle * n + slot}", spec)
                if slot in TAMPERED_SLOTS:
                    item.args = (tamper(item.args[0], rng),)
                    item.tampered, item.quotients = True, 0
                yield item

    @staticmethod
    def _document(rng, item_id: str, spec: tuple) -> Item:
        kind = spec[0]
        if kind == "periodic":
            return periodic_doc_item(item_id, *radicand(rng, *spec[1:]))
        if kind == "finite":
            a, b = rational_pair(rng, spec[1])
            x = a / b
            text = finite_document(x.numerator, x.denominator)
            return document_item(item_id, kind, text, len(json.loads(text)["quotients"]))
        if kind == "parity":
            C = 2 * rng.randrange(2, 10**6) ** 2
            outcome = A.parity_proof(C)
        else:
            C = rng.randrange(2, 10**12)
            while is_square(C) or residue_status(C) != "proved":
                C = rng.randrange(2, 10**12)
            outcome = A.residue_prover(C)
        if not isinstance(outcome, A.Proved):
            raise AssertionError(f"{kind} prover did not prove C={C}")
        return document_item(item_id, kind, A.serialize(outcome.certificate), 0)

    def run(self, item: Item, tr) -> bool:
        text = item.args[0]
        if item.tampered:
            tr.count("certificates.check.tampered")
        with tr.span("certificates.parse", item.id) as sp:
            sp.n = len(text)
            try:
                cert = A.parse(text)
            except A.CertificateError:
                cert = None
        if cert is None:
            accepted = False
        else:
            with tr.span("certificates.check", item.id) as sp:
                try:
                    accepted = A.check(cert)
                except A.CertificateError:
                    accepted = False
                sp.n = item.quotients if accepted else 0
        if item.tampered and not accepted:
            tr.count("certificates.check.rejected")
        return accepted

    def verify(self, item: Item, accepted: bool) -> str | None:
        if item.tampered and accepted:
            return "tampered document accepted"
        if not item.tampered and not accepted:
            return "valid document rejected"
        return None

    def extras(self, item: Item, accepted: bool, tr: Tracer) -> str | None:
        if item.kind != "periodic" or item.tampered:
            return None
        doc = json.loads(item.args[0])
        expected = [int(q) for q in doc["preperiod_quotients"] + doc["period_quotients"]]
        replayed = _replay(A.QuadraticSurd(0, 1, int(doc["C"])), len(expected), item.id, tr)
        return None if replayed == expected else "anth_step replay disagrees"

    def peak(self):
        D = ANCHOR_RADICANDS[-1]
        item = periodic_doc_item("peak", *full_expansion(D))
        return lambda: self.run(item, NULL), lambda r: self.verify(item, r)

    def child(self) -> Item:
        D = ANCHOR_RADICANDS[-1]
        path = self.ctx.out / "tmp" / "child-check.json"
        path.write_text(periodic_document(*full_expansion(D)))
        return Item("child", "check", ("check", str(path)), None, 0)


# ---------------------------------------------------------------------------
# rational_chain: Fraction route -> verdict -> finite certificate -> check

# 26 sizes from 500 to 3000 bits in a scrambled order, so that any stretch
# of items, and the median of a run, covers the sizes evenly
RATIONAL_BITS = tuple(500 + 100 * ((7 * i) % 26) for i in range(26))


def rational_item(item_id: str, a: Fraction, b: Fraction) -> Item:
    x = a / b
    quotients, _ = division_chain(x.numerator, x.denominator)
    return Item(item_id, "rational", (a, b), quotients, len(quotients))


class RationalChain(Workload):
    name = "rational_chain"

    def items(self, rng):
        yield from in_cycles([rational_item("anchor-2^7000:3^4000", *ANCHOR_PAIR)], 1)
        pairs = (rational_item(f"{i}", *rational_pair(rng, RATIONAL_BITS[i % len(RATIONAL_BITS)]))
                 for i in itertools.count())
        yield from in_cycles(pairs, len(RATIONAL_BITS))

    def run(self, item: Item, tr) -> tuple:
        a, b = item.args
        with tr.span("engine.anthyphairesis.rational", item.id) as sp:
            trace = A.anthyphairesis(a, b)
            sp.n = len(trace.quotients)
        with tr.span("engine.verdict", item.id):
            v = A.verdict(trace)
        with tr.span("certificates.finite_anth_certificate", item.id) as sp:
            cert = A.finite_anth_certificate(*v.ratio)
            sp.n = len(cert.quotients)
        with tr.span("certificates.check", item.id) as sp:
            ok = A.check(cert)
            sp.n = len(cert.quotients)
        return trace, v, cert, ok

    def verify(self, item: Item, result) -> str | None:
        trace, v, cert, ok = result
        a, b = item.args
        if list(trace.quotients) != item.expect or list(cert.quotients) != item.expect:
            return "quotients differ from the divmod chain"
        if Fraction(*v.ratio) != a / b:
            return "ratio differs from a / b"
        if cert.gcd != 1 or not ok:
            return "finite certificate does not verify"
        return None

    def extras(self, item: Item, result, tr: Tracer) -> str | None:
        m, n = result[1].ratio
        with tr.span("euclid.anth_nat", item.id) as sp:
            nat = A.anth_nat(m, n)
            sp.n = len(nat.quotients)
        return None if list(nat.quotients) == item.expect else "anth_nat disagrees"

    def peak(self):
        item = rational_item("peak", *ANCHOR_PAIR)
        return lambda: self.run(item, NULL), lambda r: self.verify(item, r)

    def child(self) -> Item:
        m, n = (x.numerator for x in ANCHOR_PAIR)
        return Item("child", "pair", ("pair", str(m), str(n), "--json"), finite_document(m, n), 0)


# ---------------------------------------------------------------------------
# cli_session: `python -m anthyphairesis` anth -> check -> table, one at a time

CLI_ANTH_SCHEDULE = ((10, 3400, 5000), (10, 5000, 7500), (10, 7500, 11000))
CLI_TABLE_ROWS = 30


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    hwm_kb: int


class CliSession(Workload):
    name = "cli_session"
    tail_percentile = 60

    @staticmethod
    def anth_item(item_id: str, D: int, a0: int, period: list[int], stdout: Path | None = None) -> Item:
        args = ("anth", str(D), "--json")
        return Item(item_id, "anth", args, periodic_document(D, a0, period), 1 + len(period),
                    stdout=stdout)

    def items(self, rng):
        for cycle in itertools.count():
            if cycle == 0:
                D = ANCHOR_RADICANDS[1]
                found = full_expansion(D)
            else:
                found = radicand(rng, *CLI_ANTH_SCHEDULE[cycle % len(CLI_ANTH_SCHEDULE)])
            path = self.ctx.out / "tmp" / f"cli-{cycle % 4}.json"
            anth = self.anth_item(f"{cycle}-anth", *found, stdout=path)
            yield anth
            yield Item(f"{cycle}-check", "check", ("check", str(path)), None, anth.quotients)
            lo = rng.randrange(2, 3000)
            table = self.table_item(f"{cycle}-table", lo, lo + CLI_TABLE_ROWS - 1)
            table.ends_cycle = True
            yield table

    @staticmethod
    def table_item(item_id: str, lo: int, hi: int) -> Item:
        rows = {C: table_row(C) for C in range(lo, hi + 1)}
        args = ("table", "--from", str(lo), "--to", str(hi), "--json")
        return Item(item_id, "table", args, rows, sum(len(r["quotients"]) for r in rows.values()))

    def run(self, item: Item, tr) -> CliResult:
        stdout = item.stdout or self.ctx.out / "tmp" / "cli-stdout.txt"
        with tr.span(f"cli.{item.kind}", item.id) as sp:
            result = spawn(self.ctx, item.args, stdout)
            sp.n = len(result.stdout)
        return result

    def verify(self, item: Item, r: CliResult) -> str | None:
        if r.code != 0:
            return f"exit code {r.code}: {r.stderr.strip()[-200:]}"
        if item.kind in ("anth", "pair"):
            return None if r.stdout == item.expect else "certificate differs from the oracle's"
        if item.kind == "check":
            return None if r.stdout == "OK: periodic_anth certificate verifies\n" else "check output"
        if item.kind == "startup":
            return None if r.stdout == "gcd(1, 1) = 1\n" else "gcd output"
        rows = json.loads(r.stdout)["rows"]
        got = {int(row["C"]): {
            "is_square": row["is_square"],
            "quotients": [int(q) for q in row["expansion"]["quotients"]],
            "parity": row["parity"]["status"],
            "residue": row["residue"]["status"],
        } for row in rows if row["oracle"] != row["is_square"]
            and row["verdict"] == ("commensurable" if row["is_square"] else "incommensurable")}
        return None if got == item.expect and len(rows) == len(got) else "table rows differ"

    def extras(self, item: Item, result: CliResult, tr: Tracer) -> str | None:
        if item.kind == "anth":
            startup = Item(item.id + "-startup", "startup", ("gcd", "1", "1"))
            return self.verify(startup, self.run(startup, tr))
        if item.kind == "table":
            return replay_table(item, tr)
        return None

    def peak(self):
        D = ANCHOR_RADICANDS[1]
        item = self.anth_item("peak", *full_expansion(D))

        def in_process() -> CliResult:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = anthyphairesis.cli.run(list(item.args))
            return CliResult(code, out.getvalue(), "", 0)

        return in_process, lambda r: self.verify(item, r)

    def child(self) -> None:
        return None  # the session's own calls are the children


def replay_table(item: Item, tr: Tracer) -> str | None:
    """Run a table window in process and check it, prover by prover."""
    lo, hi = int(item.args[2]), int(item.args[4])
    with tr.span("reconstructions.theodorus_table", item.id) as sp:
        rows = A.theodorus_table(lo, hi)
        sp.n = len(rows)
    status = {A.Proved: "proved", A.Inconclusive: "inconclusive", A.NotApplicable: "not_applicable"}
    for row in rows:
        want = item.expect[row.C]
        if row.is_square != want["is_square"] or list(row.anth.quotients) != want["quotients"]:
            return f"theodorus_table row {row.C} differs from the oracle"
        if row.is_square:
            continue
        with tr.span("reconstructions.parity_proof", item.id):
            parity = A.parity_proof(row.C)
        with tr.span("reconstructions.residue_prover", item.id):
            residue = A.residue_prover(row.C)
        if (status[type(parity)], status[type(residue)]) != (want["parity"], want["residue"]):
            return f"prover outcome for C={row.C} differs from the oracle"
    return None


def spawn(ctx: Ctx, args: tuple, stdout_path: Path) -> CliResult:
    """Run the CLI once, wait for it, and return its output and peak RSS."""
    err_path = ctx.out / "tmp" / "cli-stderr.txt"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-c", _HWM_WRAPPER, *args],
                                stdout=out, stderr=err, cwd=ctx.root, env=ctx.env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
    stderr = err_path.read_text()
    hwm_kb = 0
    head, _, last = stderr.rstrip("\n").rpartition("\n")
    if last.startswith(_HWM_MARK):
        hwm_kb, stderr = int(last.split()[1]), head
    return CliResult(code, stdout_path.read_text(), stderr, hwm_kb)


WORKLOADS = {w.name: w for w in (EmitLong, VerifyCorpus, RationalChain, CliSession)}


# ---------------------------------------------------------------------------
# the anchor pass: every layer once, at the ROADMAP's reference inputs


def anchor_pass(ctx: Ctx, tr: Tracer, rng) -> tuple[dict, list[str], int]:
    """Traced runs only.  Returns named readings, failures and operations."""
    failures: list[str] = []
    ops = 0

    def check(err: str | None, what: str) -> None:
        nonlocal ops
        ops += 1
        if err:
            failures.append(f"anchor {what}: {err}")

    def ms(item_id: str, name: str) -> float:
        return 1e3 * sum(s.end - s.start for s in tr.spans if s.item == item_id and s.name == name)

    def best(name: str, value: float) -> None:
        readings[name] = min(readings.get(name, value), value)

    readings: dict[str, float] = {}
    emit, verify, rational = EmitLong(ctx), VerifyCorpus(ctx), RationalChain(ctx)
    for rep in range(ANCHOR_REPEATS):
        for D, label in zip(ANCHOR_RADICANDS, ("1e8p3", "1e10p7", "1e12p3")):
            item = sqrt_item(f"anchor-{label}-{rep}", *full_expansion(D))
            result = emit.run(item, tr)
            check(emit.verify(item, result), f"emit sqrt({D})")
            check(emit.extras(item, result, tr), f"replay sqrt({D})")
            doc = document_item(item.id, "periodic", result[2], item.quotients)
            check(verify.verify(doc, verify.run(doc, tr)), f"check sqrt({D})")
            prefix = f"anchor.sqrt_{label}"
            walk = ms(item.id, "engine.anthyphairesis")
            best(f"{prefix}.walk_ms", walk)
            best(f"{prefix}.us_per_step", 1e3 * walk / item.quotients)
            best(f"{prefix}.cert_ms", ms(item.id, "certificates.periodic_anth_certificate"))
            best(f"{prefix}.check_ms", ms(item.id, "certificates.check"))

        item = rational_item(f"anchor-rational-{rep}", *ANCHOR_PAIR)
        result = rational.run(item, tr)
        check(rational.verify(item, result), "2^7000 : 3^4000")
        check(rational.extras(item, result, tr), "anth_nat 2^7000 : 3^4000")
        best("anchor.rat_2p7000_3p4000.engine_ms", ms(item.id, "engine.anthyphairesis.rational"))
        best("anchor.rat_2p7000_3p4000.anth_nat_ms", ms(item.id, "euclid.anth_nat"))

    for source in (10**8 + 3, "finite"):
        if source == "finite":
            m, n = (x.numerator for x in ANCHOR_PAIR)
            text = finite_document(m, n)
        else:
            text = periodic_document(*full_expansion(source))
        doc = document_item(f"anchor-tampered-{source}", "tampered", tamper(text, rng), 0)
        doc.tampered = True
        check(verify.verify(doc, verify.run(doc, tr)), f"tampered {source}")

    for rep in range(ANCHOR_REPEATS):
        table = CliSession.table_item(f"anchor-table-{rep}", *ANCHOR_TABLE)
        check(replay_table(table, tr), "theodorus_table(2, 2000)")
        best("anchor.table_2_2000.ms", ms(table.id, "reconstructions.theodorus_table"))

    cli = CliSession(ctx)
    D = ANCHOR_RADICANDS[0]
    path = ctx.out / "tmp" / "anchor-cli.json"
    anth = CliSession.anth_item("anchor-anth", *full_expansion(D), stdout=path)
    calls = [Item(f"anchor-startup-{k}", "startup", ("gcd", "1", "1")) for k in range(3)]
    calls += [anth, Item("anchor-check", "check", ("check", str(path)), None, anth.quotients),
              CliSession.table_item("anchor-cli-table", 2, 40)]
    for call in calls:
        with tr.span("item", call.id):
            result = cli.run(call, tr)
        check(cli.verify(call, result), f"cli {' '.join(call.args)}")
    return readings, failures, ops
