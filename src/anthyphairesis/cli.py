"""Command-line front end.

Exit codes: 0 success, 1 a prover answered Inconclusive, 2 invalid input
(including certificates that fail to parse or verify), 3 internal invariant
failure (including an exhausted step budget).  ANTH_MAX_STEPS overrides the
engine's step budget in `anth`, `pair`, `certify` and `table`.  `convergents`
takes only the first -n quotients, so it runs no periodicity search and has
no budget.

JSON mode emits exactly one document per invocation; where the natural
output is a certificate, the document is exactly the certificate wire
format, so it can be fed straight back to `check`.  All integers in JSON
output are decimal strings (the certificate convention), never floats.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from . import certificates
from .certificates import CertificateError, _write_int, check, parse, serialize, to_document
from .convergents import convergents, pell_residual
from .engine import (
    Commensurable,
    EventuallyPeriodic,
    _read_quotients,
    anthyphairesis,
    verdict,
)
from .errors import DomainError, InternalInvariantError, require_int
from .euclid import gcd_of
from .reconstructions import (
    Inconclusive,
    NotApplicable,
    Proved,
    ProofOutcome,
    _anth_certificate,
    modern_oracle,
    parity_proof,
    residue_prover,
    theodorus_table,
)
from .surd import isqrt, make_sqrt

ENV_BUDGET = "ANTH_MAX_STEPS"


def _env_max_steps() -> Optional[int]:
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{ENV_BUDGET} must be an integer, got {raw!r}") from None
    return require_int(value, ENV_BUDGET, 1)


def _parse_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and re.search(f"[0-9]{{{limit + 1}}}", text):
            raise DomainError(
                f"operand of {len(text)} characters is past the {limit}-digit "
                "limit for integer string conversion"
            ) from None
        raise DomainError(f"not a fraction: {text!r} (expected p or p/q)") from None
    return value


def _fmt_expansion(
    quotients: tuple[int, ...], preperiod_len: Optional[int], period_len: Optional[int]
) -> str:
    digits = [_write_int(q, "quotient") for q in quotients]
    if period_len is None:
        head, rest = digits[0], digits[1:]
        if not rest:
            return f"[{head}]"
        return f"[{head}; {', '.join(rest)}]"
    pre = ", ".join(digits[:preperiod_len])
    per = ", ".join(digits[preperiod_len : preperiod_len + period_len])
    return f"[{pre}; ({per})]"


def _fmt_trace(trace) -> str:
    t = trace.termination
    if isinstance(t, EventuallyPeriodic):
        return _fmt_expansion(trace.quotients, t.preperiod_len, t.period_len)
    return _fmt_expansion(trace.quotients, None, None)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _outcome_document(outcome: ProofOutcome) -> dict:
    if isinstance(outcome, Proved):
        return {"status": "proved", "certificate": to_document(outcome.certificate)}
    if isinstance(outcome, Inconclusive):
        return {"status": "inconclusive", "reason": outcome.reason}
    return {"status": "not_applicable", "reason": outcome.reason}


def _outcome_text(outcome: ProofOutcome) -> str:
    if isinstance(outcome, Proved):
        cert = outcome.certificate
        if isinstance(cert, certificates.ResidueDescentCertificate):
            return f"proved ({cert.class_label})"
        return "proved"
    if isinstance(outcome, Inconclusive):
        return f"inconclusive ({outcome.reason})"
    return "n/a"


def _cmd_anth(args) -> int:
    trace = anthyphairesis(make_sqrt(args.C), Fraction(1), _env_max_steps())
    cert = _anth_certificate(trace)
    if args.json:
        print(serialize(cert), end="")
        return 0
    shown = _fmt_trace(trace)
    if trace.is_finite:
        steps = trace.steps_executed
        print(f"sqrt({args.C}) = {isqrt(args.C)} = {shown}")
        print(
            "verdict: commensurable with 1 "
            f"(finite anthyphairesis, {steps} division{'' if steps == 1 else 's'})"
        )
    else:
        t = trace.termination
        print(f"sqrt({args.C}) = {shown}")
        print(
            "verdict: incommensurable with 1 (anthyphairesis eventually periodic: "
            f"preperiod {t.preperiod_len}, period {t.period_len})"
        )
    return 0


def _cmd_pair(args) -> int:
    a = _parse_fraction(args.A)
    b = _parse_fraction(args.B)
    trace = anthyphairesis(a, b, _env_max_steps())
    v = verdict(trace)
    assert isinstance(v, Commensurable)  # rational pairs always terminate
    m, n = v.ratio
    if args.json:
        print(serialize(certificates.finite_anth_certificate(m, n)), end="")
        return 0
    print(f"anth({args.A}, {args.B}) = {_fmt_trace(trace)}")
    m, n = _write_int(m, "m"), _write_int(n, "n")
    print(
        f"verdict: commensurable; ratio {m} : {n}; "
        f"common measure = b/{n} (measures a {m} times, b {n} times)"
    )
    return 0


def _cmd_gcd(args) -> int:
    g = gcd_of(args.M, args.N)
    hi, lo = max(args.M, args.N), min(args.M, args.N)
    if args.trace or args.json:
        if lo < 1 or hi == lo:
            raise DomainError(
                "the division chain needs two distinct positive values; "
                f"got {args.M} and {args.N}"
            )
        cert = certificates.finite_anth_certificate(hi, lo)
        if args.json:
            print(serialize(cert), end="")
            return 0
        a, b = hi, lo
        for q in cert.quotients:
            r = a - q * b
            print(f"{a} = {q}*{b} + {r}" if r else f"{a} = {q}*{b}")
            a, b = b, r
    print(f"gcd({args.M}, {args.N}) = {g}")
    return 0


def _cmd_convergents(args) -> int:
    require_int(args.count, "-n", 1)
    x = make_sqrt(args.C)
    if isinstance(x, Fraction):  # square C: the chain is one exact division
        quots = [x.numerator]
    else:  # only the first -n quotients, so no periodicity search and no budget
        quots = list(itertools.islice(_read_quotients(x), args.count))
    cs = convergents(quots, len(quots))
    if args.json:
        doc = {
            "C": str(args.C),
            "quotients": [str(q) for q in quots],
            "convergents": [
                {
                    "index": str(c.index),
                    "p": _write_int(c.p, "p"),
                    "q": _write_int(c.q, "q"),
                    "pell_residual": str(pell_residual(c.p, c.q, args.C)),
                }
                for c in cs
            ],
        }
        _print_json(doc)
        return 0
    if len(cs) < args.count:
        noun = "convergent exists" if len(cs) == 1 else "convergents exist"
        print(f"(finite expansion: only {len(cs)} {noun})")
    ratios = [f"{_write_int(c.p, 'p')}/{_write_int(c.q, 'q')}" for c in cs]
    width = max(len(r) for r in ratios)
    print(f"{'k':>3}  {'p/q':<{width}}  p^2 - {args.C}*q^2")
    for c, r in zip(cs, ratios):
        print(f"{c.index:>3}  {r:<{width}}  {pell_residual(c.p, c.q, args.C)}")
    return 0


def _cmd_certify(args) -> int:
    ms = _env_max_steps()
    if args.method == "anth":
        trace = anthyphairesis(make_sqrt(args.C), Fraction(1), ms)
        cert = _anth_certificate(trace)
        if args.json:
            print(serialize(cert), end="")
        elif trace.is_finite:
            print(f"sqrt({args.C}) = {isqrt(args.C)}: commensurable (finite chain)")
        else:
            t = trace.termination
            print(
                f"proved: sqrt({args.C}) incommensurable "
                f"(state recurrence, preperiod {t.preperiod_len}, period {t.period_len})"
            )
        return 0
    if args.method == "oracle":
        irrational = modern_oracle(args.C)
        if args.json:
            _print_json({"method": "oracle", "C": str(args.C), "irrational": irrational})
        else:
            print(f"sqrt({args.C}) irrational: {'yes' if irrational else 'no'}")
        return 0
    outcome = parity_proof(args.C) if args.method == "parity" else residue_prover(args.C)
    if args.json:
        if isinstance(outcome, Proved):
            print(serialize(outcome.certificate), end="")
        else:
            _print_json(
                {"method": args.method, "C": str(args.C), **_outcome_document(outcome)}
            )
    else:
        print(f"C = {args.C}: {args.method} method {_outcome_text(outcome)}")
    return 1 if isinstance(outcome, Inconclusive) else 0


def _cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    cert = parse(text)
    if check(cert):
        print(f"OK: {certificates.KINDS[type(cert)]} certificate verifies")
        return 0
    print(f"FAIL: {certificates.KINDS[type(cert)]} certificate does not verify", file=sys.stderr)
    return 2


def _row_document(row) -> dict:
    expansion: dict = {
        "quotients": [str(q) for q in row.anth.quotients],
        "periodic": row.anth.periodic,
    }
    if row.anth.periodic:
        expansion["preperiod_len"] = str(row.anth.preperiod_len)
        expansion["period_len"] = str(row.anth.period_len)
    return {
        "C": str(row.C),
        "is_square": row.is_square,
        "expansion": expansion,
        "verdict": "incommensurable" if row.anth.periodic else "commensurable",
        "parity": _outcome_document(row.parity),
        "residue": _outcome_document(row.residue),
        "oracle": row.oracle,
        "certificate": to_document(row.certificate),
    }


def _cmd_table(args) -> int:
    rows = theodorus_table(args.frm, args.to, _env_max_steps())
    if args.json:
        _print_json(
            {
                "from": str(args.frm),
                "to": str(args.to),
                "rows": [_row_document(r) for r in rows],
            }
        )
        return 0
    cells = []
    for r in rows:
        cells.append(
            (
                str(r.C),
                _fmt_expansion(r.anth.quotients, r.anth.preperiod_len, r.anth.period_len),
                "incommensurable" if r.anth.periodic else "commensurable",
                _outcome_text(r.parity),
                _outcome_text(r.residue),
                "irrational" if r.oracle else "rational",
            )
        )
    header = ("C", "expansion", "verdict", "parity", "residue", "oracle")
    widths = [
        max(len(header[i]), max(len(c[i]) for c in cells)) for i in range(len(header))
    ]
    def fmt_line(parts):
        return "  ".join(p.ljust(widths[i]) for i, p in enumerate(parts)).rstrip()
    print(fmt_line(header))
    for c in cells:
        print(fmt_line(c))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="anthyph",
        description=(
            "Exact anthyphairesis (continued-fraction) engine over rationals and "
            "quadratic surds, with checkable (in)commensurability certificates."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("anth", help="expand sqrt(C) against the unit")
    sp.add_argument("C", type=int, help="the number under the square root")
    sp.add_argument("--json", action="store_true", help="emit the certificate document")
    sp.set_defaults(handler=_cmd_anth)

    sp = sub.add_parser("pair", help="expand a rational pair A > B > 0")
    sp.add_argument("A", help="larger magnitude, as p or p/q")
    sp.add_argument("B", help="smaller magnitude, as p or p/q")
    sp.add_argument("--json", action="store_true", help="emit the certificate document")
    sp.set_defaults(handler=_cmd_pair)

    sp = sub.add_parser("gcd", help="greatest common divisor by the division chain")
    sp.add_argument("M", type=int)
    sp.add_argument("N", type=int)
    sp.add_argument("--trace", action="store_true", help="print the division chain")
    sp.add_argument("--json", action="store_true", help="emit the certificate document")
    sp.set_defaults(handler=_cmd_gcd)

    sp = sub.add_parser("convergents", help="convergents p/q of sqrt(C)")
    sp.add_argument("C", type=int)
    sp.add_argument("-n", "--count", type=int, default=10, dest="count",
                    help="how many convergents (default 10)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_convergents)

    sp = sub.add_parser("certify", help="run one prover and emit its outcome")
    sp.add_argument("C", type=int)
    sp.add_argument(
        "--method",
        required=True,
        choices=("anth", "parity", "residue", "oracle"),
        help="which proof route to run",
    )
    sp.add_argument("--json", action="store_true", help="emit the certificate document")
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser("check", help="parse and verify a certificate file")
    sp.add_argument("file", help="path to a certificate JSON document")
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("table", help="survey a range of C side by side")
    sp.add_argument("--from", dest="frm", type=int, default=2, metavar="A",
                    help="first C (default 2)")
    sp.add_argument("--to", dest="to", type=int, default=17, metavar="B",
                    help="last C, inclusive (default 17)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_table)

    return p


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
