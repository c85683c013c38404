"""Command line front end.

One subcommand per report: gap sets, regime classification, the sharp
constant, extremal witnesses, best inhomogeneous approximation, bit
sequences, diversity scans, the crossing witness, the value grids, the
oracle suite, and witness convergence tables. Reports go to stdout (or
--out) as JSON or CSV.

Exit codes: 0 success, 1 domain error (bad mathematical input, or an
input that needs more memory than the process may allocate), 2 a
verified bound or invariant failed, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .cf import CFSpec, preset
from .errors import DomainError, VerificationError
from .gaps import (
    MAX_STAGE,
    extremal_witness,
    gap_constant,
    gap_constant_bounds,
    gap_set,
    verify_regime,
)
from .kronecker import solve
from .oracle import run_suite
from .quadratic import QuadraticNumber
from .render import DEFAULT_SIG_DIGITS, decimal_str
from .sturmian import (
    characteristic_bits,
    diversity_scan,
    fractional_grids,
    lower_bound_witness,
    witness_ratio_report,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_in(low: int, high: int):
    """Argument type for integers in [low, high]; anything else is a usage
    error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _parse_theta(text: str) -> CFSpec:
    if text.lstrip().startswith("{"):
        try:
            return CFSpec.from_json(text)
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
    try:
        return preset(text)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _parse_beta(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _num(value, sig: int):
    """Value rounded to sig digits, as a JSON-friendly number."""
    return float(decimal_str(value, sig))


def _display_radius(sig: int, n: int) -> Fraction:
    """Surrogate radius rho for reports of n multiples at sig digits.

    Under it a point or a gap moves by at most n*rho and the product n*H
    by at most n^2*rho = 10^-(sig+2)/16, a small fraction of a last digit,
    so a printed last digit can be one off only when the value lies that
    close to a rounding boundary.
    """
    return Fraction(1, 16 * max(n, 1) ** 2 * 10 ** (sig + 2))


def _symbolic(q: QuadraticNumber) -> str:
    """Exact form u+c/sqrt(d), more readable than nested fractions."""
    if q.is_rational:
        return str(q.a)
    c = q.b * q.d
    sign = "-" if c < 0 else "+"
    c = abs(c)
    if c.denominator == 1:
        tail = f"{c}/sqrt({q.d})"
    else:
        tail = f"{c.numerator}/({c.denominator}*sqrt({q.d}))"
    if q.a == 0:
        return tail if sign == "+" else "-" + tail
    return f"{q.a}{sign}{tail}"


def _csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _flat(obj: dict, fmt: str) -> str:
    """A one-record report: JSON, or a CSV header and one row."""
    return _csv([tuple(obj), tuple(obj.values())]) if fmt == "csv" else _json(obj)


# ---- subcommand handlers ----------------------------------------------


def cmd_gaps(args) -> tuple[str, bool]:
    cf = _parse_theta(args.theta)
    sig = args.precision_digits
    gs = gap_set(cf, args.n, min_radius=_display_radius(sig, args.n))
    if args.format == "csv":
        rows = [("gap", "multiplicity")]
        rows += [(s, m) for s, (_, m) in zip(gs.length_strs(sig), gs.gap_nums)]
        return _csv(rows), False
    return _json(gs.to_json_dict(sig)), False


def cmd_regime(args) -> tuple[str, bool]:
    cf = _parse_theta(args.theta)
    sig = args.precision_digits
    tag, gs, predicted, ok = verify_regime(
        cf, args.n, min_radius=_display_radius(sig, args.n)
    )
    if args.format == "csv":
        rows = [("n", "k", "l", "case", "matches"), (args.n, tag.k, tag.l, tag.case, ok)]
        return _csv(rows), not ok
    obj = {
        "n": args.n,
        "k": tag.k,
        "l": tag.l,
        "case": tag.case,
        "gaps": gs.length_strs(sig),
        "predicted": [decimal_str(p.center, sig) for p in predicted],
        "matches": ok,
    }
    return _json(obj), not ok


def cmd_fb(args) -> tuple[str, bool]:
    f = gap_constant(args.b)
    lower, upper = gap_constant_bounds(args.b)
    sig = args.precision_digits
    obj = {
        "f": _symbolic(f),
        "decimal": _num(f, sig),
        "lower": _num(lower, sig),
        "upper": _num(upper, sig),
    }
    return _flat(obj, args.format), False


def cmd_extremal(args) -> tuple[str, bool]:
    sig = args.precision_digits
    w = extremal_witness(args.b, args.n)
    w = w.at_radius(_display_radius(sig, w.count))
    obj = {
        "b": w.bound,
        "stage": w.n,
        "n": w.count,
        "k_surrogate": w.depth,
        "h": decimal_str(w.largest, sig),
        "product_nh": decimal_str(w.product, sig),
        "f": decimal_str(w.constant, sig),
        "gap_to_f": decimal_str(w.gap_to_f, sig),
    }
    return _flat(obj, args.format), False


def cmd_kron(args) -> tuple[str, bool]:
    cf = _parse_theta(args.theta)
    beta = _parse_beta(args.beta)
    sig = args.precision_digits
    sol = solve(cf, beta, args.n, min_radius=_display_radius(sig, args.n))
    obj = {
        "n": sol.n,
        "p": sol.p,
        "error": _num(sol.achieved, sig),
        "bound": _num(sol.bound, sig),
        "legacy_bound": sol.legacy_bound,
        "within_bound": sol.within_bound,
    }
    return _flat(obj, args.format), not sol.within_bound


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def cmd_sturmian(args) -> tuple[str, bool]:
    cf = _parse_theta(args.theta)
    bits = characteristic_bits(cf, args.n)
    if args.format == "csv":
        rows = [("i", "bit"), *enumerate(bits)]
        return _csv(rows), False
    obj = {"length": args.n, "bits": bits.translate(_BIT_DIGITS).decode("ascii")}
    return _json(obj), False


def cmd_diversity(args) -> tuple[str, bool]:
    cf = _parse_theta(args.theta)
    rows = diversity_scan(cf, args.b, args.rmax)
    failed = any(not row.passed for row in rows)
    if args.format == "json":
        obj = {
            "rows": [
                {
                    "r": row.r,
                    "max_agreement": row.max_agreement,
                    "bound": row.bound,
                    "pass": row.passed,
                }
                for row in rows
            ]
        }
        return _json(obj), failed
    table = [("r", "max_agreement", "bound", "pass")]
    for row in rows:
        k = "" if row.max_agreement is None else row.max_agreement
        table.append((row.r, k, row.bound, "true" if row.passed else "false"))
    return _csv(table), failed


def cmd_witness(args) -> tuple[str, bool]:
    rep = lower_bound_witness(args.n)
    sig = args.precision_digits
    w = rep.witness
    if args.format == "csv":
        rows = [
            ("stage", "r", "a", "b", "first_mismatch", "bound", "matches"),
            (args.n, w.r, w.a, w.b, w.first_mismatch, w.bound, rep.matches),
        ]
        return _csv(rows), False
    ratio = witness_ratio_report()
    approached = ratio.candidates[ratio.approached]
    other = ratio.candidates[1 - ratio.approached]
    obj = {
        "stage": args.n,
        "r": w.r,
        "a": w.a,
        "b": w.b,
        "first_mismatch": w.first_mismatch,
        "bound": w.bound,
        "candidate_low": rep.candidate_low,
        "candidate_high": rep.candidate_high,
        "matches": rep.matches,
        "mismatch_bits": list(rep.mismatch_bits),
        "crossing": {
            "i": rep.crossing_pair[0],
            "j": rep.crossing_pair[1],
            "lower": decimal_str(rep.crossing_lower, sig),
            "upper": decimal_str(rep.crossing_upper, sig),
            "unique": rep.unique_crossing,
        },
        "ratio": {
            "rows": [[n, decimal_str(v, sig)] for n, v in ratio.rows],
            "approached": decimal_str(approached, sig),
            "rejected": decimal_str(other, sig),
            "note": "the ratio tends to (5+sqrt(5))/10, not (10+sqrt(5))/10",
        },
    }
    return _json(obj), False


def cmd_arrays(args) -> tuple[str, bool]:
    g = fractional_grids(args.n)
    sig = args.precision_digits
    if args.format == "csv":
        rows = [("i", "j", "lower", "upper")]
        for i in range(g.rows):
            for j in range(g.cols):
                rows.append(
                    (i, j, decimal_str(g.lower[i][j], sig), decimal_str(g.upper[i][j], sig))
                )
        return _csv(rows), False
    obj = {
        "stage": g.n,
        "rows": g.rows,
        "cols": g.cols,
        "diff": decimal_str(g.diff, sig),
        "step_right": decimal_str(g.step_right, sig),
        "step_up": decimal_str(g.step_up, sig),
        "step_wrap": decimal_str(g.step_wrap, sig),
        "start": decimal_str(g.start, sig),
        "end": decimal_str(g.end, sig),
        "verified": True,
    }
    return _json(obj), False


def cmd_verify(args) -> tuple[str, bool]:
    rep = run_suite(cases=args.cases, seed=args.seed)
    lines = [
        json.dumps({"oracle": "gap_set", "cases": rep.gap_cases, "ok": rep.gap_cases == args.cases}),
        json.dumps({"oracle": "kronecker", "cases": rep.kronecker_cases, "ok": rep.kronecker_cases == args.cases}),
        json.dumps({"oracle": "agreement", "cases": rep.agreement_cases, "ok": rep.agreement_cases == args.cases}),
        json.dumps({"ok": rep.ok, "failures": list(rep.failures)}),
    ]
    return "\n".join(lines) + "\n", not rep.ok


def cmd_convergence(args) -> tuple[str, bool]:
    sig = args.precision_digits
    if args.nmax < 1:
        raise DomainError("witness stages are indexed from 1")
    if args.nmax > MAX_STAGE:
        raise DomainError(f"--nmax {args.nmax} is past MAX_STAGE = {MAX_STAGE}")
    table = [("n", "big_n", "product_nh", "f", "gap")]
    for stage in range(1, args.nmax + 1):
        w = extremal_witness(args.b, stage)
        w = w.at_radius(_display_radius(sig, w.count))
        shown = (decimal_str(v, sig) for v in (w.product, w.constant, w.gap_to_f))
        table.append((stage, w.count, *shown))
    if args.format == "json":
        header, *rows = table
        obj = {"rows": [dict(zip(header, row)) for row in rows]}
        return _json(obj), False
    return _csv(table), False


# ---- parser -----------------------------------------------------------


def _add_output(sp, fmt_default="json"):
    sp.add_argument("--format", choices=("json", "csv"), default=fmt_default)
    sp.add_argument("--out", help="write the report to this path instead of stdout")
    # Rendering takes str() of a sig-digit integer, which Python refuses
    # past 4300 digits; 1000 digits stay well inside that and fast.
    sp.add_argument(
        "--precision-digits",
        type=_int_in(1, 1000),
        default=DEFAULT_SIG_DIGITS,
        dest="precision_digits",
        help="significant digits in decimal output (1 to 1000)",
    )


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="badapprox", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("gaps", help="gap set of {theta}, ..., {N theta}")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_output(sp)
    sp.set_defaults(handler=cmd_gaps)

    sp = subs.add_parser("regime", help="bracket classification and predicted gaps")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_output(sp)
    sp.set_defaults(handler=cmd_regime)

    sp = subs.add_parser("fb", help="sharp constant for a quotient bound")
    sp.add_argument("--b", type=int, required=True)
    _add_output(sp)
    sp.set_defaults(handler=cmd_fb)

    sp = subs.add_parser("extremal", help="witness with N*H near the constant")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="witness stage")
    _add_output(sp)
    sp.set_defaults(handler=cmd_extremal)

    sp = subs.add_parser("kron", help="best n with n*theta near beta mod 1")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--beta", required=True, help="rational target p/q in [0,1)")
    sp.add_argument("--n", type=int, required=True)
    _add_output(sp)
    sp.set_defaults(handler=cmd_kron)

    sp = subs.add_parser("sturmian", help="characteristic bit sequence")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--n", type=int, required=True, help="number of bits")
    _add_output(sp)
    sp.set_defaults(handler=cmd_sturmian)

    sp = subs.add_parser("diversity", help="agreement bounds over residue classes")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--b", type=int, required=True, help="quotient bound to certify")
    sp.add_argument("--rmax", type=int, required=True)
    _add_output(sp, fmt_default="csv")
    sp.set_defaults(handler=cmd_diversity)

    sp = subs.add_parser("witness", help="golden crossing witness and ratio report")
    sp.add_argument("--n", type=int, required=True, help="witness stage")
    _add_output(sp)
    sp.set_defaults(handler=cmd_witness)

    sp = subs.add_parser("arrays", help="the two golden value grids")
    sp.add_argument("--n", type=int, required=True, help="grid stage")
    _add_output(sp)
    sp.set_defaults(handler=cmd_arrays)

    sp = subs.add_parser("verify", help="run the brute-force oracle suite")
    # A case of each family takes about a millisecond, so the cap runs in
    # minutes; an uncapped count could run until the process is killed.
    sp.add_argument(
        "--cases",
        type=_int_in(0, 100000),
        default=50,
        help="cases per oracle family (0 to 100000)",
    )
    sp.add_argument("--seed", type=int, default=20260822)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_verify)

    sp = subs.add_parser("convergence", help="N*H against the constant, stage by stage")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    _add_output(sp, fmt_default="csv")
    sp.set_defaults(handler=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, failed = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print("error: out of memory; the input needs more than this process may allocate",
              file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_VERIFY if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
