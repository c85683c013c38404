"""Command line front end.

One subcommand per report: gap sets, regime classification, the sharp
constant, extremal witnesses, best inhomogeneous approximation, bit
sequences, diversity scans, the crossing witness, the value grids, the
oracle suite, and witness convergence tables. Reports go to stdout (or
--out) as JSON or CSV.

Syntax: `badapprox SUB --name value ...`, where each option is given by
its full name as `--name value` or `--name=value`, in any order; when an
option is repeated, the last one wins. `badapprox -h` lists the
subcommands and `badapprox SUB -h` the options of one; both exit 0.
Every subcommand reads its options off one table, `_COMMANDS`.

Numbers that `fb` and `kron` print as JSON numbers (CSV fields) must be
zero or lie between the smallest normal double and the largest finite
one once rounded; any other value is a domain error, since a double
would print it as inf or as a false 0.

Exit codes: 0 success, 1 domain error (bad mathematical input, or an
input that needs more memory than the process may allocate), 2 a
verified bound or invariant failed, 64 usage error.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
from .render import DEFAULT_SIG_DIGITS, _json_str, _ratios_str, decimal_str
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
    """A malformed command line, such as an unknown option or a bad value: exit 64."""


def _int_in(low, high):
    """Converter for integers in [low, high]; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if value > high:
            raise ValueError(f"must be <= {high}, got {value}")
        return value

    return parse


_int = _int_in(-float("inf"), float("inf"))


def _format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(f"invalid choice: {text!r} (choose from json, csv)")
    return text


def _parse_theta(text: str) -> CFSpec:
    try:
        return CFSpec.from_json(text) if text.lstrip().startswith("{") else preset(text)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _parse_beta(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _num(value, sig: int, field: str) -> float:
    """Value rounded to sig digits, as a JSON number.

    A nonzero value whose double would be infinite or below the smallest
    normal double is a domain error: printed, it would read inf or a false 0.
    """
    text = decimal_str(value, sig)
    if text != "0" and not sys.float_info.min <= abs(float(text)) <= sys.float_info.max:
        raise DomainError(f"{field} {decimal_str(value, 3)} is outside the normal range of a double")
    return float(text)


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


_TOO_LONG = "the report holds an integer too long for Python to print"


def _printed(render, *args, **kwargs):
    """render(*args, **kwargs), where str() of an integer past Python's digit
    limit (4300 by default) is a domain error, not a traceback."""
    try:
        return render(*args, **kwargs)
    except ValueError as exc:
        raise DomainError(_TOO_LONG) from exc


def _refuse_unprintable(bound: int, stage: int) -> None:
    """Raise _printed's DomainError before any convergent is built when the
    extremal witness for this bound and stage has an N too long to print.

    For theta = [0; (B, 1)], q_{2j} = q_{2j-1} + q_{2j-2} >= (B + 1)*q_{2j-2},
    so q_{2n} >= (B + 1)^n. For B >= 2, N = q_{2n-1} + ((B + 2)//2)*q_{2n} - 2
    >= ((B + 2)//2)*q_{2n}, as q_{2n-1} >= q_1 = B, and (B + 2)//2 >= (B +
    1)/2. So N >= (B + 1)^(n+1)/2 > 10^(k*(n+1))/2 with k = len(str(B)) - 1,
    and N has at least k*(n+1) digits, which str() refuses once that product
    passes the limit (0: no limit). Stages past MAX_STAGE are left to
    extremal_witness's own refusal.
    """
    # Pythons before 3.10.7 have no limit and no getter for it.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if bound >= 2 and limit and stage <= MAX_STAGE and (stage + 1) * (len(str(bound)) - 1) > limit:
        raise DomainError(_TOO_LONG)


def _csv(rows) -> str:
    buf = io.StringIO()
    _printed(csv.writer(buf, lineterminator="\n").writerows, rows)
    return buf.getvalue()


def _json(obj) -> str:
    return _printed(_json_str, obj) + "\n"


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
    # Each prediction is a numerator over the gap set's q in lowest terms,
    # so all three render in one run over q, as the lengths do.
    q = gs.denominator
    obj = {
        "n": args.n,
        "k": tag.k,
        "l": tag.l,
        "case": tag.case,
        "gaps": gs.length_strs(sig),
        "predicted": _ratios_str([p.numerator * (q // p.denominator) for p in predicted], q, sig),
        "matches": ok,
    }
    return _json(obj), not ok


def cmd_fb(args) -> tuple[str, bool]:
    f = gap_constant(args.b)
    lower, upper = gap_constant_bounds(args.b)
    sig = args.precision_digits
    obj = {
        "f": _printed(_symbolic, f),
        "decimal": _num(f, sig, "decimal"),
        "lower": _num(lower, sig, "lower"),
        "upper": _num(upper, sig, "upper"),
    }
    return _flat(obj, args.format), False


def cmd_extremal(args) -> tuple[str, bool]:
    sig = args.precision_digits
    _refuse_unprintable(args.b, args.n)
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
    sol = solve(cf, beta, args.n)
    obj = {
        "n": sol.n,
        "p": sol.p,
        "error": _num(sol.achieved, sig, "error"),
        "bound": _num(sol.bound, sig, "bound"),
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
    _refuse_unprintable(args.b, args.nmax)
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


# ---- option table -----------------------------------------------------

_REQUIRED = object()  # the default of an option that must be given


class _Opt(NamedTuple):
    convert: Callable[[str], object]
    help: str
    default: object = _REQUIRED


_OUT = _Opt(str, "write the report to this path instead of stdout", None)


def _output(fmt: str = "json") -> dict[str, _Opt]:
    # Rendering takes str() of a sig-digit integer, which Python refuses
    # past 4300 digits; 1000 digits stay well inside that and fast.
    digits = _Opt(_int_in(1, 1000), "significant digits in decimal output (1 to 1000)", DEFAULT_SIG_DIGITS)
    return {"--format": _Opt(_format, "json or csv", fmt), "--out": _OUT, "--precision-digits": digits}


_THETA = _Opt(str, "preset golden, sqrt2 or extremal:B, or JSON {a0, prefix, period}")
_N = _Opt(_int, "number of multiples N")
_B = _Opt(_int, "quotient bound B")
_STAGE = _Opt(_int, "witness stage")

# Subcommand -> (handler, help, options). A handler reads each option as the
# attribute named after it: --precision-digits is args.precision_digits.
_COMMANDS = {
    "gaps": (cmd_gaps, "gap set of {theta}, ..., {N theta}", {"--theta": _THETA, "--n": _N, **_output()}),
    "regime": (cmd_regime, "bracket classification and predicted gaps",
               {"--theta": _THETA, "--n": _N, **_output()}),
    "fb": (cmd_fb, "sharp constant for a quotient bound", {"--b": _B, **_output()}),
    "extremal": (cmd_extremal, "witness with N*H near the constant", {"--b": _B, "--n": _STAGE, **_output()}),
    "kron": (cmd_kron, "best n with n*theta near beta mod 1",
             {"--theta": _THETA, "--beta": _Opt(str, "rational target p/q in [0,1)"), "--n": _N, **_output()}),
    "sturmian": (cmd_sturmian, "characteristic bit sequence",
                 {"--theta": _THETA, "--n": _Opt(_int, "number of bits"), **_output()}),
    "diversity": (cmd_diversity, "agreement bounds over residue classes",
                  {"--theta": _THETA, "--b": _Opt(_int, "quotient bound to certify"),
                   "--rmax": _Opt(_int, "largest residue class r"), **_output("csv")}),
    "witness": (cmd_witness, "golden crossing witness and ratio report", {"--n": _STAGE, **_output()}),
    "arrays": (cmd_arrays, "the two golden value grids", {"--n": _Opt(_int, "grid stage"), **_output()}),
    # A case of each family takes about a millisecond, so the cap runs in
    # minutes; an uncapped count could run until the process is killed.
    "verify": (cmd_verify, "run the brute-force oracle suite",
               {"--cases": _Opt(_int_in(0, 100000), "cases per oracle family (0 to 100000)", 50),
                "--seed": _Opt(_int, "seed of the random cases", 20260822), "--out": _OUT}),
    "convergence": (cmd_convergence, "N*H against the constant, stage by stage",
                    {"--b": _B, "--nmax": _Opt(_int, "last witness stage"), **_output("csv")}),
}
_HELP = ("-h", "--help")


def _help(args) -> tuple[str, bool]:
    """Usage text of the whole command (args.sub None) or of one subcommand."""
    if args.sub is None:
        lines = ["usage: badapprox SUB [--name value ...]", "", __doc__.split("\n\n")[0], "", "subcommands:"]
        lines += [f"  {name:<12} {row[1]}" for name, row in _COMMANDS.items()]
        lines += ["", "Run 'badapprox SUB -h' for the options of one subcommand."]
    else:
        _, text, options = _COMMANDS[args.sub]
        lines = [f"usage: badapprox {args.sub} [--name value ...]", "", text, "", "options:"]
        notes = {_REQUIRED: " (required)", None: ""}
        lines += [f"  {flag:<20} {opt.help}{notes.get(opt.default, f' (default {opt.default})')}"
                  for flag, opt in options.items()]
    return "\n".join(lines) + "\n", False


def _parse(argv: list[str]):
    """(handler, arguments) for `SUB --name value ...`; -h or --help gets _help."""
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in _HELP:
            return _help, SimpleNamespace(sub=None, out=None)
        what = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand"
        raise UsageError(f"{what}; choose from {', '.join(_COMMANDS)}")
    sub, words, values = argv[0], iter(argv[1:]), {}
    handler, _, options = _COMMANDS[sub]
    for word in words:
        if word in _HELP:
            return _help, SimpleNamespace(sub=sub, out=None)
        flag, eq, value = word.partition("=")
        if flag not in options:
            raise UsageError(f"{sub}: unknown option {flag!r}" if word.startswith("-") else f"{sub}: stray word {word!r}")
        value = value if eq else next(words, None)
        if value is None:
            raise UsageError(f"argument {flag}: expected one value")
        try:
            values[flag] = options[flag].convert(value)
        except ValueError as exc:
            raise UsageError(f"argument {flag}: {exc}") from None
    missing = [flag for flag, opt in options.items() if opt.default is _REQUIRED and flag not in values]
    if missing:
        raise UsageError(f"{sub}: the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{f[2:].replace("-", "_"): values.get(f, o.default) for f, o in options.items()})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        text, failed = handler(args)
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
