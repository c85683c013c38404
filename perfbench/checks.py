"""Correctness checks for CLI reports, run outside the timed region.

`check(call, rc, out, err)` returns None when the report is right and a
one-line reason otherwise. Every check compares against perfbench's own
reference mathematics (refmath); `oracle_sample` adds the package's
brute-force oracles on a seeded sample of the calls.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

import refmath
from refmath import Theta, close


def _resolution(sig: int, n: int) -> int:
    """Surrogate resolution far below the last displayed digit at size n."""
    return 10 ** (sig + 20) * max(n, 1) ** 3


def _csv(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


def _gap_rows(shown: list[tuple[str, int]], theta: Theta, n: int, sig: int) -> str | None:
    want = refmath.three_distance(theta, n, _resolution(sig, n))
    if [m for _, m in shown] != [m for _, m in want]:
        return f"gap multiplicities {[m for _, m in shown]} != {[m for _, m in want]}"
    for (g, _), (w, _) in zip(shown, want):
        if not close(g, w, sig):
            return f"gap {g} != {float(w)!r}"
    return None


def _check_gaps_csv(p, out):
    rows = _csv(out)
    if rows[0] != ["gap", "multiplicity"]:
        return "bad csv header"
    return _gap_rows([(g, int(m)) for g, m in rows[1:]], Theta.parse(p["theta"]), p["n"], p["sig"])


def _check_gaps_json(p, out):
    obj = json.loads(out)
    theta, n, sig = Theta.parse(p["theta"]), p["n"], p["sig"]
    if obj["n"] != n or len(obj["points"]) != n + 2:
        return "wrong point count"
    want = refmath.sorted_points(theta, n, _resolution(sig, n))
    for shown, true in zip(obj["points"], want):
        if not close(shown, true, sig):
            return f"point {shown} != {float(true)!r}"
    bad = _gap_rows([(g["length"], g["multiplicity"]) for g in obj["gaps"]], theta, n, sig)
    if bad:
        return bad
    h = refmath.three_distance(theta, n, _resolution(sig, n))[-1][0]
    if not close(obj["h"], h, sig) or not close(obj["product_nh"], n * h, sig):
        return "largest gap or product off"
    return None


def _check_regime(p, out):
    obj = json.loads(out)
    theta, n, sig = Theta.parse(p["theta"]), p["n"], p["sig"]
    k, l, _ = refmath.regime(theta, n)
    if (obj["n"], obj["k"], obj["l"]) != (n, k, l):
        return f"bracket (k, l) = ({obj['k']}, {obj['l']}) != ({k}, {l})"
    if obj["case"] != ("interval-1" if l == 0 else "interval-2") or obj["matches"] is not True:
        return "wrong case or unmatched prediction"
    res = _resolution(sig, n)
    gaps = [g for g, _ in refmath.three_distance(theta, n, res)]
    if len(obj["gaps"]) != len(gaps) or not all(close(s, t, sig) for s, t in zip(obj["gaps"], gaps)):
        return "gap lengths off"
    e_k, e_km1 = refmath.eta(theta, k, res), refmath.eta(theta, k - 1, res)
    if l == 0:
        predicted = [e_k, e_km1, e_k + e_km1]
    else:
        predicted = [e_k, e_km1 - l * e_k, e_km1 - (l - 1) * e_k]
    if len(obj["predicted"]) != 3 or not all(close(s, t, sig) for s, t in zip(obj["predicted"], predicted)):
        return "predicted gap values off"
    return None


def _witness_fields(b: int, stage: int, sig: int) -> tuple[int, Fraction, Fraction, Fraction]:
    """(N, H, f, f - N H) of the extremal witness, from refmath."""
    n = refmath.extremal_count(b, stage)
    h = refmath.three_distance(Theta((), (b, 1)), n, _resolution(sig, n))[-1][0]
    f = refmath.gap_constant(b)
    return n, h, f, f - n * h


def _witness_row_ok(shown: tuple, b: int, stage: int, sig: int) -> str | None:
    count, h, prod, f, gap = shown
    n, t_h, t_f, t_gap = _witness_fields(b, stage, sig)
    if int(count) != n:
        return f"stage {stage} count {count} != {n}"
    if h is not None and not close(h, t_h, sig):
        return f"stage {stage} largest gap off"
    # The product is computed under a surrogate deep enough for `sig` digits
    # of N*H; the difference to f inherits that absolute error.
    slack = Fraction(1, 10 ** (sig + 1))
    if not close(prod, n * t_h, sig) or not close(f, t_f, sig) or not close(gap, t_gap, sig, slack):
        return f"stage {stage} product, constant or difference off"
    if Fraction(gap) < 0:
        return f"stage {stage} product exceeds the constant"
    return None


def _check_extremal(p, out):
    obj = json.loads(out)
    if (obj["b"], obj["stage"]) != (p["b"], p["stage"]):
        return "echoed parameters differ"
    shown = (obj["n"], obj["h"], obj["product_nh"], obj["f"], obj["gap_to_f"])
    return _witness_row_ok(shown, p["b"], p["stage"], p["sig"])


def _check_convergence(p, out):
    rows = _csv(out)
    if rows[0] != ["n", "big_n", "product_nh", "f", "gap"] or len(rows) != p["nmax"] + 1:
        return "bad convergence table shape"
    for i, (stage, count, prod, f, gap) in enumerate(rows[1:], start=1):
        if int(stage) != i:
            return "stages out of order"
        bad = _witness_row_ok((count, None, prod, f, gap), p["b"], i, p["sig"])
        if bad:
            return bad
    return None


def _check_fb(p, out):
    obj = json.loads(out)
    b, sig = p["b"], p["sig"]
    f = refmath.gap_constant(b)
    if b <= len(refmath.CONSTANT_TABLE) and sig == 10 and obj["decimal"] != float(refmath.CONSTANT_TABLE[b - 1]):
        return f"f({b}) = {obj['decimal']} differs from the criterion-1 table"
    upper = b * (1 + 2 / refmath.sqrt5())
    if not (close(obj["decimal"], f, sig) and close(obj["lower"], Fraction(b, 4), sig) and close(obj["upper"], upper, sig)):
        return "constant or envelope off"
    return None


def _check_kron(p, out):
    obj = json.loads(out)
    theta, n_max, sig = Theta.parse(p["theta"]), p["n"], p["sig"]
    beta = Fraction(p["beta"])
    res = _resolution(sig, n_max) * beta.denominator**2
    n, pp, err = refmath.best_approximation(theta, beta, n_max, res)
    if (obj["n"], obj["p"]) != (n, pp):
        return f"minimizer ({obj['n']}, {obj['p']}) != ({n}, {pp})"
    bound = refmath.gap_constant(theta.bound) / (2 * n_max)
    if not close(obj["error"], err, sig) or not close(obj["bound"], bound, sig):
        return "error or bound off"
    if obj["legacy_bound"] != (theta.bound + 2) * n_max**2 or obj["within_bound"] is not True:
        return "legacy bound or verdict wrong"
    return None


def _check_sturmian(p, out):
    obj = json.loads(out)
    want = refmath.standard_word(Theta.parse(p["theta"]), p["n"])
    if obj["length"] != p["n"] or obj["bits"] != "".join("01"[b] for b in want):
        return "bits differ from the standard word"
    return None


def _check_diversity(p, out):
    rows = _csv(out)
    b, rmax = p["b"], p["rmax"]
    if rows[0] != ["r", "max_agreement", "bound", "pass"] or len(rows) != rmax:
        return "bad diversity table shape"
    theta = Theta.parse(p["theta"])
    window = 2 * (b + 2) ** 2 * rmax * rmax + 1
    bits = refmath.standard_word(theta, rmax * window)
    for r, (shown_r, k, bound, passed) in enumerate(rows[1:], start=2):
        window = 2 * (b + 2) ** 2 * r * r + 1
        want = refmath.max_first_mismatch(bits, r, window)
        if int(shown_r) != r or int(bound) != window - 1 or passed != "true" or k != str(want):
            return f"row r={r}: {k} vs {want}"
    return None


def _check_witness(p, out):
    obj = json.loads(out)
    n = p["stage"]
    r, a, b = refmath.lucas(2 * n), refmath.fibonacci(2 * n - 1) - 1, refmath.lucas(2 * n) - 1
    low = refmath.fibonacci(4 * n + 1) - refmath.fibonacci(2 * n + 1) - 1
    high = refmath.fibonacci(4 * n + 1) - refmath.fibonacci(2 * n) - 1
    bits = refmath.standard_word(Theta((), (1,)), r * (high + 2) + b + 1)
    k = next(k for k in range(high + 2) if bits[r * k + a] != bits[r * k + b])
    if k != refmath.WITNESS_FIRST_MISMATCH.get(n, k):
        return f"reference scan found {k}, not the known first mismatch"
    want = {"stage": n, "r": r, "a": a, "b": b, "first_mismatch": k, "bound": 18 * r * r,
            "candidate_low": low, "candidate_high": high, "matches": "low"}
    if any(obj[key] != value for key, value in want.items()):
        return f"witness fields differ from {want}"
    if obj["mismatch_bits"] != [bits[r * k + a], bits[r * k + b]]:
        return "mismatch bits differ"
    th, s5 = refmath.golden_theta(), refmath.sqrt5()
    cross = obj["crossing"]
    i, j = refmath.lucas(2 * n + 1) - 2, refmath.fibonacci(2 * n - 2)
    lower = th ** (2 * n - 1) - i * th ** (4 * n) + j * s5 * th ** (2 * n)
    if (cross["i"], cross["j"], cross["unique"]) != (i, j, True):
        return "crossing cell differs"
    if not close(cross["lower"], lower, 10) or not close(cross["upper"], lower + th ** (2 * n + 1), 10):
        return "crossing values off"
    ratio = obj["ratio"]
    rows = [[m, Fraction(refmath.fibonacci(4 * m + 1), refmath.lucas(2 * m) ** 2)] for m in range(2, 9)]
    if [m for m, _ in ratio["rows"]] != [m for m, _ in rows] or not all(
        close(s, t, 10) for (_, s), (_, t) in zip(ratio["rows"], rows)
    ):
        return "ratio rows off"
    if not close(ratio["approached"], (5 + s5) / 10, 10) or not close(ratio["rejected"], (10 + s5) / 10, 10):
        return "ratio limits off"
    return None


def _check_arrays(p, out):
    obj = json.loads(out)
    n = p["stage"]
    th, s5 = refmath.golden_theta(), refmath.sqrt5()
    if (obj["stage"], obj["rows"], obj["cols"], obj["verified"]) != (
        n, refmath.lucas(2 * n + 1) - 1, refmath.fibonacci(2 * n), True
    ):
        return "grid shape differs"
    want = {
        "diff": th ** (2 * n + 1),
        "step_right": s5 * th ** (2 * n),
        "step_up": th ** (4 * n),
        "step_wrap": th ** (2 * n + 1) + 2 * th ** (4 * n) + th ** (6 * n + 1),
        "start": 2 * th ** (4 * n) + th ** (6 * n + 1),
        "end": 1 - th ** (4 * n),
    }
    for key, value in want.items():
        if not close(obj[key], value, 10):
            return f"{key} off"
    return None


def _check_verify(p, out):
    lines = [json.loads(line) for line in out.splitlines()]
    cases = p["cases"]
    families = [(o["oracle"], o["cases"], o["ok"]) for o in lines[:3]]
    if families != [("gap_set", cases, True), ("kronecker", cases, True), ("agreement", cases, True)]:
        return f"suite families {families}"
    if lines[3] != {"ok": True, "failures": []}:
        return "suite reports failures"
    return None


_CHECKS = {
    "gaps_csv": _check_gaps_csv,
    "gaps_json": _check_gaps_json,
    "regime": _check_regime,
    "extremal": _check_extremal,
    "convergence": _check_convergence,
    "fb": _check_fb,
    "kron": _check_kron,
    "sturmian": _check_sturmian,
    "diversity": _check_diversity,
    "witness": _check_witness,
    "arrays": _check_arrays,
    "verify": _check_verify,
}


def check(call, rc: int | BaseException, out: str, err: str) -> str | None:
    """None if the call reached its documented outcome with a correct report."""
    if not isinstance(rc, int):
        return f"raised {rc!r}"
    if rc != call.exit_code:
        return f"exit {rc}, expected {call.exit_code}: {err.strip()[:200]}"
    if call.kind == "error":
        if out or not err.startswith(("error:", "usage error:")):
            return "error path printed a report or no error message"
        return None
    try:
        return _CHECKS[call.kind](call.params, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def oracle_sample(calls, outputs, seed: int) -> list[tuple[int, str]]:
    """Cross-check a seeded sample of reports with badapprox.oracle.

    Covers gap values (gap sets up to 1500 points), kron minimizers (up to
    1500 multiples) and bit prefixes (256 bits), at most three calls of
    each kind. Returns (index, reason) for each disagreement.
    """
    from badapprox.cf import CFSpec, preset
    from badapprox.oracle import brute_bits, brute_gap_points, brute_kronecker, high_precision_value

    def cf_of(text):
        return CFSpec.from_json(text) if text.startswith("{") else preset(text)

    rng = random.Random(f"perfbench/oracle/{seed}")
    picks = {}
    for i, call in enumerate(calls):
        if call.kind in ("gaps_csv", "gaps_json", "kron") and call.params["n"] > 1500:
            continue
        if call.kind in ("gaps_csv", "gaps_json", "kron", "sturmian") and outputs[i] is not None:
            picks.setdefault(call.kind, []).append(i)
    failures = []
    for kind, idx in sorted(picks.items()):
        for i in rng.sample(idx, min(3, len(idx))):
            p, out = calls[i].params, outputs[i]
            theta = high_precision_value(cf_of(p["theta"]))
            if kind == "kron":
                n, pp, _ = brute_kronecker(theta, Fraction(p["beta"]), p["n"])
                obj = json.loads(out)
                ok = (obj["n"], obj["p"]) == (n, pp)
            elif kind == "sturmian":
                ok = json.loads(out)["bits"][:256] == "".join(map(str, brute_bits(theta, min(256, p["n"]))))
            else:
                _, distinct = brute_gap_points(theta, p["n"])
                if kind == "gaps_csv":
                    shown = [g for g, _ in _csv(out)[1:]]
                else:
                    shown = [g["length"] for g in json.loads(out)["gaps"]]
                ok = len(shown) == len(distinct) and all(
                    close(s, Fraction(d.man) * Fraction(2) ** d.exp, p["sig"], Fraction(1, 10**30))
                    for s, d in zip(shown, distinct)
                )
            if not ok:
                failures.append((i, "badapprox.oracle disagrees"))
    return failures
