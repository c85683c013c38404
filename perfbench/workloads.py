"""Seeded call pools for the four workloads.

A pool is a fixed list of slots. Each slot fixes a subcommand, a size
(fixed, or on a log-spaced grid with 2% jitter) and the precision; the
seed picks the numbers (theta, beta, some quotient bounds, suite seeds),
the jitter and the order. Keeping sizes on a grid keeps the cost of a pool nearly the same
from seed to seed, so runs with different seeds can be compared.

Every slot names the outcome it must reach: exit code 0 and a checked
report, or, for the error-path slots, the documented exit code with an
error message and no traceback.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import refmath

WORKLOADS = ("gapstats", "points", "words", "verify")
DEFAULT_SEED = 1

# Every fourth slot of a sized kind renders 40 digits, which forces the
# Python-int point backend; the rest run on the int64 one.
DEEP_DIGITS = 40


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    kind: str  # the check that applies to the report
    params: dict = field(default_factory=dict, compare=False)
    exit_code: int = 0


def _theta(rng: random.Random) -> str:
    """A preset or a random eventually periodic expansion with quotients up to 10, as CLI text."""
    pick = rng.random()
    if pick < 0.1:
        return "golden"
    if pick < 0.2:
        return "sqrt2"
    if pick < 0.25:
        return f"extremal:{rng.randint(1, 10)}"
    bound = rng.randint(1, 10)
    prefix = [rng.randint(1, bound) for _ in range(rng.randint(0, 4))]
    period = [rng.randint(1, bound) for _ in range(rng.randint(1, 5))]
    return json.dumps({"a0": 0, "prefix": prefix, "period": period})


def _theta_bounded(rng: random.Random, bound: int) -> str:
    """A random eventually periodic expansion whose largest quotient is `bound`."""
    prefix = [rng.randint(1, bound) for _ in range(rng.randint(0, 3))]
    period = [rng.randint(1, bound) for _ in range(rng.randint(1, 4))]
    period[rng.randrange(len(period))] = bound
    return json.dumps({"a0": 0, "prefix": prefix, "period": period})


def _grid(i: int, count: int, lo: float, hi: float, rng: random.Random) -> int:
    """Slot i of count log-spaced sizes in [lo, hi], jittered by 2%."""
    x = math.log10(lo) + (math.log10(hi) - math.log10(lo)) * (i + 0.5) / count
    return max(1, round(10**x * (1 + 0.02 * (2 * rng.random() - 1))))


def _digits(i: int) -> int:
    return DEEP_DIGITS if i % 4 == 3 else 10


def _sized(kind: str, argv: list[str], sig: int, **params) -> Call:
    if sig != 10:
        argv += ["--precision-digits", str(sig)]
    return Call(tuple(argv), kind, {"sig": sig, **params})


def _extremal_stage(b: int, target: int) -> int:
    """Largest witness stage whose point count stays at or below target."""
    stage = 1
    while refmath.extremal_count(b, stage + 1) <= target:
        stage += 1
    return stage


def gapstats(rng: random.Random) -> list[Call]:
    calls = []
    for i in range(36):
        th, n, sig = _theta(rng), _grid(i, 36, 1e3, 5e5, rng), _digits(i)
        calls.append(_sized("gaps_csv", ["gaps", "--theta", th, "--n", str(n), "--format", "csv"], sig, theta=th, n=n))
    for i in range(36):
        th, n, sig = _theta(rng), _grid(i, 36, 1e3, 5e5, rng), _digits(i)
        calls.append(_sized("regime", ["regime", "--theta", th, "--n", str(n)], sig, theta=th, n=n))
    # The witness bound fixes how far apart the stages' sizes lie, so each
    # slot keeps its bound and only the size jitters.
    for i in range(12):
        b = 1 + i % 10
        stage = _extremal_stage(b, _grid(i, 12, 1e3, 5e5, rng))
        calls.append(_sized("extremal", ["extremal", "--b", str(b), "--n", str(stage)], 10, b=b, stage=stage))
    for i in range(6):
        b = 1 + (3 * i) % 10
        nmax = _extremal_stage(b, _grid(i, 6, 1e3, 1e5, rng))
        calls.append(_sized("convergence", ["convergence", "--b", str(b), "--nmax", str(nmax)], 10, b=b, nmax=nmax))
    for i in range(6):
        b = rng.randint(1, 10)
        calls.append(_sized("fb", ["fb", "--b", str(b)], 10 if i % 2 else DEEP_DIGITS, b=b))
    calls += [
        Call(("gaps", "--theta", "sqrt2", "--n", "0"), "error", exit_code=1),
        Call(("regime", "--theta", "sqrt2", "--n", "1"), "error", exit_code=1),
        Call(("regime", "--theta", "nosuch", "--n", "5"), "error", exit_code=64),
    ]
    return calls


def points(rng: random.Random) -> list[Call]:
    calls = []
    for i in range(40):
        th, n, sig = _theta(rng), _grid(i, 40, 1e2, 3e5, rng), _digits(i)
        den = rng.randint(1, 1000)
        beta = f"{rng.randrange(den)}/{den}"
        argv = ["kron", "--theta", th, "--beta", beta, "--n", str(n)]
        calls.append(_sized("kron", argv, sig, theta=th, beta=beta, n=n))
    for i in range(24):
        th, n = _theta(rng), _grid(i, 24, 50, 2000, rng)
        calls.append(_sized("gaps_json", ["gaps", "--theta", th, "--n", str(n)], 10, theta=th, n=n))
    calls += [
        Call(("kron", "--theta", "golden", "--beta", "3/2", "--n", "5"), "error", exit_code=1),
        Call(("kron", "--theta", "golden", "--beta", "x", "--n", "5"), "error", exit_code=64),
        Call(("gaps", "--theta", '{"a0": 0, "prefix": [2], "period": []}', "--n", "5"), "error", exit_code=1),
    ]
    return calls


def words(rng: random.Random) -> list[Call]:
    # Bit generation grows the prefix by doubling, so costs come in steps;
    # every step size from 8 to 25 gets a slot so that the slowest tenth of
    # the calls, where op_p90_ms sits, is a spread of costs, not a cliff.
    calls = []
    for i in range(16):
        th = "golden" if i % 3 == 0 else _theta(rng)
        n = _grid(i, 16, 1e3, 1e5, rng)
        calls.append(Call(("sturmian", "--theta", th, "--n", str(n)), "sturmian", {"theta": th, "n": n}))
    for rmax in range(8, 26):
        # The same number, spelled as a preset or as an expansion; both
        # take the exact isqrt path.
        th = "golden" if rng.random() < 0.5 else json.dumps({"a0": 0, "prefix": [1] * rng.randint(1, 3), "period": [1]})
        calls.append(Call(("diversity", "--theta", th, "--b", "1", "--rmax", str(rmax)), "diversity", {"theta": th, "b": 1, "rmax": rmax}))
    # Bits of other numbers come from a rational surrogate. The bound sets
    # the scan window, so each slot keeps its bound and the seed picks the number.
    for rmax in range(6, 15):
        b = 2 + rmax % 2
        th = _theta_bounded(rng, b)
        calls.append(Call(("diversity", "--theta", th, "--b", str(b), "--rmax", str(rmax)), "diversity", {"theta": th, "b": b, "rmax": rmax}))
    # Stage 4 of the witness stands in for arrays at stages 3 and 4, which
    # print wrong digits (KNOWN_DEFECTS): its uniqueness scan does the same
    # kind of exact Z[phi] arithmetic over 1575 grid cells.
    for stage in (2, 2, 3, 3, 4):
        calls.append(Call(("witness", "--n", str(stage)), "witness", {"stage": stage}))
    calls += [Call(("arrays", "--n", "2"), "arrays", {"stage": 2})] * 2
    calls += [
        Call(("sturmian", "--theta", '{"a0": 0, "prefix": [3], "period": []}', "--n", "10"), "error", exit_code=1),
        Call(("diversity", "--theta", "golden", "--b", "1", "--rmax", "1"), "error", exit_code=1),
        Call(("witness", "--n", "1"), "error", exit_code=1),
        Call(("arrays", "--n", "7"), "error", exit_code=1),
    ]
    return calls


def verify(rng: random.Random) -> list[Call]:
    calls = []
    # The suite draws its own sizes, so a call's cost varies with its seed;
    # many calls of four cases each keep the pool's cost steady.
    for _ in range(108):
        seed = rng.randrange(2**31)
        calls.append(Call(("verify", "--cases", "4", "--seed", str(seed)), "verify", {"cases": 4}))
    calls += [
        Call(("verify", "--cases", "0", "--seed", str(rng.randrange(2**31))), "verify", {"cases": 0}),
        Call(("verify", "--cases", "x"), "error", exit_code=64),
    ]
    return calls


def pool(workload: str, seed: int) -> list[Call]:
    """The shuffled call pool of one workload for one seed."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    calls = {"gapstats": gapstats, "points": points, "words": words, "verify": verify}[workload](rng)
    rng.shuffle(calls)
    return calls


# Small fixed calls that load every code path a workload uses before timing.
WARMUP = {
    "gapstats": (
        ("gaps", "--theta", "golden", "--n", "200", "--format", "csv"),
        ("gaps", "--theta", "golden", "--n", "200", "--format", "csv", "--precision-digits", "40"),
        ("regime", "--theta", "sqrt2", "--n", "200"),
        ("extremal", "--b", "2", "--n", "3"),
        ("convergence", "--b", "1", "--nmax", "4"),
        ("fb", "--b", "3"),
    ),
    "points": (
        ("kron", "--theta", "sqrt2", "--beta", "1/3", "--n", "200"),
        ("kron", "--theta", "sqrt2", "--beta", "1/3", "--n", "200", "--precision-digits", "40"),
        ("gaps", "--theta", "golden", "--n", "100"),
    ),
    "words": (
        ("sturmian", "--theta", "golden", "--n", "500"),
        ("sturmian", "--theta", "sqrt2", "--n", "500"),
        ("diversity", "--theta", "golden", "--b", "1", "--rmax", "4"),
        ("diversity", "--theta", "sqrt2", "--b", "2", "--rmax", "4"),
        ("witness", "--n", "2"),
        ("arrays", "--n", "2"),
    ),
    "verify": (("verify", "--cases", "1", "--seed", "7"),),
}

# Calls the package gets wrong today. They run after the timed loop and are
# reported every run, but are not part of a workload, because a workload
# holds only calls that succeed. The first three should end with exit 1 or
# 64 and no traceback; arrays at stages 3 and 4 print decimals whose last
# digits are wrong (see NOTES.md). `extremal --b 3
# --n 12` is left out on purpose: it allocates about 2.7 GB of points and
# can take the whole process down on a small machine.
KNOWN_DEFECTS = (
    Call(("extremal", "--b", "3", "--n", "20"), "error", exit_code=1),
    Call(("gaps", "--theta", "golden", "--n", "5", "--precision-digits", "0"), "error", exit_code=64),
    Call(("verify", "--cases", "-1"), "error", exit_code=64),
    Call(("arrays", "--n", "3"), "arrays", {"stage": 3}),
    Call(("arrays", "--n", "4"), "arrays", {"stage": 4}),
)
