"""Time every CLI subcommand end to end and write the numbers as JSON.

Usage: python tools/bench.py --out BENCH.json [--repeats K]

For one fixed argv per subcommand (the README's examples, with
`verify --cases 4`), for `extremal` at the deepest stages that certify
at b = 1 (266) and b = 12 (101) and `convergence --b 3 --nmax 40`, for
`witness` at every stage from 2 to 6, for
`diversity --theta golden --b 1` at r_max = 10, 25, 50 and 100, for
the JSON listing `gaps --theta sqrt2` at N = 10^3, 10^4 and 10^5, and
for `kron --theta sqrt2 --beta 1/3` and `regime --theta sqrt2` at N =
10^3, 10^6 and 10^9, it runs K in-process `cli.main` calls after one
untimed warm-up call, and records the median and quartiles of their wall
time. The same statistics cover K in-process `crossing_unique(n)` calls
at n = 5, 8, 10, 20 and 40, the witness's exact uniqueness count alone,
and the oracle layer on its own, one sample per batch:
`high_precision_value` over 200 fixed `random_cf` expansions,
`run_suite(cases=50)`, `solve` over 200 fixed cases drawn as
`run_suite` draws its Kronecker family, `gap_constant(B)` for B = 1..50,
and `solve(sqrt2, 1/3, N)` at N = 10^3, 10^6 and 10^9.
It also times K process runs, from interpreter start to exit, of
`python -c "import badapprox"` and of `python -m badapprox.cli` with
`fb --b 2` and with `kron --theta sqrt2 --beta 1/3 --n 1000`, and up to
three process runs of the largest listing,
`gaps --theta sqrt2 --n 1048576 --precision-digits 40`; every process row
records the largest peak RSS of one run, read with os.wait4, and a run is
killed after 60 s. A process run's time includes compiling the modules it
imports unless their bytecode is cached, so the report records whether
this interpreter writes bytecode (`sys.flags.dont_write_bytecode`, set by
-B or PYTHONDONTWRITEBYTECODE, which the children inherit). A child's peak on Linux counts from the RSS of this
tool when it spawned the child, so the report also gives this tool's own
peak, the floor under those figures. Beside the times it records the git commit,
whether src/ or tools/ differ from it and the sha256 of that difference
(`git diff HEAD -- src tools | sha256sum`), the Python
version and the machine speed relative to perfbench's reference, from
perfbench's own calibration (a speed of 0.7 means times here are about
1/0.7 of what the reference machine takes): once before all rows, and
again just before each row's timed calls, beside that row, since the
speed of a shared machine drifts. At the default K the whole run takes
well under a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import calibrate, speed  # noqa: E402

from badapprox import cli, gap_constant, preset, solve  # noqa: E402
from badapprox.oracle import high_precision_value, random_beta, random_cf, run_suite  # noqa: E402
from badapprox.sturmian import crossing_unique  # noqa: E402

CALLS = (
    ("gaps", "--theta", "golden", "--n", "3"),
    *(("gaps", "--theta", "sqrt2", "--n", str(10**k)) for k in (3, 4, 5)),
    ("regime", "--theta", "sqrt2", "--n", "7"),
    ("fb", "--b", "2"),
    ("extremal", "--b", "1", "--n", "10"),
    ("convergence", "--b", "1", "--nmax", "6"),
    # The witness chain at depth: the deepest stages that certify at b = 1
    # and b = 12, and a table of 40 stages.
    ("extremal", "--b", "1", "--n", "266"),
    ("extremal", "--b", "12", "--n", "101"),
    ("convergence", "--b", "3", "--nmax", "40"),
    ("kron", "--theta", "sqrt2", "--beta", "9/10", "--n", "4"),
    *(("kron", "--theta", "sqrt2", "--beta", "1/3", "--n", str(10**k)) for k in (3, 6, 9)),
    *(("regime", "--theta", "sqrt2", "--n", str(10**k)) for k in (3, 6, 9)),
    ("sturmian", "--theta", "golden", "--n", "32"),
    *(("diversity", "--theta", "golden", "--b", "1", "--rmax", str(r)) for r in (10, 25, 50, 100)),
    *(("witness", "--n", str(n)) for n in range(2, 7)),
    ("arrays", "--n", "2"),
    ("verify", "--cases", "4"),
)
# Process rows: the interpreter's arguments.
PROCESS_CALLS = (
    ("-c", "import badapprox"),
    ("-m", "badapprox.cli", "fb", "--b", "2"),
    ("-m", "badapprox.cli", "kron", "--theta", "sqrt2", "--beta", "1/3", "--n", "1000"),
)
LISTING_CALL = ("-m", "badapprox.cli", "gaps", "--theta", "sqrt2", "--n", "1048576", "--precision-digits", "40")
LISTING_REPEATS = 3
PROCESS_TIMEOUT = 60
CROSSING_STAGES = (5, 8, 10, 20, 40)
ORACLE_EXPANSIONS = 200
KRONECKER_CASES = 200
CONSTANT_BOUNDS = range(1, 51)
SOLVE_SIZES = (10**3, 10**6, 10**9)
ORACLE_SEED = 20261020
SUITE_CASES = 50
CALIBRATION_SAMPLES = 20


def summary(ms: list[float]) -> dict:
    """Median and quartiles in ms; with one sample all three are that sample."""
    if len(ms) < 2:
        return {"median_ms": ms[0], "q1_ms": ms[0], "q3_ms": ms[0]}
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3}


def time_call(argv) -> tuple[int, float]:
    """(exit code, wall ms) of one in-process call, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        return code, (time.perf_counter() - start) * 1e3


def time_crossing(n: int) -> float:
    """Wall ms of one in-process crossing_unique(n)."""
    start = time.perf_counter()
    crossing_unique(n)
    return (time.perf_counter() - start) * 1e3


def time_batch(fn, batch) -> float:
    """Wall ms of fn(*args) for every args in batch."""
    start = time.perf_counter()
    for args in batch:
        fn(*args)
    return (time.perf_counter() - start) * 1e3


def oracle_batches() -> list[tuple[str, object, list[tuple]]]:
    """(name, function, argument tuples) of each oracle-section row, on
    fixed corpora: the expansions and the Kronecker cases come from one
    random.Random(ORACLE_SEED), each case drawn as run_suite draws its
    own (theta, then N, then beta)."""
    rng = random.Random(ORACLE_SEED)
    cfs = [(random_cf(rng),) for _ in range(ORACLE_EXPANSIONS)]
    cases = []
    for _ in range(KRONECKER_CASES):
        cf, N = random_cf(rng), rng.randint(1, 400)
        cases.append((cf, random_beta(rng), N))
    sqrt2, third = preset("sqrt2"), Fraction(1, 3)
    return [
        (f"high_precision_value x{len(cfs)}", high_precision_value, cfs),
        # run_suite at its default seed
        (f"run_suite(cases={SUITE_CASES})", run_suite, [(SUITE_CASES,)]),
        (f"solve x{len(cases)}", solve, cases),
        (f"gap_constant(B) for B = {CONSTANT_BOUNDS[0]}..{CONSTANT_BOUNDS[-1]}", gap_constant,
         [(b,) for b in CONSTANT_BOUNDS]),
        *((f"solve(sqrt2, 1/3, {N})", solve, [(sqrt2, third, N)]) for N in SOLVE_SIZES),
    ]


def time_process(argv) -> tuple[int, float, float]:
    """(exit code, wall ms, peak RSS in MB) of one run of this interpreter
    with the arguments argv, its output discarded; a run still going after
    PROCESS_TIMEOUT seconds is killed.
    os.wait4 reads this child's peak, where getrusage's RUSAGE_CHILDREN
    would give the largest of all children so far. On Linux that peak
    starts from this process's RSS at the spawn, which the child's exec
    replaced, so only a peak above the report's bench_peak_rss_mb is
    surely the child's own."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    ms = (time.perf_counter() - start) * 1e3
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ms, usage.ru_maxrss / 1024


def measured_speed() -> float:
    """Machine speed relative to perfbench's reference, measured now."""
    return speed(CALIBRATION_SAMPLES, sum(calibrate() for _ in range(CALIBRATION_SAMPLES)))


def row(argv, repeats: int, timer) -> dict:
    """Exit codes and wall-time statistics of `repeats` timed runs, and the
    largest peak RSS when the timer reads one."""
    now = measured_speed()
    results = [timer(argv) for _ in range(repeats)]
    out = {"argv": " ".join(argv), "speed": now,
           "exit_codes": sorted({result[0] for result in results}),
           **summary([result[1] for result in results])}
    if len(results[0]) > 2:
        out["peak_rss_mb"] = max(result[2] for result in results)
    return out


def git(*args) -> bytes:
    """stdout of one git command in the repo, or nothing if it fails."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, timeout=10)
    except OSError:
        return b""
    return done.stdout if done.returncode == 0 else b""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    ap.add_argument("--repeats", type=int, default=50, help="timed calls per row (default 50)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    calibrate()  # its first call also imports numpy
    whole_run = measured_speed()
    batches = oracle_batches()
    for _, fn, batch in batches:
        time_batch(fn, batch)  # warm-up: the first oracle call imports mpmath's libmp
    rows = []
    for call in CALLS:
        time_call(call)  # warm-up: imports and first-call caches
        rows.append(row(call, args.repeats, time_call))
    report = {
        "git_sha": git("rev-parse", "HEAD").decode().strip() or "unknown",
        "git_dirty": bool(git("status", "--porcelain", "--", "src", "tools").strip()),
        # The tree timed is git_sha with this diff applied.
        "git_diff_sha256": hashlib.sha256(git("diff", "HEAD", "--", "src", "tools")).hexdigest(),
        "python": sys.version.split()[0],
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "speed": whole_run,
        "repeats": args.repeats,
        "cli": rows,
        "crossing_unique": [
            {"n": n, "speed": measured_speed(),
             **summary([time_crossing(n) for _ in range(args.repeats)])}
            for n in CROSSING_STAGES
        ],
        "oracle": [
            {"call": name, "speed": measured_speed(),
             **summary([time_batch(fn, batch) for _ in range(args.repeats)])}
            for name, fn, batch in batches
        ],
        "process": [row(call, args.repeats, time_process) for call in PROCESS_CALLS],
        "listing": row(LISTING_CALL, min(args.repeats, LISTING_REPEATS), time_process),
        # The floor under every process row's peak_rss_mb, read after them.
        "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
