"""One benchmark process: set up, run a workload's call pool, check it.

Started by run.py in a fresh interpreter. It imports badapprox from the
checkout's src/, builds the seeded pool, runs the warm-up calls and
prints `READY <monotonic ns>`; with --setup-only it stops there. Otherwise
it runs whole passes over the pool until --seconds have passed, one call
at a time in this thread (a closed loop with one caller), with stdout and
stderr of each call captured. Correctness is checked after the timed
passes, and the result is printed as one JSON line.

With --trace it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones. With --record it runs the pool once
and writes the digests of every report to reference/<workload>.json,
which later runs at the default seed must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 110  # p90 needs at least ten samples above it
CAL_REF_NS = 2_040_000  # calibrate() at the reference speed
# Calibration samples taken right after READY, to scale this process's
# set-up time (see calibrate).
SETUP_CALIBRATION = 40


def monotonic_ns() -> int:
    """A clock shared by all processes, so run.py can time this one's start."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate() -> int:
    """Time, in ns, of a fixed piece of work of the kinds the package does.

    Interpreter loops, integer square roots, big integers, Fractions, a
    numpy sort, strided numpy comparisons and a dict of strings: about
    2 ms on a 2-core x86-64 VM. The speed of a shared machine drifts over
    tens of seconds; timing this between calls lets a run be scaled to a
    fixed speed (NOTES.md).
    """
    # Imported here, after READY: set-up time counts only what badapprox imports.
    import numpy as np

    start = time.perf_counter_ns()
    sum((i * 2654435761) % 1000003 for i in range(4000))
    sum(isqrt(5 * m * m) for m in range(10**6, 10**6 + 1000))
    sum(Fraction(1, i) for i in range(1, 200))
    3**4000 % (2**2000 - 1)
    bits = np.sort(np.arange(20000, dtype=np.int64) * 7919 % 100003).astype(np.uint8)
    for r in range(2, 40):
        (bits[0::r][:400] != bits[1::r][:400]).argmax()
    {str(i): i for i in range(2000)}
    return time.perf_counter_ns() - start


def run_call(cli, argv):
    """(exit code or raised exception, stdout, stderr, duration in ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # a traceback is a failed call
            rc = exc
        end = time.perf_counter_ns()
    return rc, out.getvalue(), err.getvalue(), end - start


def digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc!r}\n{out}".encode()).hexdigest()[:16]


class Pass:
    """Runs the pool once per call of `run`, keeping each slot's first result."""

    def __init__(self, cli, calls, tracer=None):
        self.cli, self.calls, self.tracer = cli, calls, tracer
        self.first: list[tuple | None] = [None] * len(calls)
        self.unstable = set()  # slots whose report changed between passes

    def run(self, traced: bool = False) -> tuple[list[int], int]:
        """(latency of each call in ns, calibration ns taken between the calls)."""
        latencies, cal = [], 0
        for i, call in enumerate(self.calls):
            if traced:
                self.tracer.start_request(i)
            rc, out, err, ns = run_call(self.cli, call.argv)
            latencies.append(ns)
            if self.first[i] is None:
                self.first[i] = (rc, out, err)
            elif (repr(rc), out) != (repr(self.first[i][0]), self.first[i][1]):
                self.unstable.add(i)
            cal += calibrate()
        return latencies, cal

    def failures(self, workload: str, seed: int, reference: bool = True) -> dict[int, str]:
        """Slot index -> reason, for every slot whose report is wrong."""
        bad = {i: "report changed between passes" for i in self.unstable}
        for i, (call, (rc, out, err)) in enumerate(zip(self.calls, self.first)):
            reason = checks.check(call, rc, out, err)
            if reason:
                bad.setdefault(i, reason)
        outputs = [out if rc == 0 else None for rc, out, _ in self.first]
        for i, reason in checks.oracle_sample(self.calls, outputs, seed):
            bad.setdefault(i, reason)
        if reference and seed == workloads.DEFAULT_SEED:
            ref = json.loads((HERE / "reference" / f"{workload}.json").read_text())
            for i, (rc, out, _) in enumerate(self.first):
                if i >= len(ref["digests"]) or digest(rc, out) != ref["digests"][i]:
                    bad.setdefault(i, "stdout differs from the recorded reference")
        return bad


def speed(samples: int, cal_ns: int) -> float:
    """Machine speed relative to the reference, from calibration samples.

    Multiplying a time by it gives the time at the reference speed.
    """
    return CAL_REF_NS * samples / cal_ns


def known_defects(cli) -> list[dict]:
    rows = []
    for call in workloads.KNOWN_DEFECTS:
        rc, out, err, _ = run_call(cli, call.argv)
        rows.append({"argv": list(call.argv), "problem": checks.check(call, rc, out, err)})
    return rows


def latency_stats(passes_ms: list[list[float]]) -> dict:
    """Median and 90th percentile of one call's latency.

    Each is taken within a pass and the median over the passes is
    reported, so a stall of the machine that hits one pass does not move it.
    """
    p50 = statistics.median(statistics.median(ms) for ms in passes_ms)
    p90 = statistics.median(statistics.quantiles(ms, n=10)[8] for ms in passes_ms)
    every = [x for ms in passes_ms for x in ms]
    return {"op_p50_ms": p50, "op_p90_ms": p90, "samples": len(every), "above_p90": sum(x > p90 for x in every)}


def measure(cli, calls, args) -> dict:
    runner = Pass(cli, calls)
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds or len(passes) * len(calls) < MIN_CALLS:
        passes.append(runner.run())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled_ms, pass_s = [], []
    for latencies, cal in passes:
        k = speed(len(latencies), cal)
        scaled_ms.append([ns * k / 1e6 for ns in latencies])
        pass_s.append(sum(latencies) * k / 1e9)
    wall_s = sum(sum(latencies) for latencies, _ in passes) / 1e9
    attempted = len(passes) * len(calls)
    return {
        "passes": len(passes),
        "attempted": attempted,
        "ops_per_s": len(calls) / statistics.median(pass_s),
        "peak_rss_mb": rss_mb,
        **latency_stats(scaled_ms),
        "wall_ops_per_s": attempted / wall_s,
        "speed": statistics.median(speed(len(latencies), cal) for latencies, cal in passes),
        "bad": runner.failures(args.workload, args.seed),
    }


def measure_traced(cli, calls, args) -> dict:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    runner = Pass(cli, calls, tracer)
    plain, traced, speeds = [], [], []
    traced_wall_ns = 0
    spans = None
    start = time.monotonic()
    while not traced or time.monotonic() - start < args.seconds:
        latencies, cal = runner.run()
        plain.append(sum(latencies) * speed(len(latencies), cal))
        tracer.install()
        try:
            latencies, cal = runner.run(traced=True)
        finally:
            tracer.uninstall()
        speeds.append(speed(len(latencies), cal))
        traced.append(sum(latencies) * speeds[-1])
        traced_wall_ns += sum(latencies)
        taken = tracer.take_spans()
        spans = spans or taken
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{args.workload}-s{args.seed}.jsonl", *spans)
    layers = layer_metrics(tracer, len(traced), statistics.mean(speeds))
    layers["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    # Self times of all layers against the traced calls as the loop timed them.
    layers["trace.self_share"] = sum(tracer.self_ns.values()) / traced_wall_ns
    return {
        "passes": len(traced),
        "attempted": len(traced) * len(calls),
        "untraced_ops_per_s": len(calls) / (statistics.median(plain) / 1e9),
        "traced_ops_per_s": len(calls) / (statistics.median(traced) / 1e9),
        "layers": layers,
        "bad": runner.failures(args.workload, args.seed),
    }


def record(cli, calls, workload: str) -> None:
    runner = Pass(cli, calls)
    runner.run()
    bad = runner.failures(workload, workloads.DEFAULT_SEED, reference=False)
    if bad:
        raise SystemExit(f"refusing to record a reference with failing calls: {bad}")
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    digests = [digest(rc, out) for rc, out, _ in runner.first]
    path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "digests": digests}, indent=0) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args()

    import badapprox
    from badapprox import cli

    if Path(badapprox.__file__).resolve().parent != ROOT / "src" / "badapprox":
        raise SystemExit(f"badapprox imported from {badapprox.__file__}, not from this checkout")
    if args.record and args.seed != workloads.DEFAULT_SEED:
        raise SystemExit("references are recorded at the default seed")
    calls = workloads.pool(args.workload, args.seed)
    for argv in workloads.WARMUP[args.workload]:
        rc, _, err, _ = run_call(cli, argv)
        if rc != 0:
            raise SystemExit(f"warm-up call {' '.join(argv)} failed: {rc!r} {err}")
    print(f"READY {monotonic_ns()}", flush=True)
    cal = sum(calibrate() for _ in range(SETUP_CALIBRATION))
    print(f"SPEED {speed(SETUP_CALIBRATION, cal)}", flush=True)
    if args.setup_only:
        return 0
    if args.record:
        record(cli, calls, args.workload)
        return 0

    result = (measure_traced if args.trace else measure)(cli, calls, args)
    bad = result.pop("bad")
    # A wrong report fails every time its slot ran.
    result["failed"] = sum(result["passes"] for _ in bad)
    result["failures"] = [f"{' '.join(calls[i].argv)[:160]}: {reason}" for i, reason in sorted(bad.items())]
    result["pool"] = len(calls)
    result["known_defects"] = known_defects(cli)
    import mpmath
    import numpy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "mpmath": mpmath.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
