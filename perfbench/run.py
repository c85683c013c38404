"""Benchmark of the badapprox command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload gapstats --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and NOTES.md): gapstats, points, words, verify.

With --trace 0 it prints the end-to-end metrics: ops_per_s, op_p50_ms,
op_p90_ms, setup_s and peak_rss_mb. With --trace 1 it prints the
per-layer metrics of a traced run and the tracing overhead. Either way the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; everything above it is a readable report, including
the recorded environment and the calls of KNOWN_DEFECTS with what they
did.

Each measurement runs in a fresh worker process (worker.py). setup_s is
the median over SETUP_SAMPLES fresh interpreters of the time from spawn
until the worker has imported badapprox, built its inputs and finished
its warm-up calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7  # fresh interpreters per run, the measured worker included
DEADLINE_S = 170  # the whole run, set-up samples included

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Worker:
    """One worker process; `finish` waits for it and kills it past the deadline."""

    def __init__(self, args, extra: list[str]):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
        # One thread for numpy's libraries; fixed string hashing so traced
        # counts repeat from run to run.
        env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        self.spawned = monotonic_ns()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def finish(self, deadline: float) -> tuple[float, str]:
        """(seconds from spawn to READY at the reference speed, the last line printed)."""
        try:
            out, _ = self.proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise SystemExit("worker passed the deadline and was stopped")
        if self.proc.returncode != 0:
            raise SystemExit(f"worker exited with {self.proc.returncode}")
        lines = out.splitlines()
        fields = dict(line.split(" ", 1) for line in lines[:2])
        return (int(fields["READY"]) - self.spawned) / 1e9 * float(fields["SPEED"]), lines[-1]


def environment(args) -> dict:
    """What a result must record to be compared with another."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest()[:16], "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "badapprox" / "__init__.py").is_file():
        print(f"error: no badapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    env = environment(args)
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(Worker(args, ["--setup-only"]).finish(deadline)[0])
    ready_s, line = Worker(args, ["--trace"] if args.trace else []).finish(deadline)
    setup.append(ready_s)
    res = json.loads(line)
    env.update(res["versions"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    attempted, failed = res["attempted"], res["failed"]
    print(f"calls: {attempted} in {res['passes']} passes over a pool of {res['pool']}; "
          f"failed {failed} (fail_ratio {failed / attempted:.4g})")
    for line in res["failures"]:
        print(f"  FAIL {line}")
    if args.trace:
        metrics = {name: (res["layers"][name], unit) for name, unit in PER_LAYER.items()}
        print(f"ops_per_s untraced {res['untraced_ops_per_s']:.4f}, traced {res['traced_ops_per_s']:.4f}")
    else:
        res["setup_s"] = statistics.median(setup)
        metrics = {name: (res[name], unit) for name, unit in END_TO_END}
        print(f"latency samples {res['samples']}, {res['above_p90']} above p90; "
              f"set-up samples {', '.join(f'{s:.3f}' for s in setup)} s")
        print(f"machine speed {res['speed']:.3f} of the reference; unscaled ops_per_s {res['wall_ops_per_s']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    broken = [row for row in res["known_defects"] if row["problem"]]
    print(f"known defects, outside the workload: {len(broken)} of {len(res['known_defects'])} still fail")
    for row in res["known_defects"]:
        print(f"  {'FAIL' if row['problem'] else 'ok  '} {' '.join(row['argv'])}: {row['problem'] or 'fixed'}")

    correct = failed == 0
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
