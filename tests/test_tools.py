import importlib.util
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import badapprox.cli as cli

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_PATH = _TOOLS / "count_code_lines.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_code_lines = _load(_PATH)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code

# a comment-only line


def f(x):
    """Function docstring."""
    text = """a multi-line string
that is not a docstring
"""
    return x + len(text)


class C:
    """Class docstring,

    with a blank line inside."""

    value = (
        1
    )
'''


def test_counts_code_lines_only():
    # import, def, text (3 lines), return, class, value (3 lines)
    assert count_code_lines.count_code_lines(FIXTURE) == 10


def test_cli_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["10", "1", "11"]
    assert lines[-1].split()[1] == "total"


def test_bench_kills_a_process_past_its_timeout(monkeypatch):
    bench = _load(_TOOLS / "bench.py")
    monkeypatch.setattr(bench, "PROCESS_TIMEOUT", 0.05)
    start = time.perf_counter()
    code, ms, peak_rss_mb = bench.time_process(bench.LISTING_CALL)
    # The listing takes seconds; the run is killed long before that.
    assert code == -signal.SIGKILL
    assert ms < 1000 and time.perf_counter() - start < 1
    assert peak_rss_mb > 0


def test_bench_rows_all_exit_zero(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(_PATH.parent / "bench.py"), "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["repeats"] == 1 and report["speed"] > 0
    assert report["python"] == sys.version.split()[0]
    assert len(report["git_diff_sha256"]) == 64
    int(report["git_diff_sha256"], 16)
    listing = report["listing"]
    assert listing["argv"] == "-m badapprox.cli gaps --theta sqrt2 --n 1048576 --precision-digits 40"
    # The listing's own peak: its 2^20 points take more than the bench
    # process it was spawned from (the floor of a child's peak on Linux),
    # and far less than the whole machine.
    assert 50 < report["bench_peak_rss_mb"] < listing["peak_rss_mb"] < 4096
    assert report["dont_write_bytecode"] == bool(sys.flags.dont_write_bytecode)
    assert [row["argv"] for row in report["process"]] == [
        "-c import badapprox",
        "-m badapprox.cli fb --b 2",
        "-m badapprox.cli kron --theta sqrt2 --beta 1/3 --n 1000",
        "-m badapprox.cli verify --cases 4",
    ]
    assert all(row["peak_rss_mb"] > 0 for row in report["process"])
    # The walk rows: gap_set at three sizes under two radii, then
    # verify_regime at two sizes.
    walk = [row["call"] for row in report["walk"]]
    assert len(walk) == 8
    assert walk[0] == "gap_set x200 at N = 1000, 10 digits"
    assert walk[-1] == "verify_regime x200 at N = 1000000, 10 digits"
    rows = [*report["cli"], *report["process"], listing]
    assert {row["argv"].split()[0] for row in report["cli"]} == set(cli._COMMANDS)
    witness = [row["argv"] for row in report["cli"] if row["argv"].startswith("witness")]
    assert witness == [f"witness --n {n}" for n in range(2, 7)]
    diversity = [row["argv"] for row in report["cli"] if row["argv"].startswith("diversity")]
    assert diversity == [f"diversity --theta golden --b 1 --rmax {r}" for r in (10, 25, 50, 100)]
    listings = [row["argv"] for row in report["cli"] if row["argv"].startswith("gaps --theta sqrt2")]
    assert listings == [f"gaps --theta sqrt2 --n {10**k}" for k in (3, 4, 5)]
    for head in ("kron --theta sqrt2 --beta 1/3", "regime --theta sqrt2"):
        sweep = [row["argv"] for row in report["cli"] if row["argv"].startswith(f"{head} --n 1")]
        assert sweep == [f"{head} --n {10**k}" for k in (3, 6, 9)]
    for row in rows:
        assert row["exit_codes"] == [0], row
    crossing = report["crossing_unique"]
    assert [row["n"] for row in crossing] == [5, 8, 10, 20, 40]
    oracle = report["oracle"]
    assert [row["call"] for row in oracle] == [
        "high_precision_value x200",
        "run_suite(cases=50)",
        "solve x200",
        "gap_constant(B) for B = 1..50",
        *(f"solve(sqrt2, 1/3, {10**k})" for k in (3, 6, 9)),
    ]
    for row in rows + crossing + oracle:
        assert row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert row["speed"] > 0, row
