import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import badapprox
import badapprox.cli as cli
from badapprox import CFSpec, OracleReport, Walk
from badapprox.gaps import MAX_POINTS, MAX_STAGE
from badapprox.oracle import random_cf
from badapprox.sturmian import MAX_BITS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fb_json(capsys):
    code, out, _ = run(capsys, "fb", "--b", "2")
    assert code == 0
    assert json.loads(out) == {
        "f": "1+2/sqrt(3)",
        "decimal": 2.154700538,
        "lower": 0.5,
        "upper": 3.788854382,
    }


def test_fb_precision_flag(capsys):
    code, out, _ = run(capsys, "fb", "--b", "1", "--precision-digits", "3")
    assert code == 0
    assert json.loads(out)["decimal"] == 1.89


def test_gaps_json(capsys):
    code, out, _ = run(capsys, "gaps", "--theta", "golden", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["points"] == ["0", "0.2360679775", "0.6180339887", "0.8541019662", "1"]
    assert obj["h"] == "0.3819660113"
    assert obj["product_nh"] == "1.145898034"
    assert [g["multiplicity"] for g in obj["gaps"]] == [1, 2, 1]


def test_gaps_csv(capsys):
    code, out, _ = run(capsys, "gaps", "--theta", "golden", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gap,multiplicity"
    assert lines[1:] == ["0.1458980338,1", "0.2360679775,2", "0.3819660113,1"]


def test_regime_json(capsys):
    code, out, _ = run(capsys, "regime", "--theta", "sqrt2", "--n", "7")
    assert code == 0
    obj = json.loads(out)
    assert (obj["k"], obj["l"], obj["case"]) == (2, 1, "interval-2")
    assert obj["matches"] is True
    assert obj["gaps"] == ["0.07106781187", "0.1005050634", "0.1715728753"]


def _json(cf):
    """The --theta JSON object of cf."""
    return json.dumps({"a0": cf.a0, "prefix": list(cf.prefix), "period": list(cf.period)})


def test_regime_sweep_is_pinned(capsys):
    # md5 of the concatenated exit codes and stdout, as printed when the
    # predicted gaps were CertifiedValue sums of two convergent_residual
    # calls and every match was decided in Fraction arithmetic.
    rng = random.Random(21)
    thetas = ["golden", "sqrt2", "extremal:1", "extremal:3", "extremal:7"]
    thetas += [_json(random_cf(rng)) for _ in range(6)]
    thetas.append(_json(CFSpec(0, (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9), ())))
    md5, brackets = hashlib.md5(), set()
    for theta in thetas:
        for n in (3, 7, 20, 97, 1000, 4321, 100000, 500000):
            for digits in ("10", "40"):
                for fmt in ("json", "csv"):
                    code, out, _ = run(capsys, "regime", "--theta", theta, "--n", str(n),
                                       "--precision-digits", digits, "--format", fmt)
                    md5.update(f"{code}\n{out}".encode())
                    if code == 0 and fmt == "json":
                        brackets.add((theta, json.loads(out)["l"] > 0))
    # Both cases occur, the rational theta among them.
    assert {wide for _, wide in brackets} == {False, True}
    assert any(theta == thetas[-1] for theta, _ in brackets)
    assert md5.hexdigest() == "a98c2b05a21aea21f4a2c857efb6d1a4"


def test_listing_sweep_is_pinned(capsys):
    # md5 of the concatenated exit codes and stdout of gaps JSON listings,
    # as printed when each point numerator was n*p mod q and each point was
    # rounded with its own divmod.
    thetas = ["golden", "sqrt2", "extremal:3", '{"a0": 0, "prefix": [1, 2], "period": [2]}']
    md5 = hashlib.md5()
    for theta in thetas:
        for n in (1, 2, 3, 50, 89, 100, 862, 2000):
            for digits in ("3", "10", "40"):
                code, out, _ = run(capsys, "gaps", "--theta", theta, "--n", str(n),
                                   "--precision-digits", digits)
                assert code == 0, (theta, n, digits)
                md5.update(f"{code}\n{out}".encode())
    assert md5.hexdigest() == "b4f0a9de87ac695d67a27f4fce7270e2"


# theta with a nonzero integer part: prefixes and periods, two periods that
# end in 1, and two rationals (denominators 32141 and 6791).
NONZERO_A0 = [
    '{"a0": -3, "prefix": [2, 5], "period": [1, 3]}',
    '{"a0": -1, "period": [2, 1]}',
    '{"a0": 2, "prefix": [1], "period": [3, 1, 1]}',
    '{"a0": 5, "prefix": [4, 1, 6], "period": [2, 7]}',
    '{"a0": -3, "prefix": [1, 4, 2, 1, 3, 5, 2, 6, 3, 2]}',
    '{"a0": 5, "prefix": [2, 2, 9, 1, 4, 3, 8]}',
]


def test_nonzero_integer_parts_are_pinned(capsys):
    # md5 of the concatenated exit codes, stdout and stderr of regime
    # reports and gaps JSON listings, as printed when the three-distance
    # bracket was walked on [0; a_1, ...] and the regime bracket on theta.
    md5, codes = hashlib.md5(), Counter()
    for theta in NONZERO_A0:
        for digits in ("10", "40"):
            for n in (1, 3, 7, 20, 97, 1000, 4321, 100000, 500000):
                for fmt in ("json", "csv"):
                    code, out, err = run(capsys, "regime", "--theta", theta, "--n", str(n),
                                         "--precision-digits", digits, "--format", fmt)
                    codes[code] += 1
                    md5.update(f"{code}\n{out}\n{err}".encode())
            for n in (1, 2, 3, 50, 89, 862, 2000):
                code, out, err = run(capsys, "gaps", "--theta", theta, "--n", str(n),
                                     "--precision-digits", digits)
                codes[code] += 1
                md5.update(f"{code}\n{out}\n{err}".encode())
    # N below q_1 and N past a rational's denominator exit 1.
    assert codes == {0: 264, 1: 36}
    assert md5.hexdigest() == "6e36ee5b083436ef2d696157331e8be2"


def _kron_sweep():
    """argv of about 300 kron calls: four targets where the default
    surrogate once misled the library, then random theta (bounds 2, 10 and
    1000, and a few rationals) and targets, N up to 10^9, 1 to 40 digits."""
    calls = [
        ('{"a0": 0, "prefix": [4], "period": [2, 1]}', "57/500", 1),
        ('{"a0": 0, "prefix": [1, 1], "period": [1, 1, 1, 1]}', "33/50", 240),
        ('{"a0": 0, "prefix": [1, 1], "period": [1, 1, 1]}', "49/250", 235),
        ('{"a0": 0, "prefix": [], "period": [1, 1, 1, 1, 1]}', "291/500", 96),
    ]
    rng = random.Random(32)
    for i in range(296):
        if i % 37 == 0:
            cf = CFSpec(0, tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 12))), ())
            if cf.is_integer:
                continue
        else:
            cf = random_cf(rng, rng.choice((2, 10, 1000)))
        den = rng.randint(1, 1000)
        calls.append((_json(cf), f"{rng.randrange(den)}/{den}", int(10 ** rng.uniform(0, 9))))
    for i, (theta, beta, n) in enumerate(calls):
        yield ["kron", "--theta", theta, "--beta", beta, "--n", str(n),
               "--precision-digits", str(1 + i % 40)]


def test_kron_sweep_is_pinned(capsys):
    # md5 of the concatenated exit codes and stdout, as printed when each
    # error was read under a surrogate deepened to the display radius.
    md5, codes = hashlib.md5(), Counter()
    for argv in _kron_sweep():
        code, out, _ = run(capsys, *argv)
        codes[code] += 1
        md5.update(f"{code}\n{out}".encode())
    # Rationals with N at or past their denominator exit 1.
    assert codes == {0: 294, 1: 6}
    assert md5.hexdigest() == "c46d9ef765f0ae04e6cf992e2e3071e4"


def test_kron_json(capsys):
    code, out, _ = run(capsys, "kron", "--theta", "sqrt2", "--beta", "9/10", "--n", "4")
    assert code == 0
    obj = json.loads(out)
    assert (obj["n"], obj["p"]) == (2, 0)
    assert obj["error"] == 0.07157287525
    assert obj["bound"] == 0.2693375673
    assert obj["legacy_bound"] == 64
    assert obj["within_bound"] is True


def test_kron_error_digits_are_theta_s_own(capsys):
    # The error is 9.07991985146...e-12 (mpmath, 80 digits); read under a
    # surrogate at the display radius it printed 9.0799198e-12.
    theta = '{"a0": 0, "prefix": [], "period": [2, 1, 1, 2]}'
    code, out, _ = run(capsys, "kron", "--theta", theta, "--beta", "319/687",
                       "--n", "999565353", "--precision-digits", "8")
    assert code == 0
    obj = json.loads(out)
    assert (obj["n"], obj["p"]) == (888370466, 343450129)
    assert obj["error"] == 9.0799199e-12


def test_sturmian_bits(capsys):
    code, out, _ = run(capsys, "sturmian", "--theta", "golden", "--n", "10")
    assert code == 0
    assert json.loads(out) == {"length": 10, "bits": "1011010110"}
    code, out, _ = run(
        capsys, "sturmian", "--theta", "sqrt2", "--n", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,bit"
    assert [line.split(",")[1] for line in lines[1:]] == list("01010010")


def test_diversity_csv(capsys):
    code, out, _ = run(capsys, "diversity", "--theta", "golden", "--b", "1", "--rmax", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,max_agreement,bound,pass"
    assert lines[1] == "2,0,72,true"
    assert all(line.endswith("true") for line in lines[1:])


def test_witness_json(capsys):
    code, out, _ = run(capsys, "witness", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["first_mismatch"] == 28
    assert obj["matches"] == "low"
    assert (obj["candidate_low"], obj["candidate_high"]) == (28, 30)
    assert obj["mismatch_bits"] == [0, 1]
    assert obj["crossing"]["i"] == 9 and obj["crossing"]["j"] == 1
    assert obj["crossing"]["unique"] is True
    assert obj["ratio"]["approached"] == "0.7236067977"
    assert obj["ratio"]["rejected"] == "1.223606798"


def test_arrays_json(capsys):
    code, out, _ = run(capsys, "arrays", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert (obj["rows"], obj["cols"]) == (10, 3)
    assert obj["start"] == "0.04449185123"
    assert obj["end"] == "0.9787137637"
    assert obj["verified"] is True


def test_arrays_csv(capsys):
    code, out, _ = run(capsys, "arrays", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 10 * 3


def test_convergence_csv(capsys):
    code, out, _ = run(capsys, "convergence", "--b", "1", "--nmax", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,big_n,product_nh,f,gap"
    products = [line.split(",")[2] for line in lines[1:]]
    assert products == ["0.6180339887", "1.416407865", "1.713228931"]


def test_verify_lines(capsys):
    code, out, _ = run(capsys, "verify", "--cases", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    for line in lines[:3]:
        obj = json.loads(line)
        assert obj["ok"] is True and obj["cases"] == 5
    assert json.loads(lines[3]) == {"ok": True, "failures": []}


def test_verify_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(
        badapprox.oracle, "run_suite", lambda cases, seed: OracleReport(0, 0, 0, ("synthetic",))
    )
    code, out, _ = run(capsys, "verify", "--cases", "1")
    assert code == 2
    assert json.loads(out.strip().split("\n")[-1]) == {
        "ok": False,
        "failures": ["synthetic"],
    }


def test_verify_cases_are_capped_at_parse_time(capsys, monkeypatch):
    asked = []

    def fake(cases, seed):
        asked.append(cases)
        return OracleReport(cases, cases, cases, ())

    monkeypatch.setattr(badapprox.oracle, "run_suite", fake)
    assert run(capsys, "verify", "--cases", "100000")[0] == 0
    for text in ("100001", "99999999999999999999"):
        code, out, err = run(capsys, "verify", "--cases", text)
        assert code == 64 and out == "" and "must be <= 100000" in err
    assert asked == [100000]


def test_misspelled_expansion_key_is_a_usage_error(capsys):
    theta = '{"a0": 0, "prefix": [2], "peroid": [3]}'
    code, out, err = run(capsys, "gaps", "--theta", theta, "--n", "1", "--format", "csv")
    assert (code, out) == (64, "")
    assert err.startswith("usage error: malformed expansion object: unknown key 'peroid'")


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "fb", "--b", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["f"] == "1+2/sqrt(5)"


def test_usage_errors(capsys, tmp_path):
    for argv in (
        ["nonsense"],
        ["gaps", "--theta", "pi", "--n", "3"],
        ["gaps", "--theta", "{not json", "--n", "3"],
        ["sturmian", "--theta", '{"a0": 0, "prefix": [], "period": [true]}', "--n", "5"],
        ["sturmian", "--theta", '{"a0": false, "period": [1]}', "--n", "5"],
        ["gaps", "--n", "3"],
        ["kron", "--theta", "golden", "--beta", "x", "--n", "3"],
        ["gaps", "--theta", "golden", "--n", "5", "--precision-digits", "0"],
        ["gaps", "--theta", "golden", "--n", "5", "--precision-digits", "1001"],
        ["verify", "--cases", "-1"],
        ["fb", "--b", "2", "--out", str(tmp_path / "missing" / "fb.json")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert err
    code, _, _ = run(capsys, "verify", "--cases", "0")
    assert code == 0
    code, out, _ = run(capsys, "fb", "--b", "2", "--precision-digits", "1000")
    assert code == 0 and json.loads(out)["decimal"] == 2.1547005383792515


def test_domain_errors(capsys):
    for argv in (
        ["gaps", "--theta", "golden", "--n", "0"],
        ["sturmian", "--theta", '{"a0": 0, "prefix": [2, 3]}', "--n", "5"],
        ["gaps", "--theta", '{"a0": 0, "prefix": [2, 3]}', "--n", "30"],
        ["fb", "--b", "0"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:")


def test_theta_json_round_trip(capsys):
    spec = '{"a0": 0, "prefix": [2], "period": [1, 5]}'
    code, out, _ = run(capsys, "gaps", "--theta", spec, "--n", "6")
    assert code == 0
    assert len(json.loads(out)["points"]) == 8


def test_interleaved_calls_give_identical_results(capsys):
    # Parsing keeps no state between calls: each call, run again after the
    # others in either order, prints the same exit code, stdout and stderr.
    calls = [
        ["gaps", "--theta", "golden", "--n", "30", "--format", "csv"],
        ["regime", "--theta", "sqrt2", "--n", "7"],
        ["gaps", "--theta", "pi", "--n", "3"],
        ["kron", "--theta", "sqrt2", "--beta", "9/10", "--n", "4", "--format", "csv"],
        ["gaps", "--theta", "golden", "--n", "5", "--precision-digits", "20"],
        ["extremal", "--b", "2", "--n", "3"],
        ["gaps", "--n", "3"],
        ["fb", "--b", "3", "--format", "csv"],
        ["fb", "-h"],
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert first[2][0] == first[6][0] == 64
    for argv, want in [*zip(calls, first), *zip(reversed(calls), reversed(first))]:
        assert run(capsys, *argv) == want, argv


_BIG = "9" * 5000


@pytest.mark.parametrize(
    "argv, fragment",
    [
        ([], "no subcommand; choose from gaps, regime, fb"),
        (["nosuch"], "unknown subcommand 'nosuch'"),
        (["--n", "3"], "unknown subcommand '--n'"),
        (["gaps", "--theta", "golden", "--n", "3", "--nmax", "4"], "gaps: unknown option '--nmax'"),
        (["gaps", "--thet", "golden", "--n", "3"], "gaps: unknown option '--thet'"),
        (["verify", "--format", "json"], "verify: unknown option '--format'"),
        (["gaps", "--theta", "golden", "3"], "gaps: stray word '3'"),
        (["gaps", "--theta", "golden", "--n", "3", ""], "gaps: stray word ''"),
        (["gaps", "--theta", "golden", "--n"], "argument --n: expected one value"),
        (["kron", "--n", "3"], "kron: the following arguments are required: --theta, --beta"),
        (["gaps"], "gaps: the following arguments are required: --theta, --n"),
        (["gaps", "--theta", "golden", "--n", "3.5"], "argument --n: invalid int value: '3.5'"),
        (["gaps", "--theta", "golden", "--n="], "argument --n: invalid int value: ''"),
        (["fb", "--b", _BIG], "argument --b: invalid int value"),
        (["fb", "--b", "2", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["fb", "--b", "2", "--precision-digits", "0"], "argument --precision-digits: must be >= 1, got 0"),
        (["fb", "--b", "2", "--precision-digits", "1001"], "must be <= 1000, got 1001"),
        (["verify", "--cases", "-1"], "argument --cases: must be >= 0, got -1"),
        (["verify", "--cases", "100001"], "argument --cases: must be <= 100000"),
    ],
)
def test_parse_failures_name_the_option(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err.startswith("usage error:") and fragment in err, err


@pytest.mark.parametrize(
    "argv, same",
    [
        (["fb", "--b", "1", "--b", "2"], ["fb", "--b", "2"]),
        (["fb", "--b", "2", "--format", "csv", "--format", "json"], ["fb", "--b", "2"]),
        (["gaps", "--theta=golden", "--n=3"], ["gaps", "--theta", "golden", "--n", "3"]),
        (["gaps", "--n=3", "--format=csv", "--theta=sqrt2"], ["gaps", "--theta", "sqrt2", "--n", "3", "--format", "csv"]),
        (["kron", "--beta=9/10", "--theta", "sqrt2", "--n=4", "--precision-digits=20"],
         ["kron", "--theta", "sqrt2", "--beta", "9/10", "--n", "4", "--precision-digits", "20"]),
        (["gaps", "--theta={\"a0\": 0, \"prefix\": [2], \"period\": [1, 5]}", "--n", "6"],
         ["gaps", "--theta", '{"a0": 0, "prefix": [2], "period": [1, 5]}', "--n", "6"]),
        (["verify", "--cases=3", "--seed=7"], ["verify", "--seed", "7", "--cases", "3"]),
    ],
)
def test_option_spellings_print_the_same_report(capsys, argv, same):
    # --name=value reads as --name value, and the last repeat wins.
    want = run(capsys, *same)
    assert want[0] == 0
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("sub", [None, *cli._COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_name(capsys, sub, flag):
    code, out, err = run(capsys, *([] if sub is None else [sub]), flag)
    assert (code, err) == (0, "")
    names = list(cli._COMMANDS) if sub is None else list(cli._COMMANDS[sub][2])
    assert all(name in out for name in names), out
    assert out.startswith("usage: badapprox")
    if sub is not None:
        # Help wins wherever it stands among the options.
        first = next(iter(cli._COMMANDS[sub][2]))
        assert run(capsys, sub, first, "1", flag) == (0, out, "")


@pytest.mark.parametrize(
    "argv, field",
    [
        (("fb", "--b", "1" + "0" * 400), "decimal"),
        (("kron", "--theta", "golden", "--beta", "1/3", "--n", "1" + "0" * 330), "bound"),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_numbers_past_a_double_are_domain_errors(capsys, argv, field, fmt):
    # Each once exited 0 printing Infinity (inf in CSV) or a false 0.0.
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field} ") and "double" in err


def test_an_unprintable_kron_bound_is_refused_before_solving(capsys):
    # C(B)/(2N) is known before solve walks theta, which at a 4001-digit
    # N takes seconds.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "kron", "--theta", "golden", "--beta", "1/3", "--n", "1" + "0" * 4000)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: bound ") and "double" in err
    # solve's own argument checks still speak first.
    code, _, err = run(capsys, "kron", "--theta", "golden", "--beta", "3/2", "--n", "1" + "0" * 4000)
    assert code == 1 and err == "error: target must lie in [0, 1)\n"


def test_numbers_inside_the_double_range_print_as_before(capsys):
    # The extremes a double still holds print their rounded decimals.
    code, out, _ = run(capsys, "fb", "--b", "1" + "0" * 300)
    assert code == 0 and json.loads(out)["decimal"] == 2.5e299
    code, out, _ = run(capsys, "kron", "--theta", "golden", "--beta", "1/3", "--n", "1" + "0" * 300)
    obj = json.loads(out)
    assert code == 0 and 0 < obj["error"] < obj["bound"] < 1e-290


def test_integers_past_the_print_limit_are_domain_errors(capsys):
    # f for a 2200-digit bound has a radicand past Python's 4300-digit limit
    # for str(), which once escaped as a bare ValueError; so did the N of an
    # extremal witness past that limit, from json.dumps.
    code, out, err = run(capsys, "fb", "--b", "9" * 2200)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "too long for Python to print" in err
    for render in (cli._json, cli._csv):
        with pytest.raises(badapprox.DomainError, match="too long"):
            render([[10**5000]])


def test_an_integer_one_digit_past_the_print_limit_exits_1(capsys, monkeypatch):
    # The JSON writer prints ints with int.__repr__, which raises past
    # Python's digit limit; _printed makes that exit 1, not a traceback.
    # A report one digit shorter prints.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no digit limit for str()")
    for digits, want in ((limit, 0), (limit + 1, 1)):
        row = badapprox.DiversityRow(r=2, max_agreement=10 ** (digits - 1), bound=1, passed=True)
        monkeypatch.setattr(badapprox.sturmian, "diversity_scan", lambda cf, b, rmax: [row])
        code, out, err = run(capsys, "diversity", "--theta", "golden", "--b", "1", "--rmax", "2", "--format", "json")
        assert code == want, digits
        if want:
            assert out == "" and err == f"error: {cli._TOO_LONG}\n"
        else:
            assert json.loads(out)["rows"][0]["max_agreement"] == 10 ** (digits - 1)


def test_unprintable_witnesses_are_refused_before_any_work(capsys, monkeypatch):
    # N > 10^((stage + 1)*(digits(B) - 1))/2, so a product past the str()
    # limit can never print: exit 1 at once, with the message a late
    # refusal prints.
    built = []
    real = badapprox.gaps.extremal_witness
    monkeypatch.setattr(badapprox.gaps, "extremal_witness", lambda b, n: built.append(n) or real(b, n))
    for argv in (("extremal", "--b", "9" * 700, "--n", "7"),
                 ("extremal", "--b", "9" * 400, "--n", "40"),
                 ("extremal", "--b", "9" * 1434, "--n", "3"),
                 ("extremal", "--b", "9" * 2150, "--n", "2"),
                 ("convergence", "--b", "9" * 400, "--nmax", "20")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.2, argv
        assert (code, out, built) == (1, "", []), argv
        assert err == "error: the report holds an integer too long for Python to print\n"
    # Just inside the limit the witness is built as before. Under the lowest
    # limit, 640 digits: 2*320, 3*213 and 4*160 are built (their N still
    # cannot print), 2*321, 3*214 and 4*161 are refused unbuilt.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for sub, flag in (("extremal", "--n"), ("convergence", "--nmax")):
            for digits, stage, builds in ((321, 1, True), (322, 1, False), (214, 2, True),
                                          (215, 2, False), (161, 3, True), (162, 3, False)):
                built.clear()
                code, out, err = run(capsys, sub, "--b", "9" * digits, flag, str(stage))
                assert (code, out) == (1, "") and "too long" in err
                assert built[-1:] == ([stage] if builds else []), (sub, digits, stage)
    finally:
        sys.set_int_max_str_digits(limit)
    # At the default limit, 2*319 = 638 digits is far inside: the report
    # prints what it printed before the check.
    code, out, _ = run(capsys, "extremal", "--b", "9" * 320, "--n", "2")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "c20ffa2183a9d6da0f9e57f07e877a6f"


# ---- argv fuzz ----------------------------------------------------------

_NOT_NUMBERS = ["", "x", "1.5", "1e3", "1/3", "golden", "{", " 7", "\u0663", "--n"]
_LONG = ["9" * 400, "-" + "9" * 400]
_AT_CAPS = ["0", "-1", "1000", "1001", "100000", "100001", str(MAX_STAGE + 1), str(MAX_POINTS + 1)]

# (subcommand, option) -> (cap, limit). A size that makes a call run long is
# drawn only up to cap, or from limit up, where the call is refused before
# the work starts; other integers are drawn up to 50 or with 400 digits.
_SIZES = {
    ("gaps", "--n"): (2000, MAX_POINTS + 1),  # JSON listings; CSV statistics take O(log N)
    ("sturmian", "--n"): (10**4, MAX_BITS + 1),
    ("diversity", "--b"): (3, 10**6),  # a window of rmax*(2(B+2)^2 rmax^2 + 1) bits
    ("diversity", "--rmax"): (12, MAX_BITS + 1),
    ("witness", "--n"): (6, 8),  # stage 7 builds 433,178,079 bits
    ("arrays", "--n"): (3, 7),  # CSV at stage 4 and 1000 digits takes a second
    ("extremal", "--n"): (5, MAX_STAGE + 1),
    ("convergence", "--nmax"): (5, MAX_STAGE + 1),
    ("verify", "--cases"): (3, 100001),
}
_THETAS = [
    "golden", "sqrt2", "extremal:1", "extremal:4", "extremal:" + "9" * 400,
    '{"a0": 0, "prefix": [2, 3]}', '{"a0": 0, "prefix": [' + "9" * 400 + '], "period": [1]}',
    '{"a0": 0, "prefix": [2], "period": [1, 5]}', '{"a0": -3, "prefix": [1, 7], "period": [2]}',
]
_BAD_THETAS = ["extremal:0", "pi", "", "{", '{"a0": 0, "prefix": [], "period": [true]}',
               '{"a0": 0, "prefix": [' + _BIG + '], "period": [1]}']
_BETAS = ["1/3", "9/10", "0", "-1/3", "1", "1e-400", "1/" + "9" * 400, "0.25"]
_BAD_BETAS = ["1/0", "x", ""]
_BAD_SUBS = ["", "nosuch", "GAPS", "--n", "-h", "--help"]
_BAD_FLAGS = ["--nope", "--", "-n", "--thet", "--N", "-h", "--help"]


def _values(sub, flag, out_path, bad):
    """Values for one option: served ones, or (bad) ones it must refuse."""
    pick = {
        "--theta": (_THETAS, _BAD_THETAS),
        "--beta": (_BETAS, _BAD_BETAS),
        "--format": (["json", "csv"], ["xml", "", "JSON"]),
        "--out": ([str(out_path), ""], [str(out_path.parent / "missing" / "r.txt")]),
    }.get(flag)
    if pick:
        return st.sampled_from(pick[bad])
    cap, limit = _SIZES.get((sub, flag), (50, None))
    if bad:
        past = st.integers(limit, 10 * limit).map(str) | st.just(_LONG[0]) if limit else st.sampled_from(_AT_CAPS)
        return past | st.sampled_from([_LONG[1], _BIG, *_NOT_NUMBERS])
    if flag == "--precision-digits":
        return st.integers(1, 40).map(str) | st.just("1000")
    return st.integers(1, cap).map(str) | (st.nothing() if limit else st.just(_LONG[0]))


@st.composite
def _argvs(draw, out_path):
    """(argv, subcommand, [(flag, value), ...] in the order given).

    Each call draws a rate of malformed words, from none to half of them.
    """
    rate = draw(st.sampled_from([0, 0, 1, 2, 5]))

    def bad():
        return draw(st.integers(0, 9)) >= 10 - rate  # shrinks toward well-formed

    sub = draw(st.sampled_from(_BAD_SUBS if bad() else list(cli._COMMANDS)))
    table = cli._COMMANDS.get(sub, (None, None, {}))[2]
    known = sorted(table) or sorted({f for _, _, opts in cli._COMMANDS.values() for f in opts})
    flags = [f for f in table if not bad()]  # drop a required option now and then
    flags += draw(st.lists(st.sampled_from(_BAD_FLAGS if bad() else known), max_size=2))
    flags = draw(st.permutations(flags))
    argv, pairs = [sub], []
    for flag in flags:
        value = draw(_values(sub, flag, out_path, bad()))
        pairs.append((flag, value))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if bad():
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_NOT_NUMBERS)))
    if flags and bad() and "=" not in argv[-1]:
        argv.pop()  # a trailing option with no value
    return argv, sub, pairs


def _refuse(constant):
    raise AssertionError(f"{constant} in a JSON report")


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "r.txt"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_argv_fuzz(fuzz_out, data):
    # Every argv drawn off the option table ends in a documented exit code,
    # with nothing escaping cli.main, and every report it prints is valid:
    # strict JSON with no Infinity or NaN, and CSV with no inf or nan.
    argv, sub, pairs = data.draw(_argvs(fuzz_out))
    fuzz_out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 64), (argv, err)
    if code in (1, 64):
        assert out == "" and err.startswith(("error:", "usage error:")), (argv, err)
        return
    if out.startswith("usage: badapprox"):
        assert code == 0 and err == ""
        return
    report = out or fuzz_out.read_text()
    if sub == "verify":
        for line in report.splitlines():
            json.loads(line, parse_constant=_refuse)
        return
    formats = [v for f, v in pairs if f == "--format"] or [cli._COMMANDS[sub][2]["--format"].default]
    if formats[-1] == "json":
        json.loads(report, parse_constant=_refuse)
    else:
        assert not re.search(r"(^|,)-?(inf|nan)(,|$)", report, re.M), argv


def test_extremal_gap_to_f_digits_hold_at_deep_stages(capsys):
    # (bound, stage): (gap_to_f, k_surrogate). Bound 12 at stage 40 takes
    # five certification rounds at the policy depth.
    want = {
        (3, 12): ("0.00000001366478622", 46),
        (3, 20): ("4.920222451e-14", 62),
        (3, 40): ("1.210429448e-27", 138),
        (12, 40): ("2.15210173e-46", 127),
    }
    for (b, stage), (shown, depth) in want.items():
        code, out, _ = run(capsys, "extremal", "--b", str(b), "--n", str(stage))
        assert code == 0
        obj = json.loads(out)
        assert (obj["gap_to_f"], obj["k_surrogate"]) == (shown, depth)
        walk = Walk(CFSpec(0, (), (b, 1)))
        conv = [walk.convergent(k) for k in range(2 * stage + 1)]
        with mpmath.workdps(250):
            theta = (mpmath.sqrt(b * b + 4 * b) - b) / (2 * b)  # [0; b, 1, b, 1, ...]
            f = {3: 1 + 6 / mpmath.sqrt(21), 12: 1 + 49 / (2 * mpmath.sqrt(48))}[b]
            r = [abs(c.q * theta - c.p) for c in conv]
            h = r[2 * stage - 1] - (b - 2) // 2 * r[2 * stage]
            true_gap = f - obj["n"] * h
            assert abs(mpmath.mpf(shown) / true_gap - 1) < mpmath.mpf(10) ** -9


def test_gap_lengths_below_the_smallest_float(capsys):
    # Golden gaps are powers of theta; at N = 10**400 they sit near
    # 10**-400, past where any Python float can stand in for 10**e.
    n = 10**400
    code, out, _ = run(capsys, "gaps", "--theta", "golden", "--n", str(n), "--format", "csv")
    assert code == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert header == ["gap", "multiplicity"] and 2 <= len(rows) <= 3
    assert sum(int(m) for _, m in rows) == n + 1
    with mpmath.workdps(60):
        theta = (mpmath.sqrt(5) - 1) / 2
        for shown, _ in rows:
            value = mpmath.mpf(shown)
            assert value > 0, shown
            j = int(mpmath.nint(mpmath.log(value) / mpmath.log(theta)))
            assert abs(value / theta**j - 1) < mpmath.mpf(10) ** -9, shown


def test_gap_to_f_gives_up_after_ten_rounds(capsys, monkeypatch):
    real = badapprox.Walk.first_past
    calls = []

    def never_deeper(walk, least):
        calls.append(least)
        return real(walk, calls[0])

    monkeypatch.setattr(badapprox.Walk, "first_past", never_deeper)
    code, out, err = run(capsys, "extremal", "--b", "3", "--n", "20")
    assert code == 2 and out == ""
    assert "could not certify" in err
    # Ten deepening rounds, each picking one surrogate.
    assert len(calls) <= 12


def test_deeper_digits_build_no_witness(capsys, monkeypatch):
    # One witness per displayed stage: built at the policy depth, and only
    # its gap-set certification reruns at the display radius; f - N*H comes
    # exact on it, so no gap set is read for its digits.
    built, read = [], []
    real_witness, real_gap_set = badapprox.gaps.extremal_witness, badapprox.gaps._gap_set

    def witness(*args, **kwargs):
        built.append(args)
        return real_witness(*args, **kwargs)

    def gap_set(*args, **kwargs):
        read.append(args)
        return real_gap_set(*args, **kwargs)

    monkeypatch.setattr(badapprox.gaps, "extremal_witness", witness)
    monkeypatch.setattr(badapprox.gaps, "_gap_set", gap_set)
    for digits in ("10", "40"):
        code, out, _ = run(capsys, "extremal", "--b", "1", "--n", "10",
                           "--precision-digits", digits)
        assert code == 0 and json.loads(out)["stage"] == 10
    code, out, _ = run(capsys, "convergence", "--b", "3", "--nmax", "12",
                       "--precision-digits", "40")
    assert code == 0
    assert len(built) == 2 + 12 and read == []


def test_extremal_sweep_is_pinned(capsys):
    # md5 of the concatenated stdout, as printed when the digits of
    # f - N*H were read off ever deeper gap sets instead of computed
    # exactly in the constant's field.
    md5 = hashlib.md5()
    for b in range(1, 13):
        for stage in (1, 2, 3, 5, 8, 13, 21, 34, 40):
            for digits in ("10", "40"):
                code, out, _ = run(capsys, "extremal", "--b", str(b), "--n", str(stage),
                                   "--precision-digits", digits)
                assert code == 0
                md5.update(out.encode())
    assert md5.hexdigest() == "1c98fd929762865333dc2fa075b484d2"
    code, out, _ = run(capsys, "convergence", "--b", "1", "--nmax", "40",
                       "--precision-digits", "40")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "96760f01651a8e0dea454eaae82ea0a6"


@pytest.mark.parametrize(
    "argv",
    [
        ("--b", "0", "--nmax", "0"),
        ("--b", "3", "--nmax", "0", "--format", "json"),
        ("--b", "-3", "--nmax", "-2"),
    ],
)
def test_convergence_needs_a_stage(capsys, argv):
    code, out, err = run(capsys, "convergence", *argv)
    assert code == 1 and out == "" and "error:" in err


def test_cli_runs_without_numpy():
    code = (
        "import sys\n"
        "from badapprox import cli\n"
        "for argv in (['kron', '--theta', 'sqrt2', '--beta', '1/3', '--n', '100000'],\n"
        "             ['sturmian', '--theta', 'golden', '--n', '500', '--format', 'csv'],\n"
        "             ['diversity', '--theta', 'golden', '--b', '1', '--rmax', '12'],\n"
        "             ['verify', '--cases', '2']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(badapprox.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


# One call per subcommand, with the submodules past cli's own (cf, errors,
# quadratic, render) that it must load. None of them loads mpmath, verify
# included: its oracles run on integers.
_FOOTPRINT_CALLS = (
    (("-h",), set()),
    (("fb", "--b", "2"), {"gaps"}),
    (("gaps", "--theta", "golden", "--n", "5"), {"gaps"}),
    (("regime", "--theta", "golden", "--n", "5"), {"gaps"}),
    (("extremal", "--b", "2", "--n", "3"), {"gaps"}),
    (("convergence", "--b", "2", "--nmax", "3"), {"gaps"}),
    (("kron", "--theta", "sqrt2", "--beta", "1/3", "--n", "10"), {"gaps", "kronecker"}),
    (("sturmian", "--theta", "golden", "--n", "8"), {"sturmian"}),
    (("diversity", "--theta", "golden", "--b", "1", "--rmax", "3"), {"sturmian"}),
    (("witness", "--n", "2"), {"sturmian"}),
    (("arrays", "--n", "2"), {"sturmian"}),
    (("verify", "--cases", "1"), {"gaps", "kronecker", "oracle", "sturmian"}),
)

# Prints what `import badapprox` loads and lists, then, for each call, the
# submodules one cli.main call loads into a package imported afresh. Every
# submodule is in sys.modules; one whose code has not run yet is still a
# LazyLoader module, whose class is a subclass of ModuleType.
_FOOTPRINT = """
import contextlib, io, json, sys, types
import badapprox

def loaded():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("badapprox.") and type(module) is types.ModuleType)

report = {"import": loaded(), "mpmath": "mpmath" in sys.modules,
          "registered": sorted(name for name in sys.modules if name.startswith("badapprox.")),
          "not_in_dir": sorted(set(badapprox.__all__) - set(dir(badapprox))), "calls": []}
for argv in json.loads(sys.argv[1]):
    for name in [name for name in sys.modules if name.split(".")[0] == "badapprox"]:
        del sys.modules[name]
    from badapprox import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report["calls"].append((code, loaded(), "mpmath" in sys.modules))
print(json.dumps(report))
"""


def test_each_process_loads_only_what_it_runs():
    argvs = [list(argv) for argv, _ in _FOOTPRINT_CALLS]
    assert {argv[0] for argv in argvs[1:]} == set(cli._COMMANDS)
    env = {**os.environ, "PYTHONPATH": str(Path(badapprox.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(done.stdout)
    # The package alone loads no submodule and no mpmath, yet lists every
    # public name and puts every submodule but cli in sys.modules, where
    # perfbench's tracer looks its layers up.
    assert (report["import"], report["mpmath"], report["not_in_dir"]) == ([], False, [])
    assert report["registered"] == sorted(f"badapprox.{name}" for name in badapprox._NAMES)
    base = {"cf", "cli", "errors", "quadratic", "render"}
    for (argv, extra), (code, modules, mpmath_loaded) in zip(_FOOTPRINT_CALLS, report["calls"]):
        assert code == 0, argv
        assert modules == sorted(f"badapprox.{name}" for name in base | extra), argv
        assert not mpmath_loaded, argv
    # Each public name is the object its module defines, and a star import
    # binds them all.
    for name in badapprox.__all__:
        value = getattr(badapprox, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    star = {}
    exec("from badapprox import *", star)
    assert all(star[name] is getattr(badapprox, name) for name in badapprox.__all__)


def test_fb_digits_for_small_bounds_are_pinned(capsys):
    # md5 of the concatenated stdout of fb --b 1..60 at 10 and 40 digits,
    # as printed before radicands were factored only where they enter.
    digest = hashlib.md5()
    for b in range(1, 61):
        for digits in ("10", "40"):
            code, out, _ = run(capsys, "fb", "--b", str(b), "--precision-digits", digits)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == "c8e8c3efe09c238dd6e2c2acd2563824"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([("arrays", "--n", str(n)) for n in range(2, 7)], "bad625a884b2fe42db987b0e1df132ad"),
        ([("arrays", "--n", str(n), "--format", "csv") for n in range(2, 7)],
         "74c2c6d042d3f50bdd304a0c7d2079e4"),
        ([("witness", "--n", str(n)) for n in range(2, 7)], "5ba3ef0ac0cca64970aa52186b1fa458"),
        ([("witness", "--n", str(n), "--format", "csv") for n in range(2, 7)],
         "1106cbdbfbc816267475834050bb0804"),
    ],
    ids=["arrays-json", "arrays-csv", "witness", "witness-csv"],
)
def test_golden_reports_are_pinned(capsys, argv, digest):
    # md5 of the concatenated stdout at stages 2..6, as printed when
    # fractional_grids still built and walked every grid entry.
    md5 = hashlib.md5()
    for args in argv:
        code, out, _ = run(capsys, *args)
        assert code == 0
        md5.update(out.encode())
    assert md5.hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([("regime", "--theta", theta, "--n", "100000", "--format", "csv")
          for theta in ("golden", "sqrt2", "extremal:3")], "c91f7a2c6a2cf58e66d10457d2fadf8f"),
        ([("convergence", "--b", "3", "--nmax", "12", "--format", "json")],
         "cc906d3c68241956d5c02c6a22030fe4"),
        ([("convergence", "--b", "1", "--nmax", "20", "--format", "json",
           "--precision-digits", "40")], "bf10a40db6babce6747be4007e5e716e"),
    ],
    ids=["regime-csv", "convergence-json", "convergence-json-40"],
)
def test_other_report_formats_are_pinned(capsys, argv, digest):
    # md5 of the concatenated stdout of report formats that no other test
    # or benchmark call prints.
    md5 = hashlib.md5()
    for args in argv:
        code, out, _ = run(capsys, *args)
        assert code == 0
        md5.update(out.encode())
    assert md5.hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [("json", "bf4adda6043605ce82c768bf895c148e"), ("csv", "7be5389248ddfca4b5cd28eb6145f864")],
)
def test_golden_diversity_report_is_pinned(capsys, fmt, digest):
    # md5 of the stdout printed when every row sorted whole-window columns.
    code, out, _ = run(capsys, "diversity", "--theta", "golden", "--b", "1", "--rmax", "60",
                       "--format", fmt)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--theta", "sqrt2", "--n", "100000"), "044849888d91fe5edca84f1cd5fcc6a6"),
        (("--theta", "golden", "--n", "20000", "--precision-digits", "40"),
         "a78ac46cfea919383598b4deb9543349"),
    ],
    ids=["sqrt2-1e5", "golden-2e4-40"],
)
def test_point_listings_are_pinned(capsys, argv, digest):
    # md5 of the stdout printed when every point was rendered on its own.
    code, out, _ = run(capsys, "gaps", *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_arrays_json_builds_no_entry(capsys, monkeypatch):
    grids = []

    def recorded(n):
        grids.append(badapprox.fractional_grids(n))
        return grids[-1]

    monkeypatch.setattr(badapprox.sturmian, "fractional_grids", recorded)
    code, out, _ = run(capsys, "arrays", "--n", "6")
    assert code == 0 and json.loads(out)["verified"] is True
    assert "lower" not in vars(grids[0]) and "upper" not in vars(grids[0])


@pytest.mark.parametrize(
    "argv",
    [
        ("diversity", "--theta", "golden", "--b", str(10**25), "--rmax", "3"),
        ("witness", "--n", "30"),
        ("sturmian", "--theta", "golden", "--n", str(10**20)),
    ],
)
def test_bit_budget_is_a_domain_error(capsys, argv):
    # Each once ended in an OverflowError traceback from allocating the bits.
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "MAX_BITS" in err
    assert "Traceback" not in err
    assert elapsed < 1.0


@pytest.mark.parametrize("stage", ["8", "100000"])
def test_witness_stages_past_the_bit_budget_are_refused_first(capsys, stage):
    # Stage 8 would scan 7.8e9 bits; the refusal once came only after the
    # Z[phi] work, 1.5 s at stage 20000, and stage 100000 did not end in 10 s.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "witness", "--n", stage)
    elapsed = time.perf_counter() - t0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "MAX_BITS" in err
    assert elapsed < 0.5


def test_witness_checks_uniqueness_past_stage_5(capsys):
    code, out, _ = run(capsys, "witness", "--n", "6")
    assert code == 0
    assert json.loads(out)["crossing"]["unique"] is True


@pytest.mark.parametrize(
    "argv",
    [("extremal", "--b", "1", "--n", "1000000"), ("convergence", "--b", "1", "--nmax", "1000000")],
)
def test_extremal_stage_limit(capsys, argv):
    # Each ran past a 10 s timeout, building every convergent and residual.
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "MAX_STAGE" in err
    assert elapsed < 1.0


def test_deepest_certified_extremal_stage_is_served(capsys):
    # md5 of the stdout printed before the stage limit existed.
    code, out, _ = run(capsys, "extremal", "--b", "1", "--n", "266")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "77c5623d92205f9ccbae6ec0a1bdbd1f"


def test_theta_json_with_a_huge_integer_is_a_usage_error(capsys):
    # json.loads refuses integers past 4300 digits with a plain ValueError,
    # which once escaped as a traceback.
    theta = '{"a0": 0, "prefix": [' + "9" * 5000 + '], "period": [1]}'
    code, out, err = run(capsys, "gaps", "--theta", theta, "--n", "5")
    assert code == 64 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err


def test_points_budget_is_a_domain_error(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gaps", "--theta", "sqrt2", "--n", "300000000")
    elapsed = time.perf_counter() - t0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "MAX_POINTS" in err
    assert elapsed < 1.0
    # Gap statistics never put the points in order, so the budget leaves them be.
    code, out, _ = run(capsys, "gaps", "--theta", "sqrt2", "--n", "300000000", "--format", "csv")
    assert code == 0 and out.startswith("gap,multiplicity")


def test_points_budget_edge(capsys, monkeypatch):
    monkeypatch.setattr(badapprox.gaps, "MAX_POINTS", 100)
    code, out, _ = run(capsys, "gaps", "--theta", "golden", "--n", "100")
    assert code == 0 and len(json.loads(out)["points"]) == 102
    code, out, err = run(capsys, "gaps", "--theta", "golden", "--n", "101")
    assert code == 1 and out == "" and "MAX_POINTS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fb", "--b", str(10**25)),
        ("kron", "--theta", json.dumps({"a0": 0, "prefix": [3, 10**25, 2], "period": []}),
         "--beta", "1/3", "--n", "1000"),
    ],
)
def test_huge_partial_quotients_answer(argv):
    # The radicand of f(10**25) is near 10**50; factoring it by unbounded
    # trial division never finished.
    env = {**os.environ, "PYTHONPATH": str(Path(badapprox.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "badapprox.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=10)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)


def test_out_of_memory_is_a_domain_error():
    # witness --n 7 builds 433,178,079 bits in one buffer; under a 256 MiB
    # address-space cap that allocation fails, which once ended in a bare
    # MemoryError traceback.
    cap = 256 * 2**20
    code = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, hard))\n"
        "from badapprox import cli\n"
        "sys.exit(cli.main(['witness', '--n', '7']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(badapprox.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error:") and "memory" in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def _cli_process(argv, stdout=subprocess.PIPE):
    """The CLI run in a child process, with text stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(badapprox.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "badapprox.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("fb", "--b", "2"), ("gaps", "--theta", "golden", "--n", "5000")])
def test_a_full_stdout_is_one_usage_error_line(argv):
    # A small report fails on the flush, a 100 kB one on the write; either
    # once ended in an OSError traceback.
    with open("/dev/full", "w") as full:
        out = _cli_process(argv, stdout=full)
    assert out.returncode == 64
    assert out.stderr.startswith("usage error: cannot write stdout: ")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr


def test_an_unwritable_out_is_one_usage_error_line(tmp_path):
    target = tmp_path / "missing" / "fb.json"
    out = _cli_process(["fb", "--b", "2", "--out", str(target)])
    assert out.returncode == 64
    assert out.stdout == ""
    assert out.stderr == f"usage error: cannot write --out: [Errno 2] No such file or directory: '{target}'\n"
