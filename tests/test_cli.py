"""CLI contract: JSON documents, exit codes, CSV output."""

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from mahlercf import conditions, kernels, laurent, recurrence, search
from mahlercf.cli import (
    EXIT_MATH_FAILURE,
    EXIT_NEGATIVE,
    EXIT_NO_PRECISION,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BLOCKS,
    MAX_DENSITY_CELLS,
    MAX_DEPTH,
    MAX_HORIZON,
    MAX_JOBS,
    MAX_PRIMES_MAX,
    MAX_SCAN_PRIME,
    main,
)
from mahlercf.fields import PRIMALITY_LIMIT


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def refused_before_any_run(monkeypatch, capsys, argv, *run_functions,
                           expect=f"limit of {MAX_HORIZON}"):
    """main(argv) exits 64 with ``expect`` on stderr, never calls the run
    functions and allocates almost nothing; returns stderr."""
    for module, name in run_functions:
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("a run started"))
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert expect in captured.err
    assert peak < 1_000_000
    return captured.err


# sha256 of "" : the stream a command leaves empty
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (command line, exit code, sha256 of stdout, sha256 of stderr): every
# command and every exit code, refusals and parse errors included. A change
# that is not meant to change what the CLI prints must not change these.
PINNED_OUTPUT = {
    "recurrence-mod-p": ("recurrence -u 5 -v 1 -p 11 -n 9", EXIT_OK,
        "f206a0d7a5d30512eed109e0837439b314d400e95e919323d99e6da0de6fd79a", EMPTY),
    "recurrence-q": ("recurrence -u=2 -v=3 -n 6", EXIT_OK,
        "33d3b37fd68bc4da71c6b862204b980cf2d8301b8ce5a4035614caa55e860923", EMPTY),
    "recurrence-failure": ("recurrence -u 1 -v 1 -n 10", EXIT_MATH_FAILURE,
        "1a87d84a63802dd7b7bb801c6a259b5c3345ead5d2066080591a4716d1471a6b", EMPTY),
    "recurrence-q-dies-at-3": ("recurrence -u 1 -v=-2 -n 5", EXIT_MATH_FAILURE,
        "04f7e5b2210e3a3c9fe1e6f3bcdf982ebed0aff7e0866da5d35727c25903a2f5", EMPTY),
    "recurrence-dies-at-3-past-n": ("recurrence -u 1 -v 3 -p 5 -n 2", EXIT_MATH_FAILURE,
        "822fd1a4b0ceefb48c688f21c35857cad3d49aa7addff204bcf03346e0dfb2db", EMPTY),
    # beta_8 = 0 at 3k+5 (k = 1): alpha_8 is absent and beta_7 = u^2 - v = 6
    "recurrence-dies-at-3k+5": ("recurrence -u 3 -v 3 -p 11 -n 8", EXIT_MATH_FAILURE,
        "b4c657cc25a0f48dbbb7942ca7ad9e35190ea1d2c1b8db7524ac602eb6bd1717", EMPTY),
    "recurrence-no-residue": ("recurrence -u=1/7 -v=1 -p 7 -n 5", EXIT_USAGE,
        EMPTY, "f5c3016243b6945225a264d7a59059fbbd88881f2059a5ddeb46f28432dfcc05"),
    "recurrence-bad-u": ("recurrence -u=abc -v=1 -n 3", EXIT_USAGE,
        EMPTY, "f58c8ad4656f07a5a490bfc3e78f012af29655fbc19b612619ff5a6f0062e64b"),
    "recurrence-n-0": ("recurrence -u=1 -v=1 -n 0", EXIT_USAGE,
        EMPTY, "baa079a70c031bf66ef977860b1836bacdc2d4901e084b5ba3b5278c41c80b2d"),
    "cf-agree": ("cf -u 2 -v 3 -n 20", EXIT_OK,
        "24803205ca1e5c9fa0fc4a5156bd13994cf56b2eb17399eef2b8351faf2868e4", EMPTY),
    "cf-nonlinear": ("cf -u 2 -v 4 -n 3", EXIT_MATH_FAILURE,
        "fcfe918675d0f90382f15787c680df8624add059046b50377cb7714ed0336c99", EMPTY),
    "cf-rational-g": ("cf -u 1 -v 1 -n 5 --depth-cap 64", EXIT_MATH_FAILURE,
        "c67e626cb3b2274a035fccc07db4254295f08aadc17c3762c34c214fecb20222", EMPTY),
    "cf-cap": ("cf -u=1 -v=-2 -n 12 --depth-cap 56", EXIT_MATH_FAILURE,
        "763aa332f92ed9005e3c9db24e0a9481ae7d188daccbca363c47322128608b1b", EMPTY),
    # quotients of degree 3, 7 and 19 at depth 120, printed as their
    # coefficient lists: NONLINEAR at 3
    "cf-nonlinear-chain": ("cf -u=1 -v=-2 -n 28", EXIT_MATH_FAILURE,
        "42d9709e7bb60f7b4bee8fc71b6b4a53845e8e1fadb69194e92b32b276608507", EMPTY),
    "cf-cap-below-first": ("cf -u 2 -v 3 -n 20 --depth-cap 10", EXIT_USAGE,
        EMPTY, "4d2fb91d4b9dd7c69c7bfa2b08d2547a65b5ffb87c70007fc8ade0a83193f920"),
    "check-covered": ("check -u 5 -v 1", EXIT_OK,
        "1238c2680f7c89e65d83c58a5d28405a6ec25cb1c830e2cb29596b90c95d4a60", EMPTY),
    "check-uncovered": ("check -u 2 -v=-2 --primes-max 100", EXIT_NEGATIVE,
        "9923964f4503f2ae8f660cc335ca141a463935f95df618ee8e9b835161771dba", EMPTY),
    "check-p": ("check -u 2 -v 0 -p 7", EXIT_OK,
        "e3f845d01291520d723b249289dbb7112df9070bd38a3c2126e873ec88efe290", EMPTY),
    "check-p-none": ("check -u 2 -v 0 -p 5", EXIT_NEGATIVE,
        "f0b3e20a65126429eb921bfeccd7155a6d61769812b6ffc197bf97ea430073e9", EMPTY),
    "scan-json": ("scan --p-min 3 --p-max 13 -N 2000 --format json", EXIT_OK,
        "7d5f1b08a088528afbfcd66ec0cd42c7ce92e859919bba6da470409aaf6c9cae", EMPTY),
    "scan-csv": ("scan --p-min 3 --p-max 13 -N 2000 --format csv", EXIT_OK,
        "f011697215ae6971f75834421f3f3628e917f1d0d728d525c373eea5924d89f8", EMPTY),
    # every survivor to the largest horizon, in O(log N) memo lookups each
    "scan-deep": ("scan --p-min 3 --p-max 30 -N 1000000", EXIT_OK,
        "27e06714dd85c1860730cb85b6e3f98cf6fac2cc09faee2e02e5bd9ecb63c957", EMPTY),
    # (0, 3) and (0, 70) outlive 11755 as extra survivors and die at 11756
    "scan-late-deaths-alive": ("scan --p-min 73 --p-max 73 -N 11755", EXIT_OK,
        "d84e50b35bcd94491de0df3e3b02785c6d43dfb23af6a4ee1a6d0bfc14be3b2c", EMPTY),
    "scan-late-deaths-dead": ("scan --p-min 73 --p-max 73 -N 11756", EXIT_OK,
        "ce0e917b43b9a2f6a33c3e9337522d2b2bef1b8d892774876d15f66050de0190", EMPTY),
    "scan-horizon": ("scan --p-min 3 --p-max 50 -N 1000001", EXIT_USAGE,
        EMPTY, "2f0a0e29b85c87c5c320c6727b133062e4a9be9efc44fff00b6e01ad8d33165e"),
    "scan-reversed-range": ("scan --p-min 20 --p-max 10", EXIT_USAGE,
        EMPTY, "728645c107e4d0072a972828a497bf04540bdb3d007db55bad959b48f99bc4f5"),
    "density": ("density -B 12 --primes-max 20", EXIT_OK,
        "4cea8a92d0f1bf6c912c472d367d80818527a009f73ec0e2650d59493ff15827", EMPTY),
    "density-negative": ("density -B -1", EXIT_USAGE,
        EMPTY, "876beed7200977210ebbaecf2518cc99c5a07fac406b0d346ca1c802e8adc256"),
    "verify-lemma": ("verify-lemma --lemma 7 -p 7 --delta 2 -K 5", EXIT_OK,
        "31927e63f8487fd49d87e319b175ba0384548832f5fb8e4146945b2889036237", EMPTY),
    "verify-lemma-none": ("verify-lemma --lemma 1 -p 5 -K 2", EXIT_NEGATIVE,
        "f2bfcf1ba4610299924362a0f7d6ccbb6623fb62d1722a64fa0d66e487aa3a5b", EMPTY),
    "mu": ("mu -u 5 -v 1 -n 30 --window-start 10 --window-end 30", EXIT_OK,
        "d93478599debf76e243760a98296fafccb5e168daf7d2361e0d067c71f459696", EMPTY),
    "mu-rational-g": ("mu -u=1 -v=1 -n 10", EXIT_NO_PRECISION,
        "a9fe602e37b907704e810be51837bc0bc01e5baf938f9d51c7323dadf1263c1f", EMPTY),
    # quotients of degree 3, 7, 19 (denominator degrees 2 -> 5, 6 -> 13,
    # 18 -> 37) step remainders with leading zeros
    "mu-nonlinear": ("mu -u=1 -v=-2 -n 28", EXIT_OK,
        "5712e26f0cb0b8ac968445ccfff9ea7fb4ef7ebda7e6783ad3526c50283af8a3", EMPTY),
    "mu-window": ("mu -u 5 -v 1 -n 11 --window-start 5 --window-end 5", EXIT_USAGE,
        EMPTY, "6f06817141e904bb74162bd9458cd1f589c58a9751d7f0764d2dec350f432a81"),
    "no-command": ("nonsense", EXIT_USAGE,
        EMPTY, "b908d8a8c2eab4ef56298f525c637702501be20fd1f2f2a4f06b3fe74ffcab38"),
}


def run_pinned(monkeypatch, capsys, command_line, *extra):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    code = main([*command_line.split(), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", PINNED_OUTPUT)
def test_pinned_output_bytes(monkeypatch, capsys, case):
    command_line, code, out_digest, err_digest = PINNED_OUTPUT[case]
    got_code, out, err = run_pinned(monkeypatch, capsys, command_line)
    assert (got_code, sha256(out), sha256(err)) == (code, out_digest, err_digest)


@pytest.mark.parametrize("case", ["cf-agree", "scan-csv"])
def test_out_file_holds_the_stdout_bytes(monkeypatch, capsys, tmp_path, case):
    command_line, code, out_digest, _ = PINNED_OUTPUT[case]
    path = tmp_path / "doc"
    got_code, out, err = run_pinned(monkeypatch, capsys, command_line, "--out", str(path))
    assert (got_code, out, err) == (code, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == out_digest


class TestRecurrence:
    def test_failure_pair_exits_2(self, capsys):
        code, doc = run_json(capsys, "recurrence", "-u", "1", "-v", "1", "-n", "10")
        assert code == EXIT_MATH_FAILURE
        assert doc["status"] == {"failed_at": 2, "cause": "beta_zero"}
        assert doc["betas"] == ["1", "0"]

    def test_mod_p_row(self, capsys):
        code, doc = run_json(
            capsys, "recurrence", "-u", "5", "-v", "1", "-p", "11", "-n", "9"
        )
        assert code == EXIT_OK
        assert doc["betas"] == [1, 2, 1, 1, 1, 1, 1, 1, 1]
        assert doc["field"] == "F_11"

    def test_exact_rational_output(self, capsys):
        code, doc = run_json(capsys, "recurrence", "-u", "2", "-v", "3", "-n", "3")
        assert code == EXIT_OK
        assert doc["alphas"] == ["-2", "-2", "4"]
        assert doc["betas"] == ["1", "1", "11"]
        # values parse back exactly
        assert [Fraction(x) for x in doc["betas"]] == [1, 1, 11]

    def test_rational_input(self, capsys):
        code, doc = run_json(capsys, "recurrence", "-u", "1/2", "-v", "3", "-n", "3")
        assert code == EXIT_OK
        assert Fraction(doc["betas"][1]) == Fraction(1, 4) - 3

    def test_denominator_divisible_by_p_is_usage_error(self, capsys):
        code = main(["recurrence", "-u=1/7", "-v=1", "-p", "7", "-n", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "-u=1/7 has no residue mod 7" in captured.err

    def test_mod_p_reduces_rationals(self, capsys):
        # 1/2 = 4 mod 7 and -3/5 = -3 * 3 = 5 mod 7
        code, doc = run_json(capsys, "recurrence", "-u=1/2", "-v=-3/5", "-p", "7", "-n", "6")
        _, direct = run_json(capsys, "recurrence", "-u=4", "-v=5", "-p", "7", "-n", "6")
        assert (doc["u"], doc["v"]) == (4, 5)
        assert doc == direct and code == (EXIT_OK if doc["status"] == "ok" else EXIT_MATH_FAILURE)

    @pytest.mark.parametrize("argv, expect", [
        (["-u=abc", "-v=1", "-n", "3"], "argument -u: not an exact rational: 'abc'"),
        (["-u=1", "-v=1", "-n", "0"], "argument -n: must be >= 1"),
    ], ids=["u", "n"])
    def test_bad_argument_is_usage_error(self, monkeypatch, capsys, argv, expect):
        refused_before_any_run(
            monkeypatch, capsys, ["recurrence", *argv],
            (recurrence, "run_over_q"), (recurrence, "run_mod_p"), expect=expect,
        )

    def test_composite_p_is_usage_error(self, capsys):
        code = main(["recurrence", "-u=1", "-v=2", "-p", "9", "-n", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "p must be a prime >= 3, got 9" in captured.err

    @pytest.mark.parametrize("p", [PRIMALITY_LIMIT, 2**89 - 1])
    def test_p_above_primality_limit_is_usage_error(self, monkeypatch, capsys, p):
        refused_before_any_run(
            monkeypatch, capsys, ["recurrence", "-u=1", "-v=2", "-p", str(p), "-n", "5"],
            (recurrence, "run_mod_p"), expect=f"decided only below {PRIMALITY_LIMIT}",
        )

    def test_mersenne_61_modulus(self, capsys):
        start = time.perf_counter()
        code, doc = run_json(capsys, "recurrence", "-u=123456789", "-v=987654321",
                             "-p", str(2**61 - 1), "-n", "6")
        assert code == EXIT_OK and doc["field"] == f"F_{2**61 - 1}"
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("field", [[], ["-p", "11"]])
    def test_length_above_limit_is_usage_error(self, monkeypatch, capsys, field):
        err = refused_before_any_run(
            monkeypatch, capsys,
            ["recurrence", "-u=5", "-v=1", *field, "-n", str(MAX_HORIZON + 1)],
            (recurrence, "run_over_q"), (recurrence, "run_mod_p"),
        )
        assert f"-n {MAX_HORIZON + 1}" in err

    def test_length_at_limit_is_accepted(self, capsys):
        # (0, 1) dies at 20 mod 5, so the full-length request costs nothing
        code, doc = run_json(capsys, "recurrence", "-u=0", "-v=1", "-p", "5",
                             "-n", str(MAX_HORIZON))
        assert code == EXIT_MATH_FAILURE
        assert doc["status"] == {"failed_at": 20, "cause": "beta_zero"}

    def test_value_past_digit_limit_is_usage_error(self, capsys):
        # beta_1311 of (5, 1) over Q has a denominator of more than 4300 digits
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main(["recurrence", "-u=5", "-v=1", "-n", "1311"])
        finally:
            sys.set_int_max_str_digits(previous)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "4300 digits" in captured.err

    def test_overlong_value_is_refused_before_the_full_run(self, monkeypatch, capsys):
        # the same bytes as a run to 6000 printed whole, but the run grows
        # through 729, 2187, ... indices and stops at the first prefix that
        # holds a value past the limit
        lengths = []
        run_history = recurrence.kernels.run_history

        def recorded(u, v, p, n, *history):  # a growth resumes the run
            assert n < 6000, "a run to the full length started"
            lengths.append(n)
            return run_history(u, v, p, n, *history)

        monkeypatch.setattr(recurrence.kernels, "run_history", recorded)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["recurrence", "-u", "5", "-v", "1", "-n", "6000"])
        finally:
            sys.set_int_max_str_digits(previous)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == (
            "mahlercf: an exact value is too long to print: Exceeds the limit (640 digits) "
            "for integer string conversion; use sys.set_int_max_str_digits() to increase "
            "the limit\n"
        )
        assert lengths and max(lengths) < 6000


class TestCf:
    def test_agreement(self, capsys):
        code, doc = run_json(capsys, "cf", "-u", "2", "-v", "3", "-n", "20")
        assert code == EXIT_OK
        assert doc["verdict"] == "AGREE"
        assert len(doc["extracted"]["terms"]) == 20

    def test_z_inverse(self, capsys):
        code, doc = run_json(capsys, "cf", "-u", "0", "-v", "0", "-n", "1")
        assert code == EXIT_OK
        term = doc["extracted"]["terms"][0]
        assert term["beta"] == "1"
        assert term["a"] == ["0", "1"]  # the monic linear z

    def test_telescoping_pair_exits_2(self, capsys):
        code, doc = run_json(
            capsys, "cf", "-u", "1", "-v", "1", "-n", "5", "--depth-cap", "64"
        )
        assert code == EXIT_MATH_FAILURE
        assert doc["verdict"].startswith("RECURRENCE FAILED at 2")

    # sha256 of the stdout of `cf`/`mu -n 101` for the three rational g:
    # 1/(z - 1), 1/(z + 1) and 1/z
    @pytest.mark.parametrize("command, u, v, digest", [
        ("cf", "1", "1", "fdfde8210bc30b7a9941d026d93f0b857b5fd70e5b46ced55548ab63399bce3a"),
        ("cf", "-1", "1", "d0d56a31246cc15f6c607410d421ca7913fee63bfe26d10fa348d8ce944cb916"),
        ("cf", "0", "0", "77d6121e40fecde7d30314894c09fef7d5afe8f7b57eb1bc5745862eea9cce02"),
        ("mu", "1", "1", "183c63dfe41ee652e2793a5104e1e4c87c7a6282ae30412fab230df0f37831e8"),
        ("mu", "-1", "1", "183c63dfe41ee652e2793a5104e1e4c87c7a6282ae30412fab230df0f37831e8"),
        ("mu", "0", "0", "183c63dfe41ee652e2793a5104e1e4c87c7a6282ae30412fab230df0f37831e8"),
    ])
    def test_rational_g_stops_at_first_depth(self, monkeypatch, capsys, command, u, v, digest):
        # the refusal at depth 206 proves g rational, so the document, which
        # names the cap, is printed without doubling the depth to 13184
        depths = []
        expand = laurent.expand_g
        monkeypatch.setattr(
            laurent, "expand_g", lambda u, v, depth: depths.append(depth) or expand(u, v, depth)
        )
        start = time.perf_counter()
        code, out = run_cli(capsys, command, f"-u={u}", f"-v={v}", "-n", "101")
        assert time.perf_counter() - start < 0.5
        assert depths == [206]
        assert code == (EXIT_MATH_FAILURE if command == "cf" else EXIT_NO_PRECISION)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_irrational_pair_doubles_to_cap(self, monkeypatch, capsys):
        # (1, -2) meets a zero remainder at depth 28 after six quotients that
        # are not g, and keeps doubling until the cap refuses
        depths = []
        expand = laurent.expand_g
        monkeypatch.setattr(
            laurent, "expand_g", lambda u, v, depth: depths.append(depth) or expand(u, v, depth)
        )
        code, doc = run_json(capsys, "cf", "-u=1", "-v=-2", "-n", "12", "--depth-cap", "56")
        assert depths == [28, 56]
        assert code == EXIT_MATH_FAILURE
        assert doc["extraction"].startswith("depth exhausted at cap 56: floor above degree 0")
        with pytest.raises(laurent.InsufficientDepth) as info:
            laurent.cf_extract(expand(1, -2, 28), 12)
        assert len(info.value.certified) == 6
        assert not laurent.convergent_is_g(1, -2, info.value.certified)

    @pytest.mark.parametrize("command", ["cf", "mu"])
    @pytest.mark.parametrize("flags, expect", [
        (["-n", str((MAX_DEPTH - 2) // 2)],
         f"first expansion depth of {MAX_DEPTH + 2}, above the limit of {MAX_DEPTH}"),
        (["-n", "12", "--depth-cap", str(MAX_DEPTH + 1)],
         f"--depth-cap {MAX_DEPTH + 1} is above the limit of {MAX_DEPTH}"),
    ], ids=["n", "depth-cap"])
    def test_depth_above_limit_is_usage_error(self, monkeypatch, capsys, command, flags, expect):
        refused_before_any_run(
            monkeypatch, capsys, [command, "-u=1", "-v=-2", *flags],
            (laurent, "expand_g"), (recurrence, "run_over_q"), expect=expect,
        )

    @pytest.mark.parametrize("command", ["cf", "mu"])
    def test_depth_cap_below_first_depth_is_usage_error(self, monkeypatch, capsys, command):
        # -n 20 expands first to depth 44, which a cap of 10 could not bound
        err = refused_before_any_run(
            monkeypatch, capsys, [command, "-u", "2", "-v", "3", "-n", "20", "--depth-cap", "10"],
            (laurent, "expand_g"), (recurrence, "run_over_q"),
            expect="--depth-cap 10 is below the first expansion depth 44",
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n, expected", [
        (200, [404, 808, 1616, 3232, 6464, 12928, MAX_DEPTH]),
        ((MAX_DEPTH - 4) // 2, [MAX_DEPTH]),
    ])
    def test_default_cap_is_clamped(self, monkeypatch, capsys, n, expected):
        # 64 (2n + 4) is above MAX_DEPTH: the doubling stops at MAX_DEPTH
        depths = []

        def refuse(g, terms):
            raise laurent.InsufficientDepth("stub")

        monkeypatch.setattr(laurent, "expand_g", lambda u, v, depth: depths.append(depth))
        monkeypatch.setattr(laurent, "cf_extract", refuse)
        code, doc = run_json(capsys, "mu", "-u=2", "-v=3", "-n", str(n))
        assert (code, doc["depth_cap"]) == (EXIT_NO_PRECISION, MAX_DEPTH)
        assert depths == expected

    def test_nonlinear_quotient_exits_2(self, capsys):
        code, doc = run_json(capsys, "cf", "-u", "2", "-v", "4", "-n", "3")
        assert code == EXIT_MATH_FAILURE
        assert doc["verdict"] == "NONLINEAR at 2"

    def test_depth_exhausted_exits_3(self, monkeypatch, capsys):
        # (2, 3) runs clean; an extraction refused at every depth, with no
        # certified quotients, is a lack of precision, not a failure
        def refuse(g, terms):
            raise laurent.InsufficientDepth("stub")

        monkeypatch.setattr(laurent, "cf_extract", refuse)
        code, doc = run_json(capsys, "cf", "-u=2", "-v=3", "-n", "5", "--depth-cap", "28")
        assert code == EXIT_NO_PRECISION
        assert list(doc) == ["u", "v", "n", "recurrence", "extraction", "verdict"]
        assert doc["recurrence"]["status"] == "ok"
        assert doc["extraction"] == "depth exhausted at cap 28: stub"
        assert doc["verdict"] == "DEPTH_EXHAUSTED"

    def test_recurrence_failure_after_linear_extraction_exits_2(self, monkeypatch, capsys):
        # every quotient of (2, 3) is linear; a run that dies at index 2 <= n
        # (that of (1, 1)) is reported against it
        run_over_q = recurrence.run_over_q
        monkeypatch.setattr(recurrence, "run_over_q", lambda u, v, n: run_over_q(1, 1, n))
        code, doc = run_json(capsys, "cf", "-u=2", "-v=3", "-n", "5")
        assert code == EXIT_MATH_FAILURE
        assert list(doc) == ["u", "v", "n", "expansion_depth", "recurrence", "extracted", "verdict"]
        assert doc["recurrence"]["status"] == {"failed_at": 2, "cause": "beta_zero"}
        assert doc["verdict"] == "RECURRENCE FAILED at 2"

    def test_disagreement_exits_2(self, monkeypatch, capsys):
        # the run of (2, 5) against the extraction of (2, 3): alpha_1 = -2
        # and beta_1 = 1 agree, beta_2 = u^2 - v does not. The run of
        # (-2, 3): betas are even in u and alphas odd, so alpha_1 = 2 differs
        # from the start while every beta agrees
        run_over_q = recurrence.run_over_q
        for pair, first, betas_agree in [((2, 5), 2, False), ((-2, 3), 1, True)]:
            monkeypatch.setattr(recurrence, "run_over_q", lambda u, v, n: run_over_q(*pair, n))
            code, doc = run_json(capsys, "cf", "-u=2", "-v=3", "-n", "5")
            assert code == EXIT_MATH_FAILURE
            assert list(doc) == [
                "u", "v", "n", "expansion_depth", "recurrence", "extracted", "verdict",
            ]
            assert doc["recurrence"]["status"] == "ok"
            assert doc["verdict"] == f"DISAGREE at {first}"
            betas = [t["beta"] for t in doc["extracted"]["terms"]]
            assert (doc["recurrence"]["betas"] == betas) is betas_agree

    def test_deep_run_certifies_at_default_depth(self, capsys):
        code, doc = run_json(capsys, "cf", "-u=2", "-v=3", "-n", "101")
        assert code == EXIT_OK
        assert doc["verdict"] == "AGREE"
        assert doc["expansion_depth"] == 206
        assert len(doc["extracted"]["terms"]) == 101


class TestCheck:
    def test_covered(self, capsys):
        code, doc = run_json(
            capsys, "check", "-u", "5", "-v", "1", "--primes-max", "1000"
        )
        assert code == EXIT_OK
        assert doc["witness"]["p"] == 11 and doc["witness"]["case"] == "C1"

    def test_uncovered_witness_pair(self, capsys):
        code, doc = run_json(
            capsys, "check", "-u", "2", "-v", "-2", "--primes-max", "1000"
        )
        assert code == EXIT_NEGATIVE
        assert doc["witness"] is None and doc["covered"] is False

    def test_single_prime(self, capsys):
        code, doc = run_json(capsys, "check", "-u", "2", "-v", "0", "-p", "7")
        assert code == EXIT_OK
        assert doc["witnesses"][0]["case"] == "C3"
        assert doc["witnesses"][0]["phi"] == 2


class TestScan:
    def test_horizon_above_limit_is_usage_error(self, monkeypatch, capsys):
        err = refused_before_any_run(
            monkeypatch, capsys,
            ["scan", "--p-min", "3", "--p-max", "50", "-N", str(MAX_HORIZON + 1)],
            (search, "scan_range"),
        )
        assert f"-N {MAX_HORIZON + 1}" in err

    @pytest.mark.parametrize("p_max", [MAX_SCAN_PRIME + 1, 10**10])
    def test_p_max_above_limit_is_usage_error(self, monkeypatch, capsys, p_max):
        # refused before the sieve: primes_between(3, 10**10) would take ~10 GB
        err = refused_before_any_run(
            monkeypatch, capsys, ["scan", "--p-min", "3", "--p-max", str(p_max)],
            (search, "scan_range"), (search, "primes_between"),
            expect=f"--p-max {p_max} is above the limit of {MAX_SCAN_PRIME}",
        )
        assert err.count("\n") == 1

    def test_reversed_prime_range_is_usage_error(self, monkeypatch, capsys):
        err = refused_before_any_run(
            monkeypatch, capsys, ["scan", "--p-min", "20", "--p-max", "10"],
            (search, "scan_range"), expect="--p-min 20 is above --p-max 10",
        )
        assert err.count("\n") == 1

    def test_largest_p_max_is_accepted(self, monkeypatch, capsys):
        # the scan itself is stubbed: it would run every pair of every prime
        # up to the limit to the default horizon
        monkeypatch.setattr(search, "scan_range", lambda lo, hi, n, jobs: [])
        code, doc = run_json(capsys, "scan", "--p-min", "3", "--p-max", str(MAX_SCAN_PRIME))
        assert (code, doc["p_max"]) == (EXIT_OK, MAX_SCAN_PRIME)

    def test_json_summary_clean(self, capsys):
        code, doc = run_json(
            capsys, "scan", "--p-min", "3", "--p-max", "13", "-N", "2000"
        )
        assert code == EXIT_OK
        assert doc["summary"]["extra_survivors"] == []
        assert doc["summary"]["missing"] == []
        assert doc["summary"]["primes_scanned"] == 5

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "scan", "--p-min", "3", "--p-max", "3", "-N", "500",
            "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        survived = {(r["u"], r["v"]) for r in rows if r["first_zero"] == "survived"}
        assert ("1", "1") not in survived
        assert ("0", "1") in survived


class TestDensity:
    def test_small(self, capsys):
        code, doc = run_json(
            capsys, "density", "-B", "12", "--primes-max", "20", "--jobs", "2"
        )
        assert code == EXIT_OK
        assert doc["total"] == 25 * 25
        assert Fraction(doc["fraction"]) == Fraction(doc["covered"], doc["total"])

    def test_negative_bound_is_usage_error(self, monkeypatch, capsys):
        err = refused_before_any_run(
            monkeypatch, capsys, ["density", "-B", "-1", "--primes-max", "10"],
            (search, "density"), expect="-B -1 must be >= 0",
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("bound", [5_000, 10**5])
    def test_grid_above_limit_is_usage_error(self, monkeypatch, capsys, bound):
        cells = (2 * bound + 1) ** 2
        refused_before_any_run(
            monkeypatch, capsys, ["density", "-B", str(bound), "--primes-max", "10"],
            (search, "density"),
            expect=f"-B {bound} needs a grid of {cells} cells, above the limit of {MAX_DENSITY_CELLS}",
        )

    def test_largest_grid_is_accepted(self, monkeypatch, capsys):
        # 4999 is the largest B whose (2B+1)^2 box fits the limit; the run
        # itself is stubbed, since it takes ~0.1 s (a fresh
        # `density -B 4999 --primes-max 1000` ~0.3 s at ~31 MB peak RSS)
        monkeypatch.setattr(
            search, "density", lambda b, m, jobs: search.DensityReport(b, m, (2 * b + 1) ** 2, 0)
        )
        code, doc = run_json(capsys, "density", "-B", "4999", "--primes-max", "10")
        assert code == EXIT_OK
        assert doc["total"] == 9999 ** 2 <= MAX_DENSITY_CELLS < 10001 ** 2


@pytest.mark.parametrize("command", [
    ["check", "-u", "5", "-v", "1"],
    ["density", "-B", "12"],
], ids=["check", "density"])
def test_primes_max_above_limit_is_usage_error(monkeypatch, capsys, command):
    # refused before the sieve of either command runs
    err = refused_before_any_run(
        monkeypatch, capsys, [*command, "--primes-max", str(MAX_PRIMES_MAX + 1)],
        (conditions, "covered_up_to"), (conditions, "primes_between"),
        (search, "density"), (search, "primes_between"),
        expect=f"limit of {MAX_PRIMES_MAX}",
    )
    assert f"--primes-max {MAX_PRIMES_MAX + 1}" in err


@pytest.mark.parametrize("argv", [
    ["scan", "--p-min", "3", "--p-max", "30", "-N", "10000"],
    ["scan", "--p-min", "3", "--p-max", "30", "-N", "10000", "--format", "csv"],
    ["scan", "--p-min", "3", "--p-max", "30", "-N", "1"],
    ["scan", "--p-min", "3", "--p-max", "30", "-N", "1", "--format", "csv"],
    ["scan", "--p-min", "24", "--p-max", "28"],
    ["scan", "--p-min", "13", "--p-max", "13"],
    ["density", "-B", "0"],
    ["density", "-B", "1"],
    ["density", "-B", "2"],
    ["density", "-B", "5"],
    ["density", "-B", "30"],
    ["density", "-B", "129"],
    ["density", "-B", "300"],
], ids=["scan-json", "scan-csv", "scan-json-N1", "scan-csv-N1", "scan-no-prime",
        "scan-one-prime", "density-B0", "density-B1", "density-B2", "density-B5", "density-B30",
        "density-B129", "density-B300"])
def test_outputs_do_not_change_with_the_worker_count(capsys, argv):
    # --jobs 2 and 3 fork that many workers, or one per task if there are
    # fewer (one prime, or at B = 0 row 0 alone). A count's tasks are row
    # 0, counted once, and at most N slabs of the rows 1..B, counted
    # twice; at B = 300 and --jobs 2 each slab of 150 rows spans two
    # 128-row bands of kernels.density_count and ends inside the second
    serial = run_cli(capsys, *argv)
    assert serial[0] == EXIT_OK
    for jobs in ("1", "2", "3"):
        assert run_cli(capsys, *argv, "--jobs", jobs) == serial, jobs


@pytest.mark.parametrize("argv", [
    ["scan", "--p-min", "3", "--p-max", "13"],
    ["density", "-B", "12"],
], ids=["scan", "density"])
def test_jobs_above_limit_is_refused_before_any_fork(monkeypatch, capsys, argv):
    err = refused_before_any_run(
        monkeypatch, capsys, [*argv, "--jobs", str(MAX_JOBS + 1)],
        (os, "fork"), (search, "scan_range"), (search, "density"),
        expect=f"--jobs {MAX_JOBS + 1} is above the limit of {MAX_JOBS}",
    )
    assert err.count("\n") == 1


def test_a_failing_jobs_command_leaves_no_process(monkeypatch, capsys):
    # the scan raises inside the workers: main raises it, after reaping them
    def fail(p, n, known=()):
        raise ArithmeticError(f"no grid at {p}")

    monkeypatch.setattr(kernels, "scan_grid", fail)
    with pytest.raises(ArithmeticError, match="no grid at"):
        main(["scan", "--p-min", "3", "--p-max", "13", "--jobs", "2"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ["mu", "-u", "1e5000", "-v", "1", "-n", "3"],
    ["mu", "-u", "1", "-v", "1e5000", "-n", "3"],
    ["cf", "-u", "1", "-v", "1e5000", "-n", "1"],
    ["recurrence", "-u", "1", "-v", "1e5000", "-n", "1"],
], ids=["mu-u", "mu-v", "cf", "recurrence"])
def test_unprintable_input_is_refused_before_any_run(monkeypatch, capsys, argv):
    # 10^5000 is past the default int-to-str limit of 4300 digits; with -n 1
    # no printed alpha or beta of cf or recurrence holds v
    err = refused_before_any_run(
        monkeypatch, capsys, argv, (laurent, "expand_g"), (recurrence, "run_over_q"),
        expect="mahlercf: an exact value is too long to print: ",
    )
    assert err.count("\n") == 1


def test_unprintable_input_prints_as_a_residue(capsys):
    # mod p the document holds residues, so the size of u does not matter
    code, doc = run_json(capsys, "recurrence", "-u", "1e5000", "-v", "1", "-p", "7", "-n", "3")
    assert (code, doc["u"]) == (EXIT_OK, 10**5000 % 7)


class TestVerifyLemma:
    def test_family7(self, capsys):
        code, doc = run_json(
            capsys, "verify-lemma", "--lemma", "7", "-p", "7", "--delta", "2", "-K", "5"
        )
        assert code == EXIT_OK
        assert doc["pass"] is True
        assert len(doc["instances"]) == 2  # both signs

    def test_no_instances(self, capsys):
        code, doc = run_json(capsys, "verify-lemma", "--lemma", "1", "-p", "5", "-K", "2")
        assert code == EXIT_NEGATIVE
        assert doc["instances"] == []

    def test_phi_and_sign_filters(self, capsys):
        # phi = 2 is a root of x^2 + x + 1 mod 7; sign -1 gives u = -2 = 5
        code, doc = run_json(
            capsys, "verify-lemma", "--lemma", "3", "-p", "7", "--phi", "2", "--sign", "-1",
            "-K", "2",
        )
        assert code == EXIT_OK and doc["pass"] is True
        [instance] = doc["instances"]
        assert (instance["params"]["u"], instance["params"]["sign"]) == (5, -1)

    def test_blocks_above_limit_is_usage_error(self, monkeypatch, capsys):
        # a run keeps 9K + 9 entries of history, like `recurrence -n`
        assert 9 * MAX_BLOCKS + 9 <= MAX_HORIZON < 9 * (MAX_BLOCKS + 1) + 9
        err = refused_before_any_run(
            monkeypatch, capsys,
            ["verify-lemma", "--lemma", "1", "-p", "13", "-K", str(MAX_BLOCKS + 1)],
            (recurrence, "history_mod_p"), expect=f"limit of {MAX_BLOCKS}",
        )
        assert f"-K {MAX_BLOCKS + 1}" in err

    @pytest.mark.parametrize("p, instances", [(10**6 + 3, 0), (1_000_033, 2)])
    def test_prime_above_a_million(self, capsys, p, instances):
        # lemma 1 needs a square root of 3: none mod 10^6 + 3 (7 mod 12),
        # two mod 1000033 (1 mod 12)
        code, doc = run_json(capsys, "verify-lemma", "--lemma", "1", "-p", str(p))
        assert len(doc["instances"]) == instances
        assert (code, doc["pass"]) == ((EXIT_OK, True) if instances else (EXIT_NEGATIVE, False))


class TestMu:
    def test_tail_window(self, capsys):
        code, doc = run_json(
            capsys, "mu", "-u", "5", "-v", "1", "-n", "30",
            "--window-start", "10", "--window-end", "30",
        )
        assert code == EXIT_OK
        assert Fraction(doc["estimate"]) == 1 + Fraction(11, 10)
        assert doc["degrees"] == list(range(31))
        assert "depth" in doc["label"]

    def test_deep_degrees(self, capsys):
        code, doc = run_json(capsys, "mu", "-u=2", "-v=3", "-n", "101")
        assert code == EXIT_OK
        assert doc["degrees"] == list(range(102))
        assert doc["expansion_depth"] == 206

    @pytest.mark.parametrize("window", [["--window-start=-3"], ["--window-end=-1"]],
                             ids=["start", "end"])
    def test_negative_window_bound_is_usage_error(self, monkeypatch, capsys, window):
        # a negative bound would slice the degree list from its end
        refused_before_any_run(
            monkeypatch, capsys, ["mu", "-u", "5", "-v", "1", "-n", "11", *window],
            (laurent, "expand_g"), expect="must be >= 0",
        )

    def test_window_of_one_degree_is_usage_error(self, capsys):
        # the estimate needs a ratio of two consecutive degrees
        code = main(["mu", "-u", "5", "-v", "1", "-n", "11",
                     "--window-start", "5", "--window-end", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "mahlercf: window [5, 5] too small: need at least two degrees\n"


class TestPlumbing:
    def test_usage_error_64(self, capsys):
        assert main(["recurrence", "-u", "1"]) == EXIT_USAGE
        assert main(["nonsense"]) == EXIT_USAGE

    def test_consecutive_calls_share_one_parser(self, capsys):
        code, doc = run_json(capsys, "recurrence", "-u", "2", "-v", "3", "-n", "3")
        assert code == EXIT_OK and doc["betas"] == ["1", "1", "11"]
        code, doc = run_json(capsys, "check", "-u", "2", "-v", "0", "-p", "7")
        assert code == EXIT_OK and doc["witnesses"][0]["case"] == "C3"
        assert main(["cf", "-u", "2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: mahlercf cf" in captured.err

    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mahlercf.cli", "recurrence",
             "-u", "5", "-v", "1", "-p", "11", "-n", "9"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["betas"] == [1, 2, 1, 1, 1, 1, 1, 1, 1]

    def test_closed_stdout_ends_quietly(self):
        # the 1.4 MB document meets a reader that stops after 10 bytes: the
        # process ends by SIGPIPE, as a Unix filter does, with no traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "mahlercf.cli", "recurrence",
             "-u", "5", "-v", "1", "-p", "11", "-n", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == -signal.SIGPIPE
        assert b"Traceback" not in err

    def test_numpy_loaded_only_by_array_kernels(self, tmp_path):
        # a fresh interpreter: importing the CLI and running the scalar
        # commands loads no numpy; a scan does, and still returns an int32 grid
        script = f"""
import sys
import mahlercf.cli as cli
assert "numpy" not in sys.modules, "import"
for argv in (["check", "-u", "2", "-v", "0", "-p", "7"],
             ["check", "-u", "2", "-v=-2"],
             ["cf", "-u", "2", "-v", "3", "-n", "5"],
             ["recurrence", "-u", "5", "-v", "1", "-p", "11", "-n", "9"],
             ["verify-lemma", "--lemma", "7", "-p", "7", "-K", "5"]):
    cli.main([*argv, "--out", {str(tmp_path / "out")!r}])
    assert "numpy" not in sys.modules, argv
grid = cli.search.scan_prime(7, 100).first_zero
import numpy
assert isinstance(grid, numpy.ndarray) and grid.dtype == numpy.int32
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cold_start_loads_no_dataclasses_or_csv(self, tmp_path):
        # a fresh interpreter: no command loads dataclasses, csv loads only
        # when a scan writes CSV, and pickle and the worker module only with
        # --jobs 2 or more
        script = f"""
import sys
import mahlercf.cli as cli
from mahlercf import *
unwanted = {{"dataclasses", "csv", "pickle", "mahlercf.workers"}}
assert not unwanted & set(sys.modules), "import"
out = ["--out", {str(tmp_path / "out")!r}]
for argv in (["check", "-u", "2", "-v", "0", "-p", "7"],
             ["cf", "-u", "2", "-v", "3", "-n", "5"],
             ["recurrence", "-u", "5", "-v", "1", "-p", "11", "-n", "9"],
             ["verify-lemma", "--lemma", "7", "-p", "7", "-K", "5"]):
    assert cli.main([*argv, *out]) == 0, argv
    assert not unwanted & set(sys.modules), argv
unwanted.remove("pickle")  # numpy, which a scan loads, imports pickle
assert cli.main(["scan", "--p-min", "3", "--p-max", "7", "-N", "100", *out]) == 0
assert not unwanted & set(sys.modules), "scan"
assert cli.main(["scan", "--p-min", "3", "--p-max", "7", "-N", "100", "--format", "csv", *out]) == 0
assert "csv" in sys.modules and not {{"dataclasses", "mahlercf.workers"}} & set(sys.modules)
assert cli.main(["density", "-B", "3", "--jobs", "2", *out]) == 0
assert "mahlercf.workers" in sys.modules
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [
        ["recurrence", "-u", "5", "-v", "1", "-p", "11", "-n", "30000"],
        ["scan", "--p-min", "3", "--p-max", "40", "-N", "1"],
    ], ids=["recurrence", "scan"])
    def test_document_is_written_as_it_is_encoded(self, tmp_path, argv):
        # no copy of the whole encoded text is held, so the traced peak stays
        # within a few times the bytes written; numpy is loaded first, so the
        # trace holds the command and its document only
        import numpy  # noqa: F401

        path = tmp_path / "doc"
        tracemalloc.start()
        try:
            code = main([*argv, "--out", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 6 * path.stat().st_size

    def test_csv_rows_are_written_thousands_at_a_time(self, monkeypatch):
        # an unbuffered stdout makes one system call per write
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["scan", "--p-min", "3", "--p-max", "40", "-N", "1", "--format", "csv"]) == EXIT_OK
        rows = out.getvalue().count("\n")
        assert rows > 4000
        assert out.writes <= rows / 1000 + 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code = main(["recurrence", "-u", "2", "-v", "3", "-n", "3", "--out", str(path)])
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["betas"] == ["1", "1", "11"]

    @pytest.mark.parametrize("name", ["missing/x.json", ""], ids=["no-such-directory", "a-directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, name):
        # the work is done by then; the write fails with one line naming the path
        path = str(tmp_path / name)
        code = main(["check", "-u", "2", "-v", "0", "-p", "7", "--out", path])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"--out {path}:" in captured.err

    def test_config_file_is_not_an_option(self, capsys, tmp_path):
        # every setting comes from its flag
        cfg = tmp_path / "mahlercf.cfg"
        cfg.write_text("primes_max = 7\n")
        assert main(["check", "-u", "5", "-v", "1", "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --config" in captured.err
