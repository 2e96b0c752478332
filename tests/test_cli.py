"""CLI contract: JSON documents, exit codes, CSV output."""

import csv
import io
import json
import sys
from fractions import Fraction

import pytest

from mahlercf.cli import (
    EXIT_MATH_FAILURE,
    EXIT_NEGATIVE,
    EXIT_NO_PRECISION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


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

    def test_nonlinear_quotient_exits_2(self, capsys):
        code, doc = run_json(capsys, "cf", "-u", "2", "-v", "4", "-n", "3")
        assert code == EXIT_MATH_FAILURE
        assert doc["verdict"] == "NONLINEAR at 2"


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


class TestPlumbing:
    def test_usage_error_64(self, capsys):
        assert main(["recurrence", "-u", "1"]) == EXIT_USAGE
        assert main(["nonsense"]) == EXIT_USAGE

    def test_subprocess_entry_point(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "mahlercf.cli", "recurrence",
             "-u", "5", "-v", "1", "-p", "11", "-n", "9"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["betas"] == [1, 2, 1, 1, 1, 1, 1, 1, 1]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code = main(["recurrence", "-u", "2", "-v", "3", "-n", "3", "--out", str(path)])
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["betas"] == ["1", "1", "11"]

    def test_config_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "mahlercf.cfg"
        cfg.write_text("primes_max = 7\n# comment\n")
        code, doc = run_json(
            capsys, "check", "-u", "5", "-v", "1", "--config", str(cfg)
        )
        assert code == EXIT_NEGATIVE  # (5, 1) finds its first witness at p = 11
        assert doc["primes_max"] == 7

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depth = 3\n")
        assert main(["check", "-u", "1", "-v", "2", "--config", str(cfg)]) == EXIT_USAGE
