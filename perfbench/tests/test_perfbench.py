"""Tests of the benchmark's own code: span arithmetic, tracing, calibration, inputs, gate.

Run:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span(0, "job.x", 0.0, 10.0, None),
        Span(1, "cli.main", 1.0, 4.0, 0),
        Span(2, "cli._emit", 6.0, 7.0, 0),
        Span(3, "kernels.scan_grid", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_subtracts_union_of_overlapping_children():
    # shards on two threads overlap; one runs past its parent's end
    spans = [
        Span(0, "search.scan_range", 0.0, 10.0, None),
        Span(1, "search.scan_prime", 1.0, 6.0, 0),
        Span(2, "search.scan_prime", 2.0, 8.0, 0),
        Span(3, "search.scan_prime", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == 2.0


def test_layer_metrics_sum_self_times_per_layer_and_read_zero_when_idle():
    spans = [
        Span(0, "job.scan", 0.0, 10.0, None),
        Span(1, "cli.main", 0.0, 9.0, 0),
        Span(2, "search.scan_range", 1.0, 8.0, 1),
        Span(3, "kernels.scan_grid", 2.0, 7.0, 2, {"cells": 9, "index_steps": 40}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["kernels.scan_grid.s"] == 5.0
    assert m["kernels.scan_grid.cells"] == 9
    assert m["search.scan_range.self_s"] == 2.0
    assert m["cli.main.self_s"] == 2.0
    assert m["laurent.cf_extract.calls"] == 0
    assert m["trace.layer_self_s"] == 9.0  # job.scan's own second is no layer's
    assert m["trace.spans"] == 4


def test_tracer_patches_from_imports_and_restores_them():
    from mahlercf import cli, conditions, search  # noqa: F401  (cli: a traced layer)

    original = conditions.satisfying_pairs
    tracer = tracing.Tracer()
    with tracer.installed():
        assert search.satisfying_pairs is conditions.satisfying_pairs is not original
        search.scan_prime(5, 60)
    assert search.satisfying_pairs is conditions.satisfying_pairs is original
    assert tracer.missing == []
    by_id = {s.sid: s for s in tracer.spans}
    parents = {s.name: by_id[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parents["kernels.scan_grid"] == "search.scan_prime"
    assert parents["conditions.satisfying_pairs"] == "search.scan_prime"
    grid = next(s for s in tracer.spans if s.name == "kernels.scan_grid")
    assert grid.counts["cells"] == 25


def test_clock_scales_each_chunk_by_the_probes_around_it(monkeypatch):
    monkeypatch.setattr(calibration, "CHUNK_S", 1.0)
    probes = iter([1.0, 3.0, 2.0])  # a fourth probe would raise StopIteration
    clock = calibration.Clock(probe=lambda: next(probes))
    clock.add(0.5)  # chunk still open: no probe
    clock.add(1.5)  # 2.0 s between probes 1.0 and 3.0 -> 1.0 calibrated s
    clock.add(0.25)
    clock.close_chunk()  # 0.25 s between probes 3.0 and 2.0 -> 0.1
    clock.close_chunk()  # nothing open: no probe
    assert clock.raw == 2.25
    assert abs(clock.calibrated - 1.1) < 1e-12


def test_slowness_is_near_one_at_the_nominal_speed():
    # the nominal times are medians on the reference machine; a machine
    # 4x faster or slower than that would make calibrated times misleading
    assert 0.25 < calibration.slowness() < 4.0


def test_job_medians_take_raw_or_calibrated_seconds():
    passes = [{"jobs": [{"name": "scan", "s": s, "cal_s": s / 2}]} for s in (3.0, 1.0, 2.0)]
    passes.append({"jobs": [{"name": "scan", "s": None, "cal_s": None}]})  # a crashed job
    assert run.job_medians(passes) == {"scan": 2.0}
    assert run.job_medians(passes, "cal_s") == {"scan": 1.0}


def test_seed_to_argv_mapping_is_deterministic_across_processes():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import jobs; "
            "print(json.dumps({w: jobs.jobs_for(w, 11) for w in jobs.WORKLOADS}))")
    outs = [
        subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True,
                       check=True, env=dict(os.environ, PYTHONHASHSEED=hs)).stdout
        for hs in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {w: jobs.jobs_for(w, 11) for w in jobs.WORKLOADS}
    assert jobs.jobs_for("pairs", 11) != jobs.jobs_for("pairs", 12)
    assert jobs.jobs_for("exact", 11) != jobs.jobs_for("exact", 12)


def test_fixed_inputs_do_not_depend_on_the_seed():
    for seed in (1, 2):
        pairs = {j["name"]: j for j in jobs.jobs_for("pairs", seed)}
        assert len(pairs["verify_lemma"]["calls"]) == 315
        assert pairs["check"]["calls"][0] == {
            "argv": ["check", "-u=2", "-v=-2", "--primes-max", "1000"], "inputs": {"u": 2, "v": -2}}
        exact = [call["argv"] for call in jobs.jobs_for("exact", seed)[0]["calls"]]
        assert exact[:2] == [["cf", "-u=5", "-v=1", "-n", "51"], ["cf", "-u=2", "-v=3", "-n", "51"]]
        assert jobs.jobs_for("grid", seed) == jobs.jobs_for("grid", 99)


def test_wrong_digest_counts_in_fail_ratio():
    # right headline numbers, different bytes: only the digest catches it
    doc = {"B": 1000, "prime_max": 1000, "total": 4004001, "covered": 3282378}
    call = {"argv": jobs.DENSITY_ARGV, "inputs": {}}
    problems = checks.check_job("density", [(call, 0, json.dumps(doc).encode())])
    assert len(problems) == 1 and "digest" in problems[0]
    records = [{"name": "scan", "s": 3.0, "problems": []},
               {"name": "density", "s": 4.0, "problems": problems}]
    assert run.summarize(records) == {"attempted": 2, "failed": 1, "fail_ratio": 0.5}


def test_unreadable_output_is_a_problem_not_a_crash():
    assert checks.check_job("scan", [({"argv": jobs.SCAN_ARGV, "inputs": {}}, 0, b"not json")])


def test_witness_check_reads_the_case_table():
    assert checks.witness_holds("C3", 7, 2, 0)  # phi = 2: 4 + 2 + 1 = 0 mod 7
    assert checks.witness_holds("C3", 7, -2, 7)  # u = -phi, v = 0 mod 7
    assert not checks.witness_holds("C3", 7, 1, 0)
    assert not checks.witness_holds("C7", 3, 2, 1)  # C7 needs p != 3


def _check_call(u, v):
    return {"argv": ["check", f"-u={u}", f"-v={v}", "--primes-max", "1000"], "inputs": {"u": u, "v": v}}


def test_reference_witness_matches_the_program_and_pins_the_uncovered_pair():
    from mahlercf import conditions

    primes = jobs.primes_up_to(jobs.CHECK_PRIMES_MAX)
    assert checks.first_witness(*jobs.CHECK_FIXED_PAIR, primes) is None  # criterion 7
    pairs = [call["inputs"] for call in jobs.jobs_for("pairs", 3)[2]["calls"]]
    covered = 0
    for pair in pairs:
        w = conditions.covered_up_to(pair["u"], pair["v"], jobs.CHECK_PRIMES_MAX)
        want = checks.first_witness(pair["u"], pair["v"], primes)
        assert want == (None if w is None else (w.p, w.case))
        covered += want is not None
    assert 0 < covered < len(pairs)


def test_always_uncovered_check_is_flagged():
    # (1, 0) satisfies C3 at p = 3: a program answering "uncovered" fails
    doc = {"u": 1, "v": 0, "primes_max": 1000, "witness": None, "covered": False}
    assert checks.check_job("check", [(_check_call(1, 0), 1, json.dumps(doc).encode())])
    doc = {"u": 2, "v": -2, "primes_max": 1000, "witness": None, "covered": False}
    assert checks.check_job("check", [(_check_call(2, -2), 1, json.dumps(doc).encode())]) == []


def test_witness_at_a_later_prime_is_flagged():
    # (2, 0) holds C3 at 7 (4 + 2 + 1 = 7) but first at 3 (4 - 2 + 1 = 3)
    assert checks.witness_holds("C3", 7, 2, 0)
    w = {"case": "C3", "p": 7, "u": 2, "v": 0, "phi": 2, "delta": None, "sign": 1}
    doc = {"u": 2, "v": 0, "primes_max": 1000, "witness": w, "covered": True}
    problems = checks.check_job("check", [(_check_call(2, 0), 0, json.dumps(doc).encode())])
    assert problems and "expected (p, case) (3, 'C3')" in problems[0]


def _row_call(u, v, p, n):
    return {"argv": ["recurrence", f"-u={u}", f"-v={v}", "-p", str(p), "-n", str(n)],
            "inputs": {"u": u, "v": v, "p": p, "n": n}}


def test_reference_row_matches_the_program_element_path():
    from mahlercf import recurrence

    for u, v, p, n in [(5, 1, 7, 40), (-3, 7, 13, 100), (2, 3, 101, 1000), (1, 2, 5, 4), (2, 4, 3, 9)]:
        run = recurrence.run_mod_p(u, v, p, n)
        status = "ok" if run.ok else {"failed_at": run.failure.index, "cause": run.failure.cause}
        assert checks.reference_row(u, v, p, n) == (
            [int(a) for a in run.alphas[:n]], [int(b) for b in run.betas[:n]], status)


def test_recurrence_row_with_a_wrong_value_is_flagged():
    u, v, p, n = 2, 3, 101, 60
    alphas, betas, status = checks.reference_row(u, v, p, n)
    doc = {"u": u % p, "v": v % p, "field": f"F_{p}", "n": n,
           "alphas": alphas, "betas": betas, "status": status}
    assert status == "ok"
    call = _row_call(u, v, p, n)
    assert checks.check_job("recurrence", [(call, 0, json.dumps(doc).encode())]) == []
    assert checks.check_job("recurrence", [(call, 2, json.dumps(doc).encode())])
    doc["alphas"][-2] = (doc["alphas"][-2] + 1) % p  # alpha_{3k+2}, not the -u entries
    assert checks.check_job("recurrence", [(call, 0, json.dumps(doc).encode())])


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_a_run_past_its_deadline_fails_and_says_why(monkeypatch, capsys):
    monkeypatch.setattr(run, "PASS_MARGIN_S", -60)
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "s after --seconds 1" in out.err
