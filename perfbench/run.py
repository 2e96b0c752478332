"""The mahlercf benchmark: one run of one workload.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 32 --trace 0

Run from the root of a checkout. Generates the workload's jobs from the
seed, then, for ``--seconds``, runs passes over the jobs, each pass in a
fresh worker process that times and checks every job. With ``--trace 0``
each pass is followed by set-up runs in fresh interpreters; with
``--trace 1`` each untraced pass is followed by a traced one. The
end-to-end times are calibrated to a fixed reference speed of the machine
(``calibration.py``); raw times are printed beside them. Prints a
summary of every job and, as its last line, one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A full result file, with the seed and the environment, goes
to ``.perfbench-out/``. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import checks
import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_RUNS_PER_PASS = 6  # spread over the run, so they see the drift the passes see
PASS_MARGIN_S = 120  # beyond --seconds, for the pass that crosses it; then a worker is stopped

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def measure_setup(work_dir: Path, runs: int, deadline: float) -> tuple[list[float], list[float], list[str]]:
    """Fresh interpreters running the cheapest command: import + first result.

    Returns the raw and the calibrated seconds of each, and the problems found.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = work_dir / "setup.out"
    raw, calibrated, problems = [], [], []
    before = calibration.slowness()
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mahlercf.cli", *jobs.SETUP_ARGV, "--out", str(out)],
            env=env, cwd=ROOT, capture_output=True, timeout=deadline - time.perf_counter(),
        )
        seconds = time.perf_counter() - start
        after = calibration.slowness()
        raw.append(seconds)
        calibrated.append(seconds / ((before + after) / 2))
        before = after
        data = out.read_bytes() if out.exists() else b""
        problems += checks.check_setup(proc.returncode, data)
    return raw, calibrated, problems


def run_worker(request: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(request), capture_output=True, text=True, cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_medians(passes: list[dict], key: str = "s") -> dict[str, float]:
    """Per job, the median of its raw ("s") or calibrated ("cal_s") seconds
    over the passes in which it completed."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["jobs"]:
            if rec[key] is not None:
                times.setdefault(rec["name"], []).append(rec[key])
    return {name: statistics.median(ts) for name, ts in times.items()}


def summarize(records: list[dict]) -> dict:
    """attempted, failed and fail_ratio over the job records of a run."""
    failed = sum(1 for rec in records if rec["problems"])
    return {"attempted": len(records), "failed": failed,
            "fail_ratio": failed / len(records) if records else 1.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mahlercf" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'mahlercf'} is missing", file=sys.stderr)
        return 2
    began = time.perf_counter()
    job_list = jobs.jobs_for(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work_dir.mkdir()

    request = {"src": str(SRC), "jobs": job_list, "work_dir": str(work_dir)}
    deadline = began + args.seconds + PASS_MARGIN_S
    passes, setup_raw, setup_cal, setup_problems = [], [], [], []
    try:
        while True:
            begin = time.perf_counter()
            for traced in (False, True) if args.trace else (False,):
                passes.append(run_worker(dict(request, trace=traced), deadline - time.perf_counter()))
            if not args.trace:
                raw, cal, problems = measure_setup(work_dir, SETUP_RUNS_PER_PASS, deadline)
                setup_raw += raw
                setup_cal += cal
                setup_problems += problems
            now = time.perf_counter()
            if now - began + (now - begin) > args.seconds:
                break
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: stopped {exc.cmd[1:]}, still running {PASS_MARGIN_S} s after "
              f"--seconds {args.seconds}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in work_dir.iterdir():
            leftover.unlink()
        work_dir.rmdir()

    untraced = [p for p in passes if not p["traced"]]
    medians = job_medians(untraced)
    cal_medians = job_medians(untraced, "cal_s")
    records = [rec for p in passes for rec in p["jobs"]]
    if not args.trace:
        records.append({"name": "setup", "problems": setup_problems})
    counts = summarize(records)
    problems = [msg for rec in records for msg in rec["problems"]]
    wall = sum(medians.values())
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        traced_wall = sum(job_medians(traced).values())
        values = tracing.median_metrics([p["layers"] for p in traced])
        values.update({"trace.untraced_wall_s": wall, "trace.traced_wall_s": traced_wall,
                       "trace.overhead_s": traced_wall - wall})
        units = dict(tracing.PER_LAYER)
        # the spans stay in memory until here and are written once
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w") as fh:
            for number, p in enumerate(traced):
                for span in p.pop("spans"):
                    fh.write(json.dumps([number] + span) + "\n")
    else:
        values = {"wall_s": sum(cal_medians.values()), "setup_s": statistics.median(setup_cal),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced)}
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": passes[0]["env"], "jobs": job_list, "job_s": medians, "job_cal_s": cal_medians,
        "raw_wall_s": wall, "cal_wall_s": sum(cal_medians.values()), "passes": passes,
        "raw_setup_s": setup_raw, "cal_setup_s": setup_cal, "fail_ratio": counts["fail_ratio"],
        "problems": problems, "metrics": metrics,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    env = passes[0]["env"]
    print(f"# {args.workload} seed={args.seed} backend={env['backend']} numba={env['numba_importable']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"passes={len(untraced)}")
    print("# job: calibrated s (raw s); wall_s and setup_s are calibrated")
    for name, seconds in medians.items():
        print(f"{name}_s {cal_medians.get(name, float('nan')):.4f} s ({seconds:.4f} s)")
    print(f"wall_s {sum(cal_medians.values()):.4f} s ({wall:.4f} s)")
    if setup_raw:
        print(f"setup_s {statistics.median(setup_cal):.4f} s ({statistics.median(setup_raw):.4f} s)")
    print(f"fail_ratio {counts['fail_ratio']:.4f} ({counts['failed']}/{counts['attempted']} jobs)")
    for msg in problems[:20]:
        print(f"FAIL {msg}")
    print(json.dumps({"correct": not problems, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
