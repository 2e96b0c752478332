"""One pass over a workload's jobs, in a fresh process started by ``run.py``.

Reads a JSON request on stdin: the checkout's ``src`` directory, the job
list, whether to trace and where the commands write. Runs every job once,
checks its output after timing it, and prints one JSON result on stdout:
each job's raw and calibrated seconds (``calibration.py``) and problems,
the process's peak memory and the environment; a traced pass adds its
per-layer metrics and its spans.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback

import calibration
import checks
import tracing
from jobs import primes_up_to


def _run_cli(cli, job, out_path, timed, clock):
    outputs = []
    for call in job["calls"]:
        with timed():
            start = time.perf_counter()
            rc = cli.main(call["argv"] + ["--out", out_path])
            seconds = time.perf_counter() - start
        clock.add(seconds)
        with open(out_path, "rb") as fh:
            outputs.append((call, rc, fh.read()))
        os.remove(out_path)
    return outputs


def _run_soundness(job, timed, clock):
    # acceptance criterion 4, through the module attributes so tracing sees it;
    # timed a prime at a time, so the clock can probe between the chunks
    from mahlercf import conditions, recurrence

    results = []
    for p in primes_up_to(job["prime_max"]):
        with timed():
            start = time.perf_counter()
            results += [[p, u, v, recurrence.first_beta_zero(u, v, p, job["horizon"])]
                        for (u, v) in conditions.satisfying_pairs(p)]
            seconds = time.perf_counter() - start
        clock.add(seconds)
    return results


def run_pass(cli, jobs, work_dir, tracer=None) -> list[dict]:
    """Run every job once; one record per job with its raw and calibrated seconds and problems."""
    records = []
    for job in jobs:
        if tracer is None:
            timed = contextlib.nullcontext
        else:
            timed = functools.partial(tracer.span, tracing.ROOT_PREFIX + job["name"])
        gc.collect()
        clock = calibration.Clock(calibration.slowness if job["threads"] == 1
                                  else calibration.slowness_on_every_cpu)
        try:
            if job["kind"] == "soundness":
                outputs = _run_soundness(job, timed, clock)
            else:
                outputs = _run_cli(cli, job, os.path.join(work_dir, f"{job['name']}.out"), timed, clock)
            clock.close_chunk()
            record = {"s": clock.raw, "cal_s": clock.calibrated,
                      "problems": checks.check_job(job["name"], outputs)}
        except Exception:  # a crashing job is a failed job; the run goes on
            record = {"s": None, "cal_s": None, "problems": [traceback.format_exc(limit=3)]}
        records.append({"name": job["name"], **record})
    return records


def environment() -> dict:
    from mahlercf import kernels
    import numpy

    return {
        "backend": kernels.get_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    req = json.load(sys.stdin)
    sys.path.insert(0, req["src"])
    from mahlercf import cli

    result = {"traced": req["trace"]}
    if req["trace"]:
        tracer = tracing.Tracer()
        with tracer.installed():
            result["jobs"] = run_pass(cli, req["jobs"], req["work_dir"], tracer)
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["missing_targets"] = tracer.missing
        result["spans"] = [[s.sid, s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]
    else:
        result["jobs"] = run_pass(cli, req["jobs"], req["work_dir"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
