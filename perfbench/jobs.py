"""Workloads: the seed -> job list mapping.

A job is a named list of invocations, with the number of threads it runs
on. A ``cli`` invocation is the argv of one ``mahlercf`` command, run
in-process through ``mahlercf.cli.main`` with ``--out`` added by the worker,
beside the inputs (u, v, p, n) it was built from, which the checker reads. The ``soundness`` job is the library call of
acceptance criterion 4. The program sees only what this module generates;
the same (workload, seed) always gives the same jobs.

Fixed inputs are the paper's parameters and carry pinned output digests
(see ``checks.py``). Seeded inputs are drawn so that their cost barely
depends on the seed: the seeded part of every workload is small next to
its fixed part, so run-to-run spread measures the machine, not the draw.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid", "grid_par", "pairs", "exact")

SCAN_ARGV = ["scan", "--p-min", "3", "--p-max", "50", "-N", "10000"]
DENSITY_ARGV = ["density", "-B", "1000", "--primes-max", "1000"]
LEMMA_PRIME_MAX = 200
LEMMA_BLOCKS = 100
SOUNDNESS_PRIME_MAX = 100
SOUNDNESS_HORIZON = 10_000
CHECK_PRIMES_MAX = 1000
CHECK_SEEDED_PAIRS = 100
CHECK_FIXED_PAIR = (2, -2)  # uncovered for every prime <= 1000 (criterion 7)
ROW_COUNT = 40
ROW_LENGTH = 1000
ROW_PRIME_MAX = 200
EXACT_FIXED_PAIRS = ((5, 1), (2, 3))  # criterion 9
EXACT_FIXED_TERMS = 51
# Seeded pairs use criterion 1's 25 terms: at 51 terms one extraction costs
# 3-10 s depending on the pair, which would let the seed set the wall time.
EXACT_SEEDED_PAIRS = 1
EXACT_SEEDED_TERMS = 25
# Pairs in [-10, 10]^2 with v != u^2 whose recurrence over Q hits beta = 0
# within 51 indices; criterion 1's draw rejects them.
Q_FAILURES = frozenset({(-2, 1), (-1, -2), (1, -2), (2, 1)})

# The cheapest command, timed in a fresh interpreter for setup_s.
SETUP_ARGV = ["check", "-u", "2", "-v", "0", "-p", "7"]


def primes_up_to(n: int) -> list[int]:
    """Odd primes 3..n (the benchmark's own list, independent of the program)."""
    return [p for p in range(3, n + 1) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def _cli(name: str, calls: list[tuple[list[str], dict]], threads: int = 1) -> dict:
    return {"name": name, "kind": "cli", "threads": threads,
            "calls": [{"argv": argv, "inputs": inputs} for argv, inputs in calls]}


def _rng(workload: str, job: str, seed: int) -> random.Random:
    # one stream per job, so adding a job never shifts another job's inputs
    return random.Random(f"{workload}:{job}:{seed}")


def _grid_jobs(threads: int) -> list[dict]:
    jobs_flag = ["--jobs", str(threads)] if threads > 1 else []
    return [_cli("scan", [(SCAN_ARGV + jobs_flag, {})], threads),
            _cli("density", [(DENSITY_ARGV + jobs_flag, {})], threads)]


def _pairs_jobs(seed: int) -> list[dict]:
    lemma = [
        (["verify-lemma", "--lemma", str(fam), "-p", str(p), "-K", str(LEMMA_BLOCKS)], {})
        for p in primes_up_to(LEMMA_PRIME_MAX)
        for fam in range(1, 8)
    ]
    rng = _rng("pairs", "check", seed)
    check_pairs = [CHECK_FIXED_PAIR] + [
        (rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(CHECK_SEEDED_PAIRS)
    ]
    check = [
        (["check", f"-u={u}", f"-v={v}", "--primes-max", str(CHECK_PRIMES_MAX)], {"u": u, "v": v})
        for u, v in check_pairs
    ]
    rng = _rng("pairs", "recurrence", seed)
    row_primes = primes_up_to(ROW_PRIME_MAX)
    rows = []
    for _ in range(ROW_COUNT):
        u, v, p = rng.randint(-1000, 1000), rng.randint(-1000, 1000), rng.choice(row_primes)
        rows.append((["recurrence", f"-u={u}", f"-v={v}", "-p", str(p), "-n", str(ROW_LENGTH)],
                     {"u": u, "v": v, "p": p, "n": ROW_LENGTH}))
    return [
        _cli("verify_lemma", lemma),
        {"name": "soundness", "kind": "soundness", "threads": 1,
         "prime_max": SOUNDNESS_PRIME_MAX, "horizon": SOUNDNESS_HORIZON},
        _cli("check", check),
        _cli("recurrence", rows),
    ]


def seeded_exact_pairs(seed: int) -> list[tuple[int, int]]:
    """Criterion 1's draw: [-10, 10]^2, v != u^2, no beta zero over Q."""
    rng = _rng("exact", "pairs", seed)
    out = []
    while len(out) < EXACT_SEEDED_PAIRS:
        u, v = rng.randint(-10, 10), rng.randint(-10, 10)
        if v != u * u and (u, v) not in Q_FAILURES and (u, v) not in out:
            out.append((u, v))
    return out


def _exact_jobs(seed: int) -> list[dict]:
    runs = [(u, v, EXACT_FIXED_TERMS) for u, v in EXACT_FIXED_PAIRS]
    runs += [(u, v, EXACT_SEEDED_TERMS) for u, v in seeded_exact_pairs(seed)]
    cf = [(["cf", f"-u={u}", f"-v={v}", "-n", str(n)], {"u": u, "v": v, "n": n})
          for u, v, n in runs]
    # criterion 9's window is the upper half of the convergents: [25, 50] at n = 51
    mu = [
        (["mu", f"-u={u}", f"-v={v}", "-n", str(n),
          "--window-start", str(n // 2), "--window-end", str(n - 1)], {"u": u, "v": v, "n": n})
        for u, v, n in runs
    ]
    return [_cli("cf", cf), _cli("mu", mu)]


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The job list of one run; raises ValueError for an unknown workload."""
    if workload == "grid":
        return _grid_jobs(1)
    if workload == "grid_par":
        return _grid_jobs(2)
    if workload == "pairs":
        return _pairs_jobs(seed)
    if workload == "exact":
        return _exact_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
