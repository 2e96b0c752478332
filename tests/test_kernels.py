"""The int engine against independent code: the element-level field path
for single runs, per-pair runs for the batch scan, and a direct membership
probe for the coverage count."""

import random

import pytest

from mahlercf import kernels, search
from mahlercf.recurrence import run_mod_p


def test_history_matches_field_elements():
    rng = random.Random(41)
    for _ in range(20):
        p = rng.choice((5, 7, 11, 13, 17))
        u, v = rng.randrange(p), rng.randrange(p)
        n = 60
        alphas, betas, idx, cause = kernels.run_history(u, v, p, n)
        run = run_mod_p(u, v, p, n)
        if run.failure and run.failure.index <= n:
            assert idx == run.failure.index
        else:
            limit = min(n, len(run.betas))
            assert [int(b) for b in run.betas[:limit]] == betas[1 : limit + 1].tolist()
            assert [int(a) for a in run.alphas[:limit]] == alphas[1 : limit + 1].tolist()


def _per_pair_grid(p, n):
    return [[kernels.first_zero(u, v, p, n) for v in range(p)] for u in range(p)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_scan_grid_matches_per_pair_runs(p):
    grid = kernels.scan_grid(p, 600)
    assert grid.shape == (p, p)
    assert grid.tolist() == _per_pair_grid(p, 600)


def test_scan_grid_full_horizon():
    # exercises the batch scanner's grow/compact cycles all the way out
    assert kernels.scan_grid(13, 10_000).tolist() == _per_pair_grid(13, 10_000)


def test_density_count_matches_membership_probe():
    # slab starts -61 and 17 are not multiples of any prime in the tables
    tables = search.condition_tables(40)
    members = {p: set(pairs) for p, pairs in tables.items()}
    b = 45
    for u_lo, u_hi in ((-61, 16), (17, 59)):
        direct = sum(
            1
            for u in range(u_lo, u_hi + 1)
            for v in range(-b, b + 1)
            if any((u % p, v % p) in members[p] for p in members)
        )
        assert kernels.density_count(u_lo, u_hi, b, tables) == direct


def test_scan_grid_diagonal_dies_at_two():
    # v = u^2 kills beta_2 for every residue
    grid = kernels.scan_grid(7, 200)
    for u in range(7):
        assert grid[u, u * u % 7] == 2
