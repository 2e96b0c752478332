"""The int engine against independent code: the Fraction run reduced mod p
for single runs, per-pair runs for the batch scan, and a direct membership
probe for the coverage count."""

import pytest

from mahlercf import kernels, search
from mahlercf.recurrence import run_over_q


def test_history_matches_field_elements():
    """run_history equals the Q run's entries reduced to F_p elements, up to
    and including the first reduced beta that is 0. Every denominator of the
    Q run is a product of earlier betas, so every reduction up to there is
    defined: no pair is skipped."""
    n = 99
    for u in range(-9, 10):
        for v in range(-9, 10):
            qrun = run_over_q(u, v, n)
            for p in (3, 5, 7, 11, 13):
                rb = []
                for b in qrun.betas:
                    rb.append(b.numerator * pow(b.denominator, -1, p) % p)
                    if rb[-1] == 0:
                        break
                idx = len(rb) if rb[-1] == 0 else 0
                n_alphas = idx - (idx % 3 == 2) if idx else len(qrun.alphas)
                ra = [a.numerator * pow(a.denominator, -1, p) % p for a in qrun.alphas[:n_alphas]]
                alphas, betas, fail, cause = kernels.run_history(u, v, p, n)
                assert (fail, cause) == ((idx, kernels.CAUSE_BETA_ZERO) if idx else (0, kernels.OK))
                assert betas[1:] == rb, (u, v, p)
                assert alphas[1:] == ra, (u, v, p)


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
