"""The int engine against independent code: the Fraction run reduced mod p
for single runs, per-pair runs at every u for the scan (which runs half the
rows and mirrors them across u -> -u), the parity in u that the mirror rests
on, and a direct membership probe for the coverage count."""

from fractions import Fraction

import numpy as np
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


def test_run_over_q_is_even_in_betas_and_odd_in_alphas():
    # the fact scan_grid's mirror across u -> -u rests on, for rational u too
    n = 60
    for u in {Fraction(a, b) for a in range(7) for b in (1, 2, 3, 5)}:
        for v in [Fraction(x, 2) for x in range(-8, 9)]:
            plus, minus = run_over_q(u, v, n), run_over_q(-u, v, n)
            assert minus.failure == plus.failure, (u, v)
            assert minus.betas == plus.betas, (u, v)
            assert minus.alphas == tuple(-a for a in plus.alphas), (u, v)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97])
def test_run_history_is_even_in_betas_and_odd_in_alphas(p):
    for u in range(p // 2 + 1):
        for v in range(p):
            alphas, betas, fail, cause = kernels.run_history(u, v, p, 300)
            m_alphas, m_betas, m_fail, m_cause = kernels.run_history(-u, v, p, 300)
            assert (m_fail, m_cause) == (fail, cause), (u, v, p)
            assert m_betas == betas, (u, v, p)
            assert m_alphas[1:] == [-a % p for a in alphas[1:]], (u, v, p)


def _per_pair_grid(p, n):
    return [[kernels.first_zero(u, v, p, n) for v in range(p)] for u in range(p)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_scan_grid_matches_per_pair_runs(p):
    # every row u is run directly here, so this checks the mirrored rows
    grid = kernels.scan_grid(p, 600)
    assert grid.shape == (p, p) and grid.dtype == np.int32
    assert grid.tolist() == _per_pair_grid(p, 600)


def test_scan_grid_full_horizon():
    # every row u is run directly here, so this checks the mirrored rows of
    # scan_grid out to a far horizon
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
