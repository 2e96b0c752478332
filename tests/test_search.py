"""Survivor scans and coverage density against independent recounts."""

from fractions import Fraction

import pytest

from mahlercf.conditions import check_pair, satisfying_pairs
from mahlercf.recurrence import first_beta_zero
from mahlercf.search import condition_tables, density, scan_prime, scan_range


class TestScanPrime:
    def test_p5_no_survivors(self):
        res = scan_prime(5, 10_000)
        assert res.survivors == set()
        assert res.condition_pairs == set()

    def test_p7_survivors_equal_conditions(self):
        res = scan_prime(7, 10_000)
        assert len(res.condition_pairs) == 14
        assert res.survivors == res.condition_pairs
        assert res.extra_survivors == set() and res.missing == set()

    def test_p3_no_c7(self):
        res = scan_prime(3, 1000)
        assert res.survivors == res.condition_pairs == set(satisfying_pairs(3))
        assert all(w.case != "C7" for ws in satisfying_pairs(3).values() for w in ws)

    def test_grid_matches_first_beta_zero(self):
        res = scan_prime(7, 500)
        for u in range(7):
            for v in range(7):
                expect = first_beta_zero(u, v, 7, 500)
                assert int(res.first_zero[u, v]) == (expect or 0)

    def test_horizon_monotonicity(self):
        short = scan_prime(13, 100).survivors
        long = scan_prime(13, 10_000).survivors
        assert long <= short

    def test_p5_short_horizon_already_final(self):
        assert scan_prime(5, 100).survivors == scan_prime(5, 10_000).survivors

    def test_csv_rows(self):
        res = scan_prime(3, 500)
        rows = list(res.csv_rows())
        assert len(rows) == 9
        by_pair = {(u, v): fz for _, u, v, fz in rows}
        assert by_pair[(1, 1)] == 2  # v = u^2
        assert by_pair[(0, 1)] == "survived"


class TestScanRange:
    def test_small_range_clean(self):
        results = scan_range(3, 13, 2000)
        assert [r.p for r in results] == [3, 5, 7, 11, 13]
        for r in results:
            assert r.extra_survivors == set()
            assert r.missing == set()

    def test_parallel_matches_serial(self):
        serial = scan_range(3, 13, 500, jobs=1)
        parallel = scan_range(3, 13, 500, jobs=4)
        for a, b in zip(serial, parallel):
            assert a.p == b.p and a.survivors == b.survivors


class TestDensity:
    def test_b0_uncovered(self):
        rep = density(0, 1000)
        assert rep.total == 1 and rep.covered == 0
        assert rep.fraction == 0

    def test_small_grid_against_direct_check(self):
        # independent recount via the per-pair decision procedure
        B, pm = 12, 20
        rep = density(B, pm)
        primes = [3, 5, 7, 11, 13, 17, 19]
        direct = sum(
            1
            for u in range(-B, B + 1)
            for v in range(-B, B + 1)
            if any(check_pair(u, v, p) for p in primes)
        )
        assert rep.covered == direct
        assert rep.fraction == Fraction(direct, (2 * B + 1) ** 2)

    def test_monotone_in_prime_max(self):
        b = 40
        fractions = [density(b, pm).fraction for pm in (3, 7, 13, 31)]
        assert fractions == sorted(fractions)

    def test_parallel_matches_serial(self):
        assert density(35, 35, jobs=1).covered == density(35, 35, jobs=5).covered

    def test_witness_pair_never_covered(self):
        for p, pairs in condition_tables(1000).items():
            assert (2 % p, -2 % p) not in pairs


@pytest.mark.parametrize("p", [3, 7, 11])
def test_condition_tables_match_enumeration(p):
    pairs = condition_tables(p)[p]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(satisfying_pairs(p))
