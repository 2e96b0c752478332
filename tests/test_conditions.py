"""The seven local conditions: decision, enumeration, coverage."""

import pytest

from mahlercf import conditions
from mahlercf.conditions import (
    check_pair,
    covered,
    covered_up_to,
    iter_witnesses,
    satisfying_pairs,
)
from mahlercf.fields import poly_roots_mod_p, primes_between
from mahlercf.recurrence import first_beta_zero

# hand-enumerated condition sets for small primes
PAIRS_P3 = {(0, 1), (0, 2), (1, 0), (2, 0), (1, 2), (2, 2)}
PAIRS_P7 = {
    (2, 6), (5, 6),                     # C2: u^2 = -3, v = -1
    (2, 0), (5, 0), (4, 0), (3, 0),     # C3: u = +-phi, v = 0
    (0, 2), (0, 5), (0, 4), (0, 3),     # C6: u = 0, v = +-delta
    (1, 2), (6, 2), (4, 4), (3, 4),     # C7: u = +-2 delta^2, v = delta
}


def witness_holds(w) -> bool:
    """Re-check a witness's defining congruences from its stored fields alone."""
    p, u, v = w.p, w.u, w.v
    if w.case == "C1":
        return (u * u - 3) % p == 0 and v == 1 % p
    if w.case == "C2":
        return (u * u + 3) % p == 0 and v == -1 % p
    if w.case == "C3":
        f = w.phi
        return (f * f + f + 1) % p == 0 and u == w.sign * f % p and v == 0
    if w.case == "C4":
        f = w.phi
        return (f ** 4 + 4 * f * f + 1) % p == 0 and u == w.sign * f % p and v == -1 % p
    if w.case == "C5":
        f, d = w.phi, w.delta
        return (
            (d * d - d + 1) % p == 0
            and (f * f - 2 * d) % p == 0
            and u == w.sign * f % p
            and v == d % p
        )
    if w.case == "C6":
        d = w.delta
        return (d * d + d + 1) % p == 0 and u == 0 and v == w.sign * d % p
    if w.case == "C7":
        d = w.delta
        return (
            p != 3
            and (d * d + d + 1) % p == 0
            and u == w.sign * 2 * d * d % p
            and v == d % p
        )
    return False


class TestCheckPair:
    def test_c1_at_11(self):
        ws = check_pair(5, 1, 11)
        assert [w.case for w in ws] == ["C1"]
        assert ws[0].pair == (5, 1)

    def test_c3_at_7(self):
        ws = check_pair(2, 0, 7)
        assert [w.case for w in ws] == ["C3"]
        assert ws[0].phi == 2 and ws[0].sign == 1

    def test_c4_at_11(self):
        ws = check_pair(2, -1, 11)
        assert [w.case for w in ws] == ["C4"]
        assert ws[0].phi == 2

    def test_uncovered_witness_pair_at_11(self):
        assert check_pair(2, -2, 11) == []

    def test_negative_sign_parameterisations(self):
        # u = -phi for phi = 2 at p = 7: u = 5
        ws = check_pair(5, 0, 7)
        assert ws[0].case == "C3" and ws[0].sign == -1 and ws[0].phi == 2
        # v = -delta at p = 7: delta in {2, 4}, so v in {5, 3}
        ws = check_pair(0, 5, 7)
        assert ws[0].case == "C6" and ws[0].sign == -1 and ws[0].delta == 2


class TestSatisfyingPairs:
    def test_p5_empty(self):
        assert satisfying_pairs(5) == {}

    def test_p7_exact_set(self):
        assert set(satisfying_pairs(7)) == PAIRS_P7

    def test_p3_exact_set_and_no_c7(self):
        pairs = satisfying_pairs(3)
        assert set(pairs) == PAIRS_P3
        assert all(w.case != "C7" for ws in pairs.values() for w in ws)

    def test_overlaps_preserved(self):
        # (1, 2) mod 3 satisfies both C4 and C5
        cases = {w.case for w in satisfying_pairs(3)[(1, 2)]}
        assert {"C4", "C5"} <= cases

    @pytest.mark.parametrize("p", primes_between(3, 50))
    def test_agreement_with_check_pair(self, p):
        enumerated = set(satisfying_pairs(p))
        decided = {
            (u, v) for u in range(p) for v in range(p) if check_pair(u, v, p)
        }
        assert enumerated == decided

    @pytest.mark.parametrize("p", primes_between(3, 50))
    def test_sign_closure(self, p):
        pairs = set(satisfying_pairs(p))
        assert {((-u) % p, v) for (u, v) in pairs} == pairs

    @pytest.mark.parametrize("p", primes_between(3, 100))
    def test_witness_validity(self, p):
        for w in iter_witnesses(p):
            assert witness_holds(w), w

    @pytest.mark.parametrize("p", primes_between(3, 200))
    def test_one_case_finds_only_its_own_roots(self, p, monkeypatch):
        # verify-lemma enumerates one family: the same witnesses in the same
        # order as the full enumeration, from the roots of that case alone.
        # The full enumeration solves x^2 - 3 (C1, C4) and x^2 + x + 1 (C2,
        # C3, C5, C6, C7) once each, then only the quadratics phi^2 = r - 2
        # of C4 and phi^2 = 2 delta of C5; calls are counted, not distinct
        # polynomials (at p = 11, C4's 5 - 2 = 3 asks for x^2 - 3 again)
        find_roots = conditions.poly_roots_mod_p
        asked = []
        monkeypatch.setattr(conditions, "poly_roots_mod_p",
                            lambda f, q: asked.append(f) or find_roots(f, q))
        every = list(iter_witnesses(p))
        roots3 = len(find_roots([-3, 0, 1], p))
        deltas = len(find_roots([1, -1, 1], p))
        assert asked[:2] == [[-3, 0, 1], [1, 1, 1]], asked
        assert len(asked) == 2 + roots3 + deltas, asked
        assert all(len(f) == 3 and f[2] == 1 for f in asked), asked
        assert not {(3, 0, 1), (1, -1, 1), (1, 0, 4, 0, 1)} & set(map(tuple, asked)), asked
        for n in range(1, 8):
            asked.clear()
            assert list(iter_witnesses(p, f"C{n}")) == [w for w in every if w.case == f"C{n}"]
            own = 1 + {4: roots3, 5: deltas}.get(n, 0)
            assert len(asked) == (0 if (n, p) == (7, 3) else own), (n, asked)

    # 257 and 65537 have p - 1 a power of two
    @pytest.mark.parametrize("p", primes_between(3, 100) + [257, 65537])
    def test_c2_and_c4_roots_solve_their_polynomials(self, p):
        # C2's u = 2 omega + 1 and C4's phi^2 = r - 2 (r^2 = 3) are found
        # from other quadratics; direct evaluation at every residue checks
        # them against u^2 = -3 and phi^4 + 4 phi^2 + 1 = 0
        assert {w.u for w in iter_witnesses(p, "C2")} == {
            x for x in range(p) if (x * x + 3) % p == 0
        }
        assert {w.phi for w in iter_witnesses(p, "C4")} == {
            x for x in range(p) if (x**4 + 4 * x * x + 1) % p == 0
        }

    def test_c2_and_c4_roots_at_a_large_two_adic_prime(self):
        # p - 1 = 3 * 2^18: the roots are checked and counted by Euler's
        # criterion, not by scanning F_p. x^2 = -3 has 1 + (-3 / p) roots,
        # the quartic 1 + (y / p) over each root y = r - 2 of y^2 + 4y + 1
        p = 786433

        def legendre(a):
            return 0 if a % p == 0 else 1 if pow(a, (p - 1) // 2, p) == 1 else -1

        us = {w.u for w in iter_witnesses(p, "C2")}
        assert all((u * u + 3) % p == 0 for u in us)
        assert len(us) == 1 + legendre(-3)
        phis = {w.phi for w in iter_witnesses(p, "C4")}
        assert all((f**4 + 4 * f * f + 1) % p == 0 for f in phis)
        roots3 = poly_roots_mod_p([-3, 0, 1], p)
        assert all(r * r % p == 3 for r in roots3) and len(roots3) == 1 + legendre(3)
        assert len(phis) == sum(1 + legendre(r - 2) for r in roots3)

    def test_each_case_contributes_few_pairs(self):
        for p in primes_between(3, 100):
            per_case = {}
            for w in iter_witnesses(p):
                per_case.setdefault(w.case, set()).add(w.pair)
            for case, pairs in per_case.items():
                assert len(pairs) <= 4, (p, case)


class TestCovered:
    def test_5_1_covered_at_11(self):
        w = covered_up_to(5, 1, 1000)
        assert w is not None and w.p == 11 and w.case == "C1"

    def test_2_minus2_uncovered_below_1000(self):
        assert covered_up_to(2, -2, 1000) is None

    def test_1_1_uncovered(self):
        # v = u^2 forces beta_2 = 0, which no condition admits
        assert covered_up_to(1, 1, 1000) is None

    def test_scans_ascending(self):
        w = covered(5, 1, [31, 11, 13])
        assert w.p == 11


class TestSoundness:
    @pytest.mark.parametrize("p", primes_between(3, 50))
    def test_condition_pairs_survive(self, p):
        # the conditions force beta_i != 0 mod p for every i: zero tolerance
        for (u, v) in satisfying_pairs(p):
            assert first_beta_zero(u, v, p, 2000) is None, (u, v, p)
