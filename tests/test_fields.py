"""Scalar arithmetic: rationals, the odd-prime check, root finding, primality."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf.fields import (
    PRIMALITY_LIMIT,
    as_scalar,
    check_odd_prime,
    is_prime,
    poly_roots_mod_p,
    primes_between,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
)


class TestExactRational:
    @given(rationals, rationals, rationals)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
    def test_normalized(self, num, den):
        q = Fraction(num, den)
        assert q.denominator > 0
        from math import gcd

        assert gcd(q.numerator, q.denominator) == 1
        # normalization is idempotent
        assert Fraction(q.numerator, q.denominator) == q


class TestScalars:
    def test_as_scalar_lifts_ints_only(self):
        assert as_scalar(3) == 3 and isinstance(as_scalar(3), Fraction)
        assert as_scalar(Fraction(1, 2)) == Fraction(1, 2)
        for bad in (0.5, "1/2", None):
            with pytest.raises(TypeError):
                as_scalar(bad)


class TestPrimeField:
    """Mod-p work runs on int residues; what remains of F_p here is the
    check that its modulus is an odd prime."""

    def test_composite_modulus_rejected(self):
        for p in (-7, 0, 1, 2, 9, 15, 1001):
            with pytest.raises(ValueError, match=f"p must be a prime >= 3, got {p}"):
                check_odd_prime(p)

    def test_odd_primes_accepted(self):
        for p in (3, 5, 7, 997, 1009):
            check_odd_prime(p)


def evaluate(coeffs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def legendre(a, p):
    a %= p
    return 0 if a == 0 else 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# the quadratics x^2 - 3, x^2 + 3, x^2 + x + 1, x^2 - x + 1, then
# 5x^2 + 3x + 2 (every coefficient nonzero and a leading one that is not 1;
# discriminant -31, a double root mod 31), then the C5 polynomials x^2 - 2 delta
CASE_POLYNOMIALS = [[-3, 0, 1], [3, 0, 1], [1, 1, 1], [1, -1, 1], [2, 3, 5]] + [
    [-2 * delta, 0, 1] for delta in (-1, 1, 2, 3, 7, 24, 49)
]


class TestPolyRoots:
    def test_examples(self):
        assert poly_roots_mod_p([-3, 0, 1], 11) == {5, 6}
        assert poly_roots_mod_p([1, 1, 1], 7) == {2, 4}
        assert poly_roots_mod_p([1, 1, 1], 5) == set()

    # 257 and 65537 have p - 1 a power of two: Tonelli-Shanks runs its
    # longest inner loop there
    @pytest.mark.parametrize("p", primes_between(3, 100) + [257, 65537])
    @pytest.mark.parametrize("coeffs", CASE_POLYNOMIALS)
    def test_exhaustive_agreement(self, p, coeffs):
        # independent oracle: direct evaluation at every residue
        expect = {x for x in range(p) if evaluate(coeffs, x, p) == 0}
        assert poly_roots_mod_p(coeffs, p) == expect

    @pytest.mark.parametrize("coeffs", CASE_POLYNOMIALS)
    def test_large_two_adic_prime(self, coeffs):
        # p - 1 = 3 * 2^18: the roots are checked and counted by Euler's
        # criterion, not by scanning F_p
        p = 786433
        c0, c1, c2 = coeffs
        roots = poly_roots_mod_p(coeffs, p)
        assert all(evaluate(coeffs, x, p) == 0 for x in roots)
        assert len(roots) == 1 + legendre(c1 * c1 - 4 * c0 * c2, p)

    def test_double_roots(self):
        # x^2 + x + 1 = (x - 1)^2 mod 3, the one prime where C3's phi is double
        assert poly_roots_mod_p([1, 1, 1], 3) == {1}
        assert poly_roots_mod_p([1, 2, 1], 7) == {6}  # (x + 1)^2
        assert poly_roots_mod_p([0, 0, 5], 7) == {0}
        assert poly_roots_mod_p([2, 3, 5], 31) == {9}  # 5 (x - 9)^2

    def test_linear_and_constant(self):
        assert poly_roots_mod_p([3, 2], 7) == {2}
        assert poly_roots_mod_p([3, 0, 7], 7) == set()

    def test_zero_polynomial(self):
        # every x would be a root: refused rather than listing all of F_p
        for coeffs, p in (([7, 14], 7), ([0, 10**9 + 7], 10**9 + 7)):
            with pytest.raises(ValueError, match="zero polynomial"):
                poly_roots_mod_p(coeffs, p)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            poly_roots_mod_p([1, 0, 0, 0, 0, 1], 7)

    @pytest.mark.parametrize("coeffs", [[1, 0, 0, 1], [0, 1, 0, 0, 1], [1, 0, 1, 1, 1]])
    def test_not_quadratic_in_x_or_x2(self, coeffs):
        # x^3 + 1, x^4 + x, x^4 + x^3 + x^2 + 1: only quadratics are solved
        with pytest.raises(ValueError, match="degree [34] > 2 not supported"):
            poly_roots_mod_p(coeffs, 7)

    def test_high_terms_vanishing_mod_p_is_accepted(self):
        # 7x^4 + 14x^3 + x^2 + 3 is x^2 + 3 mod 7, a quadratic there
        assert poly_roots_mod_p([3, 0, 1, 14, 7], 7) == {2, 5}

    @pytest.mark.parametrize("p", [2, 9])
    def test_modulus_refused(self, p):
        with pytest.raises(ValueError):
            poly_roots_mod_p([-3, 0, 1], p)

    @pytest.mark.parametrize("p", [10**6 + 3, 1_000_033])
    def test_prime_above_a_million(self, p):
        # no cap on p: 3 is a non-residue mod 10^6 + 3 and a residue mod 1000033
        roots = poly_roots_mod_p([-3, 0, 1], p)
        assert len(roots) == 1 + legendre(3, p)
        assert all(r * r % p == 3 for r in roots)


class TestPrimality:
    def test_examples(self):
        assert is_prime(3)
        assert not is_prime(9)
        assert is_prime(997)

    def test_against_trial_division(self):
        def oracle(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(-2, 10**5):
            assert is_prime(n) == oracle(n), n

    @pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051])
    def test_pseudoprimes_are_composite(self, n):
        # Carmichael numbers, then strong pseudoprimes to the bases 2..7
        # and 2..23
        assert not is_prime(n)

    def test_mersenne_61_is_fast(self):
        start = time.perf_counter()
        assert is_prime.__wrapped__(2**61 - 1)
        assert time.perf_counter() - start < 0.01
        assert not is_prime(2**61 + 1)

    def test_limit(self):
        # the limit is itself the least strong pseudoprime to all 13 bases
        assert PRIMALITY_LIMIT == 1287836182261 * 2575672364521
        for n in (PRIMALITY_LIMIT, 2**89 - 1):
            with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
                is_prime(n)
            with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
                check_odd_prime(n)
        assert not is_prime(2 * PRIMALITY_LIMIT)  # a factor <= 41 still decides

    def test_primes_between(self):
        assert primes_between(3, 20) == [3, 5, 7, 11, 13, 17, 19]
        assert primes_between(3, 1) == []
        assert primes_between(3, 1000) == [n for n in range(3, 1001) if is_prime(n)]
        assert len(primes_between(3, 1000)) == 167
