"""Scalar arithmetic: rationals, the odd-prime check, root finding, primality."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf.fields import (
    ExactRational,
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
    def test_is_fraction(self):
        assert ExactRational is Fraction

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


class TestPolyRoots:
    def test_examples(self):
        assert poly_roots_mod_p([-3, 0, 1], 11) == {5, 6}
        assert poly_roots_mod_p([1, 1, 1], 7) == {2, 4}
        assert poly_roots_mod_p([1, 1, 1], 5) == set()

    @pytest.mark.parametrize("p", primes_between(3, 100))
    @pytest.mark.parametrize(
        "coeffs",
        [[-3, 0, 1], [3, 0, 1], [1, 1, 1], [1, -1, 1], [1, 0, 4, 0, 1]],
    )
    def test_exhaustive_agreement(self, p, coeffs):
        # independent oracle: direct evaluation at every residue
        expect = {
            x for x in range(p) if sum(c * x**i for i, c in enumerate(coeffs)) % p == 0
        }
        assert poly_roots_mod_p(coeffs, p) == expect

    def test_zero_polynomial(self):
        assert poly_roots_mod_p([7, 14], 7) == {0, 1, 2, 3, 4, 5, 6}

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            poly_roots_mod_p([1, 0, 0, 0, 0, 1], 7)


class TestPrimality:
    def test_examples(self):
        assert is_prime(3)
        assert not is_prime(9)
        assert is_prime(997)

    def test_against_trial_division(self):
        def oracle(n):
            return n >= 2 and all(n % d for d in range(2, n))

        for n in range(2, 600):
            assert is_prime(n) == oracle(n), n

    def test_primes_between(self):
        assert primes_between(3, 20) == [3, 5, 7, 11, 13, 17, 19]
        assert primes_between(3, 1000) == [n for n in range(3, 1001) if is_prime(n)]
        assert len(primes_between(3, 1000)) == 167
