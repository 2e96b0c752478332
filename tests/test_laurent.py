"""Series expansion, the extraction oracle, convergents, and the exponent
estimate."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mahlercf.kernels import run_history
from mahlercf.laurent import (
    CFExpansion,
    InsufficientDepth,
    NeedTwoTerms,
    cf_extract,
    convergent_denominator_degrees,
    convergent_is_g,
    convergents,
    expand_g,
    mu_estimate,
    residual_valuation,
)
from mahlercf.recurrence import run_over_q


def reference_inverse(coeffs):
    """Multiplicative inverse of the series with coefficient coeffs[m] at
    z^(-1-m), as (top, h): h[j] is the coefficient of z^(top - j), exact to
    the end of h, whose floor is top - len(h) + 1 = -len(coeffs) - 2*valuation.
    """
    lead = next((j for j, c in enumerate(coeffs) if c), None)
    if lead is None:
        raise InsufficientDepth("cannot invert a series that is zero to its floor")
    s = coeffs[lead:]  # from the valuation -1 - lead down to the floor
    inv_lead = 1 / s[0]
    h = [inv_lead]
    for j in range(1, len(s)):
        acc = 0
        for i in range(1, j + 1):
            acc = acc + s[i] * h[j - i]
        h.append(-acc * inv_lead)
    return 1 + lead, h


def reference_quotients(coeffs):
    """Classical extraction by inverting every remainder, O(terms * depth^2).

    The independent reference for cf_extract: yields the renormalised
    (beta_i, a_i) in order and raises InsufficientDepth where cf_extract
    must refuse, with the same message.
    """
    lam_prev = None
    while True:
        top, inv = reference_inverse(coeffs)
        floor = top - len(inv) + 1
        if floor > 0:
            raise InsufficientDepth("floor above degree 0: polynomial part not certified")
        b = inv[top::-1]  # degrees 0..top
        lam = b[-1]
        yield (1 / lam if lam_prev is None else 1 / (lam_prev * lam)), [c / lam for c in b]
        lam_prev = lam
        coeffs = inv[top + 1:]  # degrees -1..floor: the next remainder


class TestExpand:
    def test_zero_pair_is_z_inverse(self):
        assert expand_g(0, 0, 12) == [1] + [0] * 11

    def test_ones_pair(self):
        assert expand_g(1, 1, 6) == [1] * 6

    def test_2_3_prefix(self):
        assert expand_g(2, 3, 4) == [1, 2, 3, 2]

    def test_depth_zero_refused(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            expand_g(1, 1, 0)

    def test_truncation_consistency(self):
        rng = random.Random(3)
        for _ in range(10):
            u, v = rng.randint(-8, 8), rng.randint(-8, 8)
            assert expand_g(u, v, 40)[:15] == expand_g(u, v, 15)

    def test_matches_finite_product(self):
        # prod_t (1 + u x^(3^t) + v x^(2*3^t)) over 3^t <= 100, multiplied
        # out, gives every coefficient of x^m = z^(-1-m) for m < 101; the
        # depths 1..100 include every 3^k - 1, 3^k and 3^k + 1 below 101
        rng = random.Random(11)
        for _ in range(4):
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            product = [1]
            for t in range(5):
                step = 3**t
                factor = [1] + [0] * (step - 1) + [u] + [0] * (step - 1) + [v]
                out = [0] * (len(product) + len(factor) - 1)
                for i, x in enumerate(product):
                    for j, y in enumerate(factor):
                        out[i + j] += x * y
                product = out
            for depth in range(1, 101):
                assert expand_g(u, v, depth) == product[:depth], (u, v, depth)


class TestExtract:
    def test_pure_z_inverse(self):
        cf = cf_extract(expand_g(0, 0, 10), 1)
        assert convergents(cf, 0) == ([], [1])
        assert cf.beta(1) == 1
        assert cf.quotient(1) == [0, 1]

    def test_telescoping_pair_terminates(self):
        # g at (1,1) collapses to 1/(z-1): one quotient, then no certifiable
        # continuation at any depth
        cf = cf_extract(expand_g(1, 1, 30), 1)
        assert cf.quotient(1) == [-1, 1]
        for depth in (30, 120):
            with pytest.raises(InsufficientDepth):
                cf_extract(expand_g(1, 1, depth), 2)

    def test_square_pair_nonlinear_quotient(self):
        # generic member of the v = u^2 family: second quotient is quadratic
        cf = cf_extract(expand_g(2, 4, 60), 2)
        assert len(cf.quotient(2)) - 1 == 2
        assert cf.first_nonlinear() == 2
        with pytest.raises(ValueError, match="quotient 2 has degree 2, not 1"):
            cf.linear_constants()

    def test_never_emits_zero_beta_or_non_monic(self):
        rng = random.Random(11)
        for _ in range(8):
            u, v = rng.randint(-8, 8), rng.randint(-8, 8)
            try:
                cf = cf_extract(expand_g(u, v, 50), 15)
            except InsufficientDepth:
                continue
            assert all(b != 0 for b, _ in cf.pairs)
            assert all(a[-1] == 1 for _, a in cf.pairs)

    def test_insufficient_depth_instead_of_junk(self):
        with pytest.raises(InsufficientDepth):
            cf_extract(expand_g(2, 3, 6), 20)

    def test_zero_list_refused(self):
        for coeffs in ([Fraction(0)], [Fraction(0)] * 9):
            with pytest.raises(InsufficientDepth, match="zero to its floor; nothing to expand"):
                cf_extract(coeffs, 1)

    @pytest.mark.parametrize("u, v, n, chain", [
        (2, 4, 10, [(1, 2), (3, 4), (7, 2), (9, 10), (19, 2), (21, 4), (25, 2), (27, 28), (55, 2)]),
        (1, -2, 28, [(2, 3), (6, 7), (18, 19)]),
        (2, 1, 37, [(5, 3), (15, 7)]),
    ])
    def test_degree_chains_at_depth_120(self, u, v, n, chain):
        # (denominator degree s, quotient degree d) of every quotient with
        # d >= 2 among the n that depth 120 certifies; each chain steps
        # (s, d) -> (3s, 3d - 2)
        g = expand_g(u, v, 120)
        cf = cf_extract(g, n)
        degrees = convergent_denominator_degrees(cf)
        assert [(s, len(a) - 1) for s, (_, a) in zip(degrees, cf.pairs) if len(a) > 2] == chain
        with pytest.raises(InsufficientDepth):
            cf_extract(g, n + 1)

    def test_deep_golden(self):
        doc = json.dumps(cf_extract(expand_g(2, 3, 404), 200).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "dc2302b8d70a66af6454f40e4f265388590a0e047ea5a03c8ceb46a64ef12dd6"
        )

    def test_convergent_golden(self):
        # the coefficients of p_28 and q_28 (q of degree 54) over the
        # quotients of degree 3, 7 and 19
        cf = cf_extract(expand_g(1, -2, 120), 28)
        p, q = convergents(cf, 28)
        doc = json.dumps({"cf": cf.to_json_dict(), "p": [str(c) for c in p],
                          "q": [str(c) for c in q]}, sort_keys=True)
        assert len(q) == 55
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "01134420067a8cdaca093d6d6828f20203136b61f66e4cd70bb42e0ba6b70d09"
        )


class TestAgainstInversionReference:
    """cf_extract and the inversion reference certify exactly the same terms."""

    @staticmethod
    def assert_same_certification(coeffs, depth):
        ref_terms, ref_refusal = [], None
        try:
            for term in reference_quotients(coeffs):
                ref_terms.append(term)
                if len(ref_terms) == depth:
                    break
        except InsufficientDepth as exc:
            ref_refusal = str(exc)
        for n in range(1, depth + 1):
            if n <= len(ref_terms):
                cf = cf_extract(coeffs, n)
                assert cf.pairs == ref_terms[:n], n
                assert convergents(cf, 0)[0] == []
            else:
                with pytest.raises(InsufficientDepth) as info:
                    cf_extract(coeffs, n)
                assert str(info.value) == ref_refusal, n

    @pytest.mark.parametrize("depth", [4, 9, 22, 35])
    def test_rational_pairs(self, depth):
        pairs = [(1, 1), (0, 0), (2, 4), (-3, 9), (Fraction(1, 2), Fraction(1, 4)),
                 (2, 3), (5, 1), (Fraction(-3, 2), 2), (Fraction(7, 3), Fraction(-1, 5)),
                 (Fraction(1, 2), 3), (-4, -7), (3, 0), (0, -2),
                 (Fraction(7, 1024), Fraction(-5, 729))]
        for u, v in pairs:
            self.assert_same_certification(expand_g(u, v, depth), depth)

    def test_lists_with_leading_zeros(self):
        # valuation -1 - zeros, so the first quotient has degree zeros + 1
        rng = random.Random(17)
        for _ in range(40):
            zeros = rng.randint(0, 4)
            lead = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            coeffs = [Fraction(0)] * zeros + [lead] + [
                Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                for _ in range(rng.randint(0, 14 - zeros))
            ]
            self.assert_same_certification(coeffs, 8)


class TestOracleEquivalence:
    def test_2_3_twenty_terms(self):
        n = 20
        run = run_over_q(2, 3, n)
        cf = cf_extract(expand_g(2, 3, 2 * n + 4), n)
        assert cf.all_linear()
        alphas = cf.linear_constants()
        for i in range(1, n + 1):
            assert cf.beta(i) == run.beta(i)
            assert alphas[i - 1] == run.alpha(i)

    def test_random_pairs(self):
        rng = random.Random(99)
        n = 25
        done = 0
        while done < 8:
            u, v = rng.randint(-10, 10), rng.randint(-10, 10)
            if v == u * u:
                continue
            run = run_over_q(u, v, n)
            if not run.ok:
                continue
            cf = cf_extract(expand_g(u, v, 2 * n + 4), n)
            assert cf.all_linear()
            alphas = cf.linear_constants()
            assert all(cf.beta(i) == run.beta(i) for i in range(1, n + 1))
            assert all(alphas[i - 1] == run.alpha(i) for i in range(1, n + 1))
            done += 1

    def test_prime_field_mode(self):
        # the Q oracle reduced mod p must match the mod-p recurrence
        n, p = 12, 11
        cf = cf_extract(expand_g(5, 1, 2 * n + 4), n)
        assert cf.all_linear()

        def reduce(x):
            return x.numerator * pow(x.denominator, -1, p) % p

        alphas, betas, idx = run_history(5, 1, p, n)
        assert idx == 0
        assert [reduce(cf.beta(i)) for i in range(1, n + 1)] == betas[1:]
        assert [reduce(a) for a in cf.linear_constants()] == alphas[1:]


class TestConvergents:
    def test_k0_and_k1(self):
        cf = cf_extract(expand_g(2, 3, 24), 5)
        p0, q0 = convergents(cf, 0)
        assert p0 == [] and q0 == [1]
        p1, q1 = convergents(cf, 1)
        # g has no polynomial part, so p1 = beta_1, q1 = a_1
        assert p1 == [cf.beta(1)]
        assert q1 == cf.quotient(1)

    def test_out_of_range(self):
        cf = cf_extract(expand_g(2, 3, 24), 5)
        with pytest.raises(IndexError):
            convergents(cf, 6)

    def test_convergent_is_g_refuses(self):
        # no quotient leaves p = 0; five quotients of (2, 3) pass the degree
        # and leading-coefficient checks but not the functional equation
        assert not convergent_is_g(2, 3, CFExpansion([]))
        assert not convergent_is_g(2, 3, cf_extract(expand_g(2, 3, 24), 5))

    @pytest.mark.parametrize("u, v, n, depth", [(2, 3, 20, 44), (2, 4, 3, 60)])
    def test_degrees_are_convergent_denominator_degrees(self, u, v, n, depth):
        cf = cf_extract(expand_g(u, v, depth), n)
        degrees = convergent_denominator_degrees(cf)
        assert degrees == [len(convergents(cf, k)[1]) - 1 for k in range(n + 1)]

    def test_degrees_increment_for_linear_runs(self):
        n = 30
        cf = cf_extract(expand_g(2, 3, 2 * n + 4), n)
        assert convergent_denominator_degrees(cf) == list(range(n + 1))


class TestResidualValuation:
    def test_k0_trivial(self):
        g = expand_g(5, 1, 10)
        assert residual_valuation(g, [], [1]) == -1

    def test_5_1_k10(self):
        g = expand_g(5, 1, 30)
        cf = cf_extract(g, 11)
        pk, qk = convergents(cf, 10)
        assert residual_valuation(g, pk, qk) == -11

    def test_2_3_k20(self):
        g = expand_g(2, 3, 54)
        cf = cf_extract(g, 21)
        pk, qk = convergents(cf, 20)
        assert residual_valuation(g, pk, qk) == -21

    def test_valuation_on_the_floor(self):
        # q_10 g is exact down to degree 10 - depth: depth 21 certifies the
        # valuation -11 on the floor itself, depth 20 cannot
        pk, qk = convergents(cf_extract(expand_g(5, 1, 30), 11), 10)
        assert residual_valuation(expand_g(5, 1, 21), pk, qk) == -11
        with pytest.raises(InsufficientDepth):
            residual_valuation(expand_g(5, 1, 20), pk, qk)

    def test_zero_q_raises(self):
        with pytest.raises(ValueError):
            residual_valuation(expand_g(5, 1, 10), [1], [])

    def test_p_above_q_g_gives_deg_p(self):
        # q g = g is led by z^-1, so the residual is led by -z^2
        g = expand_g(5, 1, 10)
        assert residual_valuation(g, [0, 0, 1], [1]) == 2

    def test_shallow_floor_raises(self):
        g = expand_g(2, 3, 8)
        cf = cf_extract(expand_g(2, 3, 30), 8)
        pk, qk = convergents(cf, 8)
        with pytest.raises(InsufficientDepth):
            residual_valuation(g, pk, qk)


class TestJsonSerialization:
    def test_cf_round_trip_exact(self):
        cf = cf_extract(expand_g(Fraction(1, 2), 3, 24), 6)
        doc = json.loads(json.dumps(cf.to_json_dict()))
        assert [Fraction(t["beta"]) for t in doc["terms"]] == [b for b, _ in cf.pairs]
        assert [[Fraction(c) for c in t["a"]] for t in doc["terms"]] == [a for _, a in cf.pairs]


class TestMuEstimate:
    def test_linear_degrees(self):
        assert mu_estimate(range(1, 51)) == 3  # first ratio 2/1 dominates
        assert mu_estimate(range(10, 51)) == 1 + Fraction(11, 10)

    def test_doubling_degrees(self):
        assert mu_estimate([1, 2, 4, 8]) == 3

    def test_needs_two_terms(self):
        with pytest.raises(NeedTwoTerms):
            mu_estimate([5])
        with pytest.raises(NeedTwoTerms):
            mu_estimate([0, 1])  # only ratio has a zero denominator

    def test_skips_leading_zero_degree(self):
        assert mu_estimate([0, 1, 2]) == 3
