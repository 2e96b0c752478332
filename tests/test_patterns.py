"""Pattern families: expected sequences vs real runs, catalogs, mutation."""

import json
import random

import pytest

from mahlercf import recurrence
from mahlercf.fields import primes_between
from mahlercf.patterns import (
    LemmaSpec,
    _family,
    check_run_against,
    expected_sequences,
    nonzero_beta_catalog,
    specs_for_prime,
    verify_lemma,
)


def spec_for(lemma, p, blocks=4, **filters):
    matches = [
        s
        for s in specs_for_prime(p, blocks)
        if s.lemma == lemma
        and all(getattr(s, key) == value for key, value in filters.items())
    ]
    assert matches, (lemma, p, filters)
    return matches[0]


def reference_expected_sequences(spec, n):
    """expected_sequences as a plain loop over the indices 1..n, one residue
    class of i mod 9 at a time (n >= 1)."""
    p = spec.p
    src, u, beta2, b3, b4, b7, a2, a8, b6, m, c = _family(spec)
    A = [0] * (n + 1)
    B = [0] * (n + 1)
    for i in range(1, n + 1):
        r = i % 9
        if r in (1, 4, 7):
            A[i] = -u % p
        elif r == 2:
            A[i] = a2
        elif r == 8:
            A[i] = a8
        elif r == 5:
            A[i] = (m * A[i // 3 - 1 + src] + c) % p
        else:  # 3k+3 class: sum rule alpha_{3k+2} + alpha_{3k+3} = u
            A[i] = (u - A[i - 1]) % p

    B[1] = 1 % p
    if n >= 2:
        B[2] = beta2
    for i in range(3, n + 1):
        r = i % 9
        if r in (0, 3):
            B[i] = b3
        elif r == 6:
            B[i] = b6 * B[i // 3 + 1] % p
        elif r == 1:
            B[i] = B[i // 3 + 1]
        elif r == 4:
            B[i] = b4
        elif r == 7:
            B[i] = b7
        else:  # 3k+2 class: sum rule beta_{3k+4} + beta_{3k+5} = beta_2
            B[i] = (beta2 - B[i - 1]) % p
    return A, B


class TestExpectedSequences:
    # n on both sides of block ends: 9K+9 for K = 8, 26 and 100
    LENGTHS = [*range(1, 61), 81, 82, 243, 244, 909, 910]

    @pytest.mark.parametrize("p", primes_between(3, 200))
    def test_matches_reference_loop(self, p):
        for spec in specs_for_prime(p, blocks=1):
            for n in self.LENGTHS:
                assert expected_sequences(spec, n) == reference_expected_sequences(spec, n), (spec, n)

    def test_zero_length(self):
        # depth 9K + 9 is 0 at K = -1: only the unused slot 0
        spec = LemmaSpec(lemma=1, p=11, u=5, v=1, blocks=-1)
        assert spec.depth == 0
        assert expected_sequences(spec, spec.depth) == ([0], [0])
        assert nonzero_beta_catalog(spec) == set()

    def test_negative_length_is_refused(self):
        # K = -2 gives depth -9: refused, not a vacuous pass over no indices
        spec = LemmaSpec(lemma=1, p=11, u=5, v=1, blocks=-2)
        with pytest.raises(ValueError, match="negative"):
            expected_sequences(spec, spec.depth)
        with pytest.raises(ValueError, match="negative"):
            verify_lemma(spec)

    def test_unknown_family_refused(self):
        with pytest.raises(ValueError, match="unknown pattern family 8"):
            expected_sequences(LemmaSpec(lemma=8, p=7, u=1, v=1), 9)

    def test_family1_first_nine(self):
        # u^2 = 3, v = 1 at p = 11: u = 5
        spec = spec_for(1, 11, u=5)
        A, B = expected_sequences(spec, 9)
        u = 5
        assert A[1:] == [-u % 11, u, 0, -u % 11, 0, u, -u % 11, 0, u]
        assert B[1:] == [1, 2, 1, 1, 1, 1, 1, 1, 1]

    def test_family7_first_nine(self):
        # delta = 2, u = 2*delta^2 = 1 mod 7; inv3 = 5, inv9 = 4
        spec = spec_for(7, 7, delta=2, sign=1)
        A, B = expected_sequences(spec, 9)
        d, p = 2, 7
        inv3 = pow(3, p - 2, p)
        inv9 = pow(9, p - 2, p)
        assert B[1:] == [
            1,
            3 * d % p,
            -d * inv3 % p,
            -3 * pow(d, p - 2, p) % p,
            -3 % p,
            -d * inv3 % p * inv9 % p,  # beta_3 / 9
            -3 % p,
            -3 * pow(d, p - 2, p) % p,
            -d * inv3 % p,
        ]
        u = 1
        assert A[1] == A[4] == A[7] == -u % p
        assert A[2] == -(2 * d + 4) * inv3 % p
        assert A[3] == -(4 * d + 2) * inv3 % p
        assert A[5] == -(8 * d + 10) * inv9 % p
        assert A[6] == -(10 * d + 8) * inv9 % p
        assert A[8] == -(4 * d + 2) * inv3 % p
        assert A[9] == -(2 * d + 4) * inv3 % p

    def test_sign_flip_negates_alphas_keeps_betas(self):
        for lemma, p in ((3, 7), (4, 11), (7, 7)):
            plus = spec_for(lemma, p, sign=1)
            minus = spec_for(lemma, p, phi=plus.phi, delta=plus.delta, sign=-1)
            Ap, Bp = expected_sequences(plus, 27)
            Am, Bm = expected_sequences(minus, 27)
            assert Bm == Bp
            assert all(Am[i] == -Ap[i] % p for i in range(1, 28))


class TestVerify:
    def test_family1_p11(self):
        report = verify_lemma(spec_for(1, 11, blocks=100, u=5))
        assert report.passed

    def test_family7_p7_both_signs_and_deltas(self):
        specs = [s for s in specs_for_prime(7, 100) if s.lemma == 7]
        assert len(specs) == 4  # delta in {2, 4} x sign
        for s in specs:
            assert verify_lemma(s).passed, s

    def test_family6_minus_sign(self):
        # v = -delta is part of the condition; the pattern checker covers it
        spec = spec_for(6, 7, sign=-1, blocks=50)
        assert verify_lemma(spec).passed

    @pytest.mark.parametrize("p", primes_between(3, 50))
    def test_all_families_small_primes(self, p):
        for spec in specs_for_prime(p, blocks=12):
            report = verify_lemma(spec)
            assert report.passed, (spec, report.first_violation, report.run_failure)

    def test_wrong_pair_fails_with_pinpointed_index(self):
        # (5, 1) follows family 1 at p = 11, certainly not family 2
        bad = LemmaSpec(lemma=2, p=11, u=5, v=1, blocks=2)
        report = verify_lemma(bad)
        assert not report.passed and report.first_violation is not None
        # family 2 claims alpha_2 = 0; family 1's run has alpha_2 = u
        # compared as text, so the key order is pinned too
        assert json.dumps(report.to_json_dict()["violation"]) == (
            '{"index": 2, "sequence": "alpha", "expected": 0, "actual": 5}'
        )

    def test_run_failure_reported(self):
        # (1, 1) mod 7 dies at beta_2 = 0; any pattern claim over it fails
        bad = LemmaSpec(lemma=1, p=7, u=1, v=1, blocks=2)
        report = verify_lemma(bad)
        assert not report.passed
        assert report.run_failure is not None and report.run_failure.index == 2
        assert json.dumps(report.to_json_dict()["run_failure"]) == '{"index": 2, "cause": "beta_zero"}'


class TestMutation:
    @pytest.mark.parametrize("lemma,p", [(1, 11), (2, 13), (3, 7), (4, 11), (5, 19), (6, 7), (7, 7)])
    def test_single_entry_perturbation_detected(self, lemma, p):
        spec = spec_for(lemma, p, blocks=3)
        n = spec.depth
        alphas, betas, failure = recurrence.history_mod_p(spec.u, spec.v, spec.p, n)
        assert failure is None
        assert check_run_against(spec, alphas, betas, n) is None
        rng = random.Random(lemma * 100 + p)
        for _ in range(6):
            i = rng.randint(1, n)
            which = rng.choice(("alpha", "beta"))
            arr = alphas if which == "alpha" else betas
            old = arr[i]
            arr[i] = (old + rng.randint(1, p - 1)) % p
            violation = check_run_against(spec, alphas, betas, n)
            assert violation is not None
            assert violation.index == i and violation.sequence == which
            arr[i] = old


class TestCatalog:
    def test_family1_and_3_examples(self):
        assert nonzero_beta_catalog(spec_for(1, 11, u=5)) == {1}
        spec = spec_for(3, 7, phi=2, sign=1)
        assert nonzero_beta_catalog(spec) == {(-1) % 7, (-2) % 7, (-4) % 7}

    def test_family7_includes_rescalings(self):
        spec = spec_for(7, 31, sign=1, blocks=30)
        cat = nonzero_beta_catalog(spec)
        p, d = 31, spec.delta
        inv3 = pow(3, p - 2, p)
        inv9 = pow(9, p - 2, p)
        base = {-3 * pow(d, p - 2, p) % p, (-3) % p, -d * inv3 % p}
        assert base <= cat
        assert -d * inv3 % p * inv9 % p in cat  # beta_6 = beta_3/9 scale

    @pytest.mark.parametrize("p,blocks", [(7, 1), (31, 1), (31, 4), (31, 40)])
    def test_family7_holds_every_real_beta(self, p, blocks):
        # beta_3/9^j first appears at index (3^(j+1) + 3)/2, e.g. beta_15 =
        # beta_3/81 at K = 1; the catalog must reach every rescaling a run takes
        specs = [s for s in specs_for_prime(p, blocks) if s.lemma == 7]
        assert specs
        for spec in specs:
            cat = nonzero_beta_catalog(spec)
            _, betas, failure = recurrence.history_mod_p(spec.u, spec.v, p, spec.depth)
            assert failure is None
            assert set(betas[3 : spec.depth + 1]) <= cat, spec

    @pytest.mark.parametrize("p", primes_between(3, 50))
    def test_membership_of_real_runs(self, p):
        for spec in specs_for_prime(p, blocks=12):
            cat = nonzero_beta_catalog(spec)
            assert 0 not in cat
            _, betas, failure = recurrence.history_mod_p(spec.u, spec.v, p, spec.depth)
            assert failure is None
            for i in range(3, spec.depth + 1):
                assert int(betas[i]) in cat, (spec, i)
