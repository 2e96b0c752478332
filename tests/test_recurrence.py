"""The block recurrence: seeded values, failure bookkeeping, reduction mod p."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from mahlercf import kernels
from mahlercf.recurrence import (
    BETA_ZERO,
    ExtendAfterFailure,
    Failure,
    RecurrenceRun,
    extend_run,
    first_beta_zero,
    init_run,
    run_mod_p,
    run_over_q,
)


def replay_entries(run, p=None):
    """Independently re-derive every stored entry from the defining formulas.

    Deliberately written index-first (not block-first) so a bookkeeping slip
    in the engine cannot hide here. With p, the run holds residues mod p and
    every identity is checked mod p, dividing by pow(x, -1, p).
    """
    if p is None:
        def same(x, y):
            return x == y

        def div(x, y):
            return x / y
    else:
        def same(x, y):
            return (x - y) % p == 0

        def div(x, y):
            return x * pow(y, -1, p)

    u, v = run.u, run.v
    a = dict(enumerate(run.alphas, start=1))
    b = dict(enumerate(run.betas, start=1))
    assert same(b[1], 1)
    assert same(b[2], u * u - v)
    if 1 in a:
        assert same(a[1], -u)
    d = v - u * u
    if 2 in a:
        assert same(a[2], div(u * (2 * v - 1 - u * u), d))
    if 3 in a:
        assert same(a[3], div(-u * (v - 1), d))
    if 3 in b:
        assert same(b[3], div(u * u + u**4 + v**3 - 3 * u * u * v, d * d))
    for i in sorted(b):
        if i < 4:
            continue
        k, r = divmod(i - 4, 3)
        if r == 0:  # i = 3k+4
            assert same(b[i], div(b[k + 2], b[3 * k + 3] * b[3 * k + 2]))
            assert same(a[i], -u)
        elif r == 1:  # i = 3k+5
            assert same(b[i], u * u - v - b[3 * k + 4])
            if i in a:
                assert same(a[i], u - div(a[k + 2] + u * v - a[3 * k + 2] * b[3 * k + 4], b[i]))
        else:  # i = 3k+6
            assert same(a[i], u - a[i - 1])
            assert same(b[i], v - a[i - 1] * a[i])


class TestInit:
    def test_square_pair_fails_at_two(self):
        run = init_run(1, 1)
        assert run.failure == Failure(2, BETA_ZERO)
        assert run.betas == (1, 0)
        assert run.alphas == (Fraction(-1),)

    def test_2_3_over_q(self):
        run = init_run(2, 3)
        assert run.ok
        assert run.alphas == (-2, -2, 4)
        assert run.betas == (1, 1, 11)

    def test_5_1_mod_11(self):
        run = run_mod_p(5, 1, 11, 3)
        assert run.alphas == (6, 5, 0)
        assert run.betas == (1, 2, 1)

    def test_int_inputs_lifted_to_fraction(self):
        run = init_run(2, 3)
        assert isinstance(run.beta(3), Fraction)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_length_at_most_three_is_the_seeded_run(self, n):
        for u, v, p in [(2, 3, kernels.Q), (1, 1, kernels.Q), (5, 1, 11), (1, 3, 5)]:
            seeded, run = RecurrenceRun(u, v, p), RecurrenceRun(u, v, p, n)
            assert (run.alphas, run.betas, run.failure) == (
                seeded.alphas, seeded.betas, seeded.failure)

    def test_one_run_per_length(self, monkeypatch):
        lengths = []
        run_history = kernels.run_history
        monkeypatch.setattr(kernels, "run_history",
                            lambda u, v, p, n: lengths.append(n) or run_history(u, v, p, n))
        run_over_q(2, 3, 30)
        run_mod_p(5, 1, 11, 30)
        assert lengths == [30, 30]


class TestExtend:
    def test_5_1_mod_11_first_nine(self):
        run = run_mod_p(5, 1, 11, 9)
        assert run.ok
        assert all(b == 1 for b in run.betas[2:9])
        # alpha pattern of the first nine entries: -u, u, 0 interleaved
        assert [int(x) for x in run.alphas[:9]] == [6, 5, 0, 6, 0, 5, 6, 0, 5]

    def test_lemma7_proof_table_mod_7(self):
        # u = 2*delta^2, v = delta with delta = 2 mod 7, i.e. (u, v) = (1, 2)
        run = run_mod_p(1, 2, 7, 9)
        # (1, 3d, -d/3, -3/d, -3, -d/27, -3, -3/d, -d/3) with d = 2, p = 7
        assert [int(b) for b in run.betas[:9]] == [1, 6, 4, 2, 4, 2, 4, 2, 4]

    def test_2_1_over_q_dies_at_six(self):
        # golden value: the first vanishing beta of the (2, 1) run
        run = init_run(2, 1)
        run.extend(100)
        assert run.failure == Failure(6, BETA_ZERO)
        assert run.beta(6) == 0
        assert len(run.betas) == 6

    def test_extend_after_failure_raises(self):
        run = init_run(1, 1)
        with pytest.raises(ExtendAfterFailure):
            extend_run(run, 10)

    def test_extends_in_blocks_of_three(self):
        run = run_over_q(2, 3, 10)
        assert len(run) == 12
        assert run.ok

    def test_block_structure_alpha_3k_plus_1(self):
        run = run_over_q(5, 1, 60)
        for k in range(1, 20):
            assert run.alpha(3 * k + 1) == -run.u

    def test_replay_ok_run(self):
        replay_entries(run_over_q(2, 3, 30))
        replay_entries(run_mod_p(5, 1, 11, 30), 11)
        replay_entries(run_mod_p(1, 2, 7, 30), 7)

    def test_replay_failed_run(self):
        run = init_run(2, 1)
        run.extend(100)
        replay_entries(run)
        replay_entries(run_mod_p(3, 3, 11, 30), 11)  # dies at 8 = 3k+5

    def test_determinism(self):
        a = run_over_q(3, -7, 36)
        b = run_over_q(3, -7, 36)
        assert a.alphas == b.alphas and a.betas == b.betas

    @pytest.mark.parametrize("u,v,p,steps", [
        (Fraction(2, 3), Fraction(-1, 2), kernels.Q, (10, 25, 100, 301, 600)),
        (0, 1, kernels.Q, (4, 9, 28, 82, 244)),
        (2, 1, kernels.Q, (3, 4, 5, 6, 100)),  # dies at 6 over Q
        (5, 1, 11, (10, 25, 100, 301, 2000)),
        (0, 29, 37, (10, 100, 925, 929, 1000)),  # dies at 932, inside the last unit
    ])
    def test_grown_in_five_steps_equals_one_run(self, u, v, p, steps, monkeypatch):
        # each step resumes the run: only the first starts from the seeds
        starts = []
        start = kernels._start
        monkeypatch.setattr(kernels, "_start", lambda *a: starts.append(a) or start(*a))
        run = RecurrenceRun(u, v, p)
        for n in steps:
            if run.ok:
                run.extend(n)
        assert len(starts) == 1
        whole = RecurrenceRun(u, v, p, steps[-1])
        assert (run.alphas, run.betas, run.failure) == (whole.alphas, whole.betas, whole.failure)

    def test_ok_run_has_no_zero_beta(self):
        run = run_over_q(5, -4, 60)
        assert run.ok
        assert all(b != 0 for b in run.betas)


class TestFirstBetaZero:
    def test_square_pair(self):
        assert first_beta_zero(1, 1, 7, 100) == 2

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            first_beta_zero(1, 2, 9, 100)

    def test_survivor_mod_11(self):
        assert first_beta_zero(5, 1, 11, 10_000) is None

    def test_0_1_mod_5_dies(self):
        # golden value: p = 5 admits no condition, every pair dies
        assert first_beta_zero(0, 1, 5, 10_000) == 20

    def test_horizon_clamp(self):
        # a zero just beyond the horizon does not count
        assert first_beta_zero(0, 1, 5, 19) is None
        assert first_beta_zero(0, 1, 5, 20) == 20

    def test_early_death_allocates_nothing_for_the_horizon(self):
        # the run stops at its zero, so a far horizon costs no memory
        tracemalloc.start()
        try:
            assert first_beta_zero(0, 1, 5, 10**7) == 20
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_matches_generic_field_run(self):
        rng = random.Random(7)
        for _ in range(25):
            p = rng.choice((5, 7, 11, 13))
            u, v = rng.randrange(p), rng.randrange(p)
            run = run_mod_p(u, v, p, 600)
            expect = run.failure.index if run.failure else None
            assert first_beta_zero(u, v, p, 600) == expect, (u, v, p)


def reduce_mod(x, p):
    """A rational's residue mod p; pow raises ValueError if p divides its
    denominator."""
    return x.numerator * pow(x.denominator, -1, p) % p


class TestReductionCompatibility:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_q_run_reduces_to_fp_run(self, p):
        """A Q-run reduces, entry by entry, to the F_p run -- which fails
        exactly at the first vanishing reduced beta (if any; at p = 5 every
        pair has one, since no condition exists). Every denominator is a
        product of earlier betas, so none is divisible by p before a reduced
        beta vanishes."""
        rng = random.Random(p)
        checked = attempts = 0
        while checked < 6 and attempts < 500:
            attempts += 1
            u, v = rng.randint(-9, 9), rng.randint(-9, 9)
            qrun = init_run(u, v)
            if qrun.ok:
                qrun.extend(99)
            if not qrun.ok:
                continue
            rb = []
            for b in qrun.betas:
                rb.append(reduce_mod(b, p))
                if rb[-1] == 0:
                    break
            first_zero = len(rb) if rb[-1] == 0 else None
            prun = run_mod_p(u, v, p, 99)
            if first_zero is None:
                assert prun.ok
            else:
                assert not prun.ok
                assert prun.failure.index == first_zero
                assert prun.failure.cause == BETA_ZERO
            assert list(prun.betas) == rb
            # the alpha list is one entry shorter when the failure index
            # has the form 3k+5
            ra = [reduce_mod(a, p) for a in qrun.alphas[: len(prun.alphas)]]
            assert list(prun.alphas) == ra
            assert len(prun.alphas) == len(rb) - (len(rb) % 3 == 2)
            checked += 1
        assert checked == 6


class TestRunModPEdges:
    """run_mod_p records what RecurrenceRun records: it always seeds through
    index 3 and extends to the block boundary of max(n, 3), so a failure in
    (n, boundary] still shows."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_death_at_two(self, n):
        run = run_mod_p(1, 1, 7, n)
        assert run.failure == Failure(2, BETA_ZERO)
        assert run.alphas == (6,) and run.betas == (1, 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_death_at_three(self, n):
        run = run_mod_p(1, 3, 5, n)
        assert run.failure == Failure(3, BETA_ZERO)
        assert run.alphas == (4, 2, 4) and run.betas == (1, 3, 0)

    def test_death_at_3k_plus_5_past_n(self):
        # (3, 3) mod 11 dies at 8 = 3*1 + 5, inside (7, 9]: alpha_8 is absent
        run = run_mod_p(3, 3, 11, 7)
        assert run.failure == Failure(8, BETA_ZERO)
        assert run.alphas == (8, 2, 1, 8, 10, 4, 8)
        assert run.betas == (1, 6, 1, 1, 5, 7, 6, 0)
        assert first_beta_zero(3, 3, 11, 7) is None
        assert first_beta_zero(3, 3, 11, 8) == 8

    def test_residues_and_composite_modulus(self):
        run = run_mod_p(-6, 12, 11, 3)
        assert (run.u, run.v) == (5, 1)
        assert run.betas == run_mod_p(5, 1, 11, 3).betas
        with pytest.raises(ValueError):
            run_mod_p(1, 2, 9, 3)
