"""The engine against independent code: the Fraction run reduced mod p
for single runs, a plain loop with an inversion per division (``pow`` mod
p, ``1 / x`` over Q) and no memo for the memoised kernel over F_p and
over Q (also survivors to far horizons, where nearly every nine-index unit
is a memo hit, pairs that die late, and every horizon up to 40, so that the
boundary falls at every place in a unit), the traced memory of a run at a
large p, the history-free ``first_zero`` against the history's first zero
(at every level's item boundary, on late deaths, within a deadline on
survivors to 10^6, and in traced memory), per-pair runs at every u for
the scan (which runs half the rows and mirrors them across u -> -u, each
pair memo-free to index 729 before first_zero, so the horizons fall on
both sides of that hand-off), runs on both sides of the bound of the
inverse tables, resumed runs against whole ones, the parity in u that the
mirror rests on, and a direct membership probe for the coverage count."""

import contextlib
import random
import signal
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mahlercf import conditions, kernels, search
from mahlercf.fields import primes_between
from mahlercf.recurrence import run_over_q


def reference_run_history(u, v, p, n):
    """run_history as a plain loop: two inversions per block (``pow`` mod p,
    ``1 / x`` over ``kernels.Q``), no memo, with a check before every
    division and on every beta, so the differential tests show that the
    kernel's unchecked steps never needed one (a zero divisor returns the
    index negated, which the kernel never does)."""
    inv = (lambda x: 1 / x) if p is kernels.Q else (lambda x: pow(x, -1, p))
    u %= p
    v %= p
    alphas = [0, -u % p]
    betas = [0, 1, (u * u - v) % p]
    if betas[2] == 0:
        return alphas, betas, 2
    dinv = inv(v - u * u)
    alphas += (u * (2 * v - 1 - u * u) * dinv % p, -u * (v - 1) * dinv % p)
    betas.append((u * u + u ** 4 + v ** 3 - 3 * u * u * v) * dinv * dinv % p)
    if betas[3] == 0:
        return alphas, betas, 3
    k = 0
    while 3 * k + 3 < n:
        alphas.append(-u % p)
        denom = betas[3 * k + 3] * betas[3 * k + 2] % p
        if denom == 0:
            return alphas, betas, -(3 * k + 4)
        b4 = betas[k + 2] * inv(denom) % p
        betas.append(b4)
        if b4 == 0:
            return alphas, betas, 3 * k + 4
        b5 = (u * u - v - b4) % p
        betas.append(b5)
        if b5 == 0:
            return alphas, betas, 3 * k + 5
        a5 = (alphas[k + 2] + u * v - alphas[3 * k + 2] * b4) % p
        a5 = (u - a5 * inv(b5)) % p
        a6 = (u - a5) % p
        alphas += (a5, a6)
        b6 = (v - a5 * a6) % p
        betas.append(b6)
        if b6 == 0:
            return alphas, betas, 3 * k + 6
        k += 1
    return alphas, betas, 0


class TestRunHistoryAgainstReference:
    def test_random_small_primes(self):
        rng = random.Random(20261018)
        primes = primes_between(3, 300)
        for _ in range(6000):
            p = rng.choice(primes)
            u, v = rng.randrange(-2 * p, 2 * p), rng.randrange(-2 * p, 2 * p)
            n = rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 50, 300, 1000))
            assert kernels.run_history(u, v, p, n) == reference_run_history(u, v, p, n), (u, v, p, n)

    @pytest.mark.parametrize("p", primes_between(3, 23))
    def test_every_pair(self, p):
        # every n to 40 puts the boundary >= n at every place in a nine-index unit
        for n in (*range(1, 41), 100, 2000):
            for u in range(p):
                for v in range(p):
                    assert kernels.run_history(u, v, p, n) == reference_run_history(u, v, p, n), (u, v, n)

    @pytest.mark.parametrize("p", [10**9 + 7, 2**61 - 1])
    def test_large_primes(self, p):
        # residues rarely repeat here, so nearly every lookup misses the memo
        rng = random.Random(p)
        for _ in range(40):
            u, v = rng.randrange(p), rng.randrange(p)
            assert kernels.run_history(u, v, p, 300) == reference_run_history(u, v, p, 300), (u, v)

    @pytest.mark.parametrize("p", primes_between(3, 50))
    def test_condition_pairs_far_horizon(self, p):
        # survivors: after a few distinct units every unit is a memo hit
        for u, v in conditions.satisfying_pairs(p):
            got = kernels.run_history(u, v, p, 10_000)
            assert got[2] == 0, (u, v)
            assert got == reference_run_history(u, v, p, 10_000), (u, v)

    @pytest.mark.parametrize("u,v,p,index", [
        (16, 8, 41, 1076),
        (0, 29, 37, 932),
        (0, 8, 37, 932),
        (18, 37, 47, 791),
    ])
    def test_late_deaths(self, u, v, p, index):
        # dies after many memo hits, past the horizons and primes of
        # test_every_pair; below its index the zero lies past the boundary
        # >= n, in the unit the boundary cuts, and is neither computed nor
        # reported
        for n in (*range(index - 9, index + 1), 10_000):
            got = kernels.run_history(u, v, p, n)
            assert got == reference_run_history(u, v, p, n), n
            assert kernels.first_zero(u, v, p, n) == (index if n >= index else 0), n
        assert got[2] == index


class TestNoInverseLeaksBetweenRuns:
    """A run's memo is valid for one p and one call only: the same residues
    run at two primes back to back, and on threads at once, must each equal
    the plain loop."""

    PAIRS = [(u, v) for u in range(7) for v in range(7)]
    N = 600

    def _check(self, p):
        for u, v in self.PAIRS:
            assert kernels.run_history(u, v, p, self.N) == reference_run_history(u, v, p, self.N), (u, v, p)

    def test_back_to_back_primes(self):
        self._check(7)
        self._check(11)
        self._check(7)

    def test_concurrent_threads(self):
        # two threads per prime, more than the cores of a small machine
        primes = (7, 11, 7, 11)
        errors = []
        start = threading.Barrier(len(primes), timeout=60)

        def worker(p):
            try:
                start.wait()
                for _ in range(10):
                    self._check(p)
            except Exception as exc:  # a wrong answer, or pow raising on a stale p
                errors.append(exc)

        # switch threads often, so that runs at the two primes interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(p,)) for p in primes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


def test_run_over_q_matches_reference():
    """The Q path of run_history against the plain loop's two divisions per
    block: 300 seeded rational pairs, each at one of four horizons (the
    first 100 also at every n to 40), and at every horizon the pairs that
    die at 2, 3 and 6 over Q. No rational pair of small height dies at
    3k + 5 over Q (none of the 70483 pairs with u >= 0 and numerators up to
    30, denominators up to 10, run to index 30), so that branch is checked
    mod p only."""
    horizons = (3, 12, 60, 120)
    dying = [(1, 1), (Fraction(2, 3), Fraction(4, 9)), (1, -2), (-1, -2), (2, 1),
             (Fraction(-1, 2), Fraction(-1, 2))]
    cases = [(u, v, n) for u, v in dying for n in horizons]
    rng = random.Random(20261019)
    for i in range(300):
        u, v = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
        cases.append((u, v, horizons[i % 4]))
        if i < 100:  # the boundary >= n at every place in a nine-index unit
            cases += [(u, v, n) for n in range(1, 41)]
    deaths = set()
    for u, v, n in cases:
        u, v = Fraction(u), Fraction(v)
        got = kernels.run_history(u, v, kernels.Q, n)
        assert got == reference_run_history(u, v, kernels.Q, n), (u, v, n)
        deaths.add(got[2])
    assert {0, 2, 3, 6} <= deaths


def test_run_at_a_large_prime_holds_little_beyond_its_history():
    """At a large p the memo's units rarely repeat: it stops at _MAX_STEPS
    units and a miss keeps no inverse, so the traced peak of a run is
    little more than the lists it returns (a memo of inverses, two entries
    per block, would take it to ~1.9 times)."""
    tracemalloc.start()
    try:
        alphas, betas, fail = kernels.run_history(123456789, 987654321, 2**61 - 1, 50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fail == 0
    held = {id(x): sys.getsizeof(x) for x in alphas + betas}
    assert peak < 1.2 * (sys.getsizeof(alphas) + sys.getsizeof(betas) + sum(held.values()))


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the body runs past ``seconds``: a
    driver that skips the horizon check never ends on a survivor."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# every horizon to 8, and 3^L - 2 .. 3^L + 1, so that a level's item
# boundary, which falls at index 3^(L+1) + 1, lies on both sides of N
TREE_HORIZONS = sorted({*range(9), *(3 ** e + d for e in range(1, 9) for d in (-2, -1, 0, 1))})


class TestFirstZeroTree:
    """first_zero's tree of memoised items against the history of
    run_history, whose first zero beta is the answer up to its boundary."""

    @pytest.mark.parametrize("p", primes_between(3, 49))
    def test_every_pair_at_every_level_boundary(self, p):
        top = TREE_HORIZONS[-1]
        with _deadline(30):
            for u in range(p):
                for v in range(p):
                    fail = kernels.run_history(u, v, p, top)[2]
                    got = [kernels.first_zero(u, v, p, n) for n in TREE_HORIZONS]
                    assert got == [fail if 0 < fail <= n else 0 for n in TREE_HORIZONS], (u, v)

    @pytest.mark.parametrize("u,v,p,index", [
        (0, 3, 73, 11756),
        (0, 70, 73, 11756),
        (0, 22, 157, 20453),
        (0, 135, 157, 20453),
        (22, 0, 157, 10227),
        (135, 0, 157, 10227),
    ])
    def test_late_deaths(self, u, v, p, index):
        # the pairs that outlive a scan to 10^4 and die later
        with _deadline(30):
            assert kernels.first_zero(u, v, p, index - 1) == 0
            assert kernels.first_zero(u, v, p, index) == index
        assert kernels.run_history(u, v, p, index)[2] == index

    @pytest.mark.parametrize("u,v,p,index", [(24, 4, 89, 611), (0, 31, 103, 2111)])
    def test_an_item_above_a_unit_is_keyed_on_its_carry(self, u, v, p, index):
        # these runs meet an item's parent again after another carry: keyed
        # on the parent alone, the memo hands back the wrong item (377 and
        # 2600 instead)
        with _deadline(30):
            assert kernels.first_zero(u, v, p, index - 1) == 0
            assert kernels.first_zero(u, v, p, index) == index
        assert kernels.run_history(u, v, p, index)[2] == index

    def test_survivors_reach_a_million_in_logarithmic_time(self):
        pairs = [(u, v, p) for p in primes_between(3, 100) for u, v in conditions.satisfying_pairs(p)]
        start = time.perf_counter()
        with _deadline(30):
            got = [kernels.first_zero(u, v, p, 10**6) for u, v, p in pairs[:40]]
        elapsed = time.perf_counter() - start
        assert got == [0] * 40
        assert elapsed < 1.0

    def test_holds_less_than_the_history_it_does_not_keep(self):
        # at a large p no item repeats, so every block stays in the tree
        # until no later item reads it: its peak stays within these multiples
        # of the lists of run_history (90 000 indices read 1.55 when the tree
        # kept every old root)
        for n, bound in ((50_000, 1.6), (90_000, 1.45)):
            alphas, betas, _ = kernels.run_history(123456789, 987654321, 2**61 - 1, n)
            held = {id(x): sys.getsizeof(x) for x in alphas + betas}
            lists = sys.getsizeof(alphas) + sys.getsizeof(betas) + sum(held.values())
            del alphas, betas, held
            tracemalloc.start()
            try:
                with _deadline(20):
                    assert kernels.first_zero(123456789, 987654321, 2**61 - 1, n) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound * lists, (n, peak / lists)


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
                alphas, betas, fail = kernels.run_history(u, v, p, n)
                assert fail == idx
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
            alphas, betas, fail = kernels.run_history(u, v, p, 300)
            m_alphas, m_betas, m_fail = kernels.run_history(-u, v, p, 300)
            assert m_fail == fail, (u, v, p)
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


# the first and second level-1 items, the probe's steps 9 -> 27 -> ... ->
# 729 on both sides, and horizons past the probe, where a pair alive at 729
# goes on to first_zero
PROBE_HORIZONS = (1, 2, 3, 9, 10, 27, 28, 728, 729, 730, 2187, 10_000)


@pytest.mark.parametrize("p", primes_between(3, 47))
def test_scan_grid_hands_over_to_first_zero(p):
    with _deadline(30):
        for n in PROBE_HORIZONS:
            assert kernels.scan_grid(p, n).tolist() == _per_pair_grid(p, n), n


@pytest.mark.parametrize("u,v,p,index", [(0, 29, 37, 932), (16, 8, 41, 1076), (18, 37, 47, 791)])
def test_scan_grid_finds_deaths_past_the_probe(u, v, p, index):
    # pairs alive at 729 that die before 10^4: their zero is found by
    # first_zero, past the memo-free probe
    for n in (728, 729, 730, index - 1):
        assert kernels.scan_grid(p, n)[u, v] == 0, n
    for n in (index, 2187, 10_000):
        grid = kernels.scan_grid(p, n)
        assert grid[u, v] == grid[-u % p, v] == index, n


@pytest.mark.parametrize("p", [1021, 1031])
def test_runs_on_both_sides_of_the_inverse_table_bound(p):
    """Below _TABLE_BOUND a run inverts by a lookup in a table built once
    for its prime; at and above it, by pow, and no table is built. Pairs
    here die near index 2p, so these runs also step long in-place
    ``_blocks`` calls: a scan's memo-free probe to 729 and first_zero past
    it."""
    assert (p < kernels._TABLE_BOUND) == (p == 1021)
    rng = random.Random(p)
    pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(30)]
    pairs += [(5, 25), (0, 3), (p - 1, 1)]  # v = u^2 dies at 2
    deaths = []
    for u, v in pairs:
        want = reference_run_history(u, v, p, 5000)
        assert kernels.run_history(u, v, p, 5000) == want, (u, v)
        for n in (10, 729, 730, 5000):
            first = want[2] if 0 < want[2] <= n else 0
            assert kernels.first_zero(u, v, p, n) == first, (u, v, n)
            assert kernels._scan_pair(u, v, p, n) == first, (u, v, n)
        deaths.append(want[2])
    assert 2 in deaths and any(729 < d <= 5000 for d in deaths)
    if p < kernels._TABLE_BOUND:
        table = kernels._INVERSES[p]
        assert table[0] is None and all(x * table[x] % p == 1 for x in range(1, p))
    else:
        assert not any(q >= kernels._TABLE_BOUND for q in kernels._INVERSES)


@pytest.mark.parametrize("u,v,p,steps", [
    (16, 8, 41, (7, 100, 1000, 1074, 1100)),  # dies at 1076, inside the last unit
    (3, 3, 11, (3, 6, 7, 8, 30)),  # dies at 8 = 3k + 5
    (5, 1, 11, (3, 10, 28, 100, 2000)),  # a survivor
    (123456789, 987654321, 2**61 - 1, (9, 12, 300, 301, 1000)),
    (Fraction(2, 3), Fraction(-1, 2), kernels.Q, (3, 6, 12, 50, 120)),
    (2, 1, kernels.Q, (3, 4, 5, 6, 100)),  # dies at 6 over Q
])
def test_a_resumed_run_equals_one_run(u, v, p, steps):
    # run_history continues a history in place, from any block boundary,
    # including one inside a unit; a failure inside the last resumed unit
    # past the boundary is not reported until a later step reaches it
    alphas, betas, fail = kernels.run_history(u, v, p, steps[0])
    for n in steps[1:]:
        if fail:
            break
        alphas, betas, fail = kernels.run_history(u, v, p, n, (alphas, betas))
        assert (alphas, betas, fail) == reference_run_history(u, v, p, n), n
    assert (alphas, betas, fail) == kernels.run_history(u, v, p, steps[-1])


def test_scan_grid_full_horizon():
    # every row u is run directly here, so this checks the mirrored rows of
    # scan_grid out to a far horizon
    assert kernels.scan_grid(13, 10_000).tolist() == _per_pair_grid(13, 10_000)


@pytest.mark.parametrize("n", [1, 9, 100, 10_000])
def test_scan_grid_runs_known_pairs_straight_to_first_zero(monkeypatch, n):
    # a known pair skips the memo-free probe, with the same first zero
    probed, probe = [], kernels._scan_pair

    def scan_pair(u, v, p, n):
        probed.append((u, v))
        return probe(u, v, p, n)

    monkeypatch.setattr(kernels, "_scan_pair", scan_pair)
    known = set(conditions.satisfying_pairs(19))
    grid = kernels.scan_grid(19, n, known)
    assert grid.tolist() == _per_pair_grid(19, n)
    assert known and not known & set(probed)
    assert len(probed) + sum(u <= 9 for u, _ in known) == 10 * 19


def _probed_count(u_lo, u_hi, b, tables):
    """The covered pairs of the slab, each pair tested against every table."""
    members = {p: set(pairs) for p, pairs in tables.items()}
    return sum(
        1
        for u in range(u_lo, u_hi + 1)
        for v in range(-b, b + 1)
        if any((u % p, v % p) in members[p] for p in members)
    )


def test_density_count_matches_membership_probe():
    # slab starts -61 and 17 are not multiples of any prime in the tables
    tables = search.condition_tables(40)
    for u_lo, u_hi in ((-61, 16), (17, 59)):
        assert kernels.density_count(u_lo, u_hi, 45, tables) == _probed_count(u_lo, u_hi, 45, tables)


@pytest.mark.parametrize("u_lo, u_hi", [(-61, 16), (17, 59), (3, 9), (5, 5), (-8, 13)])
def test_density_count_across_bands(monkeypatch, u_lo, u_hi):
    # with 7-row bands the slabs of 78, 43 and 22 rows end in a partial
    # band, (3, 9) fills exactly one and (5, 5) is one row; a pair of a
    # prime above 7 marks some bands and is skipped in the others
    monkeypatch.setattr(kernels, "_BAND", 7)
    tables = search.condition_tables(40)
    assert kernels.density_count(u_lo, u_hi, 30, tables) == _probed_count(u_lo, u_hi, 30, tables)


@pytest.mark.parametrize("u_lo, u_hi", [(-61, 16), (3, 9), (5, 4)])
def test_density_bands_file_each_large_pair_where_it_marks(monkeypatch, u_lo, u_hi):
    # with 7-row bands: a band keeps every pair of 3 and 5, and a pair of a
    # prime above 7 exactly when one of its rows lies in the band; one band
    # keeps the tables as they are, and no rows make no band
    monkeypatch.setattr(kernels, "_BAND", 7)
    tables = search.condition_tables(40)
    bands = kernels.density_bands(u_lo, u_hi, tables)
    assert [(lo, hi) for lo, hi, _ in bands] == [
        (lo, min(lo + 6, u_hi)) for lo in range(u_lo, u_hi + 1, 7)
    ]
    for lo, hi, band in bands:
        meets = {
            p: [(u0, v0) for u0, v0 in pairs if p < 7 or (u0 - lo) % p <= hi - lo]
            for p, pairs in tables.items()
        }
        if len(bands) == 1:
            assert band is tables
        else:
            assert band == {p: pairs for p, pairs in meets.items() if p < 7 or pairs}


def test_density_count_holds_one_band():
    """The count marks one reused band of ``_BAND`` rows, not the box: the
    whole box at B = 1000 would be ~3.8 MiB of bools, a band ~0.25 MiB."""
    tables = search.condition_tables(1000)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        covered = kernels.density_count(-1000, 1000, 1000, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert covered == 3282378
    assert peak - before < 2**20


def test_scan_grid_diagonal_dies_at_two():
    # v = u^2 kills beta_2 for every residue
    grid = kernels.scan_grid(7, 200)
    for u in range(7):
        assert grid[u, u * u % 7] == 2
