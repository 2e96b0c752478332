"""Hot numeric kernels: the block recurrence over Q and mod p, full F_p^2
survivor scans, and the integer-grid coverage count.

One engine: every run, over Q or mod p, alone or in a scan, steps its
blocks through one routine, ``_blocks``: mod p on Python ints, which
cannot overflow, over Q on Fractions with the modulus ``Q``, for which
reducing is the identity and an inverse is 1/x. A block inverts once
(Montgomery's simultaneous inversion), mod a prime below ``_TABLE_BOUND``
by a lookup in a table of inverses built once per prime. ``_blocks``
appends to the lists it is given, so one call steps any number of blocks
in linear time. Three drivers call it:

- ``run_history`` keeps the history that runs over Q, ``RecurrenceRun``
  and the lemma checks read, memoises units of nine indices for one call,
  and can continue a history it made before;
- ``first_zero``, which the soundness check calls and a scan calls for
  the few pairs still alive at ``_PROBE_INDEX``, keeps only a tree of
  memoised items of every scale. A survivor mod p meets few of them, the
  finite 3-kernel of an automatic sequence (Allouche & Shallit,
  *Automatic Sequences*, Thm 6.6.2): over the 222 condition pairs with
  p <= 100, to 10^6 indices, ``first_zero`` misses at most 23 units
  (median 4) and a median of 4 items on each level above, so a survivor
  costs O(log N) lookups, not N / 9;
- ``scan_grid`` first runs each pair memo-free to index 729 = 3^6 (or
  its horizon, if lower), in one ``_blocks`` call. Nearly every pair of
  a scan dies there (mean death index ~2p), and a memo would cost it a
  key, a lookup and a store per unit that never repeats. The prime's
  condition pairs, which survive, go straight to ``first_zero``.

The coverage count marks each condition pair's lattice with strided
slices in one boolean band of ``_BAND`` rows, reused down the box, so it
holds O(B) cells, not the (2B + 1)^2 of the box. ``density_bands`` files
a pair of a prime of ``_BAND`` or more under the bands its rows meet, so
the count visits it once, not once per band. numpy is imported only
inside the two kernels that use arrays, ``scan_grid`` and
``density_count``; importing this module loads none.

A scan runs half of F_p^2, since every beta_i is even in u and every
alpha_i odd. The seeds are, and each block step keeps it: beta_{3k+4} and
beta_{3k+5} come from betas and u^2 - v; alpha_{3k+5} = u - (odd + uv -
odd * even) / even is odd, so is alpha_{3k+6} = u - alpha_{3k+5}, and
beta_{3k+6} = v - odd * odd is even. So (u, v) and (-u, v) stop at the
same index.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy


class _Rationals:
    """The modulus of a run over Q: ``x % Q`` is x itself, and a run over Q
    inverts by 1/x, so ``run_history`` needs no second loop."""

    __slots__ = ()

    def __rmod__(self, x):
        return x


Q = _Rationals()


def get_backend() -> str:
    """Name of the arithmetic engine, reported beside benchmark results."""
    return "numpy"


# Memo entries one call keeps: past this, it goes on looking up but stores
# no more. Survivors need 140 at most, so a call that fills it is one whose
# units do not repeat, as at a large p, and the bound keeps its memo from
# adding to the peak of a 10^6-index run (124 -> 170 MB unbounded at the
# largest admitted prime, fresh process).
_MAX_STEPS = 1024

# A scan runs each pair memo-free to this index, 3^6, before the tree of
# ``first_zero`` (``scan_grid``).
_PROBE_INDEX = 729

# Primes below this bound invert by a lookup in a list of every inverse,
# built once per prime and kept: the tables of all 171 odd primes below it
# hold ~2 MB and take ~0.03 s to build. Above it a run inverts by pow, and
# over Q by 1/x.
_TABLE_BOUND = 2**10
_INVERSES: dict[int, list] = {}

# Rows of the box ``density_count`` marks at a time, in one reused boolean
# band of _BAND x (2B + 1) cells (1.3 MB at the largest admitted B = 4999).
# Each band tests the pairs of the primes below _BAND, so fewer rows cost
# time; more rows cost memory, and the band sets the peak of the
# benchmark's grid run (B = 1000, primes <= 1000). Against 256 rows, 128
# took the count from ~3.9 to ~4.5 ms and that peak from ~35.05 to ~34.55
# MB RSS; 256 rows had peaked at 35.44 MB with 512 and 38.32 with the box.
_BAND = 128


def _inverse(p):
    """The inversion of a run mod p, or over ``Q``."""
    if p is Q:
        return lambda x: 1 / x
    if p >= _TABLE_BOUND:
        return lambda x: pow(x, -1, p)
    table = _INVERSES.get(p)
    if table is None:  # slot 0 is None: a zero divisor raises, as pow does
        table = _INVERSES.setdefault(p, [None, *(pow(x, -1, p) for x in range(1, p))])
    return table.__getitem__


def _field(u, v, p):
    """The constants of a run: (u, v, u^2 - v, uv, -u, p, inverse), u and v
    reduced."""
    u %= p
    v %= p
    return u, v, (u * u - v) % p, u * v, -u % p, p, _inverse(p)


def _start(u, v, p):
    """The constants of a run and its indices to 9: the seeds, then blocks 0
    and 1, which read seed slots 2 and 3.

    Returns (field, alphas, betas, carry): field as ``_field`` makes it, and
    the lists, indexed 1.. (slot 0 unused), end at index 9 or at the first
    zero beta, with carry None.
    """
    field = u, v, c, _, neg_u, p, inv = _field(u, v, p)
    alphas = [0, neg_u]
    betas = [0, 1, c]  # c = beta_2, and beta_{3k+4} + beta_{3k+5} in every block
    if c == 0:
        return field, alphas, betas, None
    # alpha_3 and beta_3 by the block's tail rules (``recurrence`` docstring)
    a2 = u * (u * u + 1 - 2 * v) * inv(c) % p
    alphas += (a2, (u - a2) % p)
    betas.append((v - a2 * alphas[3]) % p)
    if betas[3] == 0:
        return field, alphas, betas, None
    hist = alphas, betas
    return field, alphas, betas, _blocks(hist, 2, 4, (a2, c, betas[3]), field, hist)


def _blocks(slots, lo, hi, carry, field, out):
    """Step the blocks that read slots lo..hi-1 of one parent's alphas and
    betas, ``slots[0]`` and ``slots[1]``, appending their outputs to the
    lists ``out[0]`` and ``out[1]``, which may be the slot lists
    themselves: block k reads slot k+2 and writes indices 3k+4..3k+6, so a
    history of indices 1..3j grows to 9j by ``_blocks(hist, j + 1, 3j + 1,
    carry, field, hist)``, in one call and linear time.

    Block k writes alpha_{3k+4} = -u, beta_{3k+4}, beta_{3k+5},
    alpha_{3k+5}, alpha_{3k+6} and beta_{3k+6} from its slot alpha_{k+2},
    beta_{k+2} and the carry alpha_{3k+2}, beta_{3k+2}, beta_{3k+3}.
    Returns the next carry, or None after appending up to a zero beta,
    which ends the run. Each block inverts once: with d = beta_{3k+3}
    beta_{3k+2} and e = (u^2 - v) d - beta_{k+2}, so that beta_{3k+4} =
    beta_{k+2}/d and beta_{3k+5} = e/d, the inverse t of d e gives
    beta_{3k+4} = beta_{k+2} e t and 1/beta_{3k+5} = d^2 t (Montgomery's
    simultaneous inversion).
    """
    u, v, c, uv, neg_u, p, inv = field
    a2, b2, b3 = carry
    slot_alphas, slot_betas = slots
    alphas, betas = out
    for i in range(lo, hi):
        slot_a = slot_alphas[i]
        slot_b = slot_betas[i]
        d = b3 * b2 % p
        e = (c * d - slot_b) % p
        if e == 0:  # beta_{3k+5}, so beta_{3k+4} = u^2 - v
            alphas.append(neg_u)
            betas += (c, e)
            return None
        t = inv(d * e % p)
        # e t = 1/d and d t = 1/e first: over Q they are the small products
        b4 = slot_b * (e * t) % p
        # the next carry: alpha_{3k+5}, beta_{3k+5}, beta_{3k+6}
        a2 = (u - (slot_a + uv - a2 * b4) * (d * (d * t))) % p
        a6 = (u - a2) % p
        b2 = (c - b4) % p
        b3 = (v - a2 * a6) % p
        alphas += (neg_u, a2, a6)
        betas += (b4, b2, b3)
        if b3 == 0:  # beta_{3k+6}
            return None
    return a2, b2, b3


def run_history(u, v, p, n: int, history=None):
    """Recurrence history to the block boundary >= max(n, 3), or to the
    first zero beta, mod the odd prime p or over ``Q``.

    Returns (alphas, betas, fail_index): lists indexed 1.. (slot 0 unused)
    that end where the run stopped, and fail_index 0 when no beta vanished.
    A zero beta is kept at its index, and alpha_{3k+5} is absent when
    beta_{3k+5} is the zero. Mod p, u and v are ints; over Q, Fractions.
    ``history``, the (alphas, betas) lists of an earlier zero-free run of
    the same pair that ends at a block boundary, is continued in place:
    its carry alpha_{3k+2}, beta_{3k+2}, beta_{3k+3} for the next block k
    is its last two betas and second-to-last alpha, so only the new
    indices are stepped.

    Block k reads slot k+2, so after blocks 0 and 1, which read the seeds,
    blocks 3m+2..3m+4 read slots 3m+4..3m+6, the outputs of parent block m.
    The memo of this call keys such a unit on alpha_{3m+5}, beta_{3m+4} and
    the carry's alpha_{3k+2}, beta_{3k+2} (k = 3m+2), which fix the rest:
    alpha_{3m+6} = u - alpha_{3m+5}, beta_{3m+5} = (u^2 - v) - beta_{3m+4}
    and every beta_{3j+3} = v - alpha_{3j+2} alpha_{3j+3}. An entry holds
    the unit's nine alphas, nine betas and the next carry, so a unit met
    again costs a lookup and two list extends. A miss steps the unit's
    three blocks (``_blocks``) into the history and stores its last nine
    entries; only zero-free units are stored (at most ``_MAX_STEPS``), and
    a unit that passes the boundary is cut back to it, a zero past the
    boundary with it. A resumed history that ends inside a unit first steps
    the blocks to the unit's end, and its memo starts empty. Where units
    rarely repeat (a large p, a scan past p ~ 40), a lookup misses: a
    10^6-index run at p = 10^9 + 7 takes ~5% longer than without it. Where
    they repeat, it pays: the 484 lemma runs to index 909 of the ``pairs``
    benchmark workload take ~0.03 s with it and ~0.15 s without. The
    history is what ``RecurrenceRun`` and the lemma checks read;
    ``first_zero`` keeps none.
    """
    end = max(3, n + (-n) % 3)  # the block boundary >= max(n, 3)
    if history is None:
        field, alphas, betas, carry = _start(u, v, p)
    else:
        field = _field(u, v, p)
        alphas, betas = history
        carry = alphas[-2], betas[-2], betas[-1]
    hist = alphas, betas
    if carry is not None and len(betas) <= end:  # to the unit boundary
        last = len(betas) - 1
        carry = _blocks(hist, last // 3 + 1, (last + (-last) % 9) // 3 + 1, carry, field, hist)
    units = {}
    m = len(betas) // 9 - 1  # the parent block of the next unit
    while carry is not None and len(betas) <= end:
        key = (alphas[3 * m + 5], betas[3 * m + 4], carry[0], carry[1])
        unit = units.get(key)
        if unit is None:
            carry = _blocks(hist, 3 * m + 4, 3 * m + 7, carry, field, hist)
            if carry is not None and len(units) < _MAX_STEPS:
                units[key] = alphas[-9:], betas[-9:], carry
        else:
            a_new, b_new, carry = unit
            alphas += a_new
            betas += b_new
        m += 1
    if carry is None and len(betas) - 1 <= end:
        return alphas, betas, len(betas) - 1
    del alphas[end + 1:], betas[end + 1:]  # a unit may end past the boundary
    return alphas, betas, 0


def _items(run, level, parent, first, start, carry):
    """The items of ``level`` whose parents are children first..2 of the
    entry ``parent``, from index ``start`` after ``carry``: their entries,
    or the answer of ``first_zero`` as an int. ``run`` is the call's
    (memo, ids, field, max_index)."""
    memo, ids, field, max_index = run
    kids = []
    for i in range(first, 3):
        if start > max_index:
            return 0
        if level == 1:  # the parent is a unit: child i reads its block i
            slots = parent[2]
            key = (slots[0][3 * i + 1], slots[1][3 * i], carry[0], carry[1])
        else:
            key = (parent[2][i][0], carry[0], carry[1])
        kid = memo.get(key)
        if kid is None:
            if level == 1:
                children = [], []
                after = _blocks(slots, 3 * i, 3 * i + 3, carry, field, children)
                if after is None:
                    index = start + len(children[1]) - 1
                    return index if index <= max_index else 0
                children = tuple(children[0]), tuple(children[1])
            else:
                children = _items(run, level - 1, parent[2][i], 0, start, carry)
                if isinstance(children, int):
                    return children
                after = children[-1][1]
            kid = (next(ids), after, children)
            if len(memo) < _MAX_STEPS:
                memo[key] = kid
        kids.append(kid)
        carry = kid[1]
        start += 3 ** (level + 1)
    return kids


def first_zero(u: int, v: int, p: int, max_index: int) -> int:
    """Smallest index <= max_index whose beta vanishes mod p, or 0 if none.

    Keeps no history but a tree of memoised items. The level-L item j is
    blocks 3^L (j+1) - 1 .. 3^L (j+2) - 2 (at level 1 a unit of
    ``run_history``), made of the level-(L-1) items 3j+2..3j+4. Their
    blocks read slots only inside the level-(L-1) item j, its parent, so an
    item is a function of its parent and of the carry alpha, beta at 3k+2
    before its first block k. The memo keys a unit as ``run_history`` does
    and an item above on its parent's id and the carry. An entry is (id,
    next carry, children): three entries, or for a unit its nine alphas
    and nine betas, as tuples, which hold less than lists. The seeds and
    blocks 0 and 1 make the level-1 item -1, and the level-L item -1 is the
    level-(L-1) items -1, 0 and 1, so the run grows a level at a time, each
    tripling it. A hit is a zero-free item, passed in one lookup; a miss
    runs its children in order, so the first zero met is the smallest.
    Each item's start is checked against max_index before its lookup,
    since a hit steps no block. Past ``_MAX_STEPS`` entries the memo stores
    no more, but an item stays in the tree while a later item may read it
    as a parent. Once the level-L items 0 and 1 are made, no item reads the
    level-L item -1 again, so the next root holds None in its place.
    """
    field, alphas, betas, carry = _start(u, v, p)
    if carry is None:
        index = len(betas) - 1
        return index if index <= max_index else 0
    run = {}, itertools.count(), field, max_index
    root = (None, carry, (alphas[1:], betas[1:]))  # the level-1 item -1
    level, start = 1, 10
    while True:
        kids = _items(run, level, root, 1, start, carry)
        if isinstance(kids, int):
            return kids
        carry = kids[-1][1]
        root = (None, carry, [None, *kids])
        start += 2 * 3 ** (level + 1)
        level += 1


def _scan_pair(u, v, p, n):
    """``first_zero(u, v, p, n)``, first run memo-free to the block
    boundary at or past min(n, ``_PROBE_INDEX``) by one ``_blocks`` call
    from slot 4, which block 2 reads. Only a pair alive at 729 goes on to
    ``first_zero``, from index 1."""
    field, alphas, betas, carry = _start(u, v, p)
    if carry is not None:
        top = min(n, _PROBE_INDEX)
        hist = alphas, betas
        carry = _blocks(hist, 4, (top + (-top) % 3) // 3 + 1, carry, field, hist)
    if carry is None:
        index = len(betas) - 1
        return index if index <= n else 0
    return 0 if len(betas) > n else first_zero(u, v, p, n)


def scan_grid(p: int, n: int, known=()) -> numpy.ndarray:
    """First-zero index for every pair in F_p^2 (0 = survivor), shape (p, p).

    Rows u <= (p - 1)/2 run pair by pair, a pair of ``known`` (the
    prime's condition pairs, which survive) by ``first_zero`` and any other
    through ``_scan_pair``; row -u mod p is the same row, by the parity in
    u of the module docstring. Nearly every pair dies early (module
    docstring), so only the 69 condition pairs of the half grids of the
    primes 3..47 and 8 of their 5325 other pairs, those alive at
    ``_PROBE_INDEX``, pay for ``first_zero``'s tree, which takes a survivor
    to the horizon in O(log n) lookups.
    """
    import numpy as np

    first = np.zeros((p, p), dtype=np.int32)
    for u in range(p // 2 + 1):
        first[u] = first[-u] = [
            first_zero(u, v, p, n) if (u, v) in known else _scan_pair(u, v, p, n)
            for v in range(p)
        ]
    return first


def density_bands(u_lo: int, u_hi: int, tables: dict) -> list:
    """The slab u_lo..u_hi as bands of ``_BAND`` rows: (first row, last
    row, the tables that can mark the band) for each, in order.

    ``tables`` maps each prime p to its condition pairs (u0, v0) in F_p^2.
    A band keeps every pair of a prime below ``_BAND``. A pair of a larger
    prime has at most one row in a band, and most have none, so one pass
    files it under the bands its rows meet: a count visits it once, not
    once per band. A slab of one band keeps ``tables`` as it is.
    """
    tops = range(u_lo, u_hi + 1, _BAND)
    filed = [tables] * len(tops)
    if len(tops) > 1:
        small = {p: pairs for p, pairs in tables.items() if p < _BAND}
        filed = [dict(small) for _ in tops]
        rows = u_hi - u_lo + 1
        for p, pairs in tables.items():
            for u0, v0 in pairs if p >= _BAND else ():
                for row in range((u0 - u_lo) % p, rows, p):
                    filed[row // _BAND].setdefault(p, []).append((u0, v0))
    return [(top, min(top + _BAND - 1, u_hi), band) for top, band in zip(tops, filed)]


def density_count(u_lo: int, u_hi: int, b: int, tables: dict) -> int:
    """Count covered integer pairs with u in [u_lo, u_hi], v in [-b, b].

    ``tables`` maps each prime p to its condition pairs (u0, v0) in F_p^2;
    an integer pair is covered when it reduces to one of them for some p.
    The slab is counted a band of ``density_bands`` at a time in one
    reused grid: each residue pair of the band's tables marks its lattice
    in the band by one strided slice, and a pair whose first row lies past
    the band costs a comparison and no slice.
    """
    import numpy as np

    band = np.empty((min(_BAND, u_hi - u_lo + 1), 2 * b + 1), dtype=bool)
    covered = 0
    for start, stop, band_tables in density_bands(u_lo, u_hi, tables):
        grid = band[: stop - start + 1]
        grid[:] = False
        height = len(grid)
        for p, pairs in band_tables.items():
            for u0, v0 in pairs:
                first = (u0 - start) % p
                if first < height:
                    grid[first::p, (v0 + b) % p :: p] = True
        covered += int(np.count_nonzero(grid))
    return covered
