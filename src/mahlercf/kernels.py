"""Hot numeric kernels: the block recurrence over Q and mod p, full F_p^2
survivor scans, and the integer-grid coverage count.

One engine: every run, over Q or mod p, alone or in a scan, steps its
blocks through one routine, ``_blocks``: mod p on Python ints, which
cannot overflow, over Q on Fractions with the modulus ``Q``, for which
reducing is the identity and an inverse is 1/x. A missed block inverts
once (Montgomery's simultaneous inversion). Two drivers call it, each with
a memo for one call. ``run_history`` keeps the history that runs over Q,
``RecurrenceRun`` and the lemma checks read, and memoises units of nine
indices. ``first_zero``, which scans and the soundness check call, keeps
only a tree of memoised items of every scale. A survivor mod p meets few
of them, the finite 3-kernel of an automatic sequence (Allouche &
Shallit, *Automatic Sequences*, Thm 6.6.2): over the 222 condition pairs
with p <= 100, to 10^6 indices, ``first_zero`` misses at most 23 units
(median 4) and a median of 4 items on each level above, so a survivor
costs O(log N) lookups, not N / 9.

The coverage count marks each condition pair's lattice in a boolean grid
with strided slices. numpy is imported only inside the two kernels whose
product is an array, ``scan_grid`` and ``density_count``; importing this
module loads none.

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


def _start(u, v, p):
    """The constants of a run and its indices to 9: the seeds, then blocks 0
    and 1, which read seed slots 2 and 3.

    Returns (field, alphas, betas, carry): field is (u, v, u^2 - v, uv, -u,
    p, inverse), and the lists, indexed 1.. (slot 0 unused), end at index 9
    or at the first zero beta, with carry None.
    """
    u %= p
    v %= p
    inv = (lambda x: 1 / x) if p is Q else (lambda x: pow(x, -1, p))
    c = (u * u - v) % p  # beta_2, and beta_{3k+4} + beta_{3k+5} in every block
    field = u, v, c, u * v, -u % p, p, inv
    alphas = [0, -u % p]
    betas = [0, 1, c]
    if c == 0:
        return field, alphas, betas, None
    # alpha_3 and beta_3 by the block's tail rules (``recurrence`` docstring)
    a2 = u * (u * u + 1 - 2 * v) * inv(c) % p
    alphas += (a2, (u - a2) % p)
    betas.append((v - a2 * alphas[3]) % p)
    if betas[3] == 0:
        return field, alphas, betas, None
    a_new, b_new, carry = _blocks((alphas, betas), 2, 4, (a2, c, betas[3]), field)
    alphas += a_new
    betas += b_new
    return field, alphas, betas, carry


def _blocks(slots, lo, hi, carry, field):
    """Step the blocks that read slots lo..hi-1 of one parent's alphas and
    betas, ``slots[0]`` and ``slots[1]``.

    Block k writes alpha_{3k+4} = -u, beta_{3k+4}, beta_{3k+5},
    alpha_{3k+5}, alpha_{3k+6} and beta_{3k+6} from its slot alpha_{k+2},
    beta_{k+2} and the carry alpha_{3k+2}, beta_{3k+2}, beta_{3k+3}.
    Returns the blocks' alphas and betas as tuples and the next carry, or
    the tuples to a zero beta, which ends the run, and None. Each block
    inverts once: with d = beta_{3k+3}
    beta_{3k+2} and e = (u^2 - v) d - beta_{k+2}, so that beta_{3k+4} =
    beta_{k+2}/d and beta_{3k+5} = e/d, the inverse t of d e gives
    beta_{3k+4} = beta_{k+2} e t and 1/beta_{3k+5} = d^2 t (Montgomery's
    simultaneous inversion).
    """
    u, v, c, uv, neg_u, p, inv = field
    a2, b2, b3 = carry
    slot_alphas, slot_betas = slots[0], slots[1]
    alphas = betas = ()
    for i in range(lo, hi):
        slot_a = slot_alphas[i]
        slot_b = slot_betas[i]
        d = b3 * b2 % p
        e = (c * d - slot_b) % p
        if e == 0:  # beta_{3k+5}, so beta_{3k+4} = u^2 - v
            return alphas + (neg_u,), betas + (c, e), None
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
            return alphas, betas, None
    return alphas, betas, (a2, b2, b3)


def run_history(u, v, p, n: int):
    """Recurrence history to the block boundary >= max(n, 3), or to the
    first zero beta, mod the odd prime p or over ``Q``.

    Returns (alphas, betas, fail_index): lists indexed 1.. (slot 0 unused)
    that end where the run stopped, and fail_index 0 when no beta vanished.
    A zero beta is kept at its index, and alpha_{3k+5} is absent when
    beta_{3k+5} is the zero. Mod p, u and v are ints; over Q, Fractions.

    Block k reads slot k+2, so after blocks 0 and 1, which read the seeds,
    blocks 3m+2..3m+4 read slots 3m+4..3m+6, the outputs of parent block m.
    The memo of this call keys such a unit on alpha_{3m+5}, beta_{3m+4} and
    the carry's alpha_{3k+2}, beta_{3k+2} (k = 3m+2), which fix the rest:
    alpha_{3m+6} = u - alpha_{3m+5}, beta_{3m+5} = (u^2 - v) - beta_{3m+4}
    and every beta_{3j+3} = v - alpha_{3j+2} alpha_{3j+3}. An entry holds
    the unit's nine alphas, nine betas and the next carry, so a unit met
    again costs a lookup and two list extends. A miss steps the unit's
    three blocks (``_blocks``); only zero-free units are stored (at most
    ``_MAX_STEPS``), and a unit that passes the boundary is cut back to it,
    a zero past the boundary with it. Where units rarely repeat (a large p,
    a scan past p ~ 40), a lookup misses: a 10^6-index run at p = 10^9 + 7
    takes ~5% longer than without it. The history is what ``RecurrenceRun``
    and the lemma checks read; ``first_zero`` keeps none.
    """
    end = max(3, n + (-n) % 3)  # the block boundary >= max(n, 3)
    field, alphas, betas, carry = _start(u, v, p)
    units = {}
    m = 0  # the parent block of the next unit
    while carry is not None and len(betas) <= end:
        key = (alphas[3 * m + 5], betas[3 * m + 4], carry[0], carry[1])
        unit = units.get(key)
        if unit is None:
            unit = _blocks((alphas, betas), 3 * m + 4, 3 * m + 7, carry, field)
            if unit[2] is not None and len(units) < _MAX_STEPS:
                units[key] = unit
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
                children = _blocks(slots, 3 * i, 3 * i + 3, carry, field)
                after = children[2]
                if after is None:
                    index = start + len(children[1]) - 1
                    return index if index <= max_index else 0
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
    next carry, children): three entries, or for a unit what ``_blocks``
    returns, its nine alphas, nine betas and carry. The seeds and blocks 0
    and 1 make the level-1 item -1, and the level-L item -1 is the
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


def scan_grid(p: int, n: int) -> numpy.ndarray:
    """First-zero index for every pair in F_p^2 (0 = survivor), shape (p, p).

    Rows u <= (p - 1)/2 run pair by pair through ``first_zero``; row -u
    mod p is the same row, by the parity in u of the module docstring.
    """
    import numpy as np

    first = np.zeros((p, p), dtype=np.int32)
    for u in range(p // 2 + 1):
        first[u] = first[-u] = [first_zero(u, v, p, n) for v in range(p)]
    return first


def density_count(u_lo: int, u_hi: int, b: int, tables: dict) -> int:
    """Count covered integer pairs with u in [u_lo, u_hi], v in [-b, b].

    ``tables`` maps each prime p to its condition pairs (u0, v0) in F_p^2;
    an integer pair is covered when it reduces to one of them for some p.
    Each residue pair covers a lattice of the box, marked by one strided
    slice.
    """
    import numpy as np

    covered = np.zeros((u_hi - u_lo + 1, 2 * b + 1), dtype=bool)
    for p, pairs in tables.items():
        for u0, v0 in pairs:
            covered[(u0 - u_lo) % p :: p, (v0 + b) % p :: p] = True
    return int(covered.sum())
