"""Hot numeric kernels: the block recurrence over Q and mod p, full F_p^2
survivor scans, and the integer-grid coverage count.

One engine: every run, over Q or mod p, single or in a scan, is the scalar
loop ``run_history``. Mod p it works on Python ints, which cannot overflow;
over Q it is the same loop on Fractions, with the modulus ``Q``, for which
reducing is the identity and an inverse is 1/x. Its one memo, for one
call, holds units of the three blocks that read one parent block's
outputs, nine indices, so a unit met again is one dict lookup. A survivor
mod p meets few units, the finite 3-kernel of an automatic sequence
(Allouche & Shallit, *Automatic Sequences*, Thm 6.6.2): over the 222
condition pairs with p <= 100, at most 15 (median 4) to 10^4 indices and
at most 23 to 10^6, so its long runs are nearly all lookups. A missed
block inverts once (Montgomery's simultaneous inversion).
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


# Units (nine indices each) the memo of one run keeps: past this, a run
# goes on looking up but stores no more. Survivors need two dozen at most,
# so a run that fills it is one whose units do not repeat, as at a large p,
# and the bound keeps its memo from adding to the peak of a 10^6-index run
# (132 -> 179 MB unbounded at the largest admitted prime, fresh process).
_MAX_STEPS = 1024


def run_history(u, v, p, n: int):
    """Recurrence history to the block boundary >= max(n, 3), or to the
    first zero beta, mod the odd prime p or over ``Q``.

    Returns (alphas, betas, fail_index): lists indexed 1.. (slot 0 unused)
    that end where the run stopped, and fail_index 0 when no beta vanished.
    A zero beta is kept at its index, and alpha_{3k+5} is absent when
    beta_{3k+5} is the zero. Mod p, u and v are ints; over Q, Fractions.

    Block k writes beta_{3k+4}, beta_{3k+5}, alpha_{3k+5}, alpha_{3k+6} and
    beta_{3k+6} (alpha_{3k+4} is -u) from the cross-scale slot alpha_{k+2},
    beta_{k+2} and the carry alpha_{3k+2}, beta_{3k+2}, beta_{3k+3}. After
    blocks 0 and 1, which read the seeds, blocks 3m+2..3m+4 read slots
    3m+4..3m+6, the outputs of parent block m. The memo of this call keys
    such a unit on alpha_{3m+5}, beta_{3m+4} and the carry's alpha_{3k+2},
    beta_{3k+2} (k = 3m+2), which fix the rest: alpha_{3m+6} = u -
    alpha_{3m+5}, beta_{3m+5} = (u^2 - v) - beta_{3m+4} and every
    beta_{3j+3} = v - alpha_{3j+2} alpha_{3j+3}. An entry holds the unit's
    nine alphas, nine betas and the next carry, so a unit met again costs a
    lookup and two list extends. A miss steps the blocks one at a time, up
    to a zero beta or the boundary; only whole, zero-free units are stored
    (at most ``_MAX_STEPS``), and a hit that passes the boundary is cut back
    to it. A miss inverts once per block: with d = beta_{3k+3} beta_{3k+2}
    and e = (u^2 - v) d - beta_{k+2}, so that beta_{3k+4} = beta_{k+2}/d and
    beta_{3k+5} = e/d, the inverse t of d e gives beta_{3k+4} = beta_{k+2}
    e t and 1/beta_{3k+5} = d^2 t. Where units rarely repeat (a large p, a
    scan past p ~ 40), a lookup misses: a 10^6-index run at p = 10^9 + 7
    takes ~5% longer than without it.
    """
    inv = (lambda x: 1 / x) if p is Q else (lambda x: pow(x, -1, p))
    u %= p
    v %= p
    c = (u * u - v) % p  # beta_2, and beta_{3k+4} + beta_{3k+5} in every block
    alphas = [0, -u % p]
    betas = [0, 1, c]
    if c == 0:
        return alphas, betas, 2
    # alpha_3 and beta_3 by the block's tail rules (``recurrence`` docstring)
    a2 = u * (u * u + 1 - 2 * v) * inv(c) % p
    alphas += (a2, (u - a2) % p)
    betas.append((v - a2 * alphas[3]) % p)
    if betas[3] == 0:
        return alphas, betas, 3
    uv = u * v
    neg_u = -u % p
    end = max(3, n + (-n) % 3)  # the block boundary >= max(n, 3)
    blocks = end // 3 - 1  # blocks 0..blocks-1 run, block k ending at 3k + 6
    units = {}
    key = None  # the key of the unit being stepped, stored once it is whole
    b2, b3 = c, betas[3]  # the carry: alpha, beta at 3k+2; beta at 3k+3
    k = 0
    while k < blocks:
        if k % 3 == 2:  # blocks k..k+2 read slots k+2..k+4: parent (k-2)/3
            if key is not None and len(units) < _MAX_STEPS:
                units[key] = alphas[-9:], betas[-9:], a2, b2, b3
            key = (alphas[k + 3], betas[k + 2], a2, b2)
            unit = units.get(key)
            if unit is not None:
                a_new, b_new, a2, b2, b3 = unit
                alphas += a_new
                betas += b_new
                key = None
                k += 3
                continue
        d = b3 * b2 % p
        e = (c * d - betas[k + 2]) % p
        if e == 0:  # beta_{3k+5}, so beta_{3k+4} = u^2 - v
            alphas.append(neg_u)
            betas += (c, e)
            return alphas, betas, 3 * k + 5
        t = inv(d * e % p)
        # e t = 1/d and d t = 1/e first: over Q they are the small products
        b4 = betas[k + 2] * (e * t) % p
        # the next carry: alpha_{3k+5}, beta_{3k+5}, beta_{3k+6}
        a2 = (u - (alphas[k + 2] + uv - a2 * b4) * (d * (d * t))) % p
        a6 = (u - a2) % p
        b2 = (c - b4) % p
        b3 = (v - a2 * a6) % p
        alphas += (neg_u, a2, a6)
        betas += (b4, b2, b3)
        if b3 == 0:  # beta_{3k+6}
            return alphas, betas, 3 * k + 6
        k += 1
    del alphas[end + 1:], betas[end + 1:]  # a unit may end past the boundary
    return alphas, betas, 0


def first_zero(u: int, v: int, p: int, max_index: int) -> int:
    """Smallest index <= max_index whose beta vanishes mod p, or 0 if none."""
    _, _, idx = run_history(u, v, p, max_index)
    return idx if 0 < idx <= max_index else 0


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
