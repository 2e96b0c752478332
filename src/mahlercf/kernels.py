"""Hot numeric kernels: the block recurrence over Q and mod p, full F_p^2
survivor scans, and the integer-grid coverage count.

One engine: every run, over Q or mod p, single or in a scan, is the scalar
loop ``run_history``. Mod p it works on Python ints, which cannot overflow;
over Q it is the same loop on Fractions, with the modulus ``Q``, for which
reducing is the identity and an inverse is 1/x. Its one memo, a block
memo for one call, makes a block state met again one dict lookup. A
survivor mod p meets few block states, the finite 3-kernel of an
automatic sequence (Allouche & Shallit, *Automatic Sequences*,
Thm 6.6.2): over the 222 condition pairs with p <= 100, at most 32
(median 9) to 10^4 indices and at most 48 to 10^6. So nearly every block
of a long survivor run is a lookup, and a miss inverts once (Montgomery's
simultaneous inversion).
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

A run stops only at a zero beta. Only beta_2, beta_3, beta_{3k+5} and
beta_{3k+6} can vanish: beta_{3k+4} = beta_{k+2}/(beta_{3k+3} beta_{3k+2})
is a quotient of earlier betas, all already nonzero, so no division ever
meets a zero divisor.
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


# Block states the block memo of one run keeps: past this, a run goes on
# looking up but stores no more. Survivors need a few dozen, so a run that
# fills it is one whose states do not repeat, such as any run at a large p,
# and the bound keeps its memo from adding to the peak of a 10^6-index run
# (131 -> 223 MB unbounded at the largest admitted prime, fresh process).
_MAX_STEPS = 1024


def run_history(u, v, p, n: int):
    """Recurrence history to the block boundary >= max(n, 3), or to the
    first zero beta, mod the odd prime p or over ``Q``.

    Returns (alphas, betas, fail_index): lists indexed 1.. (slot 0 unused)
    that end where the run stopped, and fail_index 0 when no beta vanished.
    A zero beta is kept at its index, and alpha_{3k+5} is absent when
    beta_{3k+5} is the zero. Mod p, u and v are ints; over Q, Fractions.

    Block k writes beta_{3k+4}, beta_{3k+5}, alpha_{3k+5}, alpha_{3k+6} and
    beta_{3k+6} (alpha_{3k+4} is -u) from five values: the cross-scale slot
    alpha_{k+2}, beta_{k+2} and the carry alpha_{3k+2}, beta_{3k+2},
    beta_{3k+3}. A memo that lives for this call keys on those five and
    holds the block's alpha and beta triples and the next carry, so a block
    state met again costs a lookup and two list extends: a survivor mod p
    meets a few dozen states at most and repeats them for the rest of the
    run. A zero beta_{3k+5} returns before anything is stored, and a stored
    step with a zero beta_{3k+6} ends the run, so it is never met again.
    The memo stops growing at ``_MAX_STEPS`` states. A miss inverts once:
    with d = beta_{3k+3} beta_{3k+2} and e = (u^2 - v) d - beta_{k+2}, so
    that beta_{3k+4} = beta_{k+2}/d and beta_{3k+5} = e/d, the inverse t of
    d e gives beta_{3k+4} = beta_{k+2} e t and 1/beta_{3k+5} = d^2 t; only
    a zero e inverts d alone. Where states rarely repeat, at a large p or in
    a scan past p ~ 40 where most pairs die within a few hundred indices,
    each block pays for a lookup that misses: a 10^6-index run at
    p = 10^9 + 7 takes ~9% longer than without the block memo.
    """
    inv = (lambda x: 1 / x) if p is Q else (lambda x: pow(x, -1, p))
    u %= p
    v %= p
    alphas = [0, -u % p]
    betas = [0, 1, (u * u - v) % p]
    if betas[2] == 0:
        return alphas, betas, 2
    dinv = inv(-betas[2] % p)
    alphas += (u * (2 * v - 1 - u * u) * dinv % p, -u * (v - 1) * dinv % p)
    betas.append((u * u + u ** 4 + v ** 3 - 3 * u * u * v) * dinv * dinv % p)
    if betas[3] == 0:
        return alphas, betas, 3
    c = (u * u - v) % p
    uv = u * v
    neg_u = -u % p
    steps = {}
    a2, b2, b3 = alphas[2], betas[2], betas[3]  # alpha, beta at 3k+2; beta at 3k+3
    k = 0
    i = 3  # = 3k + 3, the last index of the previous block
    while i < n:
        key = (alphas[k + 2], betas[k + 2], a2, b2, b3)
        step = steps.get(key)
        if step is None:
            d = b3 * b2 % p
            e = (c * d - key[1]) % p
            if e == 0:  # beta_{3k+5}
                alphas.append(neg_u)
                betas += (key[1] * inv(d) % p, e)
                return alphas, betas, i + 2
            t = inv(d * e % p)
            # e t = 1/d and d t = 1/e first: over Q they are the small products
            b4 = key[1] * (e * t) % p
            b5 = (c - b4) % p
            a5 = (u - (key[0] + uv - a2 * b4) * (d * (d * t))) % p
            a6 = (u - a5) % p
            b6 = (v - a5 * a6) % p
            step = (neg_u, a5, a6), (b4, b5, b6), a5, b5, b6
            if len(steps) < _MAX_STEPS:
                steps[key] = step
        a_new, b_new, a2, b2, b3 = step
        alphas += a_new
        betas += b_new
        if b3 == 0:  # beta_{3k+6}, only ever on a miss
            return alphas, betas, i + 3
        k += 1
        i += 3
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
