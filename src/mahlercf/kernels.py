"""Hot numeric kernels: the block recurrence over Q and mod p, full F_p^2
survivor scans, and the integer-grid coverage count.

One engine: every run, over Q or mod p, single or in a scan, is the scalar
loop ``run_history``. Mod p it works on Python ints, which cannot overflow;
over Q it is the same loop on Fractions, with the modulus ``Q``, for which
reducing is the identity and an inverse is 1/x. Its inversions go through a
memo that lives for one call: one inversion per distinct divisor, at most
two entries per block. A survivor at a small p meets a handful of distinct
betas, so nearly every inversion is a lookup; at a large p, where residues
rarely repeat, the memo saves nothing and costs memory and a little time.
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
    """The modulus of a run over Q: ``x % Q`` is x itself, and the inverse
    memo of a run over Q divides, so ``run_history`` needs no second loop."""

    __slots__ = ()

    def __rmod__(self, x):
        return x


Q = _Rationals()


def get_backend() -> str:
    """Name of the arithmetic engine, reported beside benchmark results."""
    return "numpy"


class _Inverses(dict):
    """Inverses mod p (1/x over Q) by value, each computed on first lookup."""

    __slots__ = ("p",)

    def __init__(self, p):
        super().__init__()
        self.p = p

    def __missing__(self, x):
        y = self[x] = 1 / x if self.p is Q else pow(x, -1, self.p)
        return y


def run_history(u, v, p, n: int):
    """Recurrence history to the block boundary >= max(n, 3), or to the
    first zero beta, mod the odd prime p or over ``Q``.

    Returns (alphas, betas, fail_index): lists indexed 1.. (slot 0 unused)
    that end where the run stopped, and fail_index 0 when no beta vanished.
    A zero beta is kept at its index, and alpha_{3k+5} is absent when
    beta_{3k+5} is the zero. Mod p, u and v are ints; over Q, Fractions.

    The inversions go through a memo that lives for this call only, so each
    distinct divisor costs one ``pow`` (one division over Q): a survivor
    meets few distinct betas and repeats nearly every inversion. The memo
    holds at most two entries per block; at a large p, where residues rarely
    repeat, it costs memory and a little time instead of saving it.
    """
    u %= p
    v %= p
    alphas = [0, -u % p]
    betas = [0, 1, (u * u - v) % p]
    if betas[2] == 0:
        return alphas, betas, 2
    inv = _Inverses(p)
    dinv = inv[-betas[2] % p]
    alphas += (u * (2 * v - 1 - u * u) * dinv % p, -u * (v - 1) * dinv % p)
    betas.append((u * u + u ** 4 + v ** 3 - 3 * u * u * v) * dinv * dinv % p)
    if betas[3] == 0:
        return alphas, betas, 3
    c = (u * u - v) % p
    uv = u * v
    neg_u = -u % p
    k = 0
    i = 3  # = 3k + 3, the last index of the previous block
    while i < n:
        alphas.append(neg_u)
        b4 = betas[k + 2] * inv[betas[i] * betas[i - 1] % p] % p
        betas.append(b4)
        b5 = (c - b4) % p
        betas.append(b5)
        if b5 == 0:
            return alphas, betas, i + 2
        a5 = (u - (alphas[k + 2] + uv - alphas[i - 1] * b4) * inv[b5]) % p
        a6 = (u - a5) % p
        alphas += (a5, a6)
        b6 = (v - a5 * a6) % p
        betas.append(b6)
        if b6 == 0:
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
