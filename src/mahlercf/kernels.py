"""Hot numeric kernels: mod-p recurrence runs, full F_p^2 survivor scans,
and the integer-grid coverage count.

One engine: a single run is a scalar loop on Python ints, a full scan steps
every residue pair at once in int64 numpy arrays, and the coverage count
marks each condition pair's lattice in a boolean grid with strided slices.

All kernels work on plain integer residues; exact Fraction work lives
elsewhere. A single run uses Python ints and cannot overflow. The batch
scan's largest int64 product, (u^2 mod p) * u^2, stays below p^3 < 2^63 for
p < 2e6, above the p <= 10^6 cap of the condition enumeration and far above
any p whose p^2 history columns fit in memory.

Failure causes are encoded as ints: 0 = ok, 1 = a beta entry equals zero,
2 = a division hit a zero divisor (defensive; unreachable while earlier
betas are nonzero).
"""

from __future__ import annotations

import numpy as np

OK = 0
CAUSE_BETA_ZERO = 1
CAUSE_DIV_ZERO = 2


def get_backend() -> str:
    """Name of the arithmetic engine, reported beside benchmark results."""
    return "numpy"


def _history(u, v, p, n, alphas, betas):
    """Fill 1-based history lists up to the block boundary >= n.

    Returns (fail_index, cause); fail_index 0 means the run survived.
    A zero beta is recorded at its index before halting; a zero divisor
    halts without recording the entry being computed.
    """
    u = u % p
    v = v % p
    alphas[1] = (-u) % p
    betas[1] = 1
    b2 = (u * u - v) % p
    betas[2] = b2
    if n <= 1:
        return 0, OK
    if b2 == 0:
        return 2, CAUSE_BETA_ZERO
    dinv = pow(v - u * u, -1, p)
    alphas[2] = u * (2 * v - 1 - u * u) * dinv % p
    alphas[3] = -u * (v - 1) * dinv % p
    b3 = (u * u + u ** 4 + v ** 3 - 3 * u * u * v) * dinv * dinv % p
    betas[3] = b3
    if b3 == 0 and n >= 3:
        return 3, CAUSE_BETA_ZERO
    k = 0
    while 3 * k + 3 < n:
        i2 = 3 * k + 2
        i3 = 3 * k + 3
        denom = betas[i3] * betas[i2] % p
        alphas[3 * k + 4] = (-u) % p
        if denom == 0:
            return 3 * k + 4, CAUSE_DIV_ZERO
        b4 = betas[k + 2] * pow(denom, -1, p) % p
        betas[3 * k + 4] = b4
        if b4 == 0:
            return 3 * k + 4, CAUSE_BETA_ZERO
        b5 = (u * u - v - b4) % p
        betas[3 * k + 5] = b5
        if b5 == 0:
            return 3 * k + 5, CAUSE_BETA_ZERO
        a5 = (alphas[k + 2] + u * v - alphas[i2] * b4) % p
        a5 = (u - a5 * pow(b5, -1, p)) % p
        alphas[3 * k + 5] = a5
        a6 = (u - a5) % p
        alphas[3 * k + 6] = a6
        b6 = (v - a5 * a6) % p
        betas[3 * k + 6] = b6
        if b6 == 0:
            return 3 * k + 6, CAUSE_BETA_ZERO
        k += 1
    return 0, OK


def run_history(u: int, v: int, p: int, n: int):
    """Mod-p recurrence history to the block boundary >= n.

    Returns (alphas, betas, fail_index, cause): int64 arrays indexed 1..,
    fail_index 0 when no beta vanished up to the boundary.
    """
    alphas = [0] * (n + 4)
    betas = [0] * (n + 4)
    idx, cause = _history(u, v, p, n, alphas, betas)
    return np.array(alphas, dtype=np.int64), np.array(betas, dtype=np.int64), idx, cause


def first_zero(u: int, v: int, p: int, max_index: int) -> int:
    """Smallest index <= max_index whose beta vanishes mod p, or 0 if none."""
    _, _, idx, _ = run_history(u, v, p, max_index)
    return idx if 0 < idx <= max_index else 0


def scan_grid(p: int, n: int) -> np.ndarray:
    """First-zero index for every pair in F_p^2 (0 = survivor), shape (p, p).

    All pairs are stepped together, one history column each. Dead columns
    keep computing (harmless) values until the history array next grows,
    when they are compacted away.
    """
    boundary = n + (-n) % 3  # last index of the final block, multiple of 3
    nblocks = boundary // 3 - 1
    # inverse table: entry 0 is only ever gathered for dead columns
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)

    u = np.repeat(np.arange(p, dtype=np.int64), p)
    v = np.tile(np.arange(p, dtype=np.int64), p)
    orig = np.arange(p * p)
    first = np.zeros(p * p, dtype=np.int32)

    cap = min(boundary, 240) + 4
    A = np.zeros((cap, p * p), dtype=np.int64)
    B = np.zeros((cap, p * p), dtype=np.int64)

    A[1] = (-u) % p
    B[1] = 1
    b2 = (u * u - v) % p
    B[2] = b2
    alive = b2 != 0
    first[orig[~alive]] = 2
    dinv = inv[(v - u * u) % p]
    A[2] = u * ((2 * v - 1 - u * u) % p) % p * dinv % p
    A[3] = (-u) % p * ((v - 1) % p) % p * dinv % p
    b3 = (u * u % p * (u * u) + u * u + v * v % p * v - 3 * u * u % p * v) % p
    b3 = b3 * dinv % p * dinv % p
    B[3] = b3
    died = alive & (b3 == 0)
    first[orig[died]] = 3
    alive &= ~died

    def compact():
        nonlocal u, v, orig, alive, A, B
        keep = alive
        u, v, orig = u[keep], v[keep], orig[keep]
        A, B = A[:, keep], B[:, keep]
        alive = np.ones(len(u), dtype=bool)

    for k in range(nblocks):
        i4, i5, i6 = 3 * k + 4, 3 * k + 5, 3 * k + 6
        if i6 >= A.shape[0]:
            compact()
            grow = np.zeros((min(boundary + 4, 2 * A.shape[0]) - A.shape[0], A.shape[1]), dtype=np.int64)
            A = np.vstack([A, grow])
            B = np.vstack([B, grow.copy()])
        if len(u) == 0:
            break
        denom = B[3 * k + 3] * B[3 * k + 2] % p
        b4 = B[k + 2] * inv[denom] % p
        A[i4] = (-u) % p
        B[i4] = b4
        died = alive & (b4 == 0)
        first[orig[died]] = i4
        alive &= ~died
        b5 = (u * u - v - b4) % p
        B[i5] = b5
        died = alive & (b5 == 0)
        first[orig[died]] = i5
        alive &= ~died
        a5 = (A[k + 2] + u * v - A[3 * k + 2] * b4) % p
        a5 = (u - a5 * inv[b5]) % p
        A[i5] = a5
        a6 = (u - a5) % p
        A[i6] = a6
        b6 = (v - a5 * a6) % p
        B[i6] = b6
        died = alive & (b6 == 0)
        first[orig[died]] = i6
        alive &= ~died

    first[first > n] = 0
    return first.reshape(p, p)


def density_count(u_lo: int, u_hi: int, b: int, tables: dict) -> int:
    """Count covered integer pairs with u in [u_lo, u_hi], v in [-b, b].

    ``tables`` maps each prime p to its condition pairs (u0, v0) in F_p^2;
    an integer pair is covered when it reduces to one of them for some p.
    Each residue pair covers a lattice of the box, marked by one strided
    slice.
    """
    covered = np.zeros((u_hi - u_lo + 1, 2 * b + 1), dtype=bool)
    for p, pairs in tables.items():
        for u0, v0 in pairs:
            covered[(u0 - u_lo) % p :: p, (v0 + b) % p :: p] = True
    return int(covered.sum())
