"""Exact scalar arithmetic over Q and the prime helpers of the mod-p layers.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator); every exact run works in them. Mod-p work has no scalar type
of its own: the kernels step plain int residues. This module supplies what
they share: primality, the odd-prime check, a prime sieve and root finding
mod p. Primality is a deterministic Miller-Rabin test below a fixed limit.
Root finding solves polynomials of degree <= 2 by formula: a quadratic's
roots come from the square roots of its discriminant, found by
Tonelli-Shanks in O(log^2 p) multiplications.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import compress

# Strong-probable-prime tests to the 13 primes 2..41 decide primality for
# every n below this limit (Sorenson & Webster, Math. Comp. 86, 2017); it is
# the least composite that passes all 13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin to the bases 2..41.

    Raises ValueError for an n >= PRIMALITY_LIMIT without a factor <= 41,
    where those bases no longer decide.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality is decided only below {PRIMALITY_LIMIT}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    lo = max(lo, 0)
    return list(compress(range(lo, hi + 1), sieve[lo:]))


def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime, the moduli the recurrence
    and the residue conditions are stated for."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 3, got {p}")


def as_scalar(x) -> Fraction:
    """Lift an int or Fraction to Fraction and reject anything else.

    Guards the exact entry points against int/int -> float surprises.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _square_roots(a: int, p: int) -> set[int]:
    """Both square roots of a mod the odd prime p (one for a = 0, none for a
    non-residue), by Tonelli-Shanks."""
    a %= p
    if a == 0:
        return {0}
    if pow(a, (p - 1) // 2, p) != 1:
        return set()
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)  # invariant: r^2 = a t
    if t != 1:
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        c, m = pow(z, q, p), s  # c has order 2^m, t order 2^i with i < m
        while t != 1:
            i, t2 = 1, t * t % p
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            c, m = b * b % p, i
            t, r = t * c % p, r * b % p
    return {r, p - r}


def poly_roots_mod_p(coeffs, p: int) -> set[int]:
    """All x in [0, p) with sum(coeffs[i] * x^i) == 0 mod p, by formula.

    coeffs are integers, ascending by degree. After reduction mod p the
    polynomial must be nonzero of degree <= 2; anything else, the zero
    polynomial included, raises ValueError. A quadratic is solved by the
    square roots of its discriminant. p must be an odd prime.
    """
    check_odd_prime(p)
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise ValueError(f"{list(coeffs)} is the zero polynomial mod {p}")
    if len(c) > 3:
        raise ValueError(f"degree {len(c) - 1} > 2 not supported")
    if len(c) == 1:
        return set()
    if len(c) == 2:
        return {-c[0] * pow(c[1], -1, p) % p}
    c0, c1, c2 = c
    inv = pow(2 * c2, -1, p)
    return {(r - c1) * inv % p for r in _square_roots(c1 * c1 - 4 * c0 * c2, p)}
