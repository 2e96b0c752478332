"""Exact scalar arithmetic over Q and the prime helpers of the mod-p layers.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator); every exact run works in them. Mod-p work has no scalar type
of its own: the kernels step plain int residues. This module supplies what
they share: primality, the odd-prime check, a prime sieve and root finding
mod p. Root finding is brute force: every polynomial we care about has
degree <= 4 and p stays small, so O(p) per polynomial is cheap and leaves no
room for algorithmic bugs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

# The rational scalar type of every exact run.
ExactRational = Fraction


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (intended range n <= 10^9)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    if hi < 2:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(q) for q in np.nonzero(sieve)[0] if q >= lo]


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


def poly_roots_mod_p(coeffs, p: int) -> set[int]:
    """All x in [0, p) with sum(coeffs[i] * x^i) == 0 mod p, by exhaustive scan.

    coeffs are integers, ascending by degree, degree <= 4 after reduction
    mod p. The brute-force budget is p <= 10^6.
    """
    if not is_prime(p) or p < 2:
        raise ValueError(f"p must be prime, got {p}")
    if p > 10**6:
        raise ValueError(f"brute-force root finding capped at p = 10^6, got {p}")
    reduced = [c % p for c in coeffs]
    while reduced and reduced[-1] == 0:
        reduced.pop()
    if len(reduced) - 1 > 4:
        raise ValueError(f"degree {len(reduced) - 1} > 4 not supported")
    if not reduced:
        # zero polynomial: everything is a root
        return set(range(p))
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(reduced):
        acc = (acc * xs + c) % p
    return {int(x) for x in np.nonzero(acc == 0)[0]}
