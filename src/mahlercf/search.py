"""Exhaustive survivor scans over F_p^2 and the integer-pair coverage density.

A scan runs the recurrence mod p for every residue pair and records the
first index whose beta vanishes (0 = survived to the horizon). Survivors are
compared against the enumerated condition pairs: ``missing`` (conditional
pairs that died) would be an implementation bug; ``extra_survivors`` are
findings to report, never auto-promoted to new conditions, since a survivor
at a finite horizon may die later.

The density experiment never runs the recurrence: each condition pair
(u0, v0) of a prime p covers every integer pair congruent to it mod p, a
lattice that ``kernels.density_count`` marks one band of rows at a time,
over the rows u >= 0 of the box, which mirror the rows u < 0.

With ``jobs`` >= 2, ``scan_range`` and ``density`` hand their work to that
many forked workers (``workers``): a task is one prime, largest first, or
one band of ``kernels.density_bands`` or row 0 of the box, over condition
tables built before the fork. A worker files the pairs into bands once,
at its first band, so the caller holds no more than a serial count does.
The results are the serial ones; without ``jobs`` every scan and count
runs serially, in-process.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import kernels
from .conditions import satisfying_pairs
from .fields import check_odd_prime, primes_between

if TYPE_CHECKING:
    import numpy

DEFAULT_HORIZON = 10_000


class ScanResult:
    """Survivors vs condition pairs for one prime at one horizon."""

    def __init__(self, p: int, max_index: int, first_zero: numpy.ndarray, condition_pairs: set):
        self.p = p
        self.max_index = max_index
        self.first_zero = first_zero  # (p, p) int32; 0 marks a survivor
        self.survivors = {
            (u, v) for u, row in enumerate(first_zero.tolist())
            for v, idx in enumerate(row) if not idx
        }
        self.condition_pairs = condition_pairs

    @property
    def extra_survivors(self) -> set:
        return self.survivors - self.condition_pairs

    @property
    def missing(self) -> set:
        return self.condition_pairs - self.survivors

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "max_index": self.max_index,
            "survivor_count": len(self.survivors),
            "condition_pair_count": len(self.condition_pairs),
            "survivors": sorted(self.survivors),
            "extra_survivors": sorted(self.extra_survivors),
            "missing": sorted(self.missing),
        }

    def csv_rows(self):
        """(p, u, v, first_zero_index or 'survived') for every pair."""
        for u, row in enumerate(self.first_zero.tolist()):
            for v, idx in enumerate(row):
                yield self.p, u, v, idx or "survived"


def scan_prime(p: int, max_index: int = DEFAULT_HORIZON) -> ScanResult:
    """Run every pair in F_p^2 to its first beta zero or the horizon."""
    check_odd_prime(p)
    pairs = set(satisfying_pairs(p))
    return ScanResult(p, max_index, kernels.scan_grid(p, max_index, pairs), pairs)


def scan_range(p_min: int, p_max: int, max_index: int = DEFAULT_HORIZON,
               jobs: int = 1) -> list[ScanResult]:
    """scan_prime for every prime in [p_min, p_max], ascending."""
    primes = primes_between(max(3, p_min), p_max)
    if jobs < 2:
        return [scan_prime(p, max_index) for p in primes]
    from . import workers

    return workers.run(lambda p: scan_prime(p, max_index), primes[::-1], jobs)[::-1]


class DensityReport(NamedTuple):
    bound: int
    prime_max: int
    total: int
    covered: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.covered, self.total)

    def to_json_dict(self) -> dict:
        return {
            "B": self.bound,
            "prime_max": self.prime_max,
            "total": self.total,
            "covered": self.covered,
            "fraction": str(self.fraction),
            "fraction_float": float(self.fraction),
        }


def condition_tables(prime_max: int) -> dict:
    """The condition pairs (u, v) in F_p^2 of every prime 3 <= p <= prime_max."""
    return {p: list(satisfying_pairs(p)) for p in primes_between(3, prime_max)}


def density(bound: int, prime_max: int, jobs: int = 1) -> DensityReport:
    """Exact coverage count over the integer square [-bound, bound]^2.

    Every condition table is closed under u -> -u: C1 lists both square
    roots of 3; C2 takes 2w + 1 over both roots w of w^2 + w + 1, which
    sum to -1, so the two values are negatives of each other; C3-C5 and C7
    list both signs, and C6 has u = 0. So rows u and -u of the box are
    alike, and the count marks the rows 0..bound only, half the cells.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    tables = condition_tables(prime_max)
    if jobs < 2:
        half = kernels.density_count(1, bound, bound, tables)
        covered = 2 * half + kernels.density_count(0, 0, bound, tables)
    else:
        from . import workers

        bands = []  # each worker files the pairs once, at its first band

        def count(k):
            if k is None:  # row 0
                return kernels.density_count(0, 0, bound, tables)
            if not bands:
                bands.extend(kernels.density_bands(1, bound, tables))
            u_lo, u_hi, band_tables = bands[k]
            return kernels.density_count(u_lo, u_hi, bound, band_tables)

        rows = range(1, bound + 1, kernels._BAND)
        counts = workers.run(count, [*range(len(rows)), None], jobs)
        covered = 2 * sum(counts[:-1]) + counts[-1]
    return DensityReport(bound, prime_max, (2 * bound + 1) ** 2, covered)
