"""Exhaustive survivor scans over F_p^2 and the integer-pair coverage density.

A scan runs the recurrence mod p for every residue pair and records the
first index whose beta vanishes (0 = survived to the horizon). Survivors are
compared against the enumerated condition pairs: ``missing`` (conditional
pairs that died) would be an implementation bug; ``extra_survivors`` are
findings to report, never auto-promoted to new conditions, since a survivor
at a finite horizon may die later.

The density experiment never runs the recurrence: each condition pair
(u0, v0) of a prime p covers every integer pair congruent to it mod p, a
lattice that is marked in one step. Work shards by u-row block; shards are
independent and merged by addition, so parallel and serial runs agree
exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from . import kernels
from .conditions import satisfying_pairs
from .fields import check_odd_prime, primes_between

if TYPE_CHECKING:
    import numpy

DEFAULT_HORIZON = 10_000


@dataclass
class ScanResult:
    """Survivors vs condition pairs for one prime at one horizon."""

    p: int
    max_index: int
    first_zero: numpy.ndarray  # (p, p) int32; 0 marks a survivor
    survivors: set = field(init=False)
    condition_pairs: set = field(init=False)

    def __post_init__(self):
        us, vs = (self.first_zero == 0).nonzero()
        self.survivors = {(int(u), int(v)) for u, v in zip(us, vs)}
        self.condition_pairs = set(satisfying_pairs(self.p))

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
        for u in range(self.p):
            for v in range(self.p):
                idx = int(self.first_zero[u, v])
                yield self.p, u, v, (idx if idx else "survived")


def scan_prime(p: int, max_index: int = DEFAULT_HORIZON) -> ScanResult:
    """Run every pair in F_p^2 to its first beta zero or the horizon."""
    check_odd_prime(p)
    grid = kernels.scan_grid(p, max_index)
    return ScanResult(p, max_index, grid)


def scan_range(p_min: int, p_max: int, max_index: int = DEFAULT_HORIZON,
               jobs: int = 1) -> list[ScanResult]:
    """scan_prime for every prime in [p_min, p_max], ascending.

    Primes are independent shards; with jobs > 1 they run on a thread pool,
    ordered by p, so the output is identical to a serial run. A scan is pure
    Python and holds the GIL, so more jobs give no speedup.
    """
    primes = primes_between(max(3, p_min), p_max)
    if jobs <= 1 or len(primes) <= 1:
        return [scan_prime(p, max_index) for p in primes]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda p: scan_prime(p, max_index), primes))


@dataclass
class DensityReport:
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
    """Exact coverage count over the integer square [-bound, bound]^2."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    tables = condition_tables(prime_max)
    total = (2 * bound + 1) ** 2
    if jobs <= 1:
        covered = kernels.density_count(-bound, bound, bound, tables)
    else:
        # jobs near-equal u-row slabs that partition [-bound, bound]
        edges = [-bound + (2 * bound + 1) * i // jobs for i in range(jobs + 1)]
        slabs = [(lo, hi - 1) for lo, hi in zip(edges, edges[1:]) if lo < hi]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(
                lambda s: kernels.density_count(s[0], s[1], bound, tables),
                slabs,
            )
            covered = sum(parts)
    return DensityReport(bound, prime_max, total, covered)
