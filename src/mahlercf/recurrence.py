"""The block recurrence generating the partial-quotient data (alpha_i, beta_i).

A run is seeded from (u, v) with

    alpha_1 = -u                alpha_2 = u(2v - 1 - u^2)/(v - u^2)
    alpha_3 = -u(v - 1)/(v - u^2)
    beta_1  = 1                 beta_2  = u^2 - v
    beta_3  = (u^2 + u^4 + v^3 - 3u^2 v)/(v - u^2)^2

and extended three indices at a time, for k = 0, 1, 2, ...

    alpha_{3k+4} = -u           beta_{3k+4} = beta_{k+2}/(beta_{3k+3} beta_{3k+2})
    beta_{3k+5}  = u^2 - v - beta_{3k+4}
    alpha_{3k+5} = u - (alpha_{k+2} + uv - alpha_{3k+2} beta_{3k+4})/beta_{3k+5}
    alpha_{3k+6} = u - alpha_{3k+5}
    beta_{3k+6}  = v - alpha_{3k+5} alpha_{3k+6}

While every beta_i stays nonzero these are exactly the constants of the
continued fraction of the associated Mahler product, with monic linear
partial quotients a_i(z) = z + alpha_i. A vanishing beta is the interesting
event: it is recorded at its index, the run halts, and the index feeds the
survivor scans. Only beta_2, beta_3, beta_{3k+5} and beta_{3k+6} can vanish:
beta_{3k+4} is a quotient of earlier betas, all nonzero while the run lives,
so no step divides by zero.

Indexing is 1-based throughout, mirroring the subscripts above; the step
3k+4 reads back index k+2, so the full history is kept (O(n) scalars).
RecurrenceRun works over Q in Fractions (plain ints are lifted). Every run
mod p is the int loop ``kernels.run_history``, read through run_mod_p,
history_mod_p and first_beta_zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .fields import as_scalar, check_odd_prime

BETA_ZERO = "beta_zero"


class ExtendAfterFailure(RuntimeError):
    """Raised when extending a run that already failed."""


@dataclass(frozen=True)
class Failure:
    index: int
    cause: str  # always BETA_ZERO


class RecurrenceRun:
    """The evolving (alpha_i, beta_i) sequences over Q for one pair (u, v).

    ``alpha(i)``/``beta(i)`` are 1-based. On BETA_ZERO the zero entry exists
    (``beta(failure.index) == 0``) and nothing beyond it; the alpha list may
    then be one entry shorter when the failure hit an index of the form
    3k+5. Completed or failed runs are immutable in spirit: only
    :meth:`extend` appends, and only while ``ok``.
    """

    __slots__ = ("u", "v", "_alphas", "_betas", "failure")

    def __init__(self, u, v):
        u = as_scalar(u)
        v = as_scalar(v)
        self.u = u
        self.v = v
        self.failure = None
        b2 = u * u - v
        self._alphas = [-u]
        self._betas = [Fraction(1), b2]
        if b2 == 0:
            self.failure = Failure(2, BETA_ZERO)
            return
        d = v - u * u
        self._alphas.append(u * (2 * v - 1 - u * u) / d)
        self._alphas.append(-u * (v - 1) / d)
        b3 = (u * u + u ** 4 + v ** 3 - 3 * u * u * v) / (d * d)
        self._betas.append(b3)
        if b3 == 0:
            self.failure = Failure(3, BETA_ZERO)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __len__(self):
        # number of recorded beta entries
        return len(self._betas)

    def alpha(self, i: int):
        if not 1 <= i <= len(self._alphas):
            raise IndexError(f"alpha index {i} outside 1..{len(self._alphas)}")
        return self._alphas[i - 1]

    def beta(self, i: int):
        if not 1 <= i <= len(self._betas):
            raise IndexError(f"beta index {i} outside 1..{len(self._betas)}")
        return self._betas[i - 1]

    @property
    def alphas(self) -> tuple:
        return tuple(self._alphas)

    @property
    def betas(self) -> tuple:
        return tuple(self._betas)

    def _step_block(self) -> None:
        # appends indices 3k+4 .. 3k+6; sets self.failure on a zero
        u, v = self.u, self.v
        a, b = self._alphas, self._betas
        k = len(b) // 3 - 1
        a.append(-u)
        b4 = b[k + 1] / (b[3 * k + 2] * b[3 * k + 1])  # beta_{k+2}/(beta_{3k+3} beta_{3k+2})
        b.append(b4)
        b5 = u * u - v - b4
        b.append(b5)
        if b5 == 0:
            self.failure = Failure(3 * k + 5, BETA_ZERO)
            return
        a5 = u - (a[k + 1] + u * v - a[3 * k + 1] * b4) / b5
        a.append(a5)
        a6 = u - a5
        a.append(a6)
        b6 = v - a5 * a6
        b.append(b6)
        if b6 == 0:
            self.failure = Failure(3 * k + 6, BETA_ZERO)

    def extend(self, target_len: int) -> "RecurrenceRun":
        """Grow the run in blocks of three until len(self) >= target_len.

        The final length lands on the next multiple of 3. Raises
        ExtendAfterFailure when called on a failed run.
        """
        if self.failure is not None:
            raise ExtendAfterFailure(
                f"run for (u, v) = ({self.u}, {self.v}) failed at index "
                f"{self.failure.index} ({self.failure.cause})"
            )
        while self.ok and len(self._betas) < target_len:
            self._step_block()
        return self


def init_run(u, v) -> RecurrenceRun:
    """Seed a run of length 3 (or a recorded failure at index 2 or 3)."""
    return RecurrenceRun(u, v)


def extend_run(run: RecurrenceRun, target_len: int) -> RecurrenceRun:
    """Extend ``run`` to at least ``target_len`` recorded indices."""
    return run.extend(target_len)


def run_over_q(u, v, n: int) -> RecurrenceRun:
    """Run over Q to length >= n or first failure."""
    run = RecurrenceRun(u, v)
    if run.ok:
        run.extend(n)
    return run


@dataclass(frozen=True)
class ModPRun:
    """A finished run over F_p, read-only: residues u, v in [0, p) and the
    alphas/betas that RecurrenceRun would record, as tuples of residues."""

    u: int
    v: int
    alphas: tuple
    betas: tuple
    failure: Failure | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_mod_p(u: int, v: int, p: int, n: int) -> ModPRun:
    """Run over F_p to length >= n or first failure.

    Like run_over_q, a failure inside the last block counts even past n.
    """
    check_odd_prime(p)
    alphas, betas, idx, _ = kernels.run_history(u, v, p, max(n, 3))
    failure = Failure(idx, BETA_ZERO) if idx else None
    return ModPRun(u % p, v % p, tuple(alphas[1:]), tuple(betas[1:]), failure)


def history_mod_p(u: int, v: int, p: int, n: int):
    """Int-level run mod p, to the block boundary >= n or first failure.

    Returns (alphas, betas, failure): the lists of ``kernels.run_history``
    (1-based, slot 0 unused) and a Failure or None. A failure index beyond
    n does not count: the run survived the requested horizon.
    """
    check_odd_prime(p)
    alphas, betas, idx, _ = kernels.run_history(u, v, p, n)
    failure = Failure(idx, BETA_ZERO) if 0 < idx <= n else None
    return alphas, betas, failure


def first_beta_zero(u: int, v: int, p: int, max_index: int) -> int | None:
    """Smallest index i <= max_index with beta_i = 0 in F_p, else None.

    This is the survivor-test primitive for the residue scans.
    """
    check_odd_prime(p)
    idx = kernels.first_zero(u, v, p, max_index)
    return idx if idx else None
