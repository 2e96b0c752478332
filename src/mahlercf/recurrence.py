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

The seeds satisfy the rules for alpha_{3k+6} and beta_{3k+6} at k = -1,
alpha_3 = u - alpha_2 and beta_3 = v - alpha_2 alpha_3, and the engine
computes alpha_3 and beta_3 from alpha_2 by them.

While every beta_i stays nonzero these are exactly the constants of the
continued fraction of the associated Mahler product, with monic linear
partial quotients a_i(z) = z + alpha_i. A vanishing beta is the interesting
event: it is recorded at its index, the run halts, and the index feeds the
survivor scans. Only beta_2, beta_3, beta_{3k+5} and beta_{3k+6} can vanish:
beta_{3k+4} is a quotient of earlier betas, all nonzero while the run lives,
so no step divides by zero.

Indexing is 1-based throughout, mirroring the subscripts above; the step
3k+4 reads back index k+2, so a run keeps its full history (O(n)
scalars). The formulas are stepped in one place, ``kernels``: over Q in
Fractions (plain ints are lifted) and over F_p in int residues. A
RecurrenceRun is a view of one ``kernels.run_history`` run in either
arithmetic, which its extend continues, and history_mod_p reads its int
lists directly;
first_beta_zero asks ``kernels.first_zero``, which keeps no history.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernels
from .fields import as_scalar, check_odd_prime

BETA_ZERO = "beta_zero"


class ExtendAfterFailure(RuntimeError):
    """Raised when extending a run that already failed."""


class Failure(NamedTuple):
    index: int
    cause: str  # always BETA_ZERO


class RecurrenceRun:
    """The (alpha_i, beta_i) sequences of one pair (u, v), extended to length
    n (the seeds, 3, by default): over Q in Fractions by default, or over
    F_p for an odd prime p, where u, v and every entry are residues in [0, p).

    ``alpha(i)``/``beta(i)`` are 1-based. On BETA_ZERO the zero entry exists
    (``beta(failure.index) == 0``) and nothing beyond it; the alpha list may
    then be one entry shorter when the failure hit an index of the form
    3k+5. Only :meth:`extend` grows a run, and only while ``ok``.
    """

    __slots__ = ("u", "v", "p", "alphas", "betas", "failure")

    def __init__(self, u, v, p=kernels.Q, n: int = 3):
        if p is kernels.Q:
            u, v = as_scalar(u), as_scalar(v)
        else:
            check_odd_prime(p)
        self.u, self.v, self.p = u % p, v % p, p
        self.alphas, self.betas, self.failure = (), (), None
        self.extend(max(n, 3))

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __len__(self):
        # number of recorded beta entries
        return len(self.betas)

    def alpha(self, i: int):
        if not 1 <= i <= len(self.alphas):
            raise IndexError(f"alpha index {i} outside 1..{len(self.alphas)}")
        return self.alphas[i - 1]

    def beta(self, i: int):
        if not 1 <= i <= len(self.betas):
            raise IndexError(f"beta index {i} outside 1..{len(self.betas)}")
        return self.betas[i - 1]

    def extend(self, target_len: int) -> "RecurrenceRun":
        """Step whole blocks of three until len(self) >= target_len.

        The final length lands on the next multiple of 3. The run resumes
        from its own entries, so only the new indices are stepped. Raises
        ExtendAfterFailure when called on a failed run.
        """
        if self.failure is not None:
            raise ExtendAfterFailure(
                f"run for (u, v) = ({self.u}, {self.v}) failed at index "
                f"{self.failure.index} ({self.failure.cause})"
            )
        if len(self.betas) < target_len:
            args = self.u, self.v, self.p, target_len
            if self.betas:  # resume from this run's own entries
                args += ([0, *self.alphas], [0, *self.betas]),
            alphas, betas, idx = kernels.run_history(*args)
            del alphas[0], betas[0]  # the unused slot 0, in place: a slice copies
            self.alphas, self.betas = tuple(alphas), tuple(betas)
            self.failure = Failure(idx, BETA_ZERO) if idx else None
        return self


def init_run(u, v) -> RecurrenceRun:
    """Seed a run of length 3 (or a recorded failure at index 2 or 3)."""
    return RecurrenceRun(u, v)


def extend_run(run: RecurrenceRun, target_len: int) -> RecurrenceRun:
    """Extend ``run`` to at least ``target_len`` recorded indices."""
    return run.extend(target_len)


def run_over_q(u, v, n: int) -> RecurrenceRun:
    """Run over Q to length >= n or first failure."""
    return RecurrenceRun(u, v, n=n)


def run_mod_p(u: int, v: int, p: int, n: int) -> RecurrenceRun:
    """Run over F_p to length >= n or first failure.

    Like run_over_q, a failure inside the last block counts even past n.
    """
    return RecurrenceRun(u, v, p, n)


def history_mod_p(u: int, v: int, p: int, n: int):
    """Int-level run mod p, to the block boundary >= n or first failure.

    Returns (alphas, betas, failure): the lists of ``kernels.run_history``
    (1-based, slot 0 unused) and a Failure or None. A failure index beyond
    n does not count: the run survived the requested horizon.
    """
    check_odd_prime(p)
    alphas, betas, idx = kernels.run_history(u, v, p, n)
    failure = Failure(idx, BETA_ZERO) if 0 < idx <= n else None
    return alphas, betas, failure


def first_beta_zero(u: int, v: int, p: int, max_index: int) -> int | None:
    """Smallest index i <= max_index with beta_i = 0 in F_p, else None.

    This is the survivor-test primitive for the residue scans.
    """
    check_odd_prime(p)
    idx = kernels.first_zero(u, v, p, max_index)
    return idx if idx else None
