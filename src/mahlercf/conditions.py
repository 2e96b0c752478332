"""The seven local residue conditions on (u, v) mod p that force every beta
in the block recurrence to stay nonzero mod p (hence nonzero over Q, hence
all partial quotients linear).

Case table (p >= 3 prime; phi/delta are roots of the stated polynomials):

    C1  u^2 = 3,        v = 1
    C2  u^2 = -3,       v = -1
    C3  u = +-phi,      v = 0          phi^2 + phi + 1 = 0
    C4  u = +-phi,      v = -1         phi^4 + 4 phi^2 + 1 = 0
    C5  u = +-phi,      v = delta      delta^2 - delta + 1 = 0, phi^2 = 2 delta
    C6  u = 0,          v = +-delta    delta^2 + delta + 1 = 0
    C7  u = +-2 delta^2, v = delta     delta^2 + delta + 1 = 0, p != 3

Every case reads one of two root sets, each solved once per call of
iter_witnesses (fields.poly_roots_mod_p, square roots by Tonelli-Shanks):
r^2 = 3 for C1 and C4, omega^2 + omega + 1 = 0 for the other five. C2's
u = 2 omega + 1, since (2 omega + 1)^2 = -3; C4's phi^2 = r - 2, since
phi^4 + 4 phi^2 + 1 = (phi^2 + 2)^2 - 3; C5's delta = -omega, and its
phi^2 = 2 delta. C4 and C5 then solve one quadratic in phi per r or delta;
C3, C6 and C7 take omega as it is. Enumeration
(iter_witnesses, from the roots) and decision (check_pair, direct residue
tests) are two separate code paths; tests/test_conditions.py checks that
they agree on all of F_p^2 for every prime p < 50. check_pair keeps its
hand-written tests because deciding from the enumeration (candidate roots
+-u, +-v) was 3-6 times slower per pair for the same answers.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .fields import check_odd_prime, poly_roots_mod_p, primes_between


class ConditionWitness(NamedTuple):
    """One satisfied condition with the parameters that certify it."""

    case: str
    p: int
    u: int  # residues in [0, p)
    v: int
    phi: Optional[int] = None
    delta: Optional[int] = None
    sign: int = 1  # u = sign*phi (C3-C5), v = sign*delta (C6), u = sign*2*delta^2 (C7)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


def iter_witnesses(p: int, case: Optional[str] = None) -> Iterator[ConditionWitness]:
    """Every (case, parameter, sign) combination satisfied at p, or only
    those of ``case`` ("C1".."C7"), whose roots alone are then found.

    Distinct parameter choices may land on the same residue pair; consumers
    that want sets deduplicate at the pair level.
    """
    check_odd_prime(p)
    if case in (None, "C1", "C4"):
        root3 = sorted(poly_roots_mod_p([-3, 0, 1], p))
    if case in (None, "C2", "C3", "C5", "C6", "C7") and (case, p) != ("C7", 3):
        omega = sorted(poly_roots_mod_p([1, 1, 1], p))
    if case in (None, "C1"):
        for r in root3:
            yield ConditionWitness("C1", p, u=r, v=1 % p)
    if case in (None, "C2"):
        for r in sorted((2 * w + 1) % p for w in omega):
            yield ConditionWitness("C2", p, u=r, v=-1 % p)
    if case in (None, "C3"):
        for phi in omega:
            for s in (1, -1):
                yield ConditionWitness("C3", p, u=s * phi % p, v=0, phi=phi, sign=s)
    if case in (None, "C4"):
        for phi in sorted(x for r in root3 for x in poly_roots_mod_p([2 - r, 0, 1], p)):
            for s in (1, -1):
                yield ConditionWitness("C4", p, u=s * phi % p, v=-1 % p, phi=phi, sign=s)
    if case in (None, "C5"):
        for delta in sorted(-w % p for w in omega):
            for phi in sorted(poly_roots_mod_p([-2 * delta, 0, 1], p)):
                for s in (1, -1):
                    yield ConditionWitness(
                        "C5", p, u=s * phi % p, v=delta, phi=phi, delta=delta, sign=s
                    )
    if case in (None, "C6"):
        for delta in omega:
            for s in (1, -1):
                yield ConditionWitness("C6", p, u=0, v=s * delta % p, delta=delta, sign=s)
    if case in (None, "C7") and p != 3:
        for delta in omega:
            for s in (1, -1):
                yield ConditionWitness(
                    "C7", p, u=s * 2 * delta * delta % p, v=delta, delta=delta, sign=s
                )


def satisfying_pairs(p: int) -> dict[tuple[int, int], list[ConditionWitness]]:
    """All residue pairs satisfying some condition at p, with their witnesses."""
    out: dict[tuple[int, int], list[ConditionWitness]] = {}
    for w in iter_witnesses(p):
        out.setdefault(w.pair, []).append(w)
    return out


def check_pair(u: int, v: int, p: int) -> list[ConditionWitness]:
    """Witnesses for (u mod p, v mod p), at most one per case.

    For cases with a +-sign the canonical witness takes sign +1 when both
    parameterisations match; the full enumeration (both signs, all roots)
    lives in iter_witnesses.
    """
    check_odd_prime(p)
    um, vm = u % p, v % p
    out = []
    if (um * um - 3) % p == 0 and vm == 1 % p:
        out.append(ConditionWitness("C1", p, u=um, v=vm))
    if (um * um + 3) % p == 0 and vm == -1 % p:
        out.append(ConditionWitness("C2", p, u=um, v=vm))
    if vm == 0:
        if (um * um + um + 1) % p == 0:
            out.append(ConditionWitness("C3", p, u=um, v=vm, phi=um, sign=1))
        elif (um * um - um + 1) % p == 0:
            out.append(ConditionWitness("C3", p, u=um, v=vm, phi=-um % p, sign=-1))
    if vm == -1 % p and (um ** 4 + 4 * um * um + 1) % p == 0:
        out.append(ConditionWitness("C4", p, u=um, v=vm, phi=um, sign=1))
    if (vm * vm - vm + 1) % p == 0 and (um * um - 2 * vm) % p == 0:
        out.append(ConditionWitness("C5", p, u=um, v=vm, phi=um, delta=vm, sign=1))
    if um == 0:
        if (vm * vm + vm + 1) % p == 0:
            out.append(ConditionWitness("C6", p, u=um, v=vm, delta=vm, sign=1))
        elif (vm * vm - vm + 1) % p == 0:
            # v = -delta with delta a root of x^2 + x + 1
            out.append(ConditionWitness("C6", p, u=um, v=vm, delta=-vm % p, sign=-1))
    if p != 3 and (vm * vm + vm + 1) % p == 0:
        if um == 2 * vm * vm % p:
            out.append(ConditionWitness("C7", p, u=um, v=vm, delta=vm, sign=1))
        elif um == -2 * vm * vm % p:
            out.append(ConditionWitness("C7", p, u=um, v=vm, delta=vm, sign=-1))
    return out


def covered(u: int, v: int, primes) -> Optional[ConditionWitness]:
    """First witness found scanning the given primes in ascending order."""
    for p in sorted(primes):
        ws = check_pair(u, v, p)
        if ws:
            return ws[0]
    return None


def covered_up_to(u: int, v: int, prime_max: int) -> Optional[ConditionWitness]:
    """covered() over all primes 3 <= p <= prime_max."""
    return covered(u, v, primes_between(3, prime_max))
