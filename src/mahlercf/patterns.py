"""Verifies the 9-periodic mod-p patterns that each residue condition forces
on the recurrence sequences (alpha_i, beta_i).

Pattern family n belongs to condition Cn, and its whole claim is one row of
residues mod p (``_family``). Every family applies its row by the same rules
at EVERY index, for k >= 0:

    alpha_{3k+1} = -u           alpha_{3k+2} + alpha_{3k+3} = u
    alpha_{9k+2}, alpha_{9k+8}  from the row
    alpha_{9k+5} = m alpha_{3k+2} + c  or  m alpha_{3k+3} + c
    beta_{9k+3} = beta_{9k+9}, beta_{9k+4}, beta_{9k+7}  from the row
    beta_{9k+6} = b6 beta_{3k+3}           beta_{9k+1} = beta_{3k+1}
    beta_{3k+4} + beta_{3k+5} = beta_2

with m = 1, c = 0 and b6 = 1, except in family 7 (m = 1/3, c = u/3,
b6 = 1/9). Family 6 claims u = 0, so every one of its alphas is 0. The
checker materialises the full expected sequences and compares them
entry-by-entry against an actual run, so a perturbation of any single entry
is caught. The sequences are built nine indices at a time: in a block of
nine only alpha_{9k+5}, alpha_{9k+6}, beta_{9k+1}, beta_{9k+2} and
beta_{9k+6} are not constants of the row, and they read indices near 3k.
A family's nonzero catalog is the set of its expected betas
beta_3 .. beta_{9K+9}.

Sign handling: replacing u by -u flips every alpha and fixes every beta
(immediate from the defining formulas), so the minus-sign member of a
+-phi family follows the same pattern with the explicit alpha constants
negated. Family 6 carries its sign on v; its beta pattern is uniform when
written in terms of v (beta_2 = -v, beta_{3k+3} = v, beta_{9k+4} = 1/v,
beta_{9k+7} = v/delta).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import recurrence
from .conditions import ConditionWitness, iter_witnesses
from .fields import check_odd_prime


class LemmaSpec(NamedTuple):
    """One verifiable pattern instance: family, prime, parameters, depth."""

    lemma: int  # 1..7, pattern family of condition C<lemma>
    p: int
    u: int
    v: int
    phi: Optional[int] = None
    delta: Optional[int] = None
    sign: int = 1
    blocks: int = 100  # K: indices 1 .. 9K+9 are verified

    @property
    def depth(self) -> int:
        return 9 * self.blocks + 9


class Violation(NamedTuple):
    index: int
    sequence: str  # "alpha" or "beta"
    expected: int
    actual: int


class LemmaReport(NamedTuple):
    spec: LemmaSpec
    passed: bool
    first_violation: Optional[Violation] = None
    run_failure: Optional[recurrence.Failure] = None

    def to_json_dict(self) -> dict:
        s = self.spec
        out = {
            "lemma": s.lemma,
            "p": s.p,
            "params": {
                "u": s.u,
                "v": s.v,
                "phi": s.phi,
                "delta": s.delta,
                "sign": s.sign,
            },
            "K": s.blocks,
            "pass": self.passed,
        }
        if self.first_violation is not None:
            out["violation"] = self.first_violation._asdict()
        if self.run_failure is not None:
            out["run_failure"] = self.run_failure._asdict()
        return out


def spec_from_witness(w: ConditionWitness, blocks: int = 100) -> LemmaSpec:
    return LemmaSpec(
        lemma=int(w.case[1]),
        p=w.p,
        u=w.u,
        v=w.v,
        phi=w.phi,
        delta=w.delta,
        sign=w.sign,
        blocks=blocks,
    )


def specs_for_prime(p: int, blocks: int = 100, lemma: Optional[int] = None) -> list[LemmaSpec]:
    """One spec per enumerated witness (every root, both signs), of every
    family or of family ``lemma`` alone."""
    case = None if lemma is None else f"C{lemma}"
    return [spec_from_witness(w, blocks) for w in iter_witnesses(p, case)]


class _Row(NamedTuple):
    """One family's claim: the residues mod p it forces, k >= 0 throughout."""

    src: int  # alpha_{9k+5} = m * alpha_{3k+src} + c, src 2 or 3 (not a residue)
    u: int  # alpha_{3k+1} = -u and alpha_{3k+2} + alpha_{3k+3} = u
    beta2: int  # beta_2, also beta_{3k+4} + beta_{3k+5}
    b3: int  # beta_{9k+3} = beta_{9k+9}
    b4: int  # beta_{9k+4}
    b7: int  # beta_{9k+7}
    a2: int  # alpha_{9k+2}
    a8: int  # alpha_{9k+8}
    b6: int = 1  # beta_{9k+6} = b6 * beta_{3k+3}
    m: int = 1
    c: int = 0


def _family(spec: LemmaSpec) -> _Row:
    """The row of family ``spec.lemma`` at ``spec``'s parameters.

    A parameter with no inverse mod p raises ValueError.
    """
    p, u, v, s = spec.p, spec.u % spec.p, spec.v % spec.p, spec.sign
    f, d, fam = spec.phi, spec.delta, spec.lemma
    # each row: _Row(src, u, beta2, b3, b4, b7, a2, a8[, b6, m, c])
    if fam == 1:
        row = _Row(3, u, 2, 1, 1, 1, u, 0)
    elif fam == 2:
        row = _Row(2, u, -2, -1, -1, -1, 0, u)
    elif fam == 3:
        row = _Row(2, u, f * f, -f * f, -f, -1, -s, -s * f * f)
    elif fam == 4:
        g = pow(f, -1, p)
        row = _Row(3, u, f * f + 1, g * g, f * f, 1, -s * g, s * (f + g))
    elif fam == 5:
        e = pow(d, -1, p)
        row = _Row(3, u, d, -d, -e, 1, s * f * e, s * f * d)
    elif fam == 6:  # u = 0 is part of the claim, so every alpha is 0
        row = _Row(2, 0, -v, v, pow(v, -1, p), v * pow(d, -1, p), 0, 0)
    elif fam == 7:
        t = pow(3, -1, p)
        row = _Row(2, u, 3 * d, -d * t, -3 * pow(d, -1, p), -3,
                   -s * (2 * d + 4) * t, -s * (4 * d + 2) * t, b6=t * t, m=t, c=u * t)
    else:
        raise ValueError(f"unknown pattern family {fam}")
    return _Row(row.src, *(x % p for x in row[1:]))


def expected_sequences(spec: LemmaSpec, n: int) -> tuple[list[int], list[int]]:
    """The full pattern-determined sequences alpha_1..alpha_n, beta_1..beta_n.

    Returned as 1-based lists (index 0 unused): the family's row applied at
    every index, cross-scale slots read from the same lists at index/3.
    Indices 1..4 come first; then each step appends the nine indices
    9k+5 .. 9k+13, in which only alpha_{9k+5}, alpha_{9k+6}, beta_{9k+6},
    beta_{9k+10} and beta_{9k+11} are not constants of the row. They read
    indices 3k+2 .. 3k+4, which the lists already hold. A negative n
    raises ValueError.
    """
    if n < 0:
        raise ValueError(f"sequence length {n} is negative")
    p = spec.p
    src, u, beta2, b3, b4, b7, a2, a8, b6, m, c = _family(spec)
    neg_u, a3, a9 = -u % p, (u - a2) % p, (u - a8) % p
    b5, b8 = (beta2 - b4) % p, (beta2 - b7) % p
    A = [0, neg_u, a2, a3, neg_u]
    B = [0, 1 % p, beta2, b3, b4]
    k = 0
    while len(A) <= n:
        a5 = (m * A[3 * k + src] + c) % p
        b10 = B[3 * k + 4]
        A += (a5, (u - a5) % p, neg_u, a8, a9, neg_u, a2, a3, neg_u)
        B += (b5, b6 * B[3 * k + 3] % p, b7, b8, b3, b10, (beta2 - b10) % p, b3, b4)
        k += 1
    return A[: n + 1], B[: n + 1]


def check_run_against(spec: LemmaSpec, alphas, betas, n: int) -> Optional[Violation]:
    """First index where the run deviates from the family pattern, if any."""
    exp_a, exp_b = expected_sequences(spec, n)
    if alphas[1 : n + 1] == exp_a[1:] and betas[1 : n + 1] == exp_b[1:]:
        return None
    for i in range(1, n + 1):
        if alphas[i] != exp_a[i]:
            return Violation(i, "alpha", exp_a[i], alphas[i])
        if betas[i] != exp_b[i]:
            return Violation(i, "beta", exp_b[i], betas[i])


def verify_lemma(spec: LemmaSpec) -> LemmaReport:
    """Run the recurrence mod p to index 9K+9 and check every congruence.

    A beta hitting zero before 9K+9 is itself a pattern violation and is
    reported as the run failure.
    """
    check_odd_prime(spec.p)
    n = spec.depth
    alphas, betas, failure = recurrence.history_mod_p(spec.u, spec.v, spec.p, n)
    if failure is not None:
        return LemmaReport(spec, passed=False, run_failure=failure)
    violation = check_run_against(spec, alphas, betas, n)
    return LemmaReport(spec, passed=violation is None, first_violation=violation)


def nonzero_beta_catalog(spec: LemmaSpec) -> set[int]:
    """The residues the family forces beta_3 .. beta_{9K+9} into: the set of
    expected betas, refused if it holds 0."""
    _, betas = expected_sequences(spec, spec.depth)
    values = set(betas[3:])
    if 0 in values:
        raise AssertionError(f"family {spec.lemma} catalog contains 0 mod {spec.p}")
    return values
