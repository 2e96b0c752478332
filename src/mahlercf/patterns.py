"""Verifies the 9-periodic mod-p patterns that each residue condition forces
on the recurrence sequences (alpha_i, beta_i).

Pattern family n belongs to condition Cn. Each family pins down EVERY index:
alpha_{3k+1} = -u always; the 3k+3 class follows the sum rule
alpha_{3k+2} + alpha_{3k+3} = u; the 3k+2 class is 9-periodic with one
cross-scale slot (alpha_{9k+5} refers back to index 3k+2 or 3k+3). The beta
side pairs explicit values on the 3k+3 class with the sum rule
beta_{3k+4} + beta_{3k+5} = u^2 - v and a 9-periodic layer whose 9k+1 slot
refers back to beta_{3k+1} (and, for family 7, a 9k+6 slot that rescales
beta_{3k+3} by 1/9). The checker materialises the full expected sequences
and compares them entry-by-entry against an actual run, so a perturbation
of any single entry is caught.

Sign handling: replacing u by -u flips every alpha and fixes every beta
(immediate from the defining formulas), so the minus-sign member of a
+-phi family follows the same pattern with the explicit alpha constants
negated. Family 6 carries its sign on v; its beta pattern is uniform when
written in terms of v (beta_2 = -v, beta_{3k+3} = v, beta_{9k+4} = 1/v,
beta_{9k+7} = v/delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import recurrence
from .conditions import ConditionWitness, iter_witnesses
from .fields import check_odd_prime


@dataclass(frozen=True)
class LemmaSpec:
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

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "p": self.p,
            "u": self.u,
            "v": self.v,
            "phi": self.phi,
            "delta": self.delta,
            "sign": self.sign,
            "K": self.blocks,
        }


@dataclass
class Violation:
    index: int
    sequence: str  # "alpha" or "beta"
    expected: int
    actual: int


@dataclass
class LemmaReport:
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
            v = self.first_violation
            out["violation"] = {
                "index": v.index,
                "sequence": v.sequence,
                "expected": v.expected,
                "actual": v.actual,
            }
        if self.run_failure is not None:
            out["run_failure"] = {
                "index": self.run_failure.index,
                "cause": self.run_failure.cause,
            }
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


def specs_for_prime(p: int, blocks: int = 100) -> list[LemmaSpec]:
    """One spec per enumerated witness (every root, both signs)."""
    return [spec_from_witness(w, blocks) for w in iter_witnesses(p)]


def _inv(a: int, p: int) -> int:
    if a % p == 0:
        raise ZeroDivisionError(f"inverse of 0 mod {p} in a pattern formula")
    return pow(a, p - 2, p)


def expected_sequences(spec: LemmaSpec, n: int) -> tuple[list[int], list[int]]:
    """The full pattern-determined sequences alpha_1..alpha_n, beta_1..beta_n.

    Returned as 1-based lists (index 0 unused). Every rule the family
    asserts is encoded, including the cross-scale slots read from the same
    sequences at index/3 scale.
    """
    p, u, v, s = spec.p, spec.u % spec.p, spec.v % spec.p, spec.sign
    phi = spec.phi
    delta = spec.delta
    fam = spec.lemma
    if fam not in range(1, 8):
        raise ValueError(f"unknown pattern family {fam}")

    A = [0] * (n + 1)
    B = [0] * (n + 1)

    # --- per-family slot values -------------------------------------------
    if fam == 1:
        beta2, beta_sum = 2 % p, 2 % p  # u^2 - v = 3 - 1
        b_9k4, b_9k7 = 1 % p, 1 % p
        b_3k3 = 1 % p
        a_9k2, a_9k8 = u, 0
        a_9k5_src = 3  # alpha_{9k+5} = alpha_{3k+3}
    elif fam == 2:
        beta2 = beta_sum = -2 % p
        b_9k4, b_9k7 = -1 % p, -1 % p
        b_3k3 = -1 % p
        a_9k2, a_9k8 = 0, u
        a_9k5_src = 2
    elif fam == 3:
        f = phi % p
        beta2 = beta_sum = f * f % p
        b_9k4, b_9k7 = -f % p, -1 % p
        b_3k3 = -f * f % p
        a_9k2, a_9k8 = -s % p, -s * f * f % p
        a_9k5_src = 2
    elif fam == 4:
        f = phi % p
        finv = _inv(f, p)
        beta2 = beta_sum = (f * f + 1) % p
        b_9k4, b_9k7 = f * f % p, 1 % p
        b_3k3 = finv * finv % p
        a_9k2, a_9k8 = -s * finv % p, s * (f + finv) % p
        a_9k5_src = 3
    elif fam == 5:
        f, d = phi % p, delta % p
        beta2 = beta_sum = d
        b_9k4, b_9k7 = -_inv(d, p) % p, 1 % p
        b_3k3 = -d % p
        a_9k2, a_9k8 = s * f * _inv(d, p) % p, s * f * d % p
        a_9k5_src = 3
    elif fam == 6:
        d = delta % p
        beta2 = -v % p
        beta_sum = -v % p
        b_9k4, b_9k7 = _inv(v, p), v * _inv(d, p) % p
        b_3k3 = v
        a_9k2 = a_9k8 = 0
        a_9k5_src = 2  # irrelevant: every alpha is 0
    else:  # fam == 7
        d = delta % p
        inv3 = _inv(3, p)
        inv9 = inv3 * inv3 % p
        beta2 = beta_sum = 3 * d % p
        b_9k4, b_9k7 = -3 * _inv(d, p) % p, -3 % p
        b_3k3 = None  # 3k+3 class is itself 9-periodic, handled below
        a_9k2, a_9k8 = -s * (2 * d + 4) * inv3 % p, -s * (4 * d + 2) * inv3 % p
        a_9k5_src = None  # alpha_{9k+5} = (u + alpha_{3k+2})/3

    # --- alphas -------------------------------------------------------------
    if fam != 6:  # family 6 keeps every alpha at 0
        for i in range(1, n + 1):
            r = (i - 1) % 9 + 1
            if i % 3 == 1:
                A[i] = -u % p
            elif r == 2:
                A[i] = a_9k2
            elif r == 8:
                A[i] = a_9k8
            elif r == 5:
                if fam == 7:
                    A[i] = (u + A[(i + 1) // 3]) * inv3 % p
                else:
                    src = (i + 1) // 3 if a_9k5_src == 2 else (i + 4) // 3
                    A[i] = A[src]
            else:  # 3k+3 class: sum rule alpha_{3k+2} + alpha_{3k+3} = u
                A[i] = (u - A[i - 1]) % p

    # --- betas ----------------------------------------------------------------
    B[1] = 1 % p
    if n >= 2:
        B[2] = beta2
    for i in range(3, n + 1):
        r = (i - 1) % 9 + 1
        if i % 3 == 0:
            if fam == 7:
                if r == 6:
                    B[i] = B[(i + 3) // 3] * inv9 % p
                else:  # r == 3 or r == 9
                    B[i] = -d * inv3 % p
            else:
                B[i] = b_3k3
        elif r == 1:
            B[i] = B[(i + 2) // 3]
        elif r == 4:
            B[i] = b_9k4
        elif r == 7:
            B[i] = b_9k7
        else:  # r in {2, 5, 8}: sum rule beta_{3k+4} + beta_{3k+5} = u^2 - v
            B[i] = (beta_sum - B[i - 1]) % p
    return A, B


def check_run_against(spec: LemmaSpec, alphas, betas, n: int) -> Optional[Violation]:
    """First index where the run deviates from the family pattern, if any."""
    exp_a, exp_b = expected_sequences(spec, n)
    if alphas[1 : n + 1] == exp_a[1:] and betas[1 : n + 1] == exp_b[1:]:
        return None
    for i in range(1, n + 1):
        if int(alphas[i]) != exp_a[i]:
            return Violation(i, "alpha", exp_a[i], int(alphas[i]))
        if int(betas[i]) != exp_b[i]:
            return Violation(i, "beta", exp_b[i], int(betas[i]))
    return None


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
    """The finite residue set the family forces beta_i (i >= 3) into.

    Families 1-6 have closed three-value (or one-value) sets; family 7 adds
    the inductive 1/9 rescalings of the 3k+3 class, generated here down to
    the scale depth reachable within the spec's verified range. Every member
    is checked nonzero.
    """
    p = spec.p
    fam = spec.lemma
    if fam == 1:
        values = {1 % p}
    elif fam == 2:
        values = {-1 % p}
    elif fam == 3:
        f = spec.phi % p
        values = {-1 % p, -f % p, -f * f % p}
    elif fam == 4:
        f = spec.phi % p
        values = {_inv(f * f, p), f * f % p, 1 % p}
    elif fam == 5:
        d = spec.delta % p
        values = {-d % p, -_inv(d, p) % p, 1 % p}
    elif fam == 6:
        v = spec.v % p
        d = spec.delta % p
        values = {v, _inv(v, p), v * _inv(d, p) % p}
    elif fam == 7:
        d = spec.delta % p
        inv3 = _inv(3, p)
        inv9 = inv3 * inv3 % p
        values = {-3 * _inv(d, p) % p, -3 % p}
        x = -d * inv3 % p
        depth = spec.depth
        scale = 3
        while scale <= depth:
            values.add(x)
            x = x * inv9 % p
            scale *= 3
    else:
        raise ValueError(f"unknown pattern family {fam}")
    for val in values:
        if val == 0:
            raise AssertionError(f"family {fam} catalog contains 0 mod {p}")
    return values
