"""The truncated series of g and the continued-fraction machinery that
cross-checks the block recurrence.

A series is expand_g's list of coefficients for z^-1, z^-2, ..., its floor
at -len: g is always led by z^-1, so its polynomial part is zero. Every
coefficient down to the floor is exact, and any operation that would need
one below the floor raises InsufficientDepth instead of silently degrading.
That exactness is the whole point: the classical quotient-extraction
algorithm run on a deep-enough expansion is an independent oracle for the
recurrence's (alpha_i, beta_i).

The classical expansion  g = 1/(b_1 + 1/(b_2 + ...))  comes from a
remainder sequence, with no series inversion: s_-1 = 1, s_0 = g,
b_k+1 = polynomial part of s_k-1 / s_k, s_k+1 = s_k-1 - b_k+1 s_k, exact
down to floor s_k + deg b_k+1 (floors never fall). Inside cf_extract a
remainder is fraction-free: a primitive list of Python ints, one per
degree, times one rational scale (Brown's primitive remainder sequence).
The first deg b_k+1 + 1 entries of s_k-1 give b_k+1 by long division, the
rest give s_k+1 by integer products alone, and the gcd of s_k+1's list goes
into its scale. A quotient is emitted only when the coefficients its long
division reads lie at or above the floors; below them it could change with
a deeper expansion. A quotient of degree d costs O(depth * d) integer
operations, so n linear ones cost O(n * depth), on integers that still
grow with the quotients. The expansion is renormalised to constant
numerators over monic quotients via the equivalence transform
a_i = b_i/lam_i, beta_1 = 1/lam_1, beta_i = 1/(lam_{i-1} lam_i) for i >= 2,
where lam_i is the leading coefficient of b_i; beta_i needs only the ratio
of consecutive scales, so cf_extract never forms a scale itself. The
transform is validated by the oracle-equivalence tests, not trusted a
priori.

Quotients and convergents are coefficient lists, ascending by degree, []
for zero. No leading coefficient ever cancels (a quotient is monic, and in
p_k = a_k p_k-1 + beta_k p_k-2 the first term has the higher degree), so
the last entry is nonzero and a list of length n has degree n - 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd, lcm

from .fields import as_scalar


class InsufficientDepth(ArithmeticError):
    """The truncation floor is too shallow to certify the requested result.

    ``certified`` is set when a remainder is zero to its floor: the
    CFExpansion of the quotients certified before it.
    """

    def __init__(self, message: str, certified: CFExpansion | None = None):
        super().__init__(message)
        self.certified = certified


class NeedTwoTerms(ValueError):
    """The exponent estimate needs at least two denominator degrees."""


class CFExpansion:
    """Renormalised continued fraction: constant numerators over monic quotients."""

    def __init__(self, pairs: list):
        self.pairs = pairs  # [(beta_i, a_i)], 1-based by position

    def __len__(self):
        return len(self.pairs)

    def beta(self, i: int):
        return self.pairs[i - 1][0]

    def quotient(self, i: int) -> list:
        return self.pairs[i - 1][1]

    def all_linear(self) -> bool:
        return self.first_nonlinear() is None

    def first_nonlinear(self) -> int | None:
        for i, (_, a) in enumerate(self.pairs, start=1):
            if len(a) != 2:
                return i
        return None

    def linear_constants(self) -> list:
        """The alpha_i with a_i = z + alpha_i; raises on a nonlinear quotient."""
        bad = self.first_nonlinear()
        if bad is not None:
            raise ValueError(f"quotient {bad} has degree {len(self.quotient(bad)) - 1}, not 1")
        return [a[0] for _, a in self.pairs]

    def to_json_dict(self) -> dict:
        return {
            "a0": [],  # g has no polynomial part
            "terms": [{"beta": str(b), "a": [str(c) for c in a]} for b, a in self.pairs],
        }


def expand_g(u, v, depth: int) -> list:
    """The product  z^-1 * prod_t (1 + u z^-3^t + v z^-2*3^t)  to depth exact terms.

    Entry m is the coefficient of z^(-1-m). Degrees -1 .. -depth are exact
    (factors with 3^t > depth cannot touch them); the floor is -depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u = as_scalar(u)
    v = as_scalar(v)
    # The coefficient of z^(-1-m) is the product of (1, u, v)[d] over the
    # base-3 digits d of m: each factor t contributes 1, u z^-3^t or
    # v z^-2*3^t, one per digit of m at 3^t.
    digit = (1, u, v)
    c = [Fraction(1)]
    for m in range(1, depth):
        c.append(c[m // 3] * digit[m % 3])
    return c


def cf_extract(coeffs: list, max_terms: int) -> CFExpansion:
    """Classical quotient extraction, renormalised to (beta_i, monic a_i),
    from a series as expand_g returns it: coeffs[m] at z^(-1-m), the floor
    at -len(coeffs).

    Stops after max_terms quotients. Raises InsufficientDepth as soon as the
    next quotient is not fully determined by exact coefficients, at the point
    and with the message of inverting each remainder s_k / s_k-1 (whose
    relative precision is that of s_k); it never returns unreliable terms.

    Each remainder is a primitive list of ints times one rational scale
    (Brown's primitive remainder sequence, J. ACM 18, 1971): a step is
    integer products and one gcd, and only the quotient's coefficients and
    beta become Fractions.
    """
    if not any(coeffs):
        raise InsufficientDepth("series is zero to its floor; nothing to expand")
    # A remainder is its coefficient list from one degree below the valuation
    # of the remainder before it, down to its floor. Floors never fall, so a
    # quotient's degree is one more than the leading zeros of the remainder,
    # and only the remainder's own floor limits the long division.
    den = lcm(*(c.denominator for c in coeffs))
    cur = [c.numerator * (den // c.denominator) for c in coeffs]
    num = gcd(*cur)  # s_0 = (num / den) * cur
    if num > 1:
        cur = [c // num for c in cur]
    prev = [1] + [0] * len(coeffs)  # s_-1 = 1
    pairs = []
    for _ in range(max_terms):
        lead = next((j for j, c in enumerate(cur) if c), None)
        if lead is None:
            raise InsufficientDepth(
                "cannot invert a series that is zero to its floor", CFExpansion(pairs)
            )
        cur, deg = cur[lead:], lead + 1
        # long division reads cur down to deg degrees below its valuation
        n = len(cur)
        if n <= deg:
            raise InsufficientDepth("floor above degree 0: polynomial part not certified")
        # With s_k-1 = sp * prev and s_k = sc * cur, the coefficient of
        # z^(deg - i) in b_k+1 is (sp / sc) * q[i] / c0^(i + 1) with q[i] an
        # int, and s_k+1 = (sp / c0^(deg + 1)) * rest, where entry t of rest
        # is c0^(deg + 1) prev[t] - sum_i c0^(deg - i) q[i] cur[t - i]
        c0 = cur[0]
        q = []
        for t in range(deg + 1):
            acc = c0**t * prev[t]
            for i in range(t):
                acc -= c0 ** (t - i - 1) * q[i] * cur[t - i]
            q.append(acc)
        rest = [c0 ** (deg + 1) * x for x in prev[deg + 1:n]]
        for i, qi in enumerate(q):
            w = c0 ** (deg - i) * qi
            rest = [r - w * x for r, x in zip(rest, cur[deg + 1 - i:n - i])]
        content = gcd(*rest)
        if content > 1:
            rest = [r // content for r in rest]
        # beta_k+1 = 1 / (lam_k lam_k+1), lam the leading coefficient of b:
        # the scales cancel to num * c0 / (den * q[0]), where the step before
        # set num to the gcd it took out of s_k and den to its c0^deg * q[0];
        # before the first step num / den is s_0's scale, so beta_1 = 1 / lam_1
        monic = [Fraction(qi, q[0] * c0**i) for i, qi in enumerate(q)]
        pairs.append((Fraction(num * c0, den * q[0]), monic[::-1]))
        num, den = content, c0**deg * q[0]
        prev, cur = cur, rest
    return CFExpansion(pairs)


def _mul(a: list, b: list) -> list:
    """The product of two coefficient lists; [] is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def convergents(cf: CFExpansion, k: int):
    """(p_k, q_k) via p_n = a_n p_{n-1} + beta_n p_{n-2} (same for q), as
    coefficient lists."""
    if k < 0 or k > len(cf.pairs):
        raise IndexError(f"convergent {k} outside 0..{len(cf.pairs)}")
    p_prev, p, q_prev, q = [1], [], [], [1]
    for beta, a in cf.pairs[:k]:
        # a_n p_{n-1} is the longer list, except at p_1 = beta_1 (p_0 = 0)
        p, p_prev = [x + beta * y for x, y in zip_longest(_mul(a, p), p_prev, fillvalue=0)], p
        q, q_prev = [x + beta * y for x, y in zip_longest(_mul(a, q), q_prev, fillvalue=0)], q
    return p, q


def _cubed(q: list) -> list:
    """q(z^3)."""
    out = [0] * (3 * len(q) - 2)
    out[::3] = q
    return out


def convergent_is_g(u, v, cf: CFExpansion) -> bool:
    """True when the last convergent P/Q of cf is g itself, a proof that
    the continued fraction of g ends there.

    g(z) = (z^2 + u z + v) g(z^3), and a solution led by z^-1 is unique: the
    coefficient of z^(-1-m) on the right needs only those of degree above
    -1-m. So P/Q is g when it is led by z^-1 and
    P(z) Q(z^3) = (z^2 + u z + v) P(z^3) Q(z).
    """
    p, q = convergents(cf, len(cf))
    if not p or len(q) != len(p) + 1 or p[-1] != q[-1]:
        return False
    step = [as_scalar(v), as_scalar(u), 1]
    return _mul(p, _cubed(q)) == _mul(_mul(step, _cubed(p)), q)


def convergent_denominator_degrees(cf: CFExpansion) -> list[int]:
    """[deg q_0, deg q_1, ..., deg q_n] as prefix sums of the deg a_i.

    In q_k = a_k q_k-1 + beta_k q_k-2 the degrees rise strictly (deg a_k >= 1)
    and beta_k is a nonzero constant, so deg q_k = deg a_k + deg q_k-1.
    """
    return list(accumulate((len(a) - 1 for _, a in cf.pairs), initial=0))


def residual_valuation(coeffs: list, p_k: list, q_k: list) -> int:
    """||q_k g - p_k||; equals -(k+1) for a correct all-linear convergent.

    Raises InsufficientDepth when the residual is zero down to its floor,
    i.e. the expansion is too shallow to certify the valuation.
    """
    if not q_k:
        raise ValueError("multiplication by the zero polynomial discards the floor")
    floor = len(q_k) - 1 - len(coeffs)  # q_k g is exact down to here
    for d in range(max(len(q_k) - 2, len(p_k) - 1), floor - 1, -1):
        # g's coefficient of z^(d - j) is coeffs[j - d - 1], zero for j <= d;
        # p_k's of z^d is zero below degree 0 (a list index there wraps)
        residual = sum(c * coeffs[j - d - 1] for j, c in enumerate(q_k) if j > d)
        if residual != (p_k[d] if 0 <= d < len(p_k) else 0):
            return d
    raise InsufficientDepth(f"residual vanishes above floor {floor}: valuation not certified")


def mu_estimate(degrees) -> Fraction:
    """1 + max of consecutive ratios d_{k+1}/d_k over the observed window.

    A finite-depth upper-evidence estimate for the irrationality exponent;
    callers window by slicing the degree list. Ratios with a zero
    denominator entry (d_0 = 0) are skipped.
    """
    degrees = list(degrees)
    if len(degrees) < 2:
        raise NeedTwoTerms("need at least two degrees")
    ratios = [
        Fraction(b, a) for a, b in zip(degrees, degrees[1:]) if a != 0
    ]
    if not ratios:
        raise NeedTwoTerms("no usable consecutive ratio (zero denominators)")
    return 1 + max(ratios)
