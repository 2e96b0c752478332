"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
pass lines. All arithmetic below is exact; "tolerance" only ever means an
interval stated up front, never a float fudge.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from mahlercf.conditions import covered_up_to, satisfying_pairs
from mahlercf.fields import primes_between
from mahlercf.laurent import (
    cf_extract,
    convergent_denominator_degrees,
    convergents,
    expand_g,
    mu_estimate,
    residual_valuation,
)
from mahlercf.patterns import expected_sequences, specs_for_prime, verify_lemma
from mahlercf.recurrence import first_beta_zero, init_run, run_over_q
from mahlercf.search import density, scan_range

SEED = 20260810


def _report(name, detail=""):
    print(f"\nACCEPT {name}: PASS {detail}")


def _sample_linear_pairs(count, terms):
    """Pseudo-random pairs in [-10, 10]^2 with v != u^2 and no beta zero
    among the first `terms` indices."""
    rng = random.Random(SEED)
    out = []
    while len(out) < count:
        u, v = rng.randint(-10, 10), rng.randint(-10, 10)
        if v == u * u:
            continue
        run = init_run(u, v)
        if run.ok:
            run.extend(terms)
        if run.ok:
            out.append(((u, v), run))
    return out


def test_criterion_1_oracle_equivalence():
    """20 random pairs: recurrence == series-extraction, exactly, i <= 25."""
    terms = 25
    for (u, v), run in _sample_linear_pairs(20, terms):
        cf = cf_extract(expand_g(u, v, 2 * terms + 4), terms)
        assert cf.all_linear(), (u, v)
        alphas = cf.linear_constants()
        for i in range(1, terms + 1):
            assert cf.beta(i) == run.beta(i), (u, v, i)
            assert alphas[i - 1] == run.alpha(i), (u, v, i)
    _report("1 oracle equivalence", "20 pairs x 25 terms, exact")


def test_criterion_2_degree_law():
    """Same runs: deg q_k = k and ||q_k g - p_k|| = -(k+1) for k <= 25."""
    terms = 25
    for (u, v), _ in _sample_linear_pairs(20, terms):
        g = expand_g(u, v, 2 * terms + 4)
        cf = cf_extract(g, terms)
        assert convergent_denominator_degrees(cf) == list(range(terms + 1)), (u, v)
        for k in range(terms + 1):
            p_k, q_k = convergents(cf, k)
            assert residual_valuation(g, p_k, q_k) == -(k + 1), (u, v, k)
    _report("2 degree law", "deg q_k = k and residual valuation -(k+1), k <= 25")


def test_criterion_3_lemma_suite():
    """Every pattern instance with p <= 200, both signs, K = 100: zero
    violations, including the family-7 proof-table values at k = 0."""
    checked = 0
    for p in primes_between(3, 200):
        for spec in specs_for_prime(p, blocks=100):
            report = verify_lemma(spec)
            assert report.passed, (spec, report.first_violation, report.run_failure)
            if spec.lemma == 7:
                _, B = expected_sequences(spec, 9)
                d, q = spec.delta, spec.p
                assert B[2] == 3 * d % q
                assert B[4] == -3 * pow(d, q - 2, q) % q
                assert B[5] == -3 % q
            checked += 1
    assert checked >= 400
    _report("3 lemma suite", f"{checked} instances, p <= 200, K = 100")


def test_criterion_4_condition_soundness():
    """Every conditional pair for p <= 100 survives to horizon 10^4."""
    checked = 0
    for p in primes_between(3, 100):
        for (u, v) in satisfying_pairs(p):
            assert first_beta_zero(u, v, p, 10_000) is None, (u, v, p)
            checked += 1
    _report("4 condition soundness", f"{checked} pairs, horizon 10^4, zero deaths")


def test_criterion_4_results_keep_the_benchmark_order(monkeypatch):
    """The benchmark's soundness job lists [p, u, v, first zero] in the key
    order of satisfying_pairs(p) and pins the list's sha256
    (perfbench/checks.py, read here, not changed), so a reordered
    enumeration fails here before it fails the benchmark."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks

    results = [[p, u, v, first_beta_zero(u, v, p, 10_000)]
               for p in primes_between(3, 100) for (u, v) in satisfying_pairs(p)]
    assert len(results) == 222
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == checks.DIGESTS["soundness"]


def test_criterion_5_scan_replication():
    """For every prime 3 <= p <= 50 at N = 10^4: survivors == condition set."""
    results = scan_range(3, 50, 10_000)
    for res in results:
        assert res.extra_survivors == set(), (res.p, res.extra_survivors)
        assert res.missing == set(), (res.p, res.missing)
    _report(
        "5 scan replication",
        f"{len(results)} primes, survivors identical to condition sets",
    )


def test_criterion_6_density_replication():
    """density(B=1000, prime_max=1000) lands in [0.81, 0.83]."""
    rep = density(1000, 1000)
    frac = rep.fraction
    assert Fraction(81, 100) <= frac <= Fraction(83, 100), float(frac)
    _report("6 density replication", f"fraction = {float(frac):.4f} in [0.81, 0.83]")


def test_criterion_7_witness_pair_uncovered():
    """(2, -2) has no witness among primes <= 1000."""
    assert covered_up_to(2, -2, 1000) is None
    _report("7 witness pair", "(2, -2) uncovered for all primes <= 1000")


def test_criterion_8_failure_catalog():
    """(1,1) dies at index 2; (2,1) dies at the golden index 6 over Q."""
    run = init_run(1, 1)
    assert not run.ok and run.failure.index == 2 and run.beta(2) == 0
    run = run_over_q(2, 1, 1000)
    assert not run.ok and run.failure.index == 6 and run.beta(6) == 0
    _report("8 failure catalog", "(1,1) at 2; (2,1) at 6 (golden)")


def test_criterion_9_mu_estimate():
    """(5,1) and (2,3): tail-window estimate over k in [25, 50] is <= 2.04."""
    bound = Fraction(204, 100)
    for (u, v) in ((5, 1), (2, 3)):
        cf = cf_extract(expand_g(u, v, 2 * 51 + 4), 51)
        degrees = convergent_denominator_degrees(cf)
        estimate = mu_estimate(degrees[25:51])
        assert estimate <= bound, (u, v, estimate)
    _report("9 mu estimate", "tail-window estimates <= 2.04 for (5,1) and (2,3)")
