"""mahlercf: exact continued-fraction data for the cubic Mahler products

    g(z) = z^-1 * prod_{t>=0} (1 + u z^-(3^t) + v z^-(2*3^t)),  u, v exact,

computed two independent ways (a block recurrence and classical quotient
extraction from the truncated series), plus the mod-p machinery: the seven
local residue conditions forcing all partial quotients linear, their
9-periodic pattern verification, exhaustive F_p^2 survivor scans, and the
integer-pair coverage density.
"""

from .conditions import ConditionWitness, check_pair, covered, covered_up_to, satisfying_pairs
from .fields import is_prime, poly_roots_mod_p, primes_between
from .laurent import (
    CFExpansion,
    InsufficientDepth,
    NeedTwoTerms,
    cf_extract,
    convergents,
    expand_g,
    mu_estimate,
    residual_valuation,
)
from .patterns import LemmaSpec, nonzero_beta_catalog, specs_for_prime, verify_lemma
from .recurrence import (
    BETA_ZERO,
    ExtendAfterFailure,
    Failure,
    RecurrenceRun,
    extend_run,
    first_beta_zero,
    init_run,
    run_mod_p,
    run_over_q,
)
from .search import DensityReport, ScanResult, density, scan_prime, scan_range

__version__ = "0.1.0"

__all__ = [
    "BETA_ZERO",
    "CFExpansion",
    "ConditionWitness",
    "DensityReport",
    "ExtendAfterFailure",
    "Failure",
    "InsufficientDepth",
    "LemmaSpec",
    "NeedTwoTerms",
    "RecurrenceRun",
    "ScanResult",
    "cf_extract",
    "check_pair",
    "convergents",
    "covered",
    "covered_up_to",
    "density",
    "expand_g",
    "extend_run",
    "first_beta_zero",
    "init_run",
    "is_prime",
    "mu_estimate",
    "nonzero_beta_catalog",
    "poly_roots_mod_p",
    "primes_between",
    "residual_valuation",
    "run_mod_p",
    "run_over_q",
    "satisfying_pairs",
    "scan_prime",
    "scan_range",
    "specs_for_prime",
    "verify_lemma",
]
