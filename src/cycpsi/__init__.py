"""Exact arithmetic for Fleck sums, normalized cyclotomic psi-coefficients,
the Frobenius/psi operator pair, and sweep verification of their
Lucas-type congruences."""

from .exactmath import (
    NotPIntegralError,
    binom,
    congruent_mod_p_power,
    factorial,
    is_prime,
    ord_p,
)
from .coefficients import (
    IntegrityError,
    fleck_sum_general,
    floor_exponent,
    index_reduction_identity,
    normalized_parts,
    recurrence_residue,
    t_coeff,
    totient_prime_power,
)
from .psi_series import (
    TruncPoly,
    monomial_twisted,
    phi_apply,
    projection_rule_check,
    psi_apply,
    psi_power,
)
from .verifier import (
    CHECK_IDS,
    CheckFailure,
    SweepGrid,
    VerificationReport,
    delta_for,
    residue_system,
    run_explore,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "NotPIntegralError",
    "binom",
    "congruent_mod_p_power",
    "factorial",
    "is_prime",
    "ord_p",
    "IntegrityError",
    "fleck_sum_general",
    "floor_exponent",
    "index_reduction_identity",
    "normalized_parts",
    "recurrence_residue",
    "t_coeff",
    "totient_prime_power",
    "TruncPoly",
    "monomial_twisted",
    "phi_apply",
    "projection_rule_check",
    "psi_apply",
    "psi_power",
    "CHECK_IDS",
    "CheckFailure",
    "SweepGrid",
    "VerificationReport",
    "delta_for",
    "residue_system",
    "run_explore",
    "run_sweep",
    "__version__",
]
