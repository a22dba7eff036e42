"""Exponential sums, local solubility and circle-method diagnostics for
integer cubic polynomials."""

from .arch import (ArchContext, count_N, find_x0, main_term_report,
                   osc_integral_I, singular_integral)
from .errors import (AmbiguityError, BudgetExceededError, DegenerateSliceError,
                     InputError, NonLiftableError, SearchFailureError)
from .expsums import (ExpSum, ExpSumSpec, M_split_identity_check, complete_sum,
                      count_M, crt_sum, expsum_auto, ntilde, squarefull_parts,
                      theta_p)
from .padic import (CongruenceVerdict, PAdicWitness, congruence_condition,
                    count_zeros_mod_pk, hensel_lift, local_density,
                    nonsingular_zero_search)
from .poisson import PoissonReport, poisson_check
from .polynomials import CubicPolynomial, HomogeneousCubic, watson_polynomial
from .series import (PositivityVerdict, SeriesReport, positivity_certificate,
                     s0_term, series_partial)
from .slicing import (SliceCertificate, find_good_hyperplane,
                      slice_count_identity, slice_step, verify_certificate)

__all__ = [
    "ArchContext", "count_N", "find_x0", "main_term_report", "osc_integral_I",
    "singular_integral",
    "AmbiguityError", "BudgetExceededError", "DegenerateSliceError",
    "InputError", "NonLiftableError", "SearchFailureError",
    "ExpSum", "ExpSumSpec", "M_split_identity_check", "complete_sum",
    "count_M", "crt_sum", "expsum_auto", "ntilde", "squarefull_parts",
    "theta_p",
    "CongruenceVerdict", "PAdicWitness", "congruence_condition",
    "count_zeros_mod_pk", "hensel_lift", "local_density",
    "nonsingular_zero_search",
    "PoissonReport", "poisson_check",
    "CubicPolynomial", "HomogeneousCubic", "watson_polynomial",
    "PositivityVerdict", "SeriesReport", "positivity_certificate", "s0_term",
    "series_partial",
    "SliceCertificate", "find_good_hyperplane", "slice_count_identity",
    "slice_step", "verify_certificate",
]
__version__ = "0.1.0"
