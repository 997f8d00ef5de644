"""Degenerate genus-2 sigma-function toolkit.

Numerical machinery for quintic curves x^5 + l4 x^3 + l6 x^2 + l8 x + l10
whose actual genus drops to 1 or 0: stratum classification, evaluation of the
degenerate sigma-function through genus-1 Weierstrass functions, the
generalized Jacobi inversion problem, finite-gap Schroedinger potentials, and
the rank-3 period lattices with their three-periodic function field.
"""

from .elliptic import (EllipticContext, EllipticCurveParams, delta_gamma,
                       invert_wp, make_context, sigma_char, sigma_trig_limit,
                       sigma_w, wp, wp_prime, zeta_w)
from .errors import (AmbiguousClassification, BranchPointCase, DegenerateCurve,
                     NotBranchPoint, NotOnStratum, NotRealAlpha,
                     NotRealLattice, NumericalFailure, PoleAtArgument,
                     Sigma2Error, SingularConfiguration)
from .sigma import (DegenSigmaContext, SigmaDerivatives, context_lambda0,
                    context_lambda1, log_derivatives, make_degen_context,
                    p_function, sigma2, sigma2_baker_form, sigma2_u)
from .strata import (G2Params, StratumClassification, classify, discriminant,
                     gamma_vec, lambda_from_lambda0, lambda_from_lambda1,
                     tangency_residuals, vmatrix)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousClassification", "BranchPointCase", "DegenSigmaContext",
    "DegenerateCurve", "EllipticContext", "EllipticCurveParams", "G2Params",
    "NotBranchPoint", "NotOnStratum", "NotRealAlpha", "NotRealLattice",
    "NumericalFailure", "PoleAtArgument", "Sigma2Error",
    "SigmaDerivatives", "SingularConfiguration", "StratumClassification",
    "classify", "context_lambda0", "context_lambda1", "delta_gamma",
    "discriminant", "gamma_vec", "invert_wp", "lambda_from_lambda0",
    "lambda_from_lambda1", "log_derivatives", "make_context",
    "make_degen_context", "p_function", "sigma2", "sigma2_baker_form",
    "sigma2_u", "sigma_char", "sigma_trig_limit", "sigma_w",
    "tangency_residuals", "vmatrix", "wp", "wp_prime", "zeta_w",
]
