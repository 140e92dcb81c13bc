"""Oscillation-based Chebyshev-Gruss bound verification for linear operators."""

from .bounds import BoundResult
from .funcspace import (CORPUS_NAMES, ModulusEnvelope, NodeSet, RealFunction,
                        concave_majorant, envelope_of, modulus, oscillation,
                        range_on_grid, standard_corpus, uniform_grid)
from .lagrange import (lagrange_basis, lebesgue_constant, lebesgue_function,
                       pair_product_sum)
from .operators import (FAMILIES, OperatorSpec, PairForm, PointFunctional, apply,
                        baskakov_at, bbh_at, bernstein_at, chebyshev_T,
                        king_at, pairwise_identity,
                        parse_operator_spec, r_star, sdelta_at, szasz_at,
                        two_point)
from .special import (central_binom_scaled, king_sumsq, legendre_P,
                      phi_bernstein, phi_via_legendre, psi_bbh,
                      scaled_bessel_i0, second_moment, sigma_szasz, tau_hat,
                      theta_baskakov)
from .verify import (SuiteConfig, VerificationReport, conjecture_scan,
                     run_suite, sharpness_suite)

__version__ = "0.1.0"
