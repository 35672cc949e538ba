"""Rudin-Shapiro polynomials on the unit circle.

Construction of the pair (P_k, Q_k), exact structural identities, L_q
norms and Mahler measures on subarcs, root finding with zero censuses,
executable checks of the proved subarc inequalities, and exact GF(2)
certificates that skew-reciprocal Littlewood polynomials have no
unimodular zeros.
"""

from .core import (LittlewoodPolynomial, MAX_PAIR_K, ResourceLimitError,
                   RudinShapiroPair, SpecialValues, conjugate_relation_residual,
                   generate_pair, parallelogram_residual, special_values)
from .evaluate import (CirclePoint, GridSamples, circle_grid, circle_values,
                       eval_grid, eval_pair_point)
from .gf2 import (GF2Poly, MercerCertificate, gf2_divmod, gf2_gcd,
                  is_skew_reciprocal, mercer_certificate,
                  random_skew_reciprocal, real_imag_parts_gf2)
from .norms import (Arc, FULL_CIRCLE, NormEstimate, flatness_defect_mahler,
                    mahler_arc, mq_arc, mq_arcs, mq_limit_diagnostic)
from .roots import (RootSet, ZeroCensus, find_roots, jensen_mahler,
                    real_zero_count_exact, zero_census)
from .verify import (GAMMA, MAHLER_LIMIT_RATIO, DistributionReport,
                     InequalityReport, bernstein_ratio,
                     check_certified_intervals, check_lattice_pair_bound,
                     check_level_set_measure, check_subarc_moment_bounds,
                     mahler_asymptote_ratio, mahler_asymptote_trend,
                     run_verification, saffari_ratio, saffari_ratios,
                     saffari_trend, subarc_mahler_ratio, value_distribution)

__version__ = "0.1.0"
