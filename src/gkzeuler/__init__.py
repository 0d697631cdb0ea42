"""Exact and numerical tools for GKZ hypergeometric systems with
Euler-Laplace integral representations: integer linear algebra, block
configurations, regular triangulations, Gamma-series, intersection
pairings, and quadratic-relation verification."""

from .errors import (BadDimensions, DegenerateLifting, DegenerateParameter,
                     DivergentTail, ExhaustedRetries, GkzError,
                     LatticeNotFull, NonGenericParameter, NotATriangulation,
                     NotConvergent, NotUnimodular,
                     PoleAtNonpositiveInteger, ScaleTooSmall, SineZero,
                     SingularMatrix, UndefinedRatio, ZeroDenominator)
from .config import (Config, aomoto_gelfand_config, build_cayley,
                     confluent_config, get_config, is_very_generic,
                     registry_names)
from .triangulation import (Simplex, Triangulation,
                            enumerate_ladders, enumerate_regular_triangulations,
                            ladder_exponents, ladder_to_simplex,
                            make_simplex, normalized_volume,
                            staircase_triangulation, triangulate,
                            triangulation_from_simplices)
from .series import (SeriesValue, dual_gamma_series, gamma_series,
                     sample_point_in_UT)
from .intersection import (RelationReport, TwistVector, case_names,
                           exact_coefficient_identity, matsumoto_ag,
                           matsumoto_confluent,
                           period_relation_matrix_check, quadratic_lhs,
                           verify_case, zero_twist)

__version__ = "0.1.0"
