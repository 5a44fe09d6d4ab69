"""Equilateral and s-distance sets in lp spaces: bounds, constructions,
polynomial approximation, and rank certificates."""

from .approx import (ApproxCertificate, EvenPolynomial, approximate_abs_power,
                     approximation_error, choose_degree, jackson_constant)
from .bounds import (BoundConfig, BoundReport, Formula, best_explicit_upper,
                     cluster_combine, enumerate_bounds)
from .certify import (CertificateReport, CertifyConfig, SymMatrix, certify,
                      gram_thm3, gram_thm4, independence_rank_thm3,
                      independence_rank_thm4, matrix_thm1, matrix_thm2,
                      matrix_thm5, numerical_rank, rank_lower_bound, span_dim)
from .construct import (SearchConfig, SearchResult, cross_polytope,
                        distance_profile, euclidean_simplex, lp_simplex,
                        product_construction, search_equilateral, simplex_lambda)
from .space import PointSet, Space, distance, distance_matrix, norm, norm_sandwich_check

__version__ = "0.1.0"

__all__ = [
    "ApproxCertificate", "BoundConfig", "BoundReport", "CertificateReport",
    "CertifyConfig", "EvenPolynomial", "Formula", "PointSet", "SearchConfig",
    "SearchResult", "Space", "SymMatrix", "approximate_abs_power",
    "approximation_error", "best_explicit_upper", "certify", "choose_degree",
    "cluster_combine", "cross_polytope", "distance", "distance_matrix",
    "distance_profile", "enumerate_bounds", "euclidean_simplex", "gram_thm3",
    "gram_thm4", "independence_rank_thm3", "independence_rank_thm4", "jackson_constant",
    "lp_simplex", "matrix_thm1", "matrix_thm2", "matrix_thm5", "norm",
    "norm_sandwich_check", "numerical_rank", "product_construction", "rank_lower_bound",
    "search_equilateral", "simplex_lambda", "span_dim",
]
