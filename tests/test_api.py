"""The public API contract: the names ``eqdist`` exports, and that each imports;
and the functions the traced benchmark run rebinds by name."""

import importlib
import runpy
from pathlib import Path

import eqdist

PUBLIC_NAMES = [
    "ApproxCertificate", "BoundConfig", "BoundReport", "CertificateReport", "CertifyConfig",
    "EvenPolynomial", "Formula", "Point", "PointSet", "SearchConfig", "SearchResult", "Space",
    "SymMatrix", "approximate_abs_power", "approximation_error", "best_explicit_upper",
    "certify", "choose_degree", "cluster_combine", "cross_polytope", "distance",
    "distance_matrix", "distance_profile", "elementary_symmetric", "enumerate_bounds",
    "epsilon_rank_bound", "euclidean_simplex", "falling_factorial", "gram_thm3", "gram_thm4",
    "independence_rank_thm3", "independence_rank_thm4", "jackson_constant", "lower_bound",
    "lp_simplex", "matrix_thm1", "matrix_thm2", "matrix_thm5", "norm", "norm_sandwich_check",
    "numerical_rank", "product_construction", "rank_lower_bound", "search_equilateral",
    "simplex_lambda", "span_dim",
]


def test_all_is_the_public_api():
    assert sorted(eqdist.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from eqdist import *", namespace)  # reads every name in __all__
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []


def test_traced_functions_exist_unwrapped():
    # bench/tracing.py rebinds each of these by name; a rename, or a decorator
    # whose __wrapped__ the run takes for a leftover wrapper, would otherwise
    # surface only as a failed traced run
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    for modname, names in runpy.run_path(str(tracing))["TRACED"].items():
        module = importlib.import_module(modname)
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"{modname}.{name} is missing"
            assert not hasattr(fn, "__wrapped__"), f"{modname}.{name} is wrapped"
