"""The public API contract: the names ``eqdist`` exports, that each imports,
their parameters and fields, and that they refuse NaN and inf; and the
functions the traced benchmark run rebinds by name."""

import ast
import dataclasses
import importlib
import inspect
import math
import re
import runpy
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import eqdist
from eqdist.bounds import kusner_even_upper
from eqdist.errors import InputError, ResourceLimitError, require_int, require_real

PUBLIC_NAMES = [
    "ApproxCertificate", "BoundConfig", "BoundReport", "CertificateReport", "CertifyConfig",
    "EvenPolynomial", "Formula", "PointSet", "SearchConfig", "SearchResult", "Space",
    "SymMatrix", "approximate_abs_power", "approximation_error", "best_explicit_upper",
    "certify", "choose_degree", "cluster_combine", "cross_polytope", "distance",
    "distance_matrix", "distance_profile", "enumerate_bounds", "euclidean_simplex",
    "gram_thm3", "gram_thm4", "independence_rank_thm3", "independence_rank_thm4",
    "jackson_constant", "lp_simplex", "matrix_thm1", "matrix_thm2", "matrix_thm5", "norm",
    "norm_sandwich_check", "numerical_rank", "product_construction", "rank_lower_bound",
    "search_equilateral", "simplex_lambda", "span_dim",
]


def test_all_is_the_public_api():
    assert sorted(eqdist.__all__) == PUBLIC_NAMES


# the fields of each public dataclass, and the parameters of each public function:
# a new option shows up here as a test change
PUBLIC_FIELDS = {
    "ApproxCertificate": ("p", "d", "measured_error", "jackson_bound"),
    "BoundConfig": ("c_absolute", "treat_asymptotic_as_explicit", "constants"),
    "BoundReport": ("side", "kind", "value", "conditions", "source", "constants_used",
                    "construction"),
    "CertificateReport": ("theorem", "m", "diag_ok", "max_offdiag", "offdiag_threshold",
                          "rank_lemma_lower", "numerical_rank", "span_upper", "passes", "notes"),
    "CertifyConfig": ("c", "c_absolute"),
    "EvenPolynomial": ("degree", "even_coeffs"),
    "Formula": ("expression", "constants", "numeric"),
    "PointSet": ("space", "points"),
    "SearchConfig": ("restarts", "seed", "residual_target"),
    "SearchResult": ("points", "residual", "converged", "restart_index", "iterations", "stop",
                     "damping"),
    "Space": ("p", "blocks"),
    "SymMatrix": ("dim", "entries"),
}
PUBLIC_PARAMETERS = {
    "approximate_abs_power": ("p", "d"),
    "approximation_error": ("P", "p"),
    "best_explicit_upper": ("space", "s", "config"),
    "certify": ("points", "theorem", "config"),
    "choose_degree": ("p", "c", "n", "m"),
    "cluster_combine": ("per_s_bounds", "k"),
    "cross_polytope": ("n",),
    "distance": ("space", "x", "y"),
    "distance_matrix": ("pointset",),
    "distance_profile": ("points", "tol"),
    "enumerate_bounds": ("space", "s", "config"),
    "euclidean_simplex": ("n",),
    "gram_thm3": ("points",),
    "gram_thm4": ("points", "p"),
    "independence_rank_thm3": ("points",),
    "independence_rank_thm4": ("points", "p"),
    "jackson_constant": ("p",),
    "lp_simplex": ("n", "p"),
    "matrix_thm1": ("points", "k"),
    "matrix_thm2": ("points", "dists", "P"),
    "matrix_thm5": ("points", "P"),
    "norm": ("space", "x"),
    "norm_sandwich_check": ("x", "p", "q"),
    "numerical_rank": ("A",),
    "product_construction": ("S", "T"),
    "rank_lower_bound": ("A",),
    "search_equilateral": ("space", "m", "cfg"),
    "simplex_lambda": ("n", "p"),
    "span_dim": ("theorem", "params"),
}
# the return annotation of each public function, pinned the same way: a changed return
# (a bare int becoming a pair, say) shows up here as a test change
PUBLIC_RETURNS = {
    "approximate_abs_power": "tuple[EvenPolynomial, ApproxCertificate]",
    "approximation_error": "float",
    "best_explicit_upper": "BoundReport",
    "certify": "CertificateReport",
    "choose_degree": "int",
    "cluster_combine": "int",
    "cross_polytope": "PointSet",
    "distance": "float",
    "distance_matrix": "np.ndarray",
    "distance_profile": "list[float]",
    "enumerate_bounds": "list[BoundReport]",
    "euclidean_simplex": "PointSet",
    "gram_thm3": "SymMatrix",
    "gram_thm4": "SymMatrix",
    "independence_rank_thm3": "tuple[int, int]",  # (rank, family size)
    "independence_rank_thm4": "tuple[int, int]",
    "jackson_constant": "float",
    "lp_simplex": "PointSet",
    "matrix_thm1": "tuple[SymMatrix, np.ndarray]",
    "matrix_thm2": "tuple[SymMatrix, ApproxGapDiagnostics]",
    "matrix_thm5": "tuple[SymMatrix, ApproxGapDiagnostics]",
    "norm": "float",
    "norm_sandwich_check": "tuple[bool, tuple[float, float, float]]",
    "numerical_rank": "int",
    "product_construction": "PointSet",
    "rank_lower_bound": "float",
    "search_equilateral": "SearchResult",
    "simplex_lambda": "float",
    "span_dim": "int",
}
# the fields of the dataclasses that public functions return but eqdist does not export
RETURNED_FIELDS = {
    "certify.ApproxGapDiagnostics": ("max_gap", "gap_bound", "min_y"),
}


def test_public_signatures():
    assert sorted([*PUBLIC_FIELDS, *PUBLIC_PARAMETERS]) == PUBLIC_NAMES
    for name, fields in PUBLIC_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(getattr(eqdist, name))) == fields, name
    for name, params in PUBLIC_PARAMETERS.items():
        assert tuple(inspect.signature(getattr(eqdist, name)).parameters) == params, name
    # each config checks its fields when it is made, so none may be set after that
    for cfg, name in [(eqdist.BoundConfig(), "c_absolute"), (eqdist.CertifyConfig(), "c"),
                      (eqdist.CertifyConfig(), "c_absolute"),
                      (eqdist.SearchConfig(), "residual_target")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, math.inf)


def test_public_returns():
    assert sorted(PUBLIC_RETURNS) == sorted(PUBLIC_PARAMETERS)
    for name, annotation in PUBLIC_RETURNS.items():
        assert inspect.signature(getattr(eqdist, name)).return_annotation == annotation, name
    for path, fields in RETURNED_FIELDS.items():
        modname, name = path.split(".")
        cls = getattr(importlib.import_module(f"eqdist.{modname}"), name)
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields, path


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from eqdist import *", namespace)  # reads every name in __all__
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []


_SQUARE = eqdist.PointSet(eqdist.Space(2.0, (1, 1)), [[0, 0], [1, 0], [1, 1], [0, 1]])
_X2 = eqdist.EvenPolynomial(2, (1.0,))


@pytest.mark.parametrize("call", [
    lambda: eqdist.distance_profile(_SQUARE, math.nan),
    lambda: eqdist.distance_profile(_SQUARE, math.inf),
    lambda: eqdist.SearchConfig(residual_target=math.nan),
    lambda: eqdist.SearchConfig(residual_target=math.inf),
    lambda: eqdist.approximation_error(_X2, math.nan),
    lambda: eqdist.approximation_error(_X2, math.inf),
    lambda: eqdist.choose_degree(2.5, math.nan, 2, 3),
    lambda: eqdist.CertifyConfig(c=math.nan),
    lambda: eqdist.CertifyConfig(c_absolute=math.nan),
    lambda: eqdist.SearchConfig(restarts=math.nan),
    lambda: eqdist.SearchConfig(restarts=math.inf),
    lambda: eqdist.SearchConfig(restarts=2.5),
    lambda: eqdist.SearchConfig(seed=math.nan),
    lambda: eqdist.SearchConfig(seed=1.5),
    lambda: eqdist.search_equilateral(_SQUARE.space, 2.5),
    lambda: eqdist.enumerate_bounds(_SQUARE.space, math.nan),
    lambda: eqdist.enumerate_bounds(_SQUARE.space, 1.5),
    lambda: eqdist.EvenPolynomial(2, (math.nan,)),
    lambda: eqdist.EvenPolynomial(2, (math.inf,)),
    lambda: eqdist.EvenPolynomial(math.nan, (1.0,)),
    lambda: eqdist.EvenPolynomial(2.5, (1.0,)),
    lambda: eqdist.cluster_combine([3, 3], math.nan),
    lambda: eqdist.cluster_combine([3, 3], 2.5),
    lambda: eqdist.simplex_lambda(math.nan, 2.5),
    lambda: eqdist.lp_simplex(2.5, 2.5),
    lambda: eqdist.choose_degree(2.5, 2, math.nan, 3),
    lambda: eqdist.choose_degree(2.5, 2, 2, 2.5),
    lambda: eqdist.approximate_abs_power(2.5, 3.5),
    lambda: eqdist.Space(2.0, ("2",)),
    lambda: eqdist.SearchConfig(restarts="2"),
    lambda: eqdist.distance(_SQUARE.space, [math.nan, 0.0], [0.0, 0.0]),
    lambda: eqdist.distance(_SQUARE.space, [0.0, 0.0], [0.0, math.inf]),
    lambda: eqdist.norm(_SQUARE.space, [math.inf, 1.0]),
    lambda: eqdist.norm(_SQUARE.space, [math.nan, 1.0]),
    lambda: eqdist.norm_sandwich_check([math.inf, 1.0], 1.0, 2.0),
    lambda: eqdist.norm_sandwich_check([math.nan, 1.0], 1.0, math.inf),
    lambda: eqdist.BoundConfig(constants={"c_p": math.nan}),
    lambda: eqdist.BoundConfig(constants={"c_pa": math.inf}),
    lambda: eqdist.BoundConfig(constants={"c_ps": -1}),
    lambda: eqdist.BoundConfig(constants={"c_p": 0}),
    lambda: eqdist.BoundConfig(c_absolute=math.inf),
    lambda: eqdist.jackson_constant("x"),
    lambda: eqdist.approximation_error(_X2, "3"),
    lambda: eqdist.EvenPolynomial(4, (10 ** 400,)),
    lambda: eqdist.EvenPolynomial(4, ("x",)),
    lambda: eqdist.choose_degree(2.5, "x", 2, 3),
    lambda: eqdist.choose_degree(2.5, 10 ** 400, 2, 3),
    lambda: eqdist.BoundConfig(c_absolute="x"),
    lambda: eqdist.BoundConfig(constants={"c_p": "x"}),
    lambda: eqdist.BoundConfig(constants={"c_p": 10 ** 400}),
    lambda: eqdist.CertifyConfig(c=math.inf),
    lambda: eqdist.CertifyConfig(c_absolute=math.inf),
    lambda: eqdist.CertifyConfig(c="x"),
    lambda: eqdist.numerical_rank([[math.nan]]),
    lambda: eqdist.rank_lower_bound([[math.nan]]),
    lambda: eqdist.simplex_lambda(3, "x"),
    lambda: eqdist.distance_profile(_SQUARE, "x"),
    lambda: eqdist.SearchConfig(residual_target="x"),
    lambda: eqdist.Space("x", (1,)),
    lambda: eqdist.Space("3", (1,)),
    lambda: eqdist.distance(eqdist.Space(2.0, (1,)), [10 ** 400], [0]),
    lambda: eqdist.norm(eqdist.Space(2.0, (1,)), ["a"]),
    lambda: eqdist.norm_sandwich_check(["a", 1.0], 1.0, 2.0),
    lambda: eqdist.norm_sandwich_check([10 ** 400, 1.0], 1.0, 2.0),
    lambda: eqdist.norm_sandwich_check([1.0, 2.0], "x", 2.0),
    lambda: eqdist.norm_sandwich_check([1.0, 2.0], 1.0, "x"),
    lambda: require_int("n", -10 ** 5000, 1),
    lambda: eqdist.cross_polytope(-10 ** 5000),
    lambda: eqdist.matrix_thm2(_SQUARE, ["x"], _X2),
    lambda: eqdist.norm(eqdist.Space(2.0, (1,)), ["1.5"]),
    lambda: eqdist.PointSet(eqdist.Space(2.0, (1,)), [["1.5"], ["0"]]),
    lambda: eqdist.PointSet.from_jsonable({"space": "lp:n=1,p=2", "points": [["1.5"], ["0"]]}),
    lambda: eqdist.PointSet(eqdist.Space(2.0, (1,)), [["1.5"], [2 ** 64]]),
    lambda: eqdist.rank_lower_bound([[b"1"]]),
    lambda: eqdist.lp_simplex("a", 3),
    lambda: eqdist.lp_simplex(None, 3),
    lambda: eqdist.lp_simplex(-10 ** 5000, 3),
    # str() refuses an int of over 4300 digits, so no refusal may print one
    lambda: eqdist.cross_polytope(10 ** 5000),
    lambda: eqdist.lp_simplex(10 ** 5000, 3),
    lambda: eqdist.euclidean_simplex(10 ** 5000),
    lambda: eqdist.SearchConfig(restarts=10 ** 5000),
    lambda: eqdist.search_equilateral(_SQUARE.space, 10 ** 5000),
    lambda: eqdist.approximate_abs_power(2, 10 ** 5000),
    lambda: eqdist.simplex_lambda(10 ** 5000, 3.0),
    lambda: eqdist.cluster_combine([2, 2, 2], 10 ** 5000),
    lambda: eqdist.enumerate_bounds(eqdist.Space(2.0, (300,)), 10 ** 5000),
    lambda: eqdist.Space(2.0, (10 ** 5000,)),
    # counts past the largest double
    lambda: require_int("n", Fraction(10 ** 400 + 1, 2), 1),
    lambda: eqdist.choose_degree(2.5, 2.0, 10 ** 400, 3),
    lambda: eqdist.choose_degree(2.5, 2.0, 3, 10 ** 400),
    # an ordering comparison with a Decimal NaN signals InvalidOperation
    lambda: require_real("x", Decimal("NaN")),
    lambda: require_int("n", Decimal("NaN"), 1),
    lambda: eqdist.SearchConfig(residual_target=Decimal("NaN")),
    lambda: eqdist.Space(Decimal("NaN"), (1,)),
    lambda: eqdist.cross_polytope(Decimal("NaN")),
    lambda: require_real("x", Decimal("sNaN")),
    # == signals on a Decimal sNaN, so an exponent that may be inf is not compared first
    lambda: eqdist.Space(Decimal("sNaN"), (1,)),
    lambda: eqdist.norm_sandwich_check([1.0, 2.0], Decimal("sNaN"), 2.0),
    lambda: eqdist.norm_sandwich_check([1.0, 2.0], 1.0, Decimal("sNaN")),
    lambda: kusner_even_upper("4", 3),
    lambda: kusner_even_upper(4, 2.5),
    # a numpy float32 is read as a double, not compared in float32
    lambda: require_real("x", np.float32("inf")),
    lambda: eqdist.Space(np.float32("nan"), (1,)),
    lambda: require_int("n", np.float32(2.5), 1),
    # float() rounds an int just past the largest double down to it
    lambda: require_real("x", int(sys.float_info.max) + 1),
], ids=["tol-nan", "tol-inf", "target-nan", "target-inf", "approx-p-nan", "approx-p-inf",
        "c-nan", "certify-c-nan", "certify-c-absolute-nan", "restarts-nan",
        "restarts-inf", "restarts-2.5", "seed-nan", "seed-1.5", "search-m-2.5", "s-nan", "s-1.5",
        "coeff-nan", "coeff-inf", "degree-nan", "degree-2.5", "cluster-k-nan", "cluster-k-2.5",
        "lambda-n-nan", "simplex-n-2.5", "degree-n-nan", "degree-m-2.5", "approx-d-3.5",
        "block-str", "restarts-str", "distance-x-nan", "distance-y-inf", "norm-inf", "norm-nan",
        "sandwich-x-inf", "sandwich-x-nan", "constant-nan", "constant-inf", "constant-negative",
        "constant-zero", "c-absolute-inf", "jackson-p-str", "approx-p-str", "coeff-past-double", "coeff-str", "c-str",
        "c-past-double", "c-absolute-str", "constant-str", "constant-past-double",
        "certify-c-inf", "certify-c-absolute-inf", "certify-c-str", "rank-nan",
        "rank-lower-bound-nan", "lambda-p-str", "tol-str", "target-str", "space-p-str",
        "space-p-digit-str", "distance-x-past-double", "norm-x-str", "sandwich-x-str",
        "sandwich-x-past-double", "sandwich-p-str", "sandwich-q-str", "int-past-str-limit",
        "cross-n-past-str-limit", "thm2-distance-str", "norm-x-numeric-str",
        "points-numeric-str", "points-json-numeric-str", "points-str-beside-int-past-int64",
        "rank-bytes", "lp-simplex-n-str", "lp-simplex-n-none", "lp-simplex-n-past-str-limit",
        "cross-n-above-str-limit", "lp-simplex-n-above-str-limit",
        "euclidean-simplex-n-above-str-limit", "restarts-above-str-limit",
        "search-m-above-str-limit", "approx-d-above-str-limit", "lambda-n-above-str-limit",
        "cluster-k-above-str-limit", "bound-s-above-str-limit", "block-above-str-limit",
        "int-fraction-past-double", "degree-n-past-double", "degree-m-past-double",
        "real-decimal-nan", "int-decimal-nan", "target-decimal-nan", "space-p-decimal-nan",
        "cross-n-decimal-nan", "real-decimal-snan", "space-p-decimal-snan",
        "sandwich-p-decimal-snan", "sandwich-q-decimal-snan", "kusner-p-str", "kusner-n-2.5",
        "real-float32-inf", "space-p-float32-nan", "int-float32-2.5",
        "real-int-just-past-double"])
def test_nan_and_inf_are_refused(call):
    with pytest.raises((InputError, ResourceLimitError)) as refused:
        call()
    assert "\n" not in str(refused.value)


def test_whole_floats_are_read_as_ints():
    cfg = eqdist.SearchConfig(restarts=2.0, seed=3.0)
    assert (cfg.restarts, cfg.seed) == (2, 3) and type(cfg.seed) is int  # the rng takes no float
    assert eqdist.search_equilateral(_SQUARE.space, 3.0, cfg).converged
    assert eqdist.EvenPolynomial(4.0, (1.0,)).degree == 4
    assert eqdist.cluster_combine([3, 3], 3.0) == eqdist.cluster_combine([3, 3], 3)
    assert kusner_even_upper(4.0, 3) == 4 and type(kusner_even_upper(4.0, 3)) is int
    # integrality is tested exactly, also past the largest double
    assert require_int("n", Fraction(10 ** 400, 1), 1) == 10 ** 400


_L3 = eqdist.Space(3.0, (1, 1, 1))


def _search(target):
    found = eqdist.search_equilateral(_SQUARE.space, 3, eqdist.SearchConfig(residual_target=target))
    return found.points.points.tolist(), found.residual, found.converged


# each gate returns a float, and the code computes with it: a Decimal exponent or
# constant gives the plain float's result, bit for bit
@pytest.mark.parametrize("call", [
    lambda x: eqdist.lp_simplex(3, x(2.5)).points.tolist(),
    lambda x: eqdist.approximate_abs_power(x(1.5), 12),
    lambda x: eqdist.jackson_constant(x(2.5)),
    lambda x: eqdist.choose_degree(x(3), 4.0, 2, 3),
    lambda x: [r.to_jsonable() for r in
               eqdist.enumerate_bounds(_L3, 1, eqdist.BoundConfig(c_absolute=x(3)))],
    lambda x: [r.to_jsonable() for r in
               eqdist.enumerate_bounds(_L3, 1, eqdist.BoundConfig(constants={"c_p": x(3)}))],
    lambda x: eqdist.certify(eqdist.lp_simplex(3, 2.5), "thm1",
                             eqdist.CertifyConfig(c_absolute=x(3))).to_jsonable(),
    lambda x: _search(x("1e-10")),
], ids=["lp-simplex-p", "approx-p", "jackson-p", "degree-p", "bound-c-absolute",
        "bound-constant", "certify-c-absolute", "search-target"])
def test_decimal_reals_give_the_float_result(call):
    assert repr(call(Decimal)) == repr(call(float))


def test_numpy_scalars_are_read_without_a_warning():
    # pytest turns warnings into errors here; a float32 compared with the largest
    # double is cast to float32 first, which overflows
    assert eqdist.Space(np.float32(2.5), (1, 1)).p == 2.5
    assert require_real("p", np.float16(2)) == 2.0
    assert eqdist.EvenPolynomial(4, (np.float32(1.5),)).even_coeffs == (1.5,)
    _, cert = eqdist.approximate_abs_power(np.float32(1.5), 12)
    assert (type(cert.p), type(cert.jackson_bound)) == (float, float)
    assert cert == eqdist.approximate_abs_power(1.5, 12)[1]


_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_functions_exist_unwrapped():
    # bench/tracing.py rebinds each of these by name; a rename, or a decorator
    # whose __wrapped__ the run takes for a leftover wrapper, would otherwise
    # surface only as a failed traced run
    for modname, names in runpy.run_path(str(_TRACING))["TRACED"].items():
        module = importlib.import_module(modname)
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"{modname}.{name} is missing"
            assert not hasattr(fn, "__wrapped__"), f"{modname}.{name} is wrapped"


_PAIR = [[0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("theorem, points, traced", [
    ("thm1", eqdist.lp_simplex(3, 2.5), ["matrix_thm1"]),
    ("thm2", eqdist.PointSet(eqdist.Space(2.0, (1,)), [[0.0], [1.0]]), ["matrix_thm2"]),
    ("thm3", eqdist.product_construction(eqdist.euclidean_simplex(2), eqdist.euclidean_simplex(1)),
     ["gram_thm3", "independence_rank_thm3"]),
    ("thm4", eqdist.PointSet(eqdist.Space(4.0, (1, 1)), _PAIR),
     ["gram_thm4", "independence_rank_thm4"]),
    ("thm5", eqdist.PointSet(eqdist.Space(2.0, (1, 1)), _PAIR), ["matrix_thm5"]),
], ids=["thm1", "thm2", "thm3", "thm4", "thm5"])
def test_certify_calls_the_traced_builders(monkeypatch, theorem, points, traced):
    # bench/tracing.py counts certify.matrix_build.* and certify.independence_rank.* by
    # rebinding these names on eqdist.certify; a certify that reached the pair planes
    # another way would read as zero builds, and no traced run would fail
    tracing = runpy.run_path(str(_TRACING))
    module, calls = importlib.import_module("eqdist.certify"), []
    for name in tracing["MATRIX_BUILDERS"] + tracing["INDEPENDENCE"]:
        name = name.removeprefix("certify.")
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _fn=fn, _name=name:
                            calls.append(_name) or _fn(*args))
    eqdist.certify(points, theorem)
    assert sorted(calls) == traced


def test_library_code_has_a_caller_in_the_library():
    # a function, method or class that only the tests call belongs in the tests;
    # dunders, the public API and overrides of a base class's method are called from outside
    src = Path(eqdist.__file__).parent
    defined, referenced, overrides = {}, set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"eqdist.{path.stem}")
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                overrides.update(item.name for item in node.body
                                 if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                                 and any(hasattr(base, item.name) for base in bases))
    unreferenced = [f"{name} ({where})" for name, where in sorted(defined.items())
                    if name not in referenced and not name.startswith("__")
                    and name not in eqdist.__all__ and name not in overrides]
    assert unreferenced == []


def test_every_import_is_read():
    # an import its module never reads is left behind by deleted code; __init__
    # re-exports the names in __all__, and a __future__ import binds no name
    src = Path(eqdist.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.stem == "__init__":
            read.update(eqdist.__all__)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unread == []


def test_no_gate_result_is_dropped():
    # each require_* gate of errors returns the int or float the code computes with;
    # called as a bare statement, the code goes on with the unchecked value
    src = Path(eqdist.__file__).parent
    gates = {name for name in vars(eqdist.errors) if name.startswith("require_")}
    dropped = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
               and getattr(node.value.func, "id", None) in gates]
    assert gates and dropped == []


def test_every_third_party_test_import_is_declared():
    # a test module may import the standard library, eqdist, its sibling
    # modules, and what [project] dependencies or the test extra declare
    # (the two TOML arrays of strings read as Python literals; tomllib is 3.11+)
    tests = Path(__file__).parent
    toml = (tests.parent / "pyproject.toml").read_text(encoding="utf-8")
    requirements = [req for key in ("dependencies", "test") for req in
                    ast.literal_eval(re.search(rf"^{key} = (\[.*?\])", toml, re.M | re.S)[1])]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
                for req in requirements}
    local = {"eqdist", *(path.stem for path in tests.glob("*.py"))}
    undeclared = []
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} {name}" for name in names
                           if name.split(".")[0] not in
                           {*sys.stdlib_module_names, *local, *declared}]
    assert undeclared == []
