import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eqdist
import json_reference
from eqdist import approx, cli, construct
from eqdist import space as space_mod
from eqdist.cli import HUGE_INT, render_json, run
from eqdist.space import MAX_AMBIENT_DIM, PointSet, Space, distance_matrix


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_best_thm14(capsys):
    code, out, _ = _run(capsys, "bound", "--space", "lpsum:blocks=2,3,p=inf",
                        "--s", "1", "--best")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 13 and rep["source"] == "thm1.4"


def test_bound_enumerate_json(capsys):
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=5,p=4")
    assert code == 0
    reps = json.loads(out)
    assert any(r["source"] == "swanepoel-even-p" and r["value"] == 6 for r in reps)


def test_bound_c_flag(capsys):
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=2,p=4", "--c", "2.05")
    assert code == 0
    reps = json.loads(out)
    t12 = [r for r in reps if r["source"] == "thm1.2"]
    assert t12 and t12[0]["value"] == 20


def test_construct_cross_polytope(capsys):
    code, out, _ = _run(capsys, "construct", "cross-polytope", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["space"] == "lp:n=3,p=1" and len(obj["points"]) == 6


def test_construct_calls_builders_through_the_module(capsys, monkeypatch):
    # the benchmark's tracer rebinds construct's builders by name, so the CLI
    # must look them up at each call
    calls = []
    for name in ("cross_polytope", "lp_simplex", "euclidean_simplex", "product_construction"):
        fn = getattr(construct, name)
        monkeypatch.setattr(construct, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    for name, argv in (("cross_polytope", ("cross-polytope", "--n", "2")),
                       ("lp_simplex", ("lp-simplex", "--n", "2", "--p", "3")),
                       ("euclidean_simplex", ("euclidean-simplex", "--n", "2")),
                       ("product_construction", ("product", "--a", "1", "--b", "1"))):
        calls.clear()
        assert _run(capsys, "construct", *argv)[0] == 0
        assert name in calls, (name, calls)


def test_construct_verify_roundtrip(tmp_path, capsys):
    cases = [("cross-polytope", ["--n", "4"]),
             ("lp-simplex", ["--n", "3", "--p", "2.5"]),
             ("euclidean-simplex", ["--n", "4"]),
             ("product", ["--a", "2", "--b", "2"])]
    for kind, flags in cases:
        code, out, _ = _run(capsys, "construct", kind, *flags)
        assert code == 0
        f = tmp_path / f"{kind}.json"
        f.write_text(out)
        code, out, _ = _run(capsys, "verify", "--points", str(f))
        assert code == 0, (kind, out)
        assert json.loads(out)["equilateral"] is True


def test_verify_duplicate_point(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"space": "lp:n=2,p=2",
                             "points": [[0, 0], [0, 0], [1, 0]]}))
    code, out, err = _run(capsys, "verify", "--points", str(f))
    assert code == 2
    assert "zero distance present" in err


def test_verify_tol_is_only_the_clustering_gap(tmp_path, capsys):
    code, out, _ = _run(capsys, "construct", "lp-simplex", "--n", "2", "--p", "2.5")
    f = tmp_path / "simplex.json"
    f.write_text(out)
    code, out, err = _run(capsys, "verify", "--points", str(f), "--tol", "1e308")
    assert (code, err) == (0, "") and json.loads(out)["equilateral"] is True
    g = tmp_path / "dup.json"
    g.write_text(json.dumps({"space": "lp:n=2,p=2.5", "points": [[0, 0], [0, 0], [1, 0]]}))
    code, out, err = _run(capsys, "verify", "--points", str(g), "--tol", "1e308")
    assert (code, err) == (2, "zero distance present\n")


def test_verify_non_equilateral(tmp_path, capsys):
    f = tmp_path / "sq.json"
    f.write_text(json.dumps({"space": "lp:n=2,p=2",
                             "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    code, out, _ = _run(capsys, "verify", "--points", str(f))
    assert code == 2
    assert json.loads(out)["equilateral"] is False


def test_verify_single_point(tmp_path, capsys):
    f = tmp_path / "one.json"
    f.write_text(json.dumps({"space": "lp:n=2,p=3", "points": [[0.5, -1]]}))
    code, out, err = _run(capsys, "verify", "--points", str(f))
    assert code == 0 and err == ""
    assert out == ('{\n  "space": "lp:n=2,p=3",\n  "m": 1,\n  "profile": [],\n'
                   '  "equilateral": true,\n  "max_deviation": 0.0\n}\n')
    g = tmp_path / "two.json"
    g.write_text(json.dumps({"space": "lp:n=2,p=3", "points": [[0.5, -1], [0, 0]]}))
    for points in (f, g):  # every m refuses a tol <= 0 alike
        for tol in ("-1", "0"):
            assert _run(capsys, "verify", "--points", str(points), "--tol", tol) == (
                1, "", f"error: tol must be positive, got {float(tol)}\n")


def test_certify_zero_distance_exit_2(tmp_path, capsys):
    # thm2 reads the distance profile, which refuses a zero distance
    f = tmp_path / "dup.json"
    f.write_text(json.dumps({"space": "lp:n=2,p=3", "points": [[0, 0], [0, 0], [1, 0]]}))
    code, out, err = _run(capsys, "certify", "--points", str(f), "--theorem", "thm2")
    assert (code, out, err) == (2, "", "failed: zero distance present\n")


def _forbid_approximants(monkeypatch):
    def no_approximant(*args):
        raise AssertionError("an approximant was built")

    monkeypatch.setattr(importlib.import_module("eqdist.certify"), "approximate_abs_power",
                        no_approximant)


def test_certify_thm2_refuses_one_point_before_any_approximant(tmp_path, capsys, monkeypatch):
    _forbid_approximants(monkeypatch)
    f = tmp_path / "one.json"
    f.write_text(json.dumps({"space": "lp:n=2,p=3", "points": [[0.5, -1]]}))
    for c in ((), ("--c", "4")):
        assert _run(capsys, "certify", "--points", str(f), "--theorem", "thm2", *c) == (
            1, "", "error: distance profile needs at least 2 points\n")


@pytest.mark.parametrize("space, points, message", [
    ("lpsum:blocks=2,1,p=3", [[0, 0, 0], [1, 0, 0], [0, 0, 1]],
     "matrix_thm2 requires a space with all blocks of dimension 1"),
    # checked before the profile, so coincident points are not reached (exit 2)
    ("lpsum:blocks=2,1,p=3", [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
     "matrix_thm2 requires a space with all blocks of dimension 1"),
    ("lp:n=2,p=3", [[0, 0], [2, 2], [2, 0]],
     "largest distance must be 1, got [2.5198420997897464]"),
], ids=["lpsum", "lpsum-coincident", "largest-distance-2.52"])
def test_certify_thm2_refuses_inapplicable_input_before_any_approximant(
        tmp_path, capsys, monkeypatch, space, points, message):
    # with the paper's c, the approximant's degree (392 and 343 here) would be
    # refused first, under a message about the degree
    _forbid_approximants(monkeypatch)
    f = tmp_path / "points.json"
    f.write_text(json.dumps({"space": space, "points": points}))
    for c in ((), ("--c", "4")):
        assert _run(capsys, "certify", "--points", str(f), "--theorem", "thm2", *c) == (
            1, "", f"error: {message}\n")


def test_lp_simplex_past_the_largest_double(tmp_path, capsys):
    # at n = 2 the root bracket reaches 2, and 2^p overflows above p = 1024
    for p in ("1100", "1e300"):
        code, out, err = _run(capsys, "construct", "lp-simplex", "--n", "2", "--p", p)
        assert code == 0 and err == ""
        f = tmp_path / "simplex.json"
        f.write_text(out)
        assert _run(capsys, "verify", "--points", str(f))[0] == 0


@pytest.mark.parametrize("points", [
    [[-1e308], [1e308]],  # the distance is past the largest double
    [[0.0], [1.0], [8.98846567431158e307]],  # a cluster of two distances sums past it
])
def test_verify_distance_overflow_exit_1(tmp_path, capsys, points):
    f = tmp_path / "far.json"
    f.write_text(json.dumps({"space": "lp:n=1,p=2", "points": points}))
    code, out, err = _run(capsys, "verify", "--points", str(f))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "overflows double precision" in err


@pytest.mark.parametrize("theorem, space, points", [
    ("thm1", "lp:n=2,p=4", [[0, 0], [1e300, 0]]),
    ("thm3", "lpsum:blocks=1,1,p=inf", [[0, 0], [1e300, 1e300]]),
    ("thm4", "lpsum:blocks=1,1,p=4", [[0, 0], [1e100, 0]]),
])
def test_certify_overflowed_matrix_exit_1(tmp_path, capsys, theorem, space, points):
    # the independence check of thm3 and thm4 overflows too, and is skipped,
    # so each theorem ends in certify's own line on its matrix
    f = tmp_path / "far.json"
    f.write_text(json.dumps({"space": space, "points": points}))
    code, out, err = _run(capsys, "certify", "--points", str(f), "--theorem", theorem)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {theorem}: the certificate matrix has non-finite entries")
    assert err.count("\n") == 1


@pytest.mark.parametrize("theorem, p", [("thm3", "inf"), ("thm4", "4")])
def test_certify_one_far_point_skips_the_overflowed_independence_check(tmp_path, capsys,
                                                                      theorem, p):
    # the 1x1 identity certificate is sound; only the augmented family overflows
    f = tmp_path / "one.json"
    f.write_text(json.dumps({"space": f"lpsum:blocks=1,1,p={p}", "points": [[1e200, 0]]}))
    code, out, err = _run(capsys, "certify", "--points", str(f), "--theorem", theorem)
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["passes"] and rep["notes"] == [
        "independence check skipped: the evaluated family has non-finite values "
        "(a value overflows double precision)"]


def test_certify_cli(tmp_path, capsys):
    code, out, _ = _run(capsys, "construct", "product", "--a", "2", "--b", "1")
    f = tmp_path / "prod.json"
    f.write_text(out)
    code, out, _ = _run(capsys, "certify", "--points", str(f), "--theorem", "thm3")
    assert code == 0
    assert json.loads(out)["passes"] is True
    # a failing certificate exits 2 but still reports
    code, out, _ = _run(capsys, "construct", "cross-polytope", "--n", "2")
    g = tmp_path / "cp.json"
    g.write_text(out)
    code, out, err = _run(capsys, "certify", "--points", str(g), "--theorem", "thm1")
    assert code == 2
    assert json.loads(out)["passes"] is False


def test_certify_flags(tmp_path, capsys):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"space": "lp:n=1,p=2", "points": [[0], [1]]}))
    code, out, _ = _run(capsys, "certify", "--points", str(f),
                        "--theorem", "thm2", "--c", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["passes"] and "degree d=3" in " ".join(rep["notes"])


def test_approx_cli_schema(capsys):
    code, out, _ = _run(capsys, "approx", "--p", "1", "--d", "6")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"p", "d", "coefficients", "measured_error", "jackson_bound"}
    assert len(rep["coefficients"]) == 3
    assert rep["measured_error"] <= rep["jackson_bound"]


@pytest.mark.parametrize("p, d", [("400", "400"), ("399", "399")])
def test_approx_refuses_an_overflowed_jackson_bound(p, d):
    # "jackson_bound": "inf" would certify nothing; B(p)/d^p, taken in log space
    # where B(p) overflows, passes the largest double between p = d = 398 and 399
    code, out, err = _run_quietly(["approx", "--p", p, "--d", d])
    assert (code, out) == (1, "")
    assert err == f"error: the bound B(p)/d^p overflows double precision at p={p}, d={d}\n"


@pytest.mark.parametrize("p, d", [("120", "120"), ("120", "130"), ("398", "398")])
def test_approx_takes_jackson_bound_in_log_space(p, d):
    # B(p) overflows from about p = 109.65, but B(p)/d^p = exp(log B - p log d)
    # is finite: the exact x^p has error 0
    code, out, err = _run_quietly(["approx", "--p", p, "--d", d])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["measured_error"] == 0.0
    assert rep["coefficients"] == [float(j == int(p) // 2 - 1) for j in range(int(d) // 2)]
    assert 0.0 < rep["jackson_bound"] < math.inf


def test_approx_past_the_jackson_constant_refuses_only_the_degree():
    # at p = 109.7 the bound is finite; the degree 110 is past the monomial cap
    code, out, err = _run_quietly(["approx", "--p", "109.7", "--d", "110"])
    assert (code, out) == (1, "")
    assert err.startswith("error: degree 110 exceeds 45") and err.count("\n") == 1


def test_approx_past_the_float_product_of_jackson_bound():
    # B(80) overflows the float product of jackson_constant, not its log form
    code, out, err = _run_quietly(["approx", "--p", "80", "--d", "80"])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["measured_error"] == 0.0 and rep["coefficients"][-1] == 1.0
    assert 0.0 < rep["jackson_bound"] == approx.jackson_constant(80) / 80 ** 80 < math.inf


@pytest.mark.parametrize("theorem", ["thm2", "thm5"])
def test_certify_takes_the_jackson_bound_past_the_overflow_of_b(tmp_path, theorem):
    # B(120) overflows, but the gap bound n*B(p)/d^p is taken in log space as
    # approx takes it; c = 1e269 is about the least with a degree window at p = 120
    f = tmp_path / "s.json"
    f.write_text(render_json(construct.lp_simplex(2, 120.0).to_jsonable()))
    code, out, err = _run_quietly(["certify", "--points", str(f), "--theorem", theorem,
                                   "--c", "1e269"])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["passes"] and "degree d=177," in rep["notes"][-2]
    assert rep["notes"][-1].endswith("vs n*B(p)/d^p = 7.157e+72 (ok)")
    # without --c the paper's c is B(p) itself, which overflows
    code, out, err = _run_quietly(["certify", "--points", str(f), "--theorem", theorem])
    assert (code, out) == (1, "")
    assert err == "error: B(p) overflows double precision at p=120\n"


def test_certify_refuses_a_chosen_degree_past_the_monomial_cap(tmp_path):
    # the paper's c for thm2 on the l1 cross-polytope chooses d = 175; the refusal
    # names that degree and the flag that moves it, not approx's own wording
    f = tmp_path / "cp3.json"
    f.write_text(render_json(construct.cross_polytope(3).to_jsonable()))
    code, out, err = _run_quietly(["certify", "--points", str(f), "--theorem", "thm2"])
    assert (code, out) == (1, "")
    assert err == ("error: chosen degree 175 exceeds the cap 45; pass a smaller "
                   "constant c to certify at desk scale\n")


def test_approx_coefficients_reproduce_measured_error(capsys):
    # the benchmark oracle's rule: Horner on the emitted coefficients, on a
    # uniform grid, stays within measured_error plus rounding, which in turn
    # stays within the Jackson bound
    x = np.linspace(0.0, 1.0, 2001)
    t = x * x
    for p in (1.0, 1.5, 2.5, 3.0, 3.7, 5.0, 6.5, 7.95):
        for d in range(math.ceil(p), 46):
            code, out, _ = _run(capsys, "approx", "--p", repr(p), "--d", str(d))
            assert code == 0, (p, d)
            rep = json.loads(out)
            coeffs, err = rep["coefficients"], rep["measured_error"]
            v = np.zeros_like(t)
            for c in reversed(coeffs):
                v = v * t + c
            grid_err = float(np.max(np.abs(v * t - x ** p)))
            slack = 64 * np.finfo(float).eps * (1.0 + sum(abs(c) for c in coeffs))
            assert grid_err <= err + slack, (p, d, grid_err, err)
            assert err <= rep["jackson_bound"], (p, d)


def _run_quietly(argv):
    """(exit code, stdout, stderr) of run(argv) with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_FUZZ_TOKENS = st.one_of(st.text(max_size=12), st.floats().map(repr),
                         st.integers(-50, 450).map(str), st.integers().map(str))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(p=_FUZZ_TOKENS, d=_FUZZ_TOKENS)
@example(p="200", d="200")  # B(p) past the largest double
@example(p="1e308", d="400")
@example(p="3.7", d="45")
def test_approx_fuzz_never_raises(p, d):
    code, out, err = _run_quietly(["approx", "--p", p, "--d", d])
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1, err
    else:
        assert err == "" and json.loads(out)["d"] == int(d)


_FUZZ_SETS = {
    "cp3": construct.cross_polytope(3).to_jsonable(),
    "simplex": construct.lp_simplex(3, 2.5).to_jsonable(),
    "prod": construct.product_construction(construct.euclidean_simplex(1),
                                           construct.euclidean_simplex(2)).to_jsonable(),
    "linf": {"space": "lp:n=2,p=inf", "points": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    "p50": {"space": "lp:n=1,p=50", "points": [[0], [1], [3], [7], [15], [31]]},
}
# the same points in spaces whose p selects an exponent of 10^8 or more
_FUZZ_SETS.update({
    "cp3-p1e8": {**_FUZZ_SETS["cp3"], "space": "lp:n=3,p=100000000"},
    "cp3-p1e300": {**_FUZZ_SETS["cp3"], "space": "lp:n=3,p=1e300"},
    "prod-p1e8": {**_FUZZ_SETS["prod"], "space": "lpsum:blocks=1,2,p=100000000"},
})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, obj in _FUZZ_SETS.items():
        (path / f"{name}.json").write_text(json.dumps(obj))
    return path


# mostly absent or small numbers, so most runs get past the flag checks
_FLAG = st.one_of(st.none(), st.none(), st.floats(0.5, 12).map(repr), st.integers(0, 12).map(str),
                  _FUZZ_TOKENS)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(theorem=st.sampled_from(["thm1", "thm2", "thm3", "thm4", "thm5"]),
       points=st.sampled_from(sorted(_FUZZ_SETS)), c=_FLAG)
@example(theorem="thm2", points="linf", c=None)  # jackson_constant(inf)
@example(theorem="thm2", points="p50", c=None)  # the paper's c overflows
@example(theorem="thm1", points="cp3-p1e8", c=None)  # used to hang
@example(theorem="thm1", points="cp3-p1e300", c=None)
@example(theorem="thm4", points="prod-p1e8", c=None)
@example(theorem="thm5", points="cp3", c="1e300")
def test_certify_fuzz_never_raises(fuzz_dir, theorem, points, c):
    argv = ["certify", "--points", str(fuzz_dir / f"{points}.json"), "--theorem", theorem]
    code, out, err = _run_quietly(argv + ([] if c is None else ["--c", c]))
    assert code in (0, 1, 2)
    assert err.count("\n") == (code != 0), err
    if code != 1:
        assert json.loads(out)["theorem"] == theorem


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(n=st.integers(0, 64).map(str) | st.text(max_size=4), p=_FUZZ_TOKENS, c=_FLAG,
       best=st.booleans())
@example(n="3", p="1e308", c=None, best=True)  # 2(p + 1)n is past the largest double
@example(n="3", p="1e308", c=None, best=False)
def test_bound_fuzz_never_raises(n, p, c, best):
    argv = ["bound", "--space", f"lp:n={n},p={p}", *(["--best"] if best else [])]
    code, out, err = _run_quietly(argv + ([] if c is None else ["--c", c]))
    assert code in (0, 1)
    assert err.count("\n") == code, err
    if code == 0:
        json.loads(out)


def _non_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return True
    return False


def _refused_size(cap: int):
    """Tokens an int flag refuses: below 1, at or above cap, or no int."""
    return st.one_of(st.integers(max_value=0).map(str), st.integers(cap, 10 ** 30).map(str),
                     st.text(max_size=6).filter(_non_int), st.floats().map(repr))


# a search run gets small valid flags, then at most one flag is replaced by a
# token from these: no token names a search larger than the valid ones
_SEARCH_JUNK = {
    "--space": st.text(max_size=12) | st.builds("lp:n={},p={}".format,
                                                st.integers(0, 3), _FUZZ_TOKENS),
    "--m": _refused_size(2 ** 11 + 1),  # 2049 points need 2049^2 > 2^22 pair coordinates
    "--restarts": _refused_size(construct.SEARCH_MAX_RESTARTS + 1),
    "--seed": st.integers().map(str) | st.text(max_size=6),
    "--target": _FUZZ_TOKENS,
}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(space=st.sampled_from(["lp:n=2,p=2", "lp:n=3,p=1", "lp:n=2,p=inf",
                              "lpsum:blocks=1,2,p=3", "lpsum:blocks=2,1,p=1.5"]),
       m=st.integers(2, 5), restarts=st.integers(1, 3), seed=st.integers(0, 2 ** 64),
       fmt=st.sampled_from(cli.FORMATS),
       junk=st.none() | st.sampled_from(sorted(_SEARCH_JUNK)).flatmap(
           lambda flag: st.tuples(st.just(flag), _SEARCH_JUNK[flag])))
@example(space="lp:n=3,p=1", m=6, restarts=1, seed=7, fmt="json",
         junk=("--restarts", "100000000"))  # ran past two minutes uncapped
@example(space="lp:n=2,p=2", m=3, restarts=2, seed=0, fmt="json", junk=("--seed", "-1"))
@example(space="lp:n=2,p=2", m=4, restarts=3, seed=0, fmt="text", junk=("--target", "5e-324"))
def test_search_fuzz_never_raises(space, m, restarts, seed, fmt, junk):
    flags = {"--space": space, "--m": str(m), "--restarts": str(restarts), "--seed": str(seed),
             "--format": fmt}
    if junk:
        flags[junk[0]] = junk[1]
    code, out, err = _run_quietly(["search", *(tok for item in flags.items() for tok in item)])
    assert code in (0, 1, 2)
    assert err.count("\n") == (code != 0), err
    if code != 1 and fmt == "json":
        assert json.loads(out)["converged"] is (code == 0)


@st.composite
def _point_sets(draw):
    p = draw(st.just(math.inf) | st.integers(1, 8).map(float) | st.floats(1.0, 1e308))
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=sum(blocks),
                   max_size=sum(blocks))
    return PointSet(Space(p, blocks), draw(st.lists(row, min_size=1, max_size=5)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ps=_point_sets(), indent=st.sampled_from([0, None]))
def test_pointset_json_roundtrip_fuzz(ps, indent):
    again = PointSet.from_jsonable(json.loads(render_json(ps.to_jsonable(), indent)))
    assert again.space == ps.space and again.space.p.hex() == ps.space.p.hex()
    assert again.points.tobytes() == ps.points.tobytes()  # -0.0 and subnormals included


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                     lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(st.text(max_size=6), kids, max_size=4),
                     max_leaves=12)
# point-set files: the fixed sets, random sets, near-miss shapes and any JSON at all
_POINTS_FILES = st.one_of(
    st.sampled_from(sorted(_FUZZ_SETS)).map(_FUZZ_SETS.get),
    _point_sets().map(PointSet.to_jsonable),
    st.fixed_dictionaries({
        "space": st.sampled_from(["lp:n=2,p=2", "lp:n=1,p=inf", "lpsum:blocks=1,2,p=1.5"])
        | st.text(max_size=12) | _JSON,
        "points": st.lists(st.lists(st.floats() | st.integers(), max_size=3), max_size=5)
        | _JSON}),
    _JSON)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(points=_POINTS_FILES, tol=_FLAG, fmt=st.sampled_from(cli.FORMATS))
def test_verify_fuzz_never_raises(fuzz_dir, points, tol, fmt):
    f = fuzz_dir / "verify.json"
    f.write_text(json.dumps(points))
    argv = ["verify", "--points", str(f), "--format", fmt]
    code, out, err = _run_quietly(argv + ([] if tol is None else ["--tol", tol]))
    assert code in (0, 1, 2)
    assert err.count("\n") == (code != 0), err
    if code != 1 and fmt == "json":
        assert json.loads(out)["equilateral"] is (code == 0)


# a construct run gets small valid flags, then at most one flag is replaced by a
# token from these: no token names a construction larger than the valid ones
_CONSTRUCT_JUNK = {
    "--n": _refused_size(2048),  # (n + 1) n and 2 n^2 are above the cap from n = 2048
    "--p": _FUZZ_TOKENS,
    "--a": _refused_size(2048),
    "--b": _refused_size(2048),
}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(cli._CONSTRUCTIONS)), n=st.integers(1, 6),
       p=st.floats(1.0, 12.0).map(repr), a=st.integers(1, 4), b=st.integers(1, 4),
       fmt=st.sampled_from(cli.FORMATS),
       junk=st.none() | st.sampled_from(sorted(_CONSTRUCT_JUNK)).flatmap(
           lambda flag: st.tuples(st.just(flag), _CONSTRUCT_JUNK[flag])))
def test_construct_fuzz_never_raises(kind, n, p, a, b, fmt, junk):
    flags = {"--n": str(n), "--p": p, "--a": str(a), "--b": str(b), "--format": fmt}
    if junk:
        flags[junk[0]] = junk[1]
    code, out, err = _run_quietly(["construct", kind,
                                   *(tok for item in flags.items() for tok in item)])
    assert code in (0, 1)
    assert err.count("\n") == code, err
    if code == 0 and fmt == "json":
        PointSet.from_jsonable(json.loads(out))


def test_thm2_at_infinite_p_exit_1(fuzz_dir):
    code, out, err = _run_quietly(["certify", "--points", str(fuzz_dir / "linf.json"),
                                   "--theorem", "thm2"])
    assert (code, out, err) == (1, "", "error: thm2 requires finite p\n")


def test_thm2_constant_overflow_exit_1(tmp_path):
    # the p50 fuzz set scaled to a largest distance of 1, which thm2 checks first;
    # its 15 distances make the paper's c overflow
    f = tmp_path / "p50-unit.json"
    f.write_text(json.dumps({"space": "lp:n=1,p=50",
                             "points": [[x / 31] for x in (0, 1, 3, 7, 15, 31)]}))
    code, out, err = _run_quietly(["certify", "--points", str(f), "--theorem", "thm2"])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: the paper's constant c overflows double precision at p=50")


def test_bound_past_the_largest_double():
    code, out, err = _run_quietly(["bound", "--space", "lp:n=3,p=1e308"])
    assert code == 0 and err == ""
    values = {r["source"]: r["value"] for r in json.loads(out)}
    assert values["thm1.2"] == 2 * (int(1e308) + 1) * 3  # floor(2(p + 1)n), exactly
    code, out, err = _run_quietly(["bound", "--space", "lp:n=3,p=1e308", "--best"])
    assert code == 0 and err == "" and json.loads(out)["source"] == "petty"


@pytest.mark.parametrize("points, flags", [
    ("cp3-p1e8", ("--theorem", "thm1")),
    ("cp3-p1e300", ("--theorem", "thm1")),
    ("prod-p1e8", ("--theorem", "thm4")),
    ("cp3", ("--theorem", "thm5", "--c", "1e300"))])
def test_huge_exponents_end_in_under_a_second(fuzz_dir, points, flags):
    # each of these once ran for longer than 20 s.  thm1 and thm4 take one power call per
    # entry at any exponent and fail the off-diagonal check (these sets are not unit
    # equilateral at such p); thm5's chosen degree at p = 1 is refused by the monomial cap
    t0 = time.perf_counter()
    code, out, err = _run_quietly(["certify", "--points", str(fuzz_dir / f"{points}.json"),
                                   *flags])
    assert time.perf_counter() - t0 < 1.0
    assert err.count("\n") == 1
    if "thm5" in flags:
        assert code == 1 and out == "" and "exceeds the cap 45;" in err
    else:
        assert code == 2 and err == f"certificate for {flags[1]} did not pass\n"
        assert not json.loads(out)["passes"]


@pytest.mark.parametrize("n", [8, 10, 20, 50])
@pytest.mark.parametrize("at", ["gate", "1e6"])
def test_certify_thm1_in_the_large_p_regime(tmp_path, n, at):
    # thm1.2, the paper's 2(p + 1)n for p >= c(n ln n)^2, at c = 2.01 and at p = 10^6: the
    # lp-simplex certifies its n + 1 points, which lie under every concrete upper bound
    # `bound` lists and equal the best lower one.  Each certify takes under 10 ms in-process.
    p = math.ceil(2.01 * (n * math.log(n)) ** 2) if at == "gate" else 10 ** 6
    f = tmp_path / "simplex.json"
    code, out, err = _run_quietly(["construct", "lp-simplex", "--n", str(n), "--p", str(p)])
    assert code == 0
    f.write_text(out)
    t0 = time.perf_counter()
    code, out, err = _run_quietly(["certify", "--points", str(f), "--theorem", "thm1"])
    assert time.perf_counter() - t0 < 1.0
    rep = json.loads(out)
    assert (code, err, rep["passes"], rep["m"]) == (0, "", True, n + 1)
    assert rep["notes"][-1].endswith(" holds at c=2.01")
    code, out, err = _run_quietly(["bound", "--space", f"lp:n={n},p={p}"])
    reports = json.loads(out)
    upper = {r["source"]: r["value"] for r in reports
             if r["side"] == "upper" and isinstance(r["value"], int)}
    lower = {r["source"]: r["value"] for r in reports if r["side"] == "lower"}
    assert upper["thm1.2"] == 2 * (p + 1) * n and min(upper.values()) >= n + 1
    assert max(lower.values()) == lower["lp-simplex"] == n + 1


@pytest.mark.parametrize("flag", ["--k", "--p"])
def test_certify_takes_its_exponent_from_the_points(fuzz_dir, flag):
    # neither is a flag, nor a prefix of --points
    code, out, err = _run_quietly(["certify", "--points", str(fuzz_dir / "prod.json"),
                                   "--theorem", "thm4", flag, "4"])
    assert (code, out, err) == (1, "", f"error: unrecognized arguments: {flag} 4\n")
    parser = cli._build_parser()
    certify = parser._subparsers._group_actions[0].choices["certify"]
    assert [a.option_strings[-1] for a in certify._actions] == [
        "--help", "--format", "--points", "--theorem", "--c"]


def test_search_huge_p_one_stderr_line():
    # l_inf^2 holds at most 4 equilateral points, so 5 at p = 1e300 cannot converge
    code, out, err = _run_quietly(["search", "--space", "lp:n=2,p=1e300", "--m", "5"])
    assert code == 2 and json.loads(out)["converged"] is False
    assert err.count("\n") == 1 and err.startswith("search did not converge")


def test_parser_reuse_keeps_no_state(capsys, monkeypatch):
    # each second command prints the same after the first as it does alone
    space = ("--space", "lp:n=5,p=4")
    pairs = [(("bound", *space, "--best"), ("bound", *space)),
             (("bound", *space, "--s", "2", "--c", "3", "--format", "csv"), ("bound", *space)),
             (("approx", "--p", "3", "--d", "8", "--format", "text"),
              ("approx", "--p", "3", "--d", "8")),
             (("approx", "--p", "nan", "--d", "8"), ("approx", "--p", "1.5", "--d", "8")),
             (("construct", "lp-simplex", "--n", "3", "--p", "2.5"),
              ("construct", "cross-polytope", "--n", "3")),
             (("search", "--space", "lp:n=2,p=2", "--m", "3", "--restarts", "2", "--seed", "4"),
              ("search", "--space", "lp:n=2,p=2", "--m", "3", "--restarts", "2"))]
    for first, second in pairs:
        monkeypatch.setattr(cli, "_parser", None)
        alone = _run(capsys, *second)
        monkeypatch.setattr(cli, "_parser", None)
        _run(capsys, *first)
        parser = cli._parser
        assert _run(capsys, *second) == alone, (first, second)
        assert cli._parser is parser
    monkeypatch.setattr(cli, "_parser", None)
    _run(capsys, "bound", *space, "--best")
    code, out, _ = _run(capsys, "bound", *space)
    assert code == 0 and len(json.loads(out)) > 1  # the full catalog, not --best


def test_subcommand_dispatch_matches_the_top_level_parse(capsys, monkeypatch, fuzz_dir):
    # an argv that starts with a subcommand is parsed by that subcommand's parser
    # alone; with the table emptied, every argv goes through the top-level parser,
    # and each outcome, help and errors included, must be the same either way
    cp3, approx_ = str(fuzz_dir / "cp3.json"), ["approx", "--p", "1.5", "--d", "6"]
    argvs = [["bound", "--space", "lp:n=5,p=4", "--best"],
             ["construct", "lp-simplex", "--n", "3", "--p", "2.5", "--format", "csv"],
             ["verify", "--points", cp3], ["verify", "--points", str(fuzz_dir / "p50.json")],
             ["certify", "--points", cp3, "--theorem", "thm1", "--format", "text"],
             approx_, ["search", "--space", "lp:n=2,p=2", "--m", "3", "--restarts", "2"],
             ["approx", "--help"], ["--help"], [], ["nope"], [*approx_, "--x", "1"],
             ["certify", "--points", cp3, "--theorem", "thm9"], ["bound"],
             ["search", "--space", "lp:n=2,p=2", "--m", "x"], [*approx_, "--format", "xml"]]

    def outcome(argv):
        try:
            code = run(list(argv))
        except SystemExit as e:  # --help
            code = ("exit", e.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    run(approx_)  # builds the parsers
    capsys.readouterr()
    top = []
    monkeypatch.setattr(cli._parser, "parse_args",
                        lambda argv, _parse=cli._parser.parse_args: top.append(argv) or _parse(argv))
    dispatched = [outcome(argv) for argv in argvs]
    assert top == [["--help"], [], ["nope"]]  # a known command skips the top-level parse
    monkeypatch.setattr(cli, "_commands", {})
    for argv, got in zip(argvs, dispatched):
        assert outcome(argv) == got, argv
    assert [got[0] for got in dispatched] == [0, 0, 0, 2, 2, 0, 0, ("exit", 0), ("exit", 0),
                                              1, 1, 1, 1, 1, 1, 1]


def test_no_eqdist_attribute_is_wrapped(capsys):
    # the benchmark's traced run takes any eqdist module attribute with a
    # __wrapped__ (functools.cache, lru_cache, wraps) for a tracing wrapper
    # left installed, and fails the run
    for info in pkgutil.iter_modules(eqdist.__path__):
        importlib.import_module(f"eqdist.{info.name}")
    _run(capsys, "approx", "--p", "1.5", "--d", "6")  # whatever is built on first use
    wrapped = [(m.__name__, a) for m in list(sys.modules.values())
               if m is not None and getattr(m, "__name__", "").startswith("eqdist")
               for a, v in vars(m).items() if hasattr(v, "__wrapped__")]
    assert wrapped == []


def test_certify_non_finite_matrix_exit_1(tmp_path, capfd):
    # 1e200-scaled cross-polytope: the thm1 entries overflow; LAPACK used to
    # print DLASCL complaints and the report a rank of 0
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"space": "lp:n=3,p=1", "points": [
        [5e199, 0, 0], [-5e199, 0, 0], [0, 5e199, 0], [0, -5e199, 0]]}))
    for theorem in ("thm1", "thm5"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["certify", "--points", str(f), "--theorem", theorem])
        out, err = capfd.readouterr()
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {theorem}: ")
        assert "non-finite" in err


def test_degree_floor_refusals_exit_1(tmp_path, capsys):
    # ceil(1e308) has 309 digits; it is printed as the caps are
    assert _run(capsys, "approx", "--p", "1e308", "--d", "400") == (
        1, "", "error: degree d=400 is below ceil(p)=1e+308\n")
    # certify names the degree its constant chose, and which way to move the constant
    f = tmp_path / "two.json"
    f.write_text(json.dumps({"space": "lp:n=1,p=3", "points": [[0.0], [1.0]]}))
    assert _run(capsys, "certify", "--points", str(f), "--theorem", "thm2", "--c", "4") == (
        1, "", "error: chosen degree 2 is below ceil(p)=3; pass a larger constant c\n")


def _random_cube_file(tmp_path, m, p, seed):
    """m default_rng(seed) points of [0, 1]^3, scaled to a largest l_p distance of 1:
    all m(m - 1)/2 distances are distinct."""
    space = Space(p, (1, 1, 1))
    x = np.random.default_rng(seed).uniform(0.0, 1.0, (m, 3))
    f = tmp_path / f"cube-{m}-{p:g}-{seed}.json"
    f.write_text(json.dumps(PointSet(space, x / distance_matrix(PointSet(space, x)).max())
                            .to_jsonable()))
    return f


def _certify_thm2(capfd, f, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["certify", "--points", str(f), "--theorem", "thm2", "--c", c])
    return (code, *capfd.readouterr())


def test_certify_thm2_overflowed_product_exit_1(tmp_path, capfd):
    # 60 random points of [0, 1]^3 at p = 3 have 1770 distances; the product of the
    # 1770 factors 1 - Y/a_u^p overflows, so the entries are not finite: one refusal
    # line, and no overflow warning
    code, out, err = _certify_thm2(capfd, _random_cube_file(tmp_path, 60, 3.0, 1), "4")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: thm2: ") and "non-finite" in err


def _sidon_line_file(tmp_path, m):
    """m points of lp:n=1,p=3 at the marks 202i + (i^2 mod 101), i < m <= 101, scaled to a
    largest distance of 1: these marks differ pairwise by distinct amounts (Erdos and
    Turan's Sidon set), so all m(m - 1)/2 distances are distinct."""
    x = np.array([[202.0 * i + i * i % 101] for i in range(m)])
    f = tmp_path / f"sidon-{m}.json"
    f.write_text(json.dumps(PointSet(Space(3.0, (1,)), x / x[-1]).to_jsonable()))
    return f


@pytest.mark.parametrize("m", [100, 101])
def test_certify_thm2_factor_cap(tmp_path, capfd, m):
    # 100 points with all 4950 distances distinct take 4950^2 factors, exactly the cap, and are
    # built (then refused for the overflowed product); 101 points are refused before the build
    code, out, err = _certify_thm2(capfd, _sidon_line_file(tmp_path, m), "4")
    assert code == 1 and out == "" and err.count("\n") == 1
    if m == 100:
        assert err.startswith("error: thm2: the certificate matrix has non-finite entries")
    else:
        assert err == ("error: thm2: 5050 distances over 101 points take 25502500 factors, "
                       f"above the cap of {4950 ** 2}\n")


@pytest.mark.parametrize("m,p,seed", [(20, 3.0, 1), (20, 1.5, 1),
                                      (40, 1.5, 1), (40, 1.5, 2), (40, 1.5, 3)])
def test_certify_thm2_random_cube_fails_the_off_diagonal_check(tmp_path, capfd, m, p, seed):
    # every thm2 certificate is gated on 1/sqrt(m), at any number of distances: these
    # sets (k = 190 and about 780) have finite entries far above it, so they fail with exit 2
    code, out, err = _certify_thm2(capfd, _random_cube_file(tmp_path, m, p, seed), "4")
    rep = json.loads(out)
    assert (code, err) == (2, "certificate for thm2 did not pass\n")
    assert not rep["passes"] and rep["max_offdiag"] > 1e30
    assert rep["notes"][-1].startswith("off-diagonal check failed: ")


@pytest.mark.parametrize("c,code", [("2", 2), ("10", 0)])
def test_certify_thm2_two_distance_cross_polytope(tmp_path, capfd, c, code):
    # the 2-distance set +-e_i/2 in l_3^3 (distances 1 and 4^(-1/3)): at d = 3 the largest
    # off-diagonal entry is 0.5 >= 1/sqrt(6) = 0.408, at d = 5 it is 0.087
    f = tmp_path / "cross.json"
    f.write_text(json.dumps({"space": "lp:n=3,p=3", "points": [
        [0.5, 0, 0], [-0.5, 0, 0], [0, 0.5, 0], [0, -0.5, 0], [0, 0, 0.5], [0, 0, -0.5]]}))
    got, out, _ = _certify_thm2(capfd, f, c)
    rep = json.loads(out)
    assert got == code and rep["passes"] == (code == 0)
    assert (rep["max_offdiag"] >= 0.5) == (code == 2)
    assert rep["offdiag_threshold"] == 1 / math.sqrt(6)


def test_search_cli_deterministic(capsys):
    args = ("search", "--space", "lp:n=2,p=2", "--m", "3",
            "--restarts", "4", "--seed", "11", "--target", "1e-8")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["converged"] is True and rep["residual"] < 1e-8


def test_search_cli_nonconverged(capsys):
    code, out, err = _run(capsys, "search", "--space", "lp:n=2,p=2", "--m", "4",
                          "--restarts", "3", "--seed", "1")
    assert code == 2
    assert json.loads(out)["converged"] is False
    assert "did not converge" in err
    assert err.count("\n") == 1 and "iterations, stop: " in err


def test_readme_search_energy_calls(capsys, monkeypatch):
    # 2 of this search's 32 restarts stall and 20 pass the damping limit; the
    # search makes 95 residual calls, where the first-order descent it replaced
    # made 478 energy calls (5,539 before the stall rule).  Block norms softened
    # by 1e-9 below p = 2 ended it at 9.1e-10 in 100 calls; it now reaches 1.2e-14
    calls = []
    build = construct._search_residuals

    def counted(space, m):
        residuals = build(space, m)
        return lambda Q: calls.append(1) or residuals(Q)

    monkeypatch.setattr(construct, "_search_residuals", counted)
    code, out, _ = _run(capsys, "search", "--space", "lp:n=3,p=1", "--m", "6",
                        "--restarts", "32", "--seed", "7", "--target", "1e-8")
    assert code == 0 and len(calls) < 250
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5fa3c3779786207cbfb9de11e974bd2664ebcc00bfa6ba11f8d0d3f0f359a7eb"


@pytest.mark.parametrize("p", ["2000", "100000"])
def test_search_large_p_converges(capsys, p):
    # the first-order descent made no step here (residual 0.385, exit 2): it
    # formed r^p unscaled
    code, out, err = _run(capsys, "search", "--space", f"lp:n=3,p={p}", "--m", "4")
    assert (code, err) == (0, "") and json.loads(out)["residual"] <= 1e-10


def test_search_near_p_1_converges_in_time(capsys):
    # 9 points in l_1.05^6: the first-order descent ended at 4.19e-10 after
    # 0.88 s; this solver reaches 1.2e-15 in about 0.2 s on a 2-vCPU Xeon
    start = time.perf_counter()
    code, out, err = _run(capsys, "search", "--space", "lp:n=6,p=1.05", "--m", "9",
                          "--restarts", "64")
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "") and json.loads(out)["residual"] <= 1e-10


# (space, m, seed, exit code, sha256 of stdout, stderr) of searches at the
# default 8 restarts.  The solver's float operations and their order fix
# every trajectory, so any change to them shows here byte for byte.
SEARCH_OUTPUTS = [
    ("lp:n=3,p=1.5", 4, 3, 0,
     "5261e4e7a7385b8953d26b4444d1ba99ae11c16db88fc35d9df37bb424459487", ""),
    ("lp:n=3,p=2.5", 4, 4, 0,
     "98fd69092a18636ed5fc09ca5e0382a3871acb497a178aa0c913f67b2de9ae93", ""),
    ("lp:n=3,p=inf", 5, 5, 0,
     "130f5ac936892051bca856e3d540243814c940a9bc0f3707a4350412cbb79fb5", ""),
    ("lpsum:blocks=2,2,p=4", 5, 6, 0,
     "9802bc1c1b1dcfd632684fae90be8e99653ff5950e6a73808cf780b514bae2aa", ""),
    ("lpsum:blocks=2,1,p=inf", 4, 7, 0,
     "3eb698e377d444c42e585d9f7e8b6f4e72a09cb666a42481ca3a5bcafca78da4", ""),
    ("lp:n=2,p=2", 4, 8, 2,
     "73993a1e5046504e88efca725f5fa0125b99a0de6f0ff92fd510c6f106b1e68f",
     "search did not converge: residual 0.207107 (best restart 0: 13 iterations, "
     "stop: damping overflow, final damping 1.81e+08)\n"),
    # block norms softened by 1e-9 below p = 2 held these two above the default
    # target, at residuals of 1.2e-9 and 1.9e-9 (exit 2)
    ("lp:n=3,p=1", 6, 0, 0,
     "a185b0e3ba4b5a406467fb9bb9e799bddcc1681ab74fe2cd1ef953d088dfbb5e", ""),
    ("lp:n=4,p=1.02", 6, 10, 0,
     "cfdee86ae060eea88308a4876e25958c1e63d38ad13faf815965d9499828e915", ""),
    # 8 blocks, and a block of 8 coordinates: the residuals add their 8 terms in
    # order, one slab after another, where a sum over a last axis of 8 or more
    # terms is pairwise
    ("lp:n=8,p=1.5", 5, 9, 0,
     "1665df95aeb70dc3aa9cb05a11e62dba7a84b03fcd13683560f5acf00e5c509d", ""),
    ("lpsum:blocks=8,1,p=3", 4, 10, 0,
     "bbc2036e2e546e3914c4437491384d04282bf3e2f2aff63469b0d4da82b351cd", ""),
]


@pytest.mark.parametrize("space,m,seed,code,digest,err", SEARCH_OUTPUTS,
                         ids=[f"{s}-m{m}" for s, m, *_ in SEARCH_OUTPUTS])
def test_search_outputs_pinned(capsys, space, m, seed, code, digest, err):
    got = _run(capsys, "search", "--space", space, "--m", str(m), "--seed", str(seed))
    assert (got[0], hashlib.sha256(got[1].encode()).hexdigest(), got[2]) == (code, digest, err)
    # the residual the search reports is its own; the pairwise kernel's, on the
    # printed points, must agree within two ulps of 1
    rep = json.loads(got[1])
    ps = PointSet(Space.from_string(rep["space"]), np.array(rep["points"]))
    dists = distance_matrix(ps)[np.triu_indices(ps.m, 1)]
    assert abs(rep["residual"] - np.max(np.abs(dists - 1.0))) <= 4.5e-16


_PINNED_PERTURBED = construct.lp_simplex(3, 2.5).to_jsonable()
_PINNED_PERTURBED["points"][1][0] += 1.5e-3
_PINNED_TRIANGLE = construct.euclidean_simplex(2).points.tolist()
# the point sets the pinned commands read, by the name passed to --points
_PINNED_SETS = {
    "simplex": construct.lp_simplex(3, 2.5).to_jsonable(),
    "one": {"space": "lp:n=2,p=3", "points": [[0.5, -1]]},
    "perturbed": _PINNED_PERTURBED,
    "dup": {"space": "lp:n=2,p=2", "points": [[0, 0], [0, 0], [1, 0]]},
    "cp3": construct.cross_polytope(3).to_jsonable(),
    "prod": construct.product_construction(construct.euclidean_simplex(2),
                                           construct.euclidean_simplex(1)).to_jsonable(),
    # a unit triangle in the first block, one constant in the second
    "equi4": {"space": "lpsum:blocks=2,1,p=4", "points": [[x, y, 0.25] for x, y in _PINNED_TRIANGLE]},
    "simplex2": construct.lp_simplex(2, 3.5).to_jsonable(),
}
# (command, exit code, sha256 of stdout, stderr) of every subcommand but
# search, which SEARCH_OUTPUTS pins: any change to an output shows here.
CLI_OUTPUTS = [
    ("approx --p 2.5 --d 10", 0,
     "a82e57e94d69ab97e353c77042b366bd09c068ced45f5a8a933166a614d0ad3f", ""),
    ("approx --p 3.5 --d 24", 0,
     "17b2606319226a3febdf116acbf1870ef3f827cae48efd0854a053a818047fe4", ""),
    ("approx --p 4 --d 8", 0,
     "2f3dee435f22f992aacdb5a1c5e67b61338e9b7200347560a4e1250c60e4de2c", ""),
    ("approx --p 1 --d 1", 0,
     "4dbb5e3e6dab211fdb58fff2fc2c7fd460ced485063ff0198f76a86c64c94740", ""),
    ("approx --p 1.5 --d 35", 0,
     "ea4e955e0eb90b22d449f65abdc4fc628a9663657dd98f18a9da35f2f4f253d7", ""),
    ("approx --p 1.25 --d 38", 0,
     "b6ca28b5252b9ecf12a6444afad5e4cc470c8b01b481f865880f68841321a1c5", ""),
    ("bound --space lp:n=3,p=2.5", 0,
     "fd6efa3e71039ff5173d5c88ac55755e511e5c7aa283e71cd5e88d7cfca85d9a", ""),
    ("bound --space lpsum:blocks=2,3,p=inf --best", 0,
     "8ed50e0d3deb4c93f346e5f93b38f775b3d2bdb674c79c70e762aca151a1ef64", ""),
    ("bound --space lp:n=4,p=4 --format csv", 0,
     "967037c59c082a9764f103bbfbd1a3fe42958205e1ba6b4a6480718469290946", ""),
    ("bound --space lp:n=3,p=1.5 --format text", 0,
     "2fb64971831e51c6d96f0e6b7220c3a87b446f08d95fd8c4c5d966f987648f5e", ""),
    ("construct cross-polytope --n 3", 0,
     "5f1b2e603fb9cb3486ae94658d8d5f87130aa4a1611a26f1d9383c012e74a694", ""),
    ("construct lp-simplex --n 3 --p 2.5", 0,
     "8be4ccd1ac0ae8fd06b78e914434cdf040c513290e8672796f044423535becd6", ""),
    ("construct euclidean-simplex --n 3", 0,
     "11fb6deae14ae5936436dfee77c7605f9d3a4f0a09bd3467808d4ad952d74ce9", ""),
    ("construct product --a 2 --b 1", 0,
     "82aa51358470589be27bf6192a30910ded9c8ccdede7f3f12f8a1c8ab7a103c3", ""),
    ("verify --points simplex", 0,
     "c32d5ed833848f7e35415d7ee5057ca61bfff58bf45a2e8b613cca7b0190cf80", ""),
    ("verify --points one", 0,
     "891b4c4cddff9d146f2485ca47cb3d865f2f0c62823b103759344b0a33c352b4", ""),
    ("verify --points perturbed", 2,
     "73096abe6c43a400f122b118a18a16d55646cc87dba41be5f78032dcc9af03cf",
     "not unit-equilateral: profile [1.000000008714198, 0.9990111043211537]\n"),
    ("verify --points dup", 2,
     "305c0f71a6da44efbbeec4fe3f19bf250ac25b4842c28a34f5b9f2ea1239c359",
     "zero distance present\n"),
    ("certify --points cp3 --theorem thm1", 2,
     "d3e775d28087976dbaf8652277cd1ca3814b5c2a8497aef00841c740ed2d7f30",
     "certificate for thm1 did not pass\n"),
    ("certify --points simplex --theorem thm1", 0,
     "2b67e3ded2ee764b0becac82351a8cda013cd7032627678ca67b8a1afaf95b28", ""),
    ("certify --points simplex --theorem thm2 --c 4", 0,
     "75bbe6ee4044027361d59f5765cf1a232b416370d0a25a648dbc195cc51f1a7a", ""),
    ("certify --points one --theorem thm2", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: distance profile needs at least 2 points\n"),
    ("certify --points prod --theorem thm3", 0,
     "a9a19444845c4545b0ffd44ad90d688f6fd1f3300de2a21846342f48febdc523", ""),
    ("certify --points equi4 --theorem thm4", 0,
     "9e7ea95e2f2a857cf6b6cc652e6d18e00d1f82017baba6285a9f812a718f24f7", ""),
    ("certify --points simplex2 --theorem thm5", 0,
     "82b676d8d0e6a555a3da50747f1a2a3c567f213231592206b44637b7e0d4658c", ""),
]


# (command, sha256 of stdout) of constructions at the sizes the benchmark writes,
# in every format: their coordinates come from Python float arithmetic, so these
# hold with numpy's AVX-512 loops on or off
CONSTRUCT_OUTPUTS = [
    ("construct cross-polytope --n 200",
     "bd34542534f9e79591ccdc9ad23a7fde9da3a73f5bbfb04d5bd10354d37d0035"),
    ("construct cross-polytope --n 200 --format csv",
     "6f73134b0c5657ce3df8ef89fc48c8e9d1c6e695b19a4cc60a7c10e763f3e862"),
    ("construct cross-polytope --n 200 --format text",
     "3556ea92bcf56b3ddddb213fa527b63226c4725378429865e1be8ff4fb7a8d9a"),
    ("construct lp-simplex --n 200 --p 3.5",
     "df8f697893dc15eb301296ef701fb4eb39edb8c71b21f20605f173aa3c997264"),
    ("construct lp-simplex --n 200 --p 3.5 --format csv",
     "0b81eb96aa42f49691002726fc37934686b7f8b40098f4c82a34a752e3f80aff"),
    ("construct lp-simplex --n 200 --p 3.5 --format text",
     "821f0103c50bf0c55646e5eeba6f8aab3f509c43ca458f8870bb128d22c660f4"),
    ("construct product --a 6 --b 6",
     "7a0badaf495d81ad86da868a56fe920db07afaedbb5df9ee439b16f479fc7d93"),
    ("construct product --a 6 --b 6 --format csv",
     "e12a580ce7264d8b13fc112fecee0bf066ddb72d56e892e7f701876bdda2898d"),
    ("construct product --a 6 --b 6 --format text",
     "4035aaad62168d20f713f7ea62763b3f3edd649496ae2de346f2ee875e4404c8"),
]


@pytest.mark.parametrize("command,digest", CONSTRUCT_OUTPUTS,
                         ids=[command for command, _ in CONSTRUCT_OUTPUTS])
def test_construct_outputs_pinned_at_benchmark_sizes(capsys, command, digest):
    got = _run(capsys, *command.split())
    assert (got[0], hashlib.sha256(got[1].encode()).hexdigest(), got[2]) == (0, digest, "")


@pytest.fixture(scope="module")
def pinned_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned")
    for name, obj in _PINNED_SETS.items():
        (path / f"{name}.json").write_text(json.dumps(obj))
    return path


def _pinned_argv(pinned_dir, command):
    """command's argv, each --points name read as that file of pinned_dir."""
    argv = command.split()
    return [str(pinned_dir / f"{a}.json") if prev == "--points" else a
            for prev, a in zip([None, *argv], argv)]


@pytest.mark.parametrize("command,code,digest,err", CLI_OUTPUTS,
                         ids=[command for command, *_ in CLI_OUTPUTS])
def test_cli_outputs_pinned(capsys, pinned_dir, command, code, digest, err):
    got = _run(capsys, *_pinned_argv(pinned_dir, command))
    assert (got[0], hashlib.sha256(got[1].encode()).hexdigest(), got[2]) == (code, digest, err)


# every negative outcome a handler reports, with the start of its stderr line
NEGATIVE_OUTCOMES = [
    ("verify --points perturbed", "not unit-equilateral: profile ["),
    ("verify --points dup", "zero distance present"),
    ("certify --points cp3 --theorem thm1", "certificate for thm1 did not pass"),
    ("search --space lp:n=2,p=2 --m 4 --restarts 1", "search did not converge: residual "),
]


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("command,failure", NEGATIVE_OUTCOMES,
                         ids=[command for command, _ in NEGATIVE_OUTCOMES])
def test_negative_outcome_writes_the_report_then_one_line(pinned_dir, command, failure, fmt):
    # exit 2: the whole report reaches stdout before the one stderr line that says why
    argv = [*_pinned_argv(pinned_dir, command), "--format", fmt]
    code, out, err = _run_quietly(argv)
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert run(argv) == code == 2
    assert out and err.startswith(failure) and err.endswith("\n") and err.count("\n") == 1
    assert both.getvalue() == out + err


@pytest.mark.parametrize("command", [
    "bound --space lp:n=0,p=2",
    "construct lp-simplex --n 3",
    "verify --points missing",
    "certify --points one --theorem thm2",
    "approx --p nan --d 4",
    "search --space lp:n=2,p=2 --m 4 --target nan",
])
def test_input_error_writes_no_report(pinned_dir, command):
    code, out, err = _run_quietly(_pinned_argv(pinned_dir, command))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_input_errors_exit_1(capsys):
    assert _run(capsys, "bound", "--space", "l2:n=3,p=2")[0] == 1
    assert _run(capsys, "bound", "--space", "lp:n=3,p=2", "--nope")[0] == 1
    assert _run(capsys, "verify", "--points", "/no/such/file.json")[0] == 1
    assert _run(capsys, "approx", "--p", "2.5", "--d", "2")[0] == 1
    code, _, err = _run(capsys, "construct", "lp-simplex", "--n", "3")
    assert code == 1 and "lp-simplex needs" in err


@pytest.mark.parametrize("points, message", [
    ("[[0, 0], [1]]", "rectangular"),
    ("[[0, NaN], [1, 0]]", "finite"),
    ("[[0, 0], [1, Infinity]]", "finite"),
])
@pytest.mark.parametrize("command", [("verify",), ("certify", "--theorem", "thm1")])
def test_bad_points_exit_1(tmp_path, capsys, points, message, command):
    f = tmp_path / "bad.json"
    f.write_text('{"space": "lp:n=2,p=2", "points": ' + points + "}")
    code, out, err = _run(capsys, *command, "--points", str(f))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("content, message", [
    (b'{"space": 3, "points": [[1]]}', "a space string must be a string, got int"),
    (b'{"space": "lp:n=1,p=2", "points": [[1' + b"0" * 400 + b']]}', "finite numbers"),
    (b'{"space": "lp:n=1,p=2", "points": [[1' + b"0" * 5000 + b']]}', "not readable JSON"),
    (b"\xff\xfe", "not readable JSON"),
    (b"[" * 100000, "not readable JSON"),
], ids=["space-not-a-string", "int-past-the-largest-double", "int-of-5001-digits",
        "not-utf-8", "nested-too-deep"])
def test_unreadable_points_exit_1(tmp_path, capsys, content, message):
    f = tmp_path / "bad.json"
    f.write_bytes(content)
    code, out, err = _run(capsys, "verify", "--points", str(f))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


_PAIR = PointSet(Space(2.0, (1,)), [[0], [1]])


# each float flag is read only by the library gate that the API call reaches
@pytest.mark.parametrize("argv, message, api", [
    (("approx", "--p", "nan", "--d", "4"), "p must be finite, got nan",
     lambda: approx.approximate_abs_power(math.nan, 4)),
    (("approx", "--p", "inf", "--d", "4"), "p must be finite, got inf",
     lambda: approx.approximate_abs_power(math.inf, 4)),
    (("certify", "--theorem", "thm2", "--c", "nan"), "c must be finite, got nan",
     lambda: eqdist.CertifyConfig(c=math.nan)),
    (("certify", "--theorem", "thm2", "--c", "inf"), "c must be finite, got inf",
     lambda: eqdist.CertifyConfig(c=math.inf)),
    (("certify", "--theorem", "thm5", "--c", "nan"), "c must be finite, got nan",
     lambda: eqdist.CertifyConfig(c=math.nan)),
    (("certify", "--theorem", "thm5", "--c", "inf"), "c must be finite, got inf",
     lambda: eqdist.CertifyConfig(c=math.inf)),
    (("search", "--space", "lp:n=2,p=2", "--m", "3", "--restarts", "1", "--target", "nan"),
     "residual_target must be finite, got nan",
     lambda: construct.SearchConfig(restarts=1, residual_target=math.nan)),
    (("verify", "--tol", "inf"), "tol must be finite, got inf",
     lambda: construct.distance_profile(_PAIR, math.inf)),
    (("bound", "--space", "lp:n=3,p=3", "--c", "nan"), "c_absolute must be finite, got nan",
     lambda: eqdist.BoundConfig(c_absolute=math.nan)),
    (("construct", "lp-simplex", "--n", "3", "--p", "nan"), "p must be finite, got nan",
     lambda: construct.lp_simplex(3, math.nan)),
    (("approx", "--p", "1e999", "--d", "4"), "p must be finite, got inf",
     lambda: approx.approximate_abs_power(1e999, 4)),
], ids=[f"argv{i}" for i in range(11)])
def test_non_finite_flags_exit_1(tmp_path, capsys, argv, message, api):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(_PAIR.to_jsonable()))
    if argv[0] in ("certify", "verify"):
        argv += ("--points", str(f))
    assert _run(capsys, *argv) == (1, "", f"error: {message}\n")
    with pytest.raises(eqdist.errors.InputError) as refused:
        api()
    assert str(refused.value) == message


def test_unread_construct_flag_is_not_checked(capsys):
    # cross-polytope reads only --n, so its --p is not read, finite or not
    for p in ("2.5", "nan"):
        code, out, err = _run(capsys, "construct", "cross-polytope", "--n", "2", "--p", p)
        assert (code, out, err) == (0, render_json(eqdist.cross_polytope(2).to_jsonable()) + "\n", "")


def test_certify_nonpositive_c_exit_1(tmp_path, capsys):
    # refused for every theorem, also those that read no c
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"space": "lp:n=1,p=2", "points": [[0], [1]]}))
    for theorem in ("thm1", "thm2", "thm3", "thm4", "thm5"):
        for c in ("0", "-1"):
            argv = ("certify", "--points", str(f), "--theorem", theorem, "--c", c)
            assert _run(capsys, *argv) == (1, "", f"error: c must be positive, got {float(c)}\n")


def test_negative_c_absolute_exit_1(tmp_path, capsys, monkeypatch):
    code, out, err = _run(capsys, "bound", "--space", "lp:n=3,p=3", "--c", "-1")
    assert code == 1 and out == "" and "c_absolute must be positive" in err
    cfg = tmp_path / "eqd.cfg"
    cfg.write_text("c_absolute = -1\n")
    monkeypatch.setenv("EQD_CONFIG", str(cfg))
    code, out, err = _run(capsys, "bound", "--space", "lp:n=3,p=3")
    assert code == 1 and out == "" and "c_absolute must be positive" in err


def test_verify_lpsum_huge_coordinates(tmp_path, capsys):
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"space": "lpsum:blocks=2,1,p=inf",
                             "points": [[1e200, 1e200, 0], [0, 0, 0], [0, 0, 1e200]]}))
    code, out, _ = _run(capsys, "verify", "--points", str(f))
    assert code == 2
    profile = json.loads(out)["profile"]
    assert len(profile) == 2 and all(math.isfinite(d) for d in profile)
    assert abs(profile[0] / 1e200 - math.sqrt(2)) < 1e-15 and profile[1] == 1e200


@pytest.mark.parametrize("command", [["verify"], ["certify", "--theorem", "thm1"],
                                     ["certify", "--theorem", "thm2"]])
def test_pair_point_cap_exit_1(tmp_path, monkeypatch, command):
    # one point past the cap, in dimension 1, is refused before the (m, m) planes
    # are allocated: 20,000 points used to end in numpy's allocation traceback
    f = tmp_path / "line.json"
    f.write_text(json.dumps({"space": "lp:n=1,p=3",
                             "points": [[i] for i in range(space_mod.MAX_PAIR_POINTS + 1)]}))
    code, out, err = _run_quietly([*command, "--points", str(f)])
    assert code == 1 and out == ""
    assert err == f"error: {space_mod.MAX_PAIR_POINTS + 1} points are above the cap of " \
                  f"{space_mod.MAX_PAIR_POINTS} on pairwise distances\n"
    # the edge, with the cap lowered: 4 points pass it, 5 do not
    monkeypatch.setattr(space_mod, "MAX_PAIR_POINTS", 4)
    for m, refused in ((4, False), (5, True)):
        f.write_text(json.dumps({"space": "lp:n=1,p=3", "points": [[i] for i in range(m)]}))
        code, out, err = _run_quietly([*command, "--points", str(f)])
        assert (code == 1 and out == "" and "above the cap of 4" in err) == refused, err


def test_search_size_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(construct, "SEARCH_MAX_PAIR_COORDS", 3 * 3 * 2)
    args = ("search", "--space", "lp:n=2,p=2", "--restarts", "1")
    assert _run(capsys, *args, "--m", "3")[0] == 0
    code, out, err = _run(capsys, *args, "--m", "4")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "above the cap of 18" in err


def test_search_restart_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(construct, "SEARCH_MAX_RESTARTS", 3)
    args = ("search", "--space", "lp:n=2,p=2", "--m", "3", "--seed", "5")
    assert _run(capsys, *args, "--restarts", "3")[0] == 0
    code, out, err = _run(capsys, *args, "--restarts", "4")
    assert code == 1 and out == "" and err == "error: 4 restarts are above the cap of 3\n"
    monkeypatch.undo()  # refused before any restart runs
    code, out, err = _run(capsys, *args, "--restarts", "100000000")
    assert code == 1 and out == "" and "above the cap of 4096" in err


@pytest.mark.parametrize("kind, cap, edge, over, huge", [
    ("cross-polytope", 18, "--n 3", "--n 4", "--n 100000"),  # 6 x 3, 8 x 4
    ("lp-simplex", 20, "--n 4 --p 3", "--n 5 --p 3", "--n 100000 --p 3"),  # 5 x 4, 6 x 5
    ("euclidean-simplex", 20, "--n 4", "--n 5", "--n 100000"),
    ("product", 32, "--a 3 --b 1", "--a 3 --b 2", "--a 100 --b 500")])  # 8 x 4, 12 x 5
def test_construct_size_cap_exit_1(capsys, monkeypatch, kind, cap, edge, over, huge):
    monkeypatch.setattr(construct, "CONSTRUCT_MAX_COORDS", cap)
    assert _run(capsys, "construct", kind, *edge.split())[0] == 0
    code, out, err = _run(capsys, "construct", kind, *over.split())
    assert code == 1 and out == "" and err.count("\n") == 1
    assert f"coordinates, above the cap of {cap}" in err
    monkeypatch.undo()  # sizes far past the real cap are refused before anything is allocated
    code, _, err = _run(capsys, "construct", kind, *huge.split())
    assert code == 1 and "above the cap of 4194304" in err


def test_approx_degree_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(approx, "MAX_DEGREE", 6)
    assert _run(capsys, "approx", "--p", "2", "--d", "6")[0] == 0
    code, out, err = _run(capsys, "approx", "--p", "2", "--d", "7")
    assert code == 1 and out == "" and err == "error: degree 7 exceeds the cap of 6\n"
    monkeypatch.undo()
    assert _run(capsys, "approx", "--p", "2", "--d", "32000")[0] == 1


def test_nested_floats_have_17_digits(capsys):
    # csv and text used to print nested floats as their shortest repr (2.01)
    args = ("bound", "--space", "lp:n=5,p=3")
    for fmt in ("csv", "text"):
        code, out, _ = _run(capsys, *args, "--format", fmt)
        assert code == 0 and "2.0099999999999998" in out and "6.0299999999999994" in out
        assert "2.01," not in out and "6.029999999999999}" not in out
    code, out, _ = _run(capsys, *args, "--format", "json")
    assert code == 0 and "2.0099999999999998" in out


def test_bound_huge_exact_values(capsys):
    # 2**20000 and the conjectured (s+1)**20000 have about 6000 digits
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=20000,p=3")
    assert code == 0
    values = {r["source"]: r["value"] for r in json.loads(out)}
    assert values["petty"] == values["swanepoel-conjecture"] == {"log2": 20000.0}
    for fmt in ("csv", "text"):
        code, out, _ = _run(capsys, "bound", "--space", "lp:n=20000,p=3", "--format", fmt)
        assert code == 0 and out.count('{"log2": 20000.0}') + out.count('{""log2"": 20000.0}') == 2
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=20000,p=3", "--s", "2")
    conjecture = {r["source"]: r["value"] for r in json.loads(out)}["swanepoel-conjecture"]
    assert code == 0 and math.isclose(conjecture["log2"], 20000 * math.log2(3), rel_tol=1e-15)
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=200,p=3")
    assert code == 0 and {r["source"]: r["value"] for r in json.loads(out)}["petty"] == 2 ** 200


def test_formats(capsys):
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=3,p=2", "--format", "csv")
    assert code == 0 and out.splitlines()[0].startswith("side,")
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=3,p=2",
                        "--best", "--format", "text")
    assert code == 0 and "value: 4" in out


def test_eqd_config_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "eqd.cfg"
    cfg.write_text("c_absolute = 2.05\n")
    monkeypatch.setenv("EQD_CONFIG", str(cfg))
    code, out, _ = _run(capsys, "bound", "--space", "lp:n=2,p=4")
    assert code == 0
    assert any(r["source"] == "thm1.2" for r in json.loads(out))
    monkeypatch.setenv("EQD_CONFIG", str(tmp_path / "missing.cfg"))
    assert _run(capsys, "bound", "--space", "lp:n=2,p=4")[0] == 1
    # a misspelt key or flag is refused with one line, not ignored
    for line in ("c_pp = 6", "treat_asymptotic_as_explicit = ture"):
        cfg.write_text(line + "\n")
        monkeypatch.setenv("EQD_CONFIG", str(cfg))
        code, out, err = _run(capsys, "bound", "--space", "lp:n=2,p=4", "--best")
        assert code == 1 and out == "" and err.count("\n") == 1, err


def test_render_json_17_digits():
    s = render_json({"x": 0.1, "y": 1.0, "z": [1, True, None, "s"]})
    obj = json.loads(s)
    assert obj["x"] == 0.1 and obj["y"] == 1.0
    assert "0.10000000000000001" in s and "1.0" in s


def test_render_json_refuses_other_objects():
    with pytest.raises(TypeError, match="cannot serialize"):
        render_json({"x": [object()]})


def test_seventeen_digit_roundtrip():
    rng = np.random.default_rng(3)
    vals = list(rng.normal(size=50)) + [1e-300, 1e300, -0.0, 3.0]
    s = render_json({"v": [float(v) for v in vals]})
    back = json.loads(s)["v"]
    assert all(a == b for a, b in zip(back, vals))


_JSON_LEAVES = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 3.0]),
    st.integers(), st.integers(-1, 1).map(lambda d: HUGE_INT + d),
    st.just(20000).map(lambda e: 2 ** e),  # a strategy repr may not hold the 6000 digits
    st.booleans(), st.none(), st.text(max_size=8))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), kids, max_size=4)), max_leaves=16)
_JSON_ROWS = st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=5)
_EVERY_CASE = {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": (-0.0, 0.0),
               "tiny": 5e-324, "huge": [HUGE_INT, [2 ** 20000, HUGE_INT - 1]],
               "flags": [True, False, None], "text": 'say "h\u00e9" \u2603',
               "empty": [[], {}, ()], "nested": {"a": {"b": [{"c": ()}]}}}
# longer than the strategy's lists: finite floats on both sides of each switch
# of _fmt_float's rule (-0.0, 1e17, 2**53 + 2), then lists that mix them with
# other values
_FLOAT_LIST = [0.0, -0.0, 5e-324, -5e-324, 1.0, -3.0, 1e16, -1e16, 99999999999999984.0,
               -99999999999999984.0, 1e17, -1e17, 1e22, 0.1, 2.5, 1e-5, 2.0 ** 53 + 2]
_FLOAT_LISTS = {"floats": _FLOAT_LIST, "nan": [*_FLOAT_LIST, math.nan],
                "inf": [math.inf, *_FLOAT_LIST], "int": [*_FLOAT_LIST, 3],
                "bool": [True, *_FLOAT_LIST], "np": [*_FLOAT_LIST, np.float64(0.1)],
                "rows": [_FLOAT_LIST, tuple(_FLOAT_LIST)]}
# a float list such as approx's coefficients or verify's profile, with the
# non-finite values that _fmt_float writes as JSON strings
_EDGE_FLOATS = [-0.0, 1e17, math.nan, math.inf, 0.0, -1e17, -math.inf, 99999999999999984.0]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(obj=_JSON_VALUES)
@example(obj=_EVERY_CASE)
@example(obj=[_EVERY_CASE, (_EVERY_CASE,)])
@example(obj=_FLOAT_LIST)
@example(obj=_FLOAT_LISTS)
@example(obj=[_FLOAT_LISTS, [_FLOAT_LISTS]])
@example(obj=_EDGE_FLOATS)
def test_render_json_matches_the_two_walker_reference(obj):
    assert render_json(obj) == json_reference.render_json(obj)
    assert render_json(obj, None) == json_reference._inline(obj)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(obj=_JSON_ROWS | st.lists(_JSON_ROWS, max_size=4))
@example(obj=_EVERY_CASE)
@example(obj=[_EVERY_CASE, {"tiny": 1.0, "other": "x"}])
@example(obj=_FLOAT_LISTS)
@example(obj=[_FLOAT_LISTS, {"floats": [*_FLOAT_LIST, *_FLOAT_LIST], "x": 1.5}])
@example(obj={"profile": _EDGE_FLOATS, "coefficients": [_EDGE_FLOATS]})
def test_csv_and_text_match_the_two_walker_reference(obj):
    assert cli.render_csv(obj) == json_reference.render_csv(obj)
    assert cli.render_text(obj) == json_reference.render_text(obj)


# small float64 matrices, their entries often repeated: the array writer formats
# each distinct bit pattern once, so repeats, -0.0 beside 0.0 among them, must
# each land where they stand; every nan bit pattern is written "nan"
_POINT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
    elements=st.sampled_from(_FLOAT_LIST) | st.floats())


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(a=_POINT_ARRAYS)
@example(a=np.array([_FLOAT_LIST, [-v for v in _FLOAT_LIST]]))
@example(a=np.array([[0.5]]))
@example(a=np.array(_FLOAT_LIST)[:, None])
@example(a=np.array([_EDGE_FLOATS, _EDGE_FLOATS[::-1]]))  # nan and inf as JSON strings
@example(a=np.linspace(-1.0, 1.0, 31).reshape(1, 31))  # 31, 32 and 33 entries: no
@example(a=np.linspace(-1.0, 1.0, 32).reshape(4, 8))   # size takes another path
@example(a=np.linspace(-1.0, 1.0, 33).reshape(11, 3))
@example(a=np.random.default_rng(0).normal(size=(6, 4)))  # a search output's shape
@example(a=np.array(_FLOAT_LIST))  # arrays other than float64 matrices, too
@example(a=np.arange(6).reshape(2, 3))
@example(a=np.zeros((2, 0)))
def test_render_array_matches_the_two_walker_reference(a):
    rows = a.tolist()
    assert (render_json(a), render_json(a, None), cli.render_csv({"points": a}),
            cli.render_text({"points": a})) == (
        json_reference.render_json(rows), json_reference._inline(rows),
        json_reference.render_csv({"points": rows}), json_reference.render_text({"points": rows}))


def test_unknown_theorem_message(capsys):
    code, out, err = _run(capsys, "certify", "--points", "x.json", "--theorem", "thm9")
    assert (code, out) == (1, "")
    assert err == ("error: argument --theorem: invalid choice: 'thm9' (choose from "
                   "'thm1', 'thm2', 'thm3', 'thm4', 'thm5')\n")


def test_certify_huge_finite_entries_one_stderr_line(tmp_path):
    # the thm1 entries are finite, near -1e200; their squares used to overflow
    # with two lines of numpy warnings
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"space": "lp:n=3,p=1", "points": [
        [5e99, 0, 0], [-5e99, 0, 0], [0, 5e99, 0], [0, -5e99, 0]]}))
    code, out, err = _run_quietly(["certify", "--points", str(f), "--theorem", "thm1"])
    assert code == 2 and json.loads(out)["theorem"] == "thm1"
    assert err == "certificate for thm1 did not pass\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("p, s", [("1e308", "1"), ("1e308", "2"), ("6e307", "2")])
def test_bound_exponents_past_the_largest_double(fmt, p, s):
    # 2p overflows at p = 1e308, 2ps at p = 6e307 and s = 2: the exponents
    # used to be nan and inf
    code, out, err = _run_quietly(["bound", "--space", f"lp:n=3,p={p}", "--s", s,
                                   "--format", fmt])
    assert code == 0 and err == ""
    assert "nan" not in out and f"n^{s}" in out


@pytest.mark.parametrize("space", [
    f"lp:n={MAX_AMBIENT_DIM + 1},p=3",
    f"lpsum:blocks={MAX_AMBIENT_DIM // 2},{MAX_AMBIENT_DIM // 2 + 1},p=3",
    "lp:n=" + "9" * 5000 + ",p=3",  # past int()'s 4300-digit limit
    "lpsum:blocks=" + "9" * 5000 + ",1,p=3",
], ids=["lp-cap+1", "lpsum-cap+1", "lp-5000-digits", "lpsum-5000-digits"])
def test_space_above_the_dimension_cap_exit_1(space):
    code, out, err = _run_quietly(["bound", "--space", space, "--best"])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "exceeds the cap" in err


def test_bound_s_above_the_bit_cap_exit_1():
    code, out, err = _run_quietly(["bound", "--space", "lp:n=1000,p=3", "--s", "9" * 4000])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "above the cap" in err


def test_bound_even_p_binomial_above_the_bit_cap_exit_1():
    # C(8000 + 5e299, 8000) has about 7.96e6 bits, and took seconds to form
    start = time.perf_counter()
    code, out, err = _run_quietly(["bound", "--space", "lpsum:blocks=8000,1,p=1e300"])
    assert (code, out) == (1, "") and time.perf_counter() - start < 2.0
    assert err == "error: the even-p term C(a + p/2, a) has more than 4194304 bits, above the cap\n"


@pytest.mark.parametrize("a, b, name", [("0", "2", "a"), ("2", "0", "b")])
def test_construct_product_names_its_flag_exit_1(capsys, a, b, name):
    code, out, err = _run(capsys, "construct", "product", "--a", a, "--b", b)
    assert (code, out, err) == (1, "", f"error: {name} must be >= 1, got 0\n")


def test_space_at_the_dimension_cap_exit_0():
    code, out, err = _run_quietly(["bound", "--space", f"lp:n={MAX_AMBIENT_DIM},p=3", "--best"])
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == {"log2": float(MAX_AMBIENT_DIM)}


def _module_env():
    """os.environ with PYTHONPATH set so that `python -m eqdist.cli` runs this eqdist."""
    return {**os.environ, "PYTHONPATH": str(Path(eqdist.__file__).resolve().parents[1])}


@pytest.mark.parametrize("command,code", [
    ("construct cross-polytope --n 2", 0),
    ("approx --p nan --d 4", 1),
    ("search --space lp:n=2,p=2 --m 4 --restarts 1", 2),
])
def test_main_exits_with_the_code_and_streams_of_run(command, code):
    proc = subprocess.run([sys.executable, "-m", "eqdist.cli", *command.split()],
                          capture_output=True, text=True, env=_module_env(), timeout=60)
    assert proc.returncode == code
    assert (proc.returncode, proc.stdout, proc.stderr) == _run_quietly(command.split())


def test_closed_stdout_exits_1_with_one_line():
    # `eqdist construct cross-polytope --n 300 | head -c 100`: the reader closes
    # the pipe while main() still has megabytes of JSON to write
    with subprocess.Popen([sys.executable, "-m", "eqdist.cli", "construct", "cross-polytope",
                           "--n", "300"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_module_env()) as proc:
        assert proc.stdout.read(100).startswith(b'{\n  "space": "lp:n=300,p=1"')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b"error: stdout was closed before the output was written\n"


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # every eqdist line of the README's shell blocks exits 0, and the Python
    # example prints the values its comments give
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [ln for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for ln in block.splitlines() if ln.startswith("eqdist ")]
    assert len(lines) == 13
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        assert run(argv) == 0, line
        out = capsys.readouterr().out
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    expected = [ln.split("#")[1].strip() for ln in example.splitlines() if ln.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected == ["13", "True"]
