import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqdist
import json_reference
from eqdist import approx, cli, construct
from eqdist.cli import HUGE_INT, render_json, run
from eqdist.space import MAX_AMBIENT_DIM, PointSet, Space


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
       points=st.sampled_from(sorted(_FUZZ_SETS)), p=_FLAG, k=_FLAG, c=_FLAG)
@example(theorem="thm2", points="linf", p=None, k=None, c=None)  # jackson_constant(inf)
@example(theorem="thm2", points="p50", p=None, k=None, c=None)  # the paper's c overflows
@example(theorem="thm1", points="cp3", p=None, k="100000000", c=None)  # used to hang
@example(theorem="thm1", points="cp3", p="1e300", k=None, c=None)
@example(theorem="thm4", points="prod", p="100000000", k=None, c=None)
@example(theorem="thm5", points="cp3", p=None, k=None, c="1e300")
def test_certify_fuzz_never_raises(fuzz_dir, theorem, points, p, k, c):
    argv = ["certify", "--points", str(fuzz_dir / f"{points}.json"), "--theorem", theorem]
    for flag, tok in (("--p", p), ("--k", k), ("--c", c)):
        if tok is not None:
            argv += [flag, tok]
    code, out, err = _run_quietly(argv)
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


def test_thm2_constant_overflow_exit_1(fuzz_dir):
    code, out, err = _run_quietly(["certify", "--points", str(fuzz_dir / "p50.json"),
                                   "--theorem", "thm2"])
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
    ("cp3", ("--theorem", "thm1", "--k", "100000000")),
    ("cp3", ("--theorem", "thm1", "--p", "1e300")),
    ("prod", ("--theorem", "thm4", "--p", "100000000")),
    ("cp3", ("--theorem", "thm5", "--c", "1e300"))])
def test_huge_exponents_refused_exit_1(fuzz_dir, points, flags):
    # each of these used to run for longer than 20 s
    code, out, err = _run_quietly(["certify", "--points", str(fuzz_dir / f"{points}.json"),
                                   *flags])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "exceeds the cap" in err


def test_search_huge_p_one_stderr_line():
    code, out, err = _run_quietly(["search", "--space", "lp:n=2,p=1e300", "--m", "3"])
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
    # 24 of this search's 32 restarts stall.  23 of them used to run to the
    # 4,000-step cap, and the search made 5,539 energy calls; the stdout is
    # the bytes it printed then.
    calls = []
    energy_grad = construct._pair_energy_grad
    monkeypatch.setattr(construct, "_pair_energy_grad",
                        lambda *args: calls.append(1) or energy_grad(*args))
    code, out, _ = _run(capsys, "search", "--space", "lp:n=3,p=1", "--m", "6",
                        "--restarts", "32", "--seed", "7", "--target", "1e-8")
    assert code == 0 and len(calls) < 1000
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d2fb42b0782a593230639c4928dbc425d98ebb681458e2d5f10f4ad035a83154"


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


@pytest.mark.parametrize("argv", [
    ("approx", "--p", "nan", "--d", "4"),
    ("approx", "--p", "inf", "--d", "4"),
    ("certify", "--theorem", "thm2", "--c", "nan"),
    ("certify", "--theorem", "thm2", "--c", "inf"),
    ("certify", "--theorem", "thm5", "--c", "nan"),
    ("certify", "--theorem", "thm5", "--c", "inf"),
    ("search", "--space", "lp:n=2,p=2", "--m", "3", "--restarts", "1", "--target", "nan"),
    ("verify", "--tol", "inf"),
    ("bound", "--space", "lp:n=3,p=3", "--c", "nan"),
])
def test_non_finite_flags_exit_1(tmp_path, capsys, argv):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"space": "lp:n=1,p=2", "points": [[0], [1]]}))
    if argv[0] in ("certify", "verify"):
        argv += ("--points", str(f))
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "finite" in err


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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(obj=_JSON_VALUES)
@example(obj=_EVERY_CASE)
@example(obj=[_EVERY_CASE, (_EVERY_CASE,)])
def test_render_json_matches_the_two_walker_reference(obj):
    assert render_json(obj) == json_reference.render_json(obj)
    assert render_json(obj, None) == json_reference._inline(obj)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(obj=_JSON_ROWS | st.lists(_JSON_ROWS, max_size=4))
@example(obj=_EVERY_CASE)
@example(obj=[_EVERY_CASE, {"tiny": 1.0, "other": "x"}])
def test_csv_and_text_match_the_two_walker_reference(obj):
    assert cli.render_csv(obj) == json_reference.render_csv(obj)
    assert cli.render_text(obj) == json_reference.render_text(obj)


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


def test_space_at_the_dimension_cap_exit_0():
    code, out, err = _run_quietly(["bound", "--space", f"lp:n={MAX_AMBIENT_DIM},p=3", "--best"])
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == {"log2": float(MAX_AMBIENT_DIM)}


def test_closed_stdout_exits_1_with_one_line():
    # `eqdist construct cross-polytope --n 300 | head -c 100`: the reader closes
    # the pipe while main() still has megabytes of JSON to write
    env = {**os.environ, "PYTHONPATH": str(Path(eqdist.__file__).resolve().parents[1])}
    with subprocess.Popen([sys.executable, "-m", "eqdist.cli", "construct", "cross-polytope",
                           "--n", "300"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(100).startswith(b'{\n  "space": "lp:n=300,p=1"')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b"error: stdout was closed before the output was written\n"
