"""Command-line front end.

Exit codes: 0 = success; 1 = input error (bad flags, malformed space string,
unreadable points file, inapplicable theorem); 2 = well-formed run with a
negative outcome (failed verification or certification, non-converged
search).  All numbers in reports are serialized with 17 significant digits
so that outputs are byte-stable, reproducible oracles.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

from . import approx as approx_mod
from . import bounds as bounds_mod
from . import construct as construct_mod
from .certify import THEOREMS, CertifyConfig
from .certify import certify as run_certify
from .errors import (CertificationError, DegenerateDistanceError, InputError,
                     NumericalError, ResourceLimitError)
from .space import PointSet, Space

FORMATS = ("json", "csv", "text")
# Exact integers at least this large, such as the 2**N bounds for large N, are
# written as {"log2": x}, x their base-2 logarithm: their decimal form would
# near CPython's 4300-digit limit on int-to-str conversion.
HUGE_INT = 10 ** 4000


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def render_json(obj, indent: int | None = 0) -> str:
    """obj as JSON, floats with 17 significant digits: one line when indent is
    None, else one container item per line, indented indent + 2 spaces."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int) and obj >= HUGE_INT:
        obj = {"log2": math.log2(obj)}
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        inner = None if indent is None else indent + 2
        if isinstance(obj, dict):
            open_, close = "{", "}"
            items = [f"{json.dumps(str(k))}: {render_json(v, inner)}" for k, v in obj.items()]
        else:
            open_, close = "[", "]"
            items = [render_json(v, inner) for v in obj]
        if indent is None:
            return open_ + ", ".join(items) + close
        pad = "\n" + " " * indent
        return open_ + pad + "  " + ("," + pad + "  ").join(items) + pad + close
    if isinstance(obj, (bool, int, str)) or obj is None:
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _scalar(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (dict, list, tuple)) or (isinstance(v, int) and v >= HUGE_INT):
        return render_json(v, None)
    return str(v)


def render_csv(obj) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    if isinstance(obj, list):
        fields = list(dict.fromkeys(k for row in obj for k in row))  # in first-seen order
        w.writerow(fields)
        for row in obj:
            w.writerow([_scalar(row[k]) if k in row else "" for k in fields])
    else:
        w.writerow(["key", "value"])
        for k, v in obj.items():
            w.writerow([k, _scalar(v)])
    return out.getvalue()


def render_text(obj) -> str:
    if isinstance(obj, list):
        return "\n\n".join(render_text(row) for row in obj)
    return "\n".join(f"{k}: {_scalar(v)}" for k, v in obj.items())


def emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(render_json(obj))
    elif fmt == "csv":
        print(render_csv(obj), end="")
    else:
        print(render_text(obj))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise InputError(message)


def _finite_float(tok: str) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {tok!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {tok!r}")
    return x


def _build_parser() -> _Parser:
    top = _Parser(prog="eqdist", description=__doc__.splitlines()[0]
                  if __doc__ else "")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_, cmd):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=FORMATS, default="json")
        p.set_defaults(cmd=cmd)
        return p

    p = add("bound", "enumerate applicable bounds for a space", _cmd_bound)
    p.add_argument("--space", required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--best", action="store_true",
                   help="report only the best concrete upper bound")
    p.add_argument("--c", type=_finite_float, default=None,
                   help="override the absolute constant c")

    p = add("construct", "emit one of the built-in equilateral configurations", _cmd_construct)
    p.add_argument("kind", choices=list(_CONSTRUCTIONS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=_finite_float, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)

    p = add("verify", "check that a point-set file is unit-equilateral", _cmd_verify)
    p.add_argument("--points", required=True)
    p.add_argument("--tol", type=_finite_float, default=1e-7)

    p = add("certify", "run a rank-certificate pipeline on a point-set file", _cmd_certify)
    p.add_argument("--points", required=True)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=_finite_float, default=None)
    p.add_argument("--c", type=_finite_float, default=None)

    p = add("approx", "certified even-polynomial approximation of |x|^p", _cmd_approx)
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("search", "numerical search for an equilateral witness", _cmd_search)
    p.add_argument("--space", required=True)
    p.add_argument("--m", type=int, required=True)
    cfg = construct_mod.SearchConfig()
    p.add_argument("--restarts", type=int, default=cfg.restarts)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--target", type=_finite_float, default=cfg.residual_target)
    return top


def _load_points(path: str) -> PointSet:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"unreadable points file {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # also bad UTF-8 and over-long integers
        raise InputError(f"points file {path} is not readable JSON: {e}") from e
    return PointSet.from_jsonable(obj)


def _env_config() -> bounds_mod.BoundConfig:
    path = os.environ.get("EQD_CONFIG")
    return bounds_mod.load_config(path) if path else bounds_mod.BoundConfig()


def _cmd_bound(args) -> int:
    space = Space.from_string(args.space)
    cfg = _env_config()
    if args.c is not None:
        cfg = dataclasses.replace(cfg, c_absolute=args.c)
    if args.best:
        emit(bounds_mod.best_explicit_upper(space, args.s, cfg).to_jsonable(), args.format)
    else:
        reports = bounds_mod.enumerate_bounds(space, args.s, cfg)
        emit([r.to_jsonable() for r in reports], args.format)
    return 0


# construct kind -> (the flags it needs, the builder they are passed to); the
# builders are looked up at each call, so a rebinding in construct takes effect
_CONSTRUCTIONS = {
    "cross-polytope": (("n",), lambda n: construct_mod.cross_polytope(n)),
    "lp-simplex": (("n", "p"), lambda n, p: construct_mod.lp_simplex(n, p)),
    "euclidean-simplex": (("n",), lambda n: construct_mod.euclidean_simplex(n)),
    "product": (("a", "b"), lambda a, b: construct_mod.product_construction(
        construct_mod.euclidean_simplex(a), construct_mod.euclidean_simplex(b))),
}


def _cmd_construct(args) -> int:
    names, build = _CONSTRUCTIONS[args.kind]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise InputError(f"{args.kind} needs " + " and ".join(f"--{name}" for name in names))
    emit(build(*values).to_jsonable(), args.format)
    return 0


def _cmd_verify(args) -> int:
    ps = _load_points(args.points)
    if args.tol <= 0:  # distance_profile refuses it too, but a single point never gets there
        raise InputError(f"tol must be positive, got {args.tol}")
    report = {"space": ps.space.to_string(), "m": ps.m}
    if ps.m == 1:
        report.update(profile=[], equilateral=True, max_deviation=0.0)
        emit(report, args.format)
        return 0
    try:
        profile = construct_mod.distance_profile(ps, args.tol)
    except DegenerateDistanceError as e:
        report.update(profile=None, equilateral=False, error=str(e))
        emit(report, args.format)
        print(str(e), file=sys.stderr)
        return 2
    dev = max(abs(d - 1.0) for d in profile)
    ok = len(profile) == 1 and dev <= args.tol
    report.update(profile=profile, equilateral=ok, max_deviation=dev)
    emit(report, args.format)
    if not ok:
        print(f"not unit-equilateral: profile {profile}", file=sys.stderr)
        return 2
    return 0


def _cmd_certify(args) -> int:
    ps = _load_points(args.points)
    cfg = CertifyConfig(c=args.c, k=args.k, p_override=args.p,
                        c_absolute=_env_config().c_absolute)
    report = run_certify(ps, args.theorem, cfg)
    emit(report.to_jsonable(), args.format)
    if not report.passes:
        print(f"certificate for {args.theorem} did not pass", file=sys.stderr)
        return 2
    return 0


def _cmd_approx(args) -> int:
    P, cert = approx_mod.approximate_abs_power(args.p, args.d)
    emit({"p": cert.p, "d": cert.d, "coefficients": list(P.even_coeffs),
          "measured_error": cert.measured_error,
          "jackson_bound": cert.jackson_bound}, args.format)
    return 0


def _cmd_search(args) -> int:
    space = Space.from_string(args.space)
    cfg = construct_mod.SearchConfig(restarts=args.restarts, seed=args.seed,
                                     residual_target=args.target)
    res = construct_mod.search_equilateral(space, args.m, cfg)
    out = res.points.to_jsonable()
    out.update(residual=res.residual, converged=res.converged,
               restart_index=res.restart_index)
    emit(out, args.format)
    if not res.converged:
        print(f"search did not converge: residual {res.residual:.6g} (best restart "
              f"{res.restart_index}: {res.iterations} iterations, stop: {res.stop})",
              file=sys.stderr)
        return 2
    return 0


# The parser is built on the first run, not at import, and reused: building
# it costs about 25 times as much as one parse.
_parser: _Parser | None = None


def run(argv: list[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    global _parser
    try:
        if _parser is None:
            _parser = _build_parser()
        args = _parser.parse_args(argv)
        return args.cmd(args)
    except (InputError, ResourceLimitError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CertificationError, DegenerateDistanceError) as e:
        print(f"failed: {e}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # so a pipe closed after the last write fails here too
    except BrokenPipeError:  # the reader left early, as `eqdist ... | head` does
        # stdout goes to devnull so the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
