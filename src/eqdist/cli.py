"""Command-line front end.

Each handler returns its report and the stderr line of a negative outcome, or None;
run alone writes them and picks the exit code: 0 = success; 1 = input error (bad
flags, malformed space string, unreadable points file, inapplicable theorem); 2 =
well-formed run with a negative outcome (failed verification or certification,
non-converged search).  All numbers in reports are serialized with 17 significant
digits so that outputs are byte-stable, reproducible oracles.
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

import numpy as np

from . import approx as approx_mod
from . import bounds as bounds_mod
from . import construct as construct_mod
from .certify import THEOREMS, CertifyConfig
from .certify import certify as run_certify
from .errors import (CertificationError, DegenerateDistanceError, InputError,
                     NumericalError, ResourceLimitError, require_int)
from .space import PointSet, Space

FORMATS = ("json", "csv", "text")
# Exact integers at least this large, such as the 2**N bounds for large N, are
# written as {"log2": x}, x their base-2 logarithm: their decimal form would
# near CPython's 4300-digit limit on int-to-str conversion.
HUGE_INT = 10 ** 4000


def _fmt_float(x: float) -> str:
    """A finite x as "%.1f" when integral below 1e17, else "%.17g"; nan and
    inf as JSON strings."""
    if not math.isfinite(x):
        return json.dumps(str(x))
    return ("%.1f" if x.is_integer() and -1e17 < x < 1e17 else "%.17g") % x


def _layout(indent: int | None) -> tuple[str, str, str]:
    """(separator, opening, closing) of a nonempty container's items: on one
    line when indent is None, else one item per line, indented indent + 2 spaces."""
    if indent is None:
        return ", ", "", ""
    pad = "\n" + " " * indent
    return "," + pad + "  ", pad + "  ", pad


def _render_array(a: np.ndarray, indent: int | None) -> str:
    """a as render_json writes a.tolist().  A non-empty float64 matrix, such as
    a PointSet's points, is written from the array: each distinct bit pattern
    (-0.0 apart from 0.0) is formatted once by _fmt_float, and the row texts
    are joined."""
    if a.dtype != np.float64 or a.ndim != 2 or a.size == 0:
        return render_json(a.tolist(), indent)
    bits = a.view(np.int64).ravel()
    ordered = np.sort(bits)
    starts = np.empty(bits.size, bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    distinct = ordered[starts]
    texts = np.array([_fmt_float(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    rows = texts[distinct.searchsorted(bits)].reshape(a.shape).tolist()
    sep, open_, close = _layout(None if indent is None else indent + 2)
    rows = [f"[{open_}{sep.join(row)}{close}]" for row in rows]
    sep, open_, close = _layout(indent)
    return f"[{open_}{sep.join(rows)}{close}]"


def render_json(obj, indent: int | None = 0) -> str:
    """obj as JSON: one line when indent is None, else one container item per
    line, indented indent + 2 spaces.  Every float, in a container or a numpy
    array alike, is written by _fmt_float; an array as its tolist() would be."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, np.ndarray):
        return _render_array(obj, indent)
    if isinstance(obj, int) and obj >= HUGE_INT:
        obj = {"log2": math.log2(obj)}
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        inner = None if indent is None else indent + 2
        sep, open_, close = _layout(indent)
        if isinstance(obj, dict):
            body = sep.join([f"{json.dumps(str(k))}: {render_json(v, inner)}"
                             for k, v in obj.items()])
            return "{" + open_ + body + close + "}"
        body = sep.join([render_json(v, inner) for v in obj])
        return "[" + open_ + body + close + "]"
    if isinstance(obj, (bool, int, str)) or obj is None:
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _scalar(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (dict, list, tuple, np.ndarray)) or (isinstance(v, int) and v >= HUGE_INT):
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


def _build_parser(commands: dict[str, _Parser] | None = None) -> _Parser:
    """The top-level parser; each subcommand's own parser goes into commands,
    when given, under the subcommand's name."""
    top = _Parser(prog="eqdist", description=__doc__.splitlines()[0]
                  if __doc__ else "")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_, cmd):
        # no prefix matching: certify's --p would otherwise read as --points
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.add_argument("--format", choices=FORMATS, default="json")
        p.set_defaults(cmd=cmd)
        if commands is not None:
            commands[name] = p
        return p

    p = add("bound", "enumerate applicable bounds for a space", _cmd_bound)
    p.add_argument("--space", required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--best", action="store_true",
                   help="report only the best concrete upper bound")
    p.add_argument("--c", type=float, default=None,
                   help="override the absolute constant c")

    p = add("construct", "emit one of the built-in equilateral configurations", _cmd_construct)
    p.add_argument("kind", choices=list(_CONSTRUCTIONS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)

    p = add("verify", "check that a point-set file is unit-equilateral", _cmd_verify)
    p.add_argument("--points", required=True)
    p.add_argument("--tol", type=float, default=1e-7)

    p = add("certify", "run a rank-certificate pipeline on a point-set file", _cmd_certify)
    p.add_argument("--points", required=True)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--c", type=float, default=None)

    p = add("approx", "certified even-polynomial approximation of |x|^p", _cmd_approx)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("search", "numerical search for an equilateral witness", _cmd_search)
    p.add_argument("--space", required=True)
    p.add_argument("--m", type=int, required=True)
    cfg = construct_mod.SearchConfig()
    p.add_argument("--restarts", type=int, default=cfg.restarts)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--target", type=float, default=cfg.residual_target)
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


def _cmd_bound(args) -> tuple[object, str | None]:
    space = Space.from_string(args.space)
    cfg = _env_config()
    if args.c is not None:
        cfg = dataclasses.replace(cfg, c_absolute=args.c)
    if args.best:
        return bounds_mod.best_explicit_upper(space, args.s, cfg).to_jsonable(), None
    reports = bounds_mod.enumerate_bounds(space, args.s, cfg)
    return [r.to_jsonable() for r in reports], None


# construct kind -> (the flags it needs, the builder they are passed to); the
# builders are looked up at each call, so a rebinding in construct takes effect
_CONSTRUCTIONS = {
    "cross-polytope": (("n",), lambda n: construct_mod.cross_polytope(n)),
    "lp-simplex": (("n", "p"), lambda n, p: construct_mod.lp_simplex(n, p)),
    "euclidean-simplex": (("n",), lambda n: construct_mod.euclidean_simplex(n)),
    "product": (("a", "b"), lambda a, b: construct_mod.product_construction(
        construct_mod.euclidean_simplex(require_int("a", a, 1)),
        construct_mod.euclidean_simplex(require_int("b", b, 1)))),
}


def _points_report(ps: PointSet) -> dict:
    """ps as PointSet.to_jsonable gives it, but with the points array itself,
    which render_json writes without a tolist()."""
    return {"space": ps.space.to_string(), "points": ps.points}


def _cmd_construct(args) -> tuple[object, str | None]:
    names, build = _CONSTRUCTIONS[args.kind]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise InputError(f"{args.kind} needs " + " and ".join(f"--{name}" for name in names))
    return _points_report(build(*values)), None


def _cmd_verify(args) -> tuple[object, str | None]:
    ps = _load_points(args.points)
    report = {"space": ps.space.to_string(), "m": ps.m}
    try:
        profile = construct_mod.distance_profile(ps, args.tol)
    except DegenerateDistanceError as e:
        report.update(profile=None, equilateral=False, error=str(e))
        return report, str(e)
    dev = max((abs(d - 1.0) for d in profile), default=0.0)
    ok = len(profile) <= 1 and dev <= args.tol
    report.update(profile=profile, equilateral=ok, max_deviation=dev)
    return report, None if ok else f"not unit-equilateral: profile {profile}"


def _cmd_certify(args) -> tuple[object, str | None]:
    ps = _load_points(args.points)
    cfg = CertifyConfig(c=args.c, c_absolute=_env_config().c_absolute)
    report = run_certify(ps, args.theorem, cfg)
    failure = None if report.passes else f"certificate for {args.theorem} did not pass"
    return report.to_jsonable(), failure


def _cmd_approx(args) -> tuple[object, str | None]:
    P, cert = approx_mod.approximate_abs_power(args.p, args.d)
    return {"p": cert.p, "d": cert.d, "coefficients": list(P.even_coeffs),
            "measured_error": cert.measured_error,
            "jackson_bound": cert.jackson_bound}, None


def _cmd_search(args) -> tuple[object, str | None]:
    space = Space.from_string(args.space)
    cfg = construct_mod.SearchConfig(restarts=args.restarts, seed=args.seed,
                                     residual_target=args.target)
    res = construct_mod.search_equilateral(space, args.m, cfg)
    out = _points_report(res.points)
    out.update(residual=res.residual, converged=res.converged,
               restart_index=res.restart_index)
    return out, None if res.converged else (
        f"search did not converge: residual {res.residual:.6g} (best restart "
        f"{res.restart_index}: {res.iterations} iterations, stop: {res.stop}, "
        f"final damping {res.damping:.3g})")


# The parsers are built on the first run, not at import, and reused: building
# them costs about 25 times as much as one parse.  An argv that starts with a
# subcommand is parsed once, by that subcommand's parser in _commands, not
# again by the top-level one; any other argv, empty or of an unknown command,
# goes to the top-level parser, so its errors and help are argparse's own.
_parser: _Parser | None = None
_commands: dict[str, _Parser] = {}


def run(argv: list[str]) -> int:
    """Parse argv, dispatch and write the outcome; returns the process exit code."""
    global _parser
    try:
        if _parser is None:
            _parser = _build_parser(_commands)
        command = _commands.get(argv[0]) if argv else None
        args = _parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
        report, failure = args.cmd(args)
    except (InputError, ResourceLimitError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CertificationError, DegenerateDistanceError) as e:
        print(f"failed: {e}", file=sys.stderr)
        return 2
    emit(report, args.format)
    if failure is not None:
        print(failure, file=sys.stderr)
    return 0 if failure is None else 2


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
