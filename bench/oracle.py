"""Output oracle: judges every job's exit code and stdout.

Geometry is re-checked with the benchmark's own pairwise-distance code (a
row-chunked vectorised kernel), not with the library's.  Values the
benchmark cannot derive on its own (whether a certificate passes, the best
catalog bound) are compared against ``baseline.json``, recorded by
``record.py``.

Each check returns a ``Verdict``: ``ok`` when the job ended as expected,
``solved`` when it also produced a verified positive result.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-12     # reported residual / deviation vs the reference
CONSTRUCT_TOL = 1e-9     # a construction must be unit-equilateral to this
APPROX_GRID = 2001       # points in [0, 1] where an approximant's error is re-measured
CHUNK_ELEMENTS = 1 << 17  # (rows, m, dim) difference block: 1 MB, so judging adds little to peak RSS


@dataclass(frozen=True)
class Verdict:
    ok: bool
    solved: bool = False
    cause: str | None = None


def _fail(cause: str) -> Verdict:
    return Verdict(False, False, cause)


def parse_space(text: str) -> tuple[float, tuple[int, ...]]:
    """(p, blocks) from a space string; lp:n=k is k blocks of dimension 1."""
    m = re.fullmatch(r"lp:n=(\d+),p=([^,]+)", text)
    if m:
        blocks = (1,) * int(m.group(1))
    else:
        m = re.fullmatch(r"lpsum:blocks=([\d,]+),p=([^,]+)", text)
        if not m:
            raise ValueError(f"unknown space string {text!r}")
        blocks = tuple(int(a) for a in m.group(1).split(","))
    p = math.inf if m.group(2) == "inf" else float(m.group(2))
    return p, blocks


def pair_distances(space: str, points) -> np.ndarray:
    """Upper-triangle pairwise distances (row-major order), computed in row chunks."""
    p, blocks = parse_space(space)
    X = np.asarray(points, dtype=float)
    m, dim = X.shape
    starts = np.cumsum((0,) + blocks[:-1])
    rows = max(1, CHUNK_ELEMENTS // max(1, m * dim))
    out = []
    for i0 in range(0, m, rows):
        diff = X[i0:i0 + rows, None, :] - X[None, :, :]
        if all(a == 1 for a in blocks):
            r = np.abs(diff)
        else:
            r = np.sqrt(np.add.reduceat(diff * diff, starts, axis=2))
        top = r.max(axis=2)
        if math.isinf(p):
            d = top
        else:
            safe = np.where(top > 0.0, top, 1.0)
            d = top * np.sum((r / safe[:, :, None]) ** p, axis=2) ** (1.0 / p)
        for k in range(d.shape[0]):
            out.append(d[k, i0 + k + 1:])
    return np.concatenate(out) if out else np.zeros(0)


def reference_profile(dists: np.ndarray, tol: float) -> list[float]:
    """Single-linkage clusters at gap tol, as cluster means, largest first."""
    srt = np.sort(dists)
    cuts = np.flatnonzero(np.diff(srt) > tol) + 1
    return sorted((float(np.mean(c)) for c in np.split(srt, cuts)), reverse=True)


def _same_space(a: str, b: str) -> bool:
    return parse_space(a) == parse_space(b)


@functools.lru_cache(maxsize=1)
def pointset_distances(text: str) -> tuple[dict, np.ndarray]:
    """Parse point-set JSON and compute its reference distances.

    Cached for one text: a construct job's stdout is the file the next
    verify job reads, so the pair is judged with one distance computation.
    """
    obj = json.loads(text)
    return obj, pair_distances(obj["space"], obj["points"])


def check_construct(check: dict, stdout: str) -> Verdict:
    out, dists = pointset_distances(stdout)
    if not _same_space(out["space"], check["space"]):
        return _fail(f"space {out['space']} != {check['space']}")
    if len(out["points"]) != check["m"]:
        return _fail(f"{len(out['points'])} points, expected {check['m']}")
    dev = float(np.max(np.abs(dists - 1.0)))
    if dev > CONSTRUCT_TOL:
        return _fail(f"construction is not unit-equilateral: max |d-1| = {dev:.3e}")
    return Verdict(True, True)


def check_verify(check: dict, out: dict, rc: int, pointset_text: str) -> Verdict:
    pointset, dists = pointset_distances(pointset_text)
    if not _same_space(out["space"], pointset["space"]) or out["m"] != len(pointset["points"]):
        return _fail("reported space or m differs from the input file")
    tol = check["tol"]
    prof = reference_profile(dists, tol)
    dev = max(abs(d - 1.0) for d in prof)
    equilateral = len(prof) == 1 and dev <= tol
    if out["equilateral"] != equilateral:
        return _fail(f"equilateral flag {out['equilateral']}, reference {equilateral}")
    if abs(out["max_deviation"] - dev) > RESIDUAL_TOL:
        return _fail(f"max_deviation {out['max_deviation']!r}, reference {dev!r}")
    if len(out["profile"]) != len(prof):
        return _fail(f"{len(out['profile'])} profile clusters, reference {len(prof)}")
    if equilateral != check["equilateral"] or rc != (0 if equilateral else 2):
        return _fail(f"exit {rc} with equilateral={equilateral}, "
                     f"expected equilateral={check['equilateral']}")
    return Verdict(True, equilateral)


def _horner_even(coeffs: list[float], x: np.ndarray) -> np.ndarray:
    """sum_j c_j x^(2j) for j = 1..len(coeffs), by Horner in t = x^2."""
    t = x * x
    v = np.zeros_like(t)
    for c in reversed(coeffs):
        v = v * t + c
    return v * t


def check_approx(check: dict, out: dict) -> Verdict:
    p, d = check["p"], check["d"]
    if out["p"] != p or out["d"] != d or len(out["coefficients"]) > d // 2:
        return _fail("p, d or the number of coefficients does not match the request")
    err, bound = out["measured_error"], out["jackson_bound"]
    if not err <= bound:
        return _fail(f"measured_error {err!r} exceeds jackson_bound {bound!r}")
    even = p.is_integer() and int(p) % 2 == 0
    if even and err != 0.0:
        return _fail(f"even p={p:g} must be exact, measured_error {err!r}")
    x = np.linspace(0.0, 1.0, APPROX_GRID)
    ref = float(np.max(np.abs(_horner_even(out["coefficients"], x) - x ** p)))
    # rounding: evaluation noise of the Horner sum is a few ulps of sum |c_j|
    slack = 64 * np.finfo(float).eps * (1.0 + sum(abs(c) for c in out["coefficients"]))
    if ref > err + slack:
        return _fail(f"grid error {ref!r} exceeds measured_error {err!r} (+{slack:.1e})")
    return Verdict(True, True)


def check_certify(check: dict, out: dict, rc: int, recorded: dict) -> Verdict:
    if out["theorem"] != check["theorem"]:
        return _fail(f"theorem {out['theorem']} != {check['theorem']}")
    if rc != (0 if out["passes"] else 2):
        return _fail(f"exit {rc} disagrees with passes={out['passes']}")
    if not out["rank_lemma_lower"] <= out["numerical_rank"] + 1e-9:
        return _fail(f"rank_lemma_lower {out['rank_lemma_lower']!r} > numerical_rank "
                     f"{out['numerical_rank']}")
    want = recorded.get(check["passes_key"])
    if want is None:
        return _fail(f"no recorded passes value for {check['passes_key']!r}")
    if out["passes"] != want:
        return _fail(f"passes={out['passes']}, recorded {want}")
    return Verdict(True, bool(out["passes"]))


def check_bound(check: dict, out, recorded: dict) -> Verdict:
    want = recorded.get(check["space"], "missing")
    if want == "missing":
        return _fail(f"no recorded best bound for {check['space']}")
    if check["best"]:
        got = out["value"]
    else:
        concrete = [r["value"] for r in out if r["side"] == "upper"
                    and r["kind"] in ("explicit", "exact") and isinstance(r["value"], int)]
        got = min(concrete) if concrete else None
        if not out or any(r["side"] not in ("upper", "lower") for r in out):
            return _fail("catalog is empty or has an entry that is neither upper nor lower")
    if got != want:
        return _fail(f"best concrete upper bound {got!r}, recorded {want!r}")
    return Verdict(True, True)


def check_search(check: dict, out: dict, rc: int) -> Verdict:
    if not _same_space(out["space"], check["space"]) or len(out["points"]) != check["m"]:
        return _fail("space or number of points differs from the request")
    ref = float(np.max(np.abs(pair_distances(out["space"], out["points"]) - 1.0)))
    if abs(out["residual"] - ref) > RESIDUAL_TOL:
        return _fail(f"residual {out['residual']!r}, reference {ref!r}")
    converged = ref <= check["target"]
    if out["converged"] != converged or rc != (0 if converged else 2):
        return _fail(f"converged={out['converged']} exit {rc}, reference residual {ref!r}")
    return Verdict(True, converged)


def judge(job, rc, stdout: str, baseline: dict, read_text) -> Verdict:
    """Verdict for one finished job; read_text(name) returns an input file's text."""
    if rc not in job.exits:
        return _fail(f"exit {rc}, expected one of {sorted(job.exits)}")
    try:
        kind = job.kind
        if kind == "construct":
            return check_construct(job.check, stdout)
        out = json.loads(stdout)
        if kind == "approx":
            return check_approx(job.check, out)
        if kind == "bound":
            return check_bound(job.check, out, baseline["best_bound"])
        if kind == "verify":
            return check_verify(job.check, out, rc, read_text(job.argv[2]))
        if kind == "certify":
            return check_certify(job.check, out, rc, baseline["certify_passes"])
        if kind == "search":
            return check_search(job.check, out, rc)
        return _fail(f"no oracle for {kind}")
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return _fail(f"malformed output: {type(e).__name__}: {e}")
