"""Explicit equilateral configurations and numerical witness search.

All constructions are normalized so every pairwise distance is exactly 1.
The search minimizes the squared deviation of all pairwise distances from 1
by multi-restart adaptive-step gradient descent; restarts are seeded
independently from (seed, restart_index) so results are reproducible.

The restarts advance in lockstep: a batch of them is one (batch, m, dim)
array, and each tick makes one energy-and-gradient call on every live
restart's trial point, each restart with its own step size.  A restart
leaves the batch when it converges or hits a cap, so each follows the same
trajectory as it would alone.  Batches are sized so their (batch, m, m, dim)
temporaries fit in the pairwise kernel's chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import space as space_mod
from .errors import DegenerateDistanceError, InputError, NumericalError, ResourceLimitError
from .space import PointSet, Space, distance_matrix, pair_block_sq_norms

# Cap on a construction's points x dimension.  The largest sets within it print
# as about 46 MB of JSON, and a verify of the largest cross-polytope within it
# (n = 1448) holds a 67 MB distance matrix.
CONSTRUCT_MAX_COORDS = 1 << 22


def _check_size(m: int, dim: int) -> None:
    if m * dim > CONSTRUCT_MAX_COORDS:
        raise ResourceLimitError(
            f"a construction of {m} points in dimension {dim} has {m * dim} coordinates, "
            f"above the cap of {CONSTRUCT_MAX_COORDS}")


def cross_polytope(n: int) -> PointSet:
    """The 2n points {+-e_i/2} in l1^n; all pairwise l1 distances are 1."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    _check_size(2 * n, n)
    pts = np.zeros((2 * n, n))
    pts[np.arange(2 * n), np.arange(2 * n) // 2] = np.tile([0.5, -0.5], n)
    return PointSet(Space(1.0, (1,) * n), pts)


def simplex_lambda(n: int, p: float, tol: float = 1e-13) -> float:
    """Root of |1-lam|^p + (n-1) lam^p = 2, so {e_1..e_n, lam*(1,..,1)} is
    equilateral in lp^n.

    Bisection prefers the bracket (0, 1]; it extends to (1, 2] when the
    equation has no root at or below 1 (this happens only for n = 2).
    """
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    if not (1.0 < p < math.inf):
        raise InputError(f"need 1 < p < inf, got {p}")

    def g(lam: float) -> float:
        return abs(1.0 - lam) ** p + (n - 1) * lam ** p - 2.0

    lo, hi = 1e-16, 1.0
    if g(hi) < 0.0:
        lo, hi = 1.0, 2.0
    if g(lo) >= 0.0 or g(hi) < 0.0:
        raise NumericalError(f"failed to bracket the root for n={n}, p={p}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lp_simplex(n: int, p: float) -> PointSet:
    """n+1 points {e_i, lam*(1,..,1)} in lp^n, scaled to unit distances."""
    _check_size(n + 1, n)
    lam = simplex_lambda(n, p)
    scale = 2.0 ** (-1.0 / p)
    pts = np.vstack([np.eye(n), np.full((1, n), lam)]) * scale
    return PointSet(Space(float(p), (1,) * n), pts)


def euclidean_simplex(n: int) -> PointSet:
    """Regular unit simplex: n+1 points in E^n at pairwise distance 1."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n == 1:
        return PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    return lp_simplex(n, 2.0)


def product_construction(S: PointSet, T: PointSet, tol: float = 1e-8) -> PointSet:
    """Cartesian product of two Euclidean unit-equilateral sets in the
    sup-sum of their spaces: |S|*|T| points, all pairwise distances 1."""
    _check_size(S.m * T.m, S.space.ambient_dim + T.space.ambient_dim)
    for name, ps in (("S", S), ("T", T)):
        if not ps.space.is_euclidean:
            raise InputError(f"{name} must live in a Euclidean space")
        if ps.m >= 2:
            prof = distance_profile(ps, tol)
            if len(prof) != 1 or abs(prof[0] - 1.0) > tol:
                raise InputError(f"{name} is not unit-equilateral (profile {prof})")
    pts = np.hstack([np.repeat(S.points, T.m, axis=0), np.tile(T.points, (S.m, 1))])
    return PointSet(Space(math.inf, (S.space.ambient_dim, T.space.ambient_dim)), pts)


def distance_profile(points: PointSet, tol: float = 1e-7) -> list[float]:
    """Distinct pairwise distances, clustered with single linkage at gap tol,
    sorted descending.  A (near-)zero distance is an error: zero is not
    counted as a distance."""
    if points.m < 2:
        raise InputError("distance profile needs at least 2 points")
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    dists = np.sort(distance_matrix(points)[np.triu_indices(points.m, 1)])
    if dists[0] < tol:
        raise DegenerateDistanceError("zero distance present")
    clusters = np.split(dists, np.flatnonzero(np.diff(dists) > tol) + 1)
    return sorted((float(np.mean(c)) for c in clusters), reverse=True)


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 8
    max_iters: int = 4000
    seed: int = 0
    step_init: float = 0.1
    residual_target: float = 1e-10
    smoothing_eps: float = 1e-9

    def __post_init__(self):
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if self.residual_target <= 0:
            raise InputError(f"residual_target must be positive, got {self.residual_target}")


@dataclass(frozen=True)
class SearchResult:
    points: PointSet
    residual: float      # max over pairs of |d_ij - 1|, true norm
    converged: bool
    restart_index: int
    iterations: int      # accepted steps of the best restart
    stop: str            # why the best restart stopped: one of STOP_CAUSES


# Why a restart left the descent; _descend records the index, -1 while live.
STOP_CAUSES = ("converged", "iteration cap", "60 halvings", "step underflow")
_CONVERGED, _CAPPED, _HALVED, _UNDERFLOW = range(len(STOP_CAUSES))
_MAX_HALVINGS = 60
_MIN_STEP = 1e-18
# Cap on one restart's m * m * dim.  Its energy and gradient hold about seven
# (m, m, dim) float arrays at once (7 MB traced per 1 MB array), and a batch
# never holds less than one restart: 1 << 22 entries keep that near 250 MB.
SEARCH_MAX_PAIR_COORDS = 1 << 22


def _pair_energy_grad(Q: np.ndarray, space: Space, eps: float):
    """Energies sum_{i<j} (d_ij - 1)^2 with softened block norms, and their
    gradients, for each (m, dim) configuration on the leading axes of Q."""
    m = Q.shape[-2]
    sq = pair_block_sq_norms(space, Q, Q)
    soften = space.p < 2.0 and math.isfinite(space.p)
    r = np.sqrt(sq + eps * eps) if soften else np.sqrt(sq)
    eye = np.eye(m, dtype=bool)
    if math.isinf(space.p):
        d = r.max(axis=-1)
    else:
        rp = r ** space.p
        ssum = rp.sum(axis=-1)
        ssum[..., eye] = 1.0
        d = ssum ** (1.0 / space.p)
    d[..., eye] = 1.0
    resid = d - 1.0
    resid[..., eye] = 0.0
    energy = 0.5 * np.sum(resid ** 2, axis=(-2, -1))  # each pair counted twice
    # w[..., i, j, b]: weight of block b of Q[i] - Q[j] in the gradient at Q[i]
    if math.isinf(space.p):
        is_max = r.argmax(axis=-1)[..., None] == np.arange(space.n_blocks)
        w = 2.0 * resid[..., None] * is_max / np.maximum(r, 1e-12)
    else:
        base = 2.0 * resid * np.maximum(d, 1e-12) ** (1.0 - space.p)
        w = base[..., None] * r ** (space.p - 2.0)
    w[..., eye, :] = 0.0
    delta = Q[..., :, None, :] - Q[..., None, :, :]
    return energy, np.sum(np.repeat(w, space.blocks, axis=-1) * delta, axis=-2)


def _true_residual(Q: np.ndarray, space: Space) -> float:
    off = distance_matrix(PointSet(space, Q))[np.triu_indices(len(Q), 1)]
    return float(np.max(np.abs(off - 1.0))) if off.size else 0.0


def _descend(Q: np.ndarray, space: Space, cfg: SearchConfig):
    """Backtracking descent of the restarts stacked on the first axis of Q.

    Each tick takes every live restart's trial point Q - step * grad and
    computes its energy and gradient in one call.  A restart whose energy
    falls moves there and grows its step by 1.3; the others halve their step.
    Returns the final points, the accepted steps and the STOP_CAUSES index of
    each restart.
    """
    R = Q.shape[0]
    step = np.full(R, cfg.step_init)
    halvings = np.zeros(R, dtype=int)
    iters = np.zeros(R, dtype=int)
    stop = np.full(R, -1 if cfg.max_iters > 0 else _CAPPED)
    energy, grad = _pair_energy_grad(Q, space, cfg.smoothing_eps)
    live = np.flatnonzero(stop < 0)
    while live.size:
        trial = Q[live] - step[live, None, None] * grad[live]
        en, g = _pair_energy_grad(trial, space, cfg.smoothing_eps)
        ok = en < energy[live]
        acc, rej = live[ok], live[~ok]
        Q[acc], energy[acc], grad[acc] = trial[ok], en[ok], g[ok]
        step[acc] *= 1.3
        halvings[acc] = 0
        iters[acc] += 1
        step[rej] *= 0.5
        halvings[rej] += 1
        # later assignments win: converged over the cap, underflow over halvings
        stop[acc[iters[acc] >= cfg.max_iters]] = _CAPPED
        stop[acc[np.sqrt(np.maximum(energy[acc], 0.0)) <= 0.25 * cfg.residual_target]] = _CONVERGED
        stop[rej[halvings[rej] >= _MAX_HALVINGS]] = _HALVED
        stop[rej[step[rej] < _MIN_STEP]] = _UNDERFLOW
        live = live[stop[live] < 0]
    return Q, iters, stop


def search_equilateral(space: Space, m: int, cfg: SearchConfig | None = None) -> SearchResult:
    """Multi-restart descent toward an m-point unit-equilateral set in space.

    Restarts run in lockstep, in batches whose (batch, m, m, dim) temporaries
    fit in the kernel's chunk size.  Restarts are merged by lowest residual,
    ties broken by lowest restart index; non-convergence is a reported state,
    not an error.
    """
    if m < 2:
        raise InputError(f"m must be >= 2, got {m}")
    cfg = cfg or SearchConfig()
    dim = space.ambient_dim
    pair_coords = m * m * dim
    if pair_coords > SEARCH_MAX_PAIR_COORDS:
        raise ResourceLimitError(
            f"search of {m} points in dimension {dim} needs {pair_coords} pair coordinates "
            f"per restart, above the cap of {SEARCH_MAX_PAIR_COORDS}")
    batch = max(1, space_mod._CHUNK_BYTES // (8 * pair_coords))
    best = None
    for first in range(0, cfg.restarts, batch):
        restarts = range(first, min(first + batch, cfg.restarts))
        Q = np.stack([np.random.default_rng([cfg.seed, r]).uniform(-1.0, 1.0, size=(m, dim))
                      for r in restarts])
        with np.errstate(all="ignore"):  # a non-finite energy is a rejected step
            descents = _descend(Q, space, cfg)
        for restart, q, iters, stop in zip(restarts, *descents):
            resid = _true_residual(q, space)
            if best is None or resid < best[0]:
                best = (resid, restart, q, int(iters), STOP_CAUSES[stop])
    resid, restart, q, iters, stop = best
    return SearchResult(PointSet(space, q), resid, resid <= cfg.residual_target, restart,
                        iters, stop)
