"""Explicit equilateral configurations and numerical witness search.

All constructions are normalized so every pairwise distance is exactly 1.
The search minimizes the squared deviation of all pairwise distances from 1
by multi-restart adaptive-step gradient descent; restarts are seeded
independently from (seed, restart_index) so results are reproducible.

The restarts advance in lockstep: a batch of them is one (batch, m, dim)
array, and each tick makes one energy-and-gradient call on every live
restart's trial point, each restart with its own step size.  A restart
leaves the batch when it converges, stalls or hits a cap, so each follows
the same trajectory as it would alone.  Batches are sized so their
(batch, m, m, dim) temporaries fit in the pairwise kernel's chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import space as space_mod
from .errors import DegenerateDistanceError, InputError, NumericalError, ResourceLimitError
from .space import (PointSet, Space, _block_sq_norms, _outer_norm, distance_matrix,
                    pair_block_norms)

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


def simplex_lambda(n: int, p: float) -> float:
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
        try:
            return abs(1.0 - lam) ** p + (n - 1) * lam ** p - 2.0
        except OverflowError:  # lam^p past the largest double, so lam > 1 and g > 0
            return math.inf

    lo, hi = 1e-16, 1.0
    if g(hi) < 0.0:
        lo, hi = 1.0, 2.0
    if g(lo) >= 0.0 or g(hi) < 0.0:
        raise NumericalError(f"failed to bracket the root for n={n}, p={p}")
    while hi - lo > 1e-13:
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


def product_construction(S: PointSet, T: PointSet) -> PointSet:
    """Cartesian product of two Euclidean unit-equilateral sets in the
    sup-sum of their spaces: |S|*|T| points, all pairwise distances 1."""
    _check_size(S.m * T.m, S.space.ambient_dim + T.space.ambient_dim)
    for name, ps in (("S", S), ("T", T)):
        if not ps.space.is_euclidean:
            raise InputError(f"{name} must live in a Euclidean space")
        if ps.m >= 2:
            prof = distance_profile(ps, 1e-8)
            if len(prof) != 1 or abs(prof[0] - 1.0) > 1e-8:
                raise InputError(f"{name} is not unit-equilateral (profile {prof})")
    pts = np.hstack([np.repeat(S.points, T.m, axis=0), np.tile(T.points, (S.m, 1))])
    return PointSet(Space(math.inf, (S.space.ambient_dim, T.space.ambient_dim)), pts)


def distance_profile(points: PointSet, tol: float = 1e-7) -> list[float]:
    """Distinct pairwise distances, clustered with single linkage at gap tol,
    sorted descending.  A (near-)zero distance is an error: zero is not
    counted as a distance.  Neither is one past the largest double."""
    if points.m < 2:
        raise InputError("distance profile needs at least 2 points")
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflows end in inf or nan
        dists = np.sort(distance_matrix(points)[np.triu_indices(points.m, 1)])
        if dists[0] < tol:
            raise DegenerateDistanceError("zero distance present")
        clusters = np.split(dists, np.flatnonzero(np.diff(dists) > tol) + 1)
        profile = sorted((float(np.mean(c)) for c in clusters), reverse=True)
    if not np.isfinite(profile).all():
        raise NumericalError("a distance or a cluster sum of distances overflows double precision")
    return profile


# Cap on a search's restarts.  Run time grows linearly with them; at the cap,
# in-process on a 2-vCPU Xeon, the README's l1^3 m = 6 search takes 8.7 s and
# m = 3 in lp^3 0.43 s, where 10^8 restarts ran past two minutes uncapped.
SEARCH_MAX_RESTARTS = 1 << 12


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 8
    seed: int = 0
    residual_target: float = 1e-10

    def __post_init__(self):
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if self.restarts > SEARCH_MAX_RESTARTS:
            raise ResourceLimitError(
                f"{self.restarts} restarts are above the cap of {SEARCH_MAX_RESTARTS}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
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
STOP_CAUSES = ("converged", "iteration cap", "stalled", "60 halvings", "step underflow")
_CONVERGED, _CAPPED, _STALLED, _HALVED, _UNDERFLOW = range(len(STOP_CAUSES))
MAX_ITERS = 4000  # accepted steps a restart may take
_STEP_INIT = 0.1
_MAX_HALVINGS = 60
_MIN_STEP = 1e-18
# A restart stalls when, at a multiple of _STALL_WINDOW accepted steps, its
# energy has not fallen by the fraction _STALL_DROP since the last multiple.
# Set from every accepted-step energy of the 3,840 restarts of 8 seed-0/1/2
# witness-search benchmark rounds: over a 100-step window, no converging
# restart kept more than 0.28 of its energy, while the 120 l1^3 (m = 6)
# restarts that ran to the 4,000-step cap kept more than 0.9999 from step 100
# to 200, so they stop at step 200.  Any drop from 1e-3 to 1e-1 splits them
# the same way.  A 50-step window does not: one converging lpsum restart kept
# 0.998 of its energy over a 50-step plateau.
_STALL_WINDOW = 100
_STALL_DROP = 1e-2
# Cap on one restart's m * m * dim.  Its energy and gradient hold about seven
# (m, m, dim) float arrays at once (7 MB traced per 1 MB array), and a batch
# never holds less than one restart: 1 << 22 entries keep that near 250 MB.
SEARCH_MAX_PAIR_COORDS = 1 << 22
# Added in quadrature to the block norms for 1 <= p < 2, where |.|^p is not
# differentiable at 0.
SMOOTHING_EPS = 1e-9


def _pair_energy_grad(Q: np.ndarray, space: Space):
    """Energies sum_{i<j} (d_ij - 1)^2 with softened block norms, and their
    gradients, for each (m, dim) configuration on the leading axes of Q."""
    m = Q.shape[-2]
    delta = Q[..., :, None, :] - Q[..., None, :, :]
    sq = _block_sq_norms(space, delta)
    soften = space.p < 2.0 and math.isfinite(space.p)
    r = np.sqrt(sq + SMOOTHING_EPS * SMOOTHING_EPS) if soften else np.sqrt(sq)
    eye = np.eye(m, dtype=bool)
    d = r.max(axis=-1) if math.isinf(space.p) else (r ** space.p).sum(axis=-1) ** (1.0 / space.p)
    d[..., eye] = 1.0  # so the diagonal residuals, and with them their weights, are +0
    resid = d - 1.0
    energy = 0.5 * np.sum(resid ** 2, axis=(-2, -1))  # each pair counted twice
    # w[..., i, j, b]: weight of block b of Q[i] - Q[j] in the gradient at Q[i]
    if math.isinf(space.p):
        is_max = r.argmax(axis=-1)[..., None] == np.arange(space.n_blocks)
        w = 2.0 * resid[..., None] * is_max / np.maximum(r, 1e-12)
    else:
        base = 2.0 * resid * np.maximum(d, 1e-12) ** (1.0 - space.p)
        w = base[..., None] * r ** (space.p - 2.0)
    return energy, np.sum(np.repeat(w, space.blocks, axis=-1) * delta, axis=-2)


def _descend(Q: np.ndarray, space: Space, cfg: SearchConfig):
    """Backtracking descent of the restarts stacked on the first axis of Q.

    Each tick takes every live restart's trial point Q - step * grad and
    computes its energy and gradient in one call.  A restart whose energy
    falls moves there and grows its step by 1.3; the others halve their step.
    A restart stops when it converges, stalls (see _STALL_WINDOW), reaches
    MAX_ITERS accepted steps, or cannot find a lower energy.  Returns the
    final points, the accepted steps and the STOP_CAUSES index of each restart.
    """
    R = Q.shape[0]
    step = np.full(R, _STEP_INIT)
    halvings = np.zeros(R, dtype=int)
    iters = np.zeros(R, dtype=int)
    stop = np.full(R, -1)
    energy, grad = _pair_energy_grad(Q, space)
    checkpoint = energy.copy()  # the energy at the last multiple of _STALL_WINDOW steps
    live = np.arange(R)
    while live.size:
        trial = Q[live] - step[live, None, None] * grad[live]
        en, g = _pair_energy_grad(trial, space)
        ok = en < energy[live]
        acc, rej = live[ok], live[~ok]
        Q[acc], energy[acc], grad[acc] = trial[ok], en[ok], g[ok]
        step[acc] *= 1.3
        halvings[acc] = 0
        iters[acc] += 1
        if rej.size:  # 2 in 5 ticks of a converging search reject no restart
            step[rej] *= 0.5
            halvings[rej] += 1
            # later assignments win: underflow over halvings
            stop[rej[halvings[rej] >= _MAX_HALVINGS]] = _HALVED
            stop[rej[step[rej] < _MIN_STEP]] = _UNDERFLOW
        # later assignments win: converged over a stall over the cap
        it = iters[acc]
        stop[acc[it >= MAX_ITERS]] = _CAPPED
        check = acc[it % _STALL_WINDOW == 0]
        if check.size:  # most ticks bring no restart to a checkpoint
            stop[check[energy[check] > (1.0 - _STALL_DROP) * checkpoint[check]]] = _STALLED
            checkpoint[check] = energy[check]
        stop[acc[np.sqrt(np.maximum(energy[acc], 0.0)) <= 0.25 * cfg.residual_target]] = _CONVERGED
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
    i, j = np.triu_indices(m, 1)
    best = None
    for first in range(0, cfg.restarts, batch):
        restarts = range(first, min(first + batch, cfg.restarts))
        Q = np.stack([np.random.default_rng([cfg.seed, r]).uniform(-1.0, 1.0, size=(m, dim))
                      for r in restarts])
        with np.errstate(all="ignore"):  # a non-finite energy is a rejected step
            Q, iters, stops = _descend(Q, space, cfg)
        # max over pairs of |d_ij - 1| for every restart of the batch, in the true norm
        dists = _outer_norm(pair_block_norms(space, Q, Q), space.p)[:, i, j]
        resids = np.max(np.abs(dists - 1.0), axis=1)
        for restart, q, resid, it, stop in zip(restarts, Q, resids, iters, stops):
            if best is None or resid < best[0]:
                best = (float(resid), restart, q, int(it), STOP_CAUSES[stop])
    resid, restart, q, iters, stop = best
    return SearchResult(PointSet(space, q), resid, resid <= cfg.residual_target, restart,
                        iters, stop)
