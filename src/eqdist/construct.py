"""Explicit equilateral configurations and numerical witness search.

All constructions are normalized so every pairwise distance is exactly 1.
The search minimizes the squared deviation of all pairwise distances from 1
by multi-restart adaptive-step gradient descent; restarts are seeded
independently from (seed, restart_index) so results are reproducible.

The restarts advance in lockstep: a batch of them is one (batch, m, dim)
array, and each tick makes one energy-and-gradient call on every live
restart's trial point, each restart with its own step size.  The energy
function is built once per batch, and a tick steps only the live restarts,
whose state is kept compacted.  A restart leaves the batch when it
converges, stalls or hits a cap, so each follows the same trajectory as it
would alone.  Batches are sized so their (batch, dim, m, m) temporaries fit
in the pairwise kernel's chunk size.

During the descent the points and gradients are held coordinate-major, as
(batch, dim, m): the energy's pairwise differences are (batch, dim, m, m),
so its sums over a block's coordinates and over the blocks add whole (m, m)
slabs one after another, first to last, rather than reduce a short last axis
per pair.  A sum of 8 or more terms is so added in order, where numpy would
add it pairwise over a last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import space as space_mod
from .errors import (DegenerateDistanceError, InputError, NumericalError, ResourceLimitError,
                     require_exponent, require_int, require_positive, require_real, shown)
from .space import (PointSet, Space, _block_sq_norms, _outer_norm, distance_matrix,
                    pair_block_norms)

# Cap on a construction's points x dimension.  The largest sets within it print
# as about 46 MB of JSON, and a verify of the largest cross-polytope within it
# (n = 1448) holds a 67 MB distance matrix.
CONSTRUCT_MAX_COORDS = 1 << 22


def _check_size(m: int, dim: int) -> None:
    if m * dim > CONSTRUCT_MAX_COORDS:
        raise ResourceLimitError(
            f"a construction of {shown(m)} points in dimension {shown(dim)} has {shown(m * dim)} "
            f"coordinates, above the cap of {CONSTRUCT_MAX_COORDS}")


def cross_polytope(n: int) -> PointSet:
    """The 2n points {+-e_i/2} in l1^n; all pairwise l1 distances are 1."""
    n = require_int("n", n, 1)
    _check_size(2 * n, n)
    pts = np.zeros((2 * n, n))
    pts[np.arange(2 * n), np.arange(2 * n) // 2] = np.tile([0.5, -0.5], n)
    return PointSet(Space(1.0, (1,) * n), pts)


# simplex_lambda bisects from SIMPLEX_BRACKET_FLOOR up to 1 until the bracket is at
# most SIMPLEX_BRACKET_ATOL wide, and refuses a midpoint that bracket does not pin to
# SIMPLEX_BRACKET_RTOL of itself: a relative error r in lam moves the simplex's
# distances by about 2r, and verify's default tolerance is 1e-7.  On (0, 1] the final
# width is 2^-44, so roots below about 5.7e-5 are refused; lp_simplex's n stays below
# 2,048 (CONSTRUCT_MAX_COORDS), where every root is above 4.8e-4.
SIMPLEX_BRACKET_FLOOR = 1e-16
SIMPLEX_BRACKET_ATOL = 1e-13
SIMPLEX_BRACKET_RTOL = 1e-9


def simplex_lambda(n: int, p: float) -> float:
    """Root of |1-lam|^p + (n-1) lam^p = 2, so {e_1..e_n, lam*(1,..,1)} is
    equilateral in lp^n.

    Bisection prefers the bracket (0, 1]; it extends to (1, 2] when the
    equation has no root at or below 1 (this happens only for n = 2).  A root
    too small for the bisection to resolve is refused (NumericalError).
    """
    n = require_int("n", n, 2)
    k = require_real("n", n - 1)  # the equation is solved in double precision
    p = require_exponent("p", p)
    if p == 1.0:
        raise InputError("need 1 < p < inf, got 1.0")

    def g(lam: float) -> float:
        try:
            return abs(1.0 - lam) ** p + k * lam ** p - 2.0
        except OverflowError:  # lam^p past the largest double, so lam > 1 and g > 0
            return math.inf

    lo, hi = SIMPLEX_BRACKET_FLOOR, 1.0
    if g(hi) < 0.0:
        lo, hi = 1.0, 2.0
    if g(lo) >= 0.0 or g(hi) < 0.0:
        raise NumericalError(f"failed to bracket the root for n={n}, p={p}")
    while hi - lo > SIMPLEX_BRACKET_ATOL:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if hi - lo > SIMPLEX_BRACKET_RTOL * mid:
        raise NumericalError(f"the root for n={n}, p={p} is below the bisection's resolution: "
                             f"its bracket [{lo:.3g}, {hi:.3g}] is wider than "
                             f"{SIMPLEX_BRACKET_RTOL:g} of its midpoint")
    return mid


def lp_simplex(n: int, p: float) -> PointSet:
    """n+1 points {e_i, lam*(1,..,1)} in lp^n, scaled to unit distances."""
    n = require_int("n", n, 2)
    _check_size(n + 1, n)
    p = require_exponent("p", p)
    lam = simplex_lambda(n, p)
    scale = 2.0 ** (-1.0 / p)
    pts = np.vstack([np.eye(n), np.full((1, n), lam)]) * scale
    return PointSet(Space(p, (1,) * n), pts)


def euclidean_simplex(n: int) -> PointSet:
    """Regular unit simplex: n+1 points in E^n at pairwise distance 1."""
    n = require_int("n", n, 1)
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
        prof = distance_profile(ps, 1e-8)
        if len(prof) > 1 or any(abs(d - 1.0) > 1e-8 for d in prof):
            raise InputError(f"{name} is not unit-equilateral (profile {prof})")
    pts = np.hstack([np.repeat(S.points, T.m, axis=0), np.tile(T.points, (S.m, 1))])
    return PointSet(Space(math.inf, (S.space.ambient_dim, T.space.ambient_dim)), pts)


def distance_profile(points: PointSet, tol: float = 1e-7) -> list[float]:
    """Distinct pairwise distances, clustered with single linkage at gap tol,
    sorted descending; empty for one point.  A zero distance (coincident points)
    is an error: zero is not counted as a distance.  Neither is one past the
    largest double."""
    tol = require_positive("tol", tol)
    if points.m == 1:  # no pair, no distance
        return []
    with np.errstate(over="ignore", invalid="ignore"):  # overflows end in inf or nan
        dists = np.sort(distance_matrix(points)[np.triu_indices(points.m, 1)])
        if dists[0] == 0.0:
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
        object.__setattr__(self, "restarts", require_int("restarts", self.restarts, 1))
        if self.restarts > SEARCH_MAX_RESTARTS:
            raise ResourceLimitError(
                f"{shown(self.restarts)} restarts are above the cap of {SEARCH_MAX_RESTARTS}")
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))
        object.__setattr__(self, "residual_target",
                           require_positive("residual_target", self.residual_target))


@dataclass(frozen=True)
class SearchResult:
    points: PointSet
    residual: float      # max over pairs of |d_ij - 1|, true norm
    converged: bool
    restart_index: int
    iterations: int      # accepted steps of the best restart
    stop: str            # why the best restart stopped: one of STOP_CAUSES, or ENERGY_ONLY


# Why a restart left the descent; _descend records the index, -1 while live.
STOP_CAUSES = ("converged", "iteration cap", "stalled", "60 halvings", "step underflow")
# The stop of a best restart whose descent converged on the energy, which
# softens block norms below p = 2, while its true-norm residual misses the target.
ENERGY_ONLY = "converged on the search energy, true-norm residual above the target"
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
# Cap on one restart's m * m * dim.  Its energy and gradient hold about four
# (dim, m, m) float arrays at once (4.2 MB traced per 1 MB array on plain lp,
# 3.1 MB on an lp sum of 2-dimensional blocks, at m = 64), and a batch never
# holds less than one restart: at 1 << 22 entries a one-restart search traced
# 131 MB on lp^64 (m = 256) and 99 MB on an lp sum of 32 planes.
SEARCH_MAX_PAIR_COORDS = 1 << 22
# Added in quadrature to the block norms for 1 <= p < 2, where |.|^p is not
# differentiable at 0.
SMOOTHING_EPS = 1e-9


def _search_energy(space: Space, m: int):
    """The function that maps a (..., dim, m) array Q, whose column i is point i,
    to the energies sum_{i<j} (d_ij - 1)^2, with softened block norms, and their
    (..., dim, m) gradients, for each configuration on the leading axes of Q.

    The coordinate axis comes ahead of the two pair axes: the differences are
    one (..., dim, m, m) array, delta[..., k, j, i] = Q[..., k, i] - Q[..., k, j].
    So every sum over the coordinates of a block, the p-sum over blocks and the
    sup-norm maximum reduce over axis -3, where numpy adds or compares whole
    (m, m) slabs one after another, first to last, and the sup-norm's argmax is
    taken over that axis too; the gradient's sum over j reduces over axis -2,
    also in order.  A sum of fewer than 8 terms has the same bits as over a
    last axis; one of 8 or more need not, as numpy adds those pairwise.

    What depends only on the space and m is fixed here, once per batch: the
    exponents, whether to soften, the diagonal's step in a flat (m, m) slab,
    and whether blocks need spreading over their coordinates (not on plain lp)."""
    p = space.p
    sup = math.isinf(p)
    soften = p < 2.0 and not sup
    eps_sq = SMOOTHING_EPS * SMOOTHING_EPS
    blocks = np.arange(space.n_blocks)[:, None, None]
    inv_p, decay, curve = 1.0 / p, 1.0 - p, p - 2.0
    plain = space.is_lp

    def energy_grad(Q: np.ndarray):
        delta = Q[..., None, :] - Q[..., :, None]
        r = _block_sq_norms(space, delta, axis=-3)  # the call's own array, so taken in place
        if soften:
            r += eps_sq
        np.sqrt(r, out=r)
        d = np.maximum.reduce(r, axis=-3) if sup else np.add.reduce(r ** p, axis=-3) ** inv_p
        # so the diagonal residuals, and with them their weights, are +0; d is a
        # fresh C-ordered array, so the reshape is a view of it
        d.reshape(-1, m * m)[:, ::m + 1] = 1.0
        resid = d - 1.0
        energy = 0.5 * np.add.reduce(resid ** 2, axis=(-2, -1))  # each pair counted twice
        # w[..., b, j, i]: weight of block b of Q[i] - Q[j] in the gradient at Q[i]
        if sup:
            is_max = r.argmax(axis=-3)[..., None, :, :] == blocks
            w = 2.0 * resid[..., None, :, :] * is_max / np.maximum(r, 1e-12)
        else:
            base = 2.0 * resid * np.maximum(d, 1e-12) ** decay
            w = base[..., None, :, :] * r ** curve
        if not plain:  # spread each block's weight over its coordinates
            w = np.repeat(w, space.blocks, axis=-3)
        w *= delta
        return energy, np.add.reduce(w, axis=-2)

    return energy_grad


def _descend(Q: np.ndarray, space: Space, cfg: SearchConfig):
    """Backtracking descent of the restarts stacked on the first axis of Q.

    Each tick takes every live restart's trial point q - step * grad and
    computes its energy and gradient in one call.  One masked rule then
    updates every restart: one whose energy falls moves there and grows its
    step by 1.3; the others halve their step.  A restart stops when it
    converges (sqrt(E) <= residual_target / 4), stalls (see _STALL_WINDOW),
    reaches MAX_ITERS accepted steps, or cannot find a lower energy.  Returns
    the final points, the accepted steps and the STOP_CAUSES index of each
    restart.

    Q is (R, m, dim), and so are the returned points.  In between, the points
    and gradients are held as (R, dim, m), the layout _search_energy reads and
    returns: Q is transposed once on entry and the result once on exit.  The
    live restarts' state is kept compacted, row k belonging to restart idx[k];
    a restart is written back into the (R, dim, m) copy of Q on the tick it
    leaves.
    """
    energy_grad = _search_energy(space, Q.shape[1])
    done = 0.25 * cfg.residual_target
    R = Q.shape[0]
    iters_out = np.zeros(R, dtype=int)
    stop_out = np.full(R, -1)
    Q = np.ascontiguousarray(Q.transpose(0, 2, 1))
    idx, q = np.arange(R), Q
    energy, grad = energy_grad(q)
    step = np.full(R, _STEP_INIT)
    halvings = np.zeros(R, dtype=int)
    iters = np.zeros(R, dtype=int)
    checkpoint = energy.copy()  # the energy at the last multiple of _STALL_WINDOW steps
    tick = 0
    while idx.size:
        tick += 1
        trial = q - step[:, None, None] * grad
        en, g = energy_grad(trial)
        ok = en < energy
        np.copyto(q, trial, where=ok[:, None, None])
        np.copyto(grad, g, where=ok[:, None, None])
        np.copyto(energy, en, where=ok)
        step *= np.where(ok, 1.3, 0.5)
        halvings = np.where(ok, 0, halvings + 1)
        iters += ok
        # later assignments win: underflow over halvings
        stop = np.where(halvings >= _MAX_HALVINGS, _HALVED, -1)
        stop[~ok & (step < _MIN_STEP)] = _UNDERFLOW
        # later assignments win: converged over a stall over the cap.  A
        # restart's steps never outnumber the ticks, so neither count is reached
        # earlier; a live restart is below MAX_ITERS, so only one that stepped on
        # this tick can reach it
        if tick >= MAX_ITERS:
            stop[iters >= MAX_ITERS] = _CAPPED
        if tick >= _STALL_WINDOW:
            check = ok & (iters % _STALL_WINDOW == 0)
            if check.any():  # most ticks bring no restart to a checkpoint
                stop[check & (energy > (1.0 - _STALL_DROP) * checkpoint)] = _STALLED
                checkpoint[check] = energy[check]
        stop[ok & (np.sqrt(energy) <= done)] = _CONVERGED
        leave = stop >= 0
        if leave.any():
            out, keep = idx[leave], ~leave
            Q[out], iters_out[out], stop_out[out] = q[leave], iters[leave], stop[leave]
            idx, q, energy, grad, step, halvings, iters, checkpoint = (
                x[keep] for x in (idx, q, energy, grad, step, halvings, iters, checkpoint))
    return Q.transpose(0, 2, 1), iters_out, stop_out


def search_equilateral(space: Space, m: int, cfg: SearchConfig | None = None) -> SearchResult:
    """Multi-restart descent toward an m-point unit-equilateral set in space.

    Restarts run in lockstep, in batches whose (batch, dim, m, m) temporaries
    fit in the kernel's chunk size.  Restarts are merged by lowest residual,
    ties broken by lowest restart index; non-convergence is a reported state,
    not an error.
    """
    m = require_int("m", m, 2)
    cfg = cfg or SearchConfig()
    dim = space.ambient_dim
    pair_coords = m * m * dim
    if pair_coords > SEARCH_MAX_PAIR_COORDS:
        raise ResourceLimitError(
            f"search of {shown(m)} points in dimension {dim} needs {shown(pair_coords)} "
            f"pair coordinates per restart, above the cap of {SEARCH_MAX_PAIR_COORDS}")
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
        k = np.argmin(resids)  # the first of equal residuals
        if best is None or resids[k] < best[0]:
            best = (float(resids[k]), restarts[k], Q[k], int(iters[k]), STOP_CAUSES[stops[k]])
    resid, restart, q, iters, stop = best
    converged = resid <= cfg.residual_target
    if stop == STOP_CAUSES[_CONVERGED] and not converged:
        stop = ENERGY_ONLY
    return SearchResult(PointSet(space, q), resid, converged, restart, iters, stop)
