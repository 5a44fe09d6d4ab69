"""Explicit equilateral configurations and numerical witness search.

All constructions are normalized so every pairwise distance is exactly 1.
The search drives the pair residuals d_ij - 1 to 0 by multi-restart
Levenberg-Marquardt (damped Gauss-Newton); restarts are seeded independently
from (seed, restart_index) so results are reproducible.

The restarts advance in lockstep, held coordinate-major as one (batch, dim, m)
array: each tick makes one batched solve of the damped systems and one
residual-and-Jacobian call on every live restart's trial point, each restart
with its own damping.  The bookkeeping after them does only what the tick can
change: it copies the accepted trial points in by mask (all or none of them
without one), updates the dampings in one divide, and runs the stop rules only
on a tick where whole-batch checks of the least energy, the step counts and
the largest damping say one can fire.  The live restarts' state is kept
compacted, and a restart leaves the batch when it converges, stalls or hits a
cap, so each follows the same trajectory as it would alone.  Batches are sized
so their pair temporaries and damped systems fit in the pairwise kernel's
chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import space as space_mod
from .errors import (DegenerateDistanceError, InputError, NumericalError, ResourceLimitError,
                     require_exponent, require_int, require_positive, require_real, shown)
from .space import PointSet, Space, _block_sq_norms, condensed_distances

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
        dists = condensed_distances(points)
        dists.sort()
        if dists[0] == 0.0:
            raise DegenerateDistanceError("zero distance present")
        clusters = np.split(dists, np.flatnonzero(np.diff(dists) > tol) + 1)
        profile = sorted((float(np.mean(c)) for c in clusters), reverse=True)
    if not np.isfinite(profile).all():
        raise NumericalError("a distance or a cluster sum of distances overflows double precision")
    return profile


# Cap on a search's restarts.  Run time grows linearly with them; at the cap,
# in-process on a 2-vCPU Xeon, the README's l1^3 m = 6 search takes 1.2 s and
# m = 3 in lp^3 0.1 s, where 10^8 restarts ran past two minutes uncapped.
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
    residual: float      # max over pairs of |d_ij - 1| at the best restart's points
    converged: bool
    restart_index: int
    iterations: int      # accepted steps of the best restart
    stop: str            # why the best restart stopped: one of STOP_CAUSES
    damping: float       # the best restart's damping lambda when it stopped


# Why a restart left the solver; _descend records the index, -1 while live.
STOP_CAUSES = ("converged", "iteration cap", "stalled", "damping overflow")
_CONVERGED, _CAPPED, _STALLED, _OVERFLOW = range(len(STOP_CAUSES))
# Set from every accepted-step energy of 4,784 restarts run with no stall rule
# or cap: the 3,840 of 8 seed-0/1/2 witness-search benchmark rounds, and 944 on
# 20 harder cases (p near 1, 2000, 1e300 and inf, lp sums, impossible m).  No
# converging restart took over 273 accepted steps (lp^6, p = 1.1, m = 9), kept
# over 0.87 of its energy across 20 (0.965 across 10), or stepped at a damping
# over 35.  A restart stalls when, at a multiple of _STALL_WINDOW steps, its
# energy has not fallen by the fraction _STALL_DROP since the last one.  A limit
# of 1e8, not 1e16, kept all 480 round outputs and cut residual calls by 16%.
# Without _DAMPING_MIN an l2^2 m = 6 restart reached 1.7e-16 and a singular
# system.  _DAMPING_INIT from 1e-1 to 1e-3 ran the 24 rounds within 4%.
MAX_ITERS = 500  # accepted steps a restart may take
_STALL_WINDOW = 20
_STALL_DROP = 1e-2
_DAMPING_INIT, _DAMPING_MIN, _DAMPING_MAX = 1e-3, 1e-12, 1e8
# a rejected step divides the damping by 1/4, which is exactly times 4
_DAMPING_DIVISOR = np.array([0.25, 3.0])
# Caps on one restart's m * m * dim pair coordinates and on the order
# k = min(m(m-1)/2, m * dim) of its damped system, whose k * k doubles take about
# k^3 operations per step.  At the caps a one-restart search traced 145 MB on
# lp^1024 (m = 64) and 272 MB on the line (m = 2048, k = 2048, 0.44 s a step).
SEARCH_MAX_PAIR_COORDS = 1 << 22
SEARCH_MAX_SYSTEM = 1 << 11


def _search_residuals(space: Space, m: int):
    """The function that maps a (..., dim, m) array Q, whose column i is point i,
    to the energies sum (d_ij - 1)^2, the residuals d_ij - 1 (..., P) over the P
    pairs i < j in np.triu_indices order, and their gradients g = dd_ij/dx_i =
    -dd_ij/dx_j (..., dim, P).  With r_b the block norms of x_i - x_j,
    d = r_max (sum_b (r_b/r_max)^p)^(1/p) and g = (r_b/d)^(p-2) (x_i - x_j)/d
    on block b, so no r^p is formed unscaled; at p = inf g is (x_i - x_j)/d on
    the first largest block.  Only a nonzero r_b/d is raised, so a block with
    r_b = 0 gets g = 0: the derivative for p > 1, a subgradient at p = 1.  r_b is
    a square root of squares, so it is 0 for differences below about 1.5e-162
    too, and (r_b/d)^(p-2) stays finite for p >= 1.  The sums over a block's
    coordinates and over the blocks add whole slabs, first to last."""
    p, sup, plain = space.p, math.isinf(space.p), space.is_lp
    blocks = np.arange(space.n_blocks)[:, None]
    i, j = np.triu_indices(m, 1)

    def residuals(Q: np.ndarray):
        delta = np.take(Q, i, axis=-1) - np.take(Q, j, axis=-1)  # C-ordered, unlike Q[..., i]
        r = _block_sq_norms(space, delta, axis=-2)  # the call's own array, so taken in place
        np.sqrt(r, out=r)
        top = np.maximum.reduce(r, axis=-2)
        if sup:
            d, w = top, r.argmax(axis=-2)[..., None, :] == blocks
        else:
            d = top * np.add.reduce((r / top[..., None, :]) ** p, axis=-2) ** (1.0 / p)
            w = r / d[..., None, :]
            np.power(w, p - 2.0, out=w, where=r != 0.0)
        if not plain:  # spread each block's weight over its coordinates
            w = np.repeat(w, space.blocks, axis=-2)
        res = d - 1.0
        return np.add.reduce(res * res, axis=-1), res, w * delta / d[..., None, :]

    return residuals


def _damped_step(m: int, dim: int):
    """The function that maps residuals res (B, P), per-pair gradients G
    (B, dim, P) and dampings lam (B,) to the steps -(J^T J + lam I)^-1 J^T res
    (B, dim, m).  J (row a = (i, j): g_a at point i, -g_a at j) is never formed:
    with M the (P, m) pair incidence, if P <= m dim the step is -J^T y, where
    (S o G^T G + lam I) y = res and S = M M^T.  Otherwise J^T J's block (i, j)
    is -g_a g_a^T, each row of blocks sums to 0, and J^T res at point i sums
    res_a g_a over the pairs (i, j) and -res_a g_a over (j, i)."""
    i, j = np.triu_indices(m, 1)
    P, k = i.size, m * dim
    if P <= k:  # then P <= SEARCH_MAX_SYSTEM, so M is small
        M = np.zeros((P, m))
        M[np.arange(P), i], M[np.arange(P), j] = 1.0, -1.0
        S = M @ M.T

        def dual(res, G, lam):
            A = np.swapaxes(G, -1, -2) @ G
            A *= S
            A.reshape(-1, P * P)[:, ::P + 1] += lam[:, None]
            y = np.linalg.solve(A, res[..., None])[..., 0]
            return -((y[:, None, :] * G) @ M)
        return dual

    def primal(res, G, lam):
        H = np.zeros((G.shape[0], dim, m, dim, m))
        view = H.transpose(0, 1, 3, 2, 4)  # (B, dim, dim, m, m)
        view[..., i, j] = view[..., j, i] = -(G[:, :, None, :] * G[:, None, :, :])
        view[..., np.arange(m), np.arange(m)] = -np.add.reduce(view, axis=-1)
        H.reshape(-1, k * k)[:, ::k + 1] += lam[:, None]
        T = np.zeros((G.shape[0], dim, m, m))
        T[..., i, j] = weighted = res[:, None, :] * G
        T[..., j, i] = -weighted
        rhs = np.add.reduce(T, axis=-1).reshape(-1, k, 1)
        return -np.linalg.solve(H.reshape(-1, k, k), rhs).reshape(-1, dim, m)

    return primal


def _descend(Q: np.ndarray, space: Space, cfg: SearchConfig):
    """Levenberg-Marquardt on the pair residuals of the restarts stacked on the
    first axis of Q, (R, m, dim).  Returns their final points, (R, m, dim), and
    the accepted steps, STOP_CAUSES index, final damping and final max |d_ij - 1|
    of each.

    Each tick makes one _search_residuals call on every live restart's trial
    point q + _damped_step.  A restart whose energy E falls moves there and
    divides its damping by 3, down to _DAMPING_MIN; the others multiply theirs
    by 4.  A restart stops when it converges (sqrt(E) <= residual_target / 4),
    stalls (see _STALL_WINDOW), reaches MAX_ITERS accepted steps, or its
    damping passes _DAMPING_MAX.  The stop rules run only on a tick where the
    least trial energy converges, a restart reaches its next checkpoint or the
    cap (due), or the largest damping passes the limit.  The points are held as
    (R, dim, m), and the live restarts' state compacted, row k belonging to
    restart idx[k], written back into Q on the tick it leaves.
    """
    R, m, dim = Q.shape
    residuals, step = _search_residuals(space, m), _damped_step(m, dim)
    done = 0.25 * cfg.residual_target
    iters_out, stop_out, lam_out, resid_out = (np.zeros(R, dtype=int), np.full(R, -1),
                                               np.zeros(R), np.zeros(R))
    Q = np.ascontiguousarray(Q.transpose(0, 2, 1))
    idx, q = np.arange(R), Q
    energy, res, G = residuals(q)
    lam = np.full(R, _DAMPING_INIT)
    iters = np.zeros(R, dtype=int)
    due = np.full(R, min(_STALL_WINDOW, MAX_ITERS))  # the step count of the next checkpoint or cap
    checkpoint = energy.copy()  # the energy at the last multiple of _STALL_WINDOW steps
    while idx.size:
        trial = q + step(res, G, lam)
        en, r, g = residuals(trial)
        ok = en < energy
        accepted = np.count_nonzero(ok)
        if accepted == ok.size:
            q, res, G, energy = trial, r, g, en
        elif accepted:
            np.copyto(q, trial, where=ok[:, None, None])
            np.copyto(res, r, where=ok[:, None])
            np.copyto(G, g, where=ok[:, None, None])
            np.copyto(energy, en, where=ok)
        lam = np.maximum(lam / _DAMPING_DIVISOR.take(ok), _DAMPING_MIN)
        # a stop rule can fire only on a tick that brings a restart to
        # convergence or to its next checkpoint, or its damping past the limit;
        # sqrt is monotone, so the least trial energy decides convergence
        if accepted:
            iters += ok
        if not (accepted and (math.sqrt(np.fmin.reduce(en)) <= done or (iters >= due).any())
                or accepted < ok.size and lam.max() > _DAMPING_MAX):
            continue
        stop = np.where(lam > _DAMPING_MAX, _OVERFLOW, -1)
        # later assignments win: converged over a stall over the cap.  Only a
        # restart that stepped on this tick can reach any of the three
        stop[iters >= MAX_ITERS] = _CAPPED
        check = ok & (iters % _STALL_WINDOW == 0)
        if check.any():
            stop[check & (energy > (1.0 - _STALL_DROP) * checkpoint)] = _STALLED
            checkpoint[check] = energy[check]
            due[check] = np.minimum(iters[check] + _STALL_WINDOW, MAX_ITERS)
        stop[ok & (np.sqrt(energy) <= done)] = _CONVERGED
        leave = stop >= 0
        if leave.any():
            out, keep = idx[leave], ~leave
            Q[out], iters_out[out], stop_out[out], lam_out[out], resid_out[out] = (
                q[leave], iters[leave], stop[leave], lam[leave],
                np.maximum.reduce(np.abs(res[leave]), axis=-1))
            idx, q, res, G, energy, lam, iters, due, checkpoint = (
                x[keep] for x in (idx, q, res, G, energy, lam, iters, due, checkpoint))
    return Q.transpose(0, 2, 1), iters_out, stop_out, lam_out, resid_out


def search_equilateral(space: Space, m: int, cfg: SearchConfig | None = None) -> SearchResult:
    """Multi-restart Levenberg-Marquardt toward an m-point unit-equilateral set
    in space.

    Restarts run in lockstep, in batches whose (batch, dim, m, m) temporaries
    and (batch, k, k) damped systems fit in the kernel's chunk size.  Restarts
    are merged by lowest residual, ties broken by lowest restart index;
    non-convergence is a reported state, not an error.
    """
    m = require_int("m", m, 2)
    cfg = cfg or SearchConfig()
    dim = space.ambient_dim
    pair_coords, order = m * m * dim, min(m * (m - 1) // 2, m * dim)
    for size, what, cap in ((pair_coords, "pair coordinates", SEARCH_MAX_PAIR_COORDS),
                            (order, "damped-system rows", SEARCH_MAX_SYSTEM)):
        if size > cap:
            raise ResourceLimitError(f"search of {shown(m)} points in dimension {dim} needs "
                                     f"{shown(size)} {what} per restart, above the cap of {cap}")
    batch = max(1, space_mod._CHUNK_BYTES // (8 * max(pair_coords, order * order)))
    best = None
    for first in range(0, cfg.restarts, batch):
        restarts = range(first, min(first + batch, cfg.restarts))
        Q = np.stack([np.random.default_rng([cfg.seed, r]).uniform(-1.0, 1.0, size=(m, dim))
                      for r in restarts])
        with np.errstate(all="ignore"):  # a non-finite energy is a rejected step
            Q, iters, stops, lams, resids = _descend(Q, space, cfg)
        k = np.argmin(resids)  # the first of equal residuals
        if best is None or resids[k] < best[0]:
            best = (float(resids[k]), restarts[k], Q[k], iters[k], stops[k], lams[k])
    resid, restart, q, iters, stop, lam = best
    return SearchResult(PointSet(space, q), resid, resid <= cfg.residual_target, restart,
                        int(iters), STOP_CAUSES[stop], float(lam))
