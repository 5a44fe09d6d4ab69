"""The one-restart-at-a-time witness search, kept as the reference that the
lockstep search in ``eqdist.construct`` must match bit for bit.

Each restart runs its own backtracking descent: an energy-only call per
trial step and a separate energy-and-gradient call per accepted step.  It
stops as the lockstep search does: converged, stalled (the energy fell by
less than the fraction _STALL_DROP over the last _STALL_WINDOW accepted
steps), at the iteration cap, or when no step is found.  It reads these
constants from ``eqdist.construct`` at each call, so a test may patch them.
``descend_reference`` gives every restart's final points, accepted steps and
stop cause, ``search_reference`` the best restart.

The squares of a block's coordinates, and the blocks' powers, are added one
term after another, first to last, as the search adds them slab by slab; so
the sums of 8 or more terms match it too.
"""

import functools
import math

import numpy as np

from eqdist import construct
from eqdist.space import PointSet, Space, distance_matrix


def _in_order(x: np.ndarray) -> np.ndarray:
    """The sum over the last axis of x, the first term first."""
    return functools.reduce(np.add, np.moveaxis(x, -1, 0))


def pair_energy_grad(Q: np.ndarray, space: Space, eps: float, want_grad: bool):
    """Energy sum_{i<j} (d_ij - 1)^2 with softened block norms, and gradient."""
    m = Q.shape[0]
    delta = Q[:, None, :] - Q[None, :, :]
    sq = np.stack([_in_order(delta[:, :, sl] ** 2) for sl in space.block_slices], axis=2)
    soften = space.p < 2.0 and math.isfinite(space.p)
    r = np.sqrt(sq + eps * eps) if soften else np.sqrt(sq)
    eye = np.eye(m, dtype=bool)
    if math.isinf(space.p):
        d = r.max(axis=2)
    else:
        rp = r ** space.p
        ssum = _in_order(rp)
        ssum[eye] = 1.0
        d = ssum ** (1.0 / space.p)
    d[eye] = 1.0
    resid = d - 1.0
    resid[eye] = 0.0
    energy = 0.5 * float(np.sum(resid ** 2))  # each pair counted twice
    if not want_grad:
        return energy, None
    # w[i, j, b]: weight of block b of Q[i] - Q[j] in the gradient at Q[i]
    if math.isinf(space.p):
        is_max = r.argmax(axis=2)[:, :, None] == np.arange(space.n_blocks)
        w = 2.0 * resid[:, :, None] * is_max / np.maximum(r, 1e-12)
    else:
        base = 2.0 * resid * np.maximum(d, 1e-12) ** (1.0 - space.p)
        w = base[:, :, None] * r ** (space.p - 2.0)
    w[eye] = 0.0
    return energy, np.sum(np.repeat(w, space.blocks, axis=2) * delta, axis=1)


def true_residual(Q: np.ndarray, space: Space) -> float:
    ps = PointSet(space, Q)
    dm = distance_matrix(ps)
    off = dm[np.triu_indices(ps.m, 1)]
    return float(np.max(np.abs(off - 1.0))) if off.size else 0.0


def descend_reference(Q: np.ndarray, space: Space, cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(final points, accepted steps, STOP_CAUSES index) of each restart stacked
    on the first axis of Q, each descending alone; the values construct._descend
    returns for the same Q."""
    finals = [_descend_one(q, space, cfg) for q in Q]
    return (np.array([f[0] for f in finals]), np.array([f[1] for f in finals]),
            np.array([f[2] for f in finals]))


def _descend_one(Q: np.ndarray, space: Space, cfg) -> tuple[np.ndarray, int, int]:
    eps = construct.SMOOTHING_EPS
    step = construct._STEP_INIT
    energy, grad = pair_energy_grad(Q, space, eps, True)
    checkpoint = energy
    it = 0
    while True:
        for _ in range(construct._MAX_HALVINGS):
            Qn = Q - step * grad
            en, _ = pair_energy_grad(Qn, space, eps, False)
            if en < energy:
                break
            step *= 0.5
            if step < construct._MIN_STEP:
                return Q, it, construct._UNDERFLOW
        else:
            return Q, it, construct._HALVED
        Q, energy = Qn, en
        step *= 1.3
        it += 1
        if math.sqrt(max(energy, 0.0)) <= 0.25 * cfg.residual_target:
            return Q, it, construct._CONVERGED
        if it % construct._STALL_WINDOW == 0:
            if energy > (1.0 - construct._STALL_DROP) * checkpoint:
                return Q, it, construct._STALLED
            checkpoint = energy
        if it >= construct.MAX_ITERS:
            return Q, it, construct._CAPPED
        grad = pair_energy_grad(Q, space, eps, True)[1]


def search_reference(space: Space, m: int, cfg) -> tuple[np.ndarray, float, int]:
    """(points, residual, restart_index) of the best restart, merged by
    lowest residual with ties to the lowest restart index."""
    dim = space.ambient_dim
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        Q = _descend_one(rng.uniform(-1.0, 1.0, size=(m, dim)), space, cfg)[0]
        resid = true_residual(Q, space)
        if best is None or resid < best[0]:
            best = (resid, restart, Q)
    resid, restart, Q = best
    return Q, resid, restart
