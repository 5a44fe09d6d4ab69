"""The one-restart-at-a-time witness search, kept as the reference that the
lockstep search in ``eqdist.construct`` must match bit for bit.

Each restart runs its own backtracking descent: an energy-only call per
trial step and a separate energy-and-gradient call per accepted step.  It
stops as the lockstep search does: converged, stalled (the energy fell by
less than the fraction _STALL_DROP over the last _STALL_WINDOW accepted
steps), at the iteration cap, or when no step is found.
"""

import math

import numpy as np

from eqdist.construct import _STALL_DROP, _STALL_WINDOW, SMOOTHING_EPS
from eqdist.space import PointSet, Space, distance_matrix, pair_block_sq_norms


def pair_energy_grad(Q: np.ndarray, space: Space, eps: float, want_grad: bool):
    """Energy sum_{i<j} (d_ij - 1)^2 with softened block norms, and gradient."""
    m = Q.shape[0]
    sq = pair_block_sq_norms(space, Q, Q)
    soften = space.p < 2.0 and math.isfinite(space.p)
    r = np.sqrt(sq + eps * eps) if soften else np.sqrt(sq)
    eye = np.eye(m, dtype=bool)
    if math.isinf(space.p):
        d = r.max(axis=2)
    else:
        rp = r ** space.p
        ssum = rp.sum(axis=2)
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
    delta = Q[:, None, :] - Q[None, :, :]
    return energy, np.sum(np.repeat(w, space.blocks, axis=2) * delta, axis=1)


def true_residual(Q: np.ndarray, space: Space) -> float:
    ps = PointSet(space, Q)
    dm = distance_matrix(ps)
    off = dm[np.triu_indices(ps.m, 1)]
    return float(np.max(np.abs(off - 1.0))) if off.size else 0.0


def search_reference(space: Space, m: int, cfg) -> tuple[np.ndarray, float, int]:
    """(points, residual, restart_index) of the best restart, merged by
    lowest residual with ties to the lowest restart index."""
    dim = space.ambient_dim
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        Q = rng.uniform(-1.0, 1.0, size=(m, dim))
        step = cfg.step_init
        energy, grad = pair_energy_grad(Q, space, SMOOTHING_EPS, True)
        checkpoint = energy
        for it in range(1, cfg.max_iters + 1):
            moved = False
            for _ in range(60):
                Qn = Q - step * grad
                en, _ = pair_energy_grad(Qn, space, SMOOTHING_EPS, False)
                if en < energy:
                    Q, energy = Qn, en
                    step *= 1.3
                    moved = True
                    break
                step *= 0.5
                if step < 1e-18:
                    break
            if not moved:
                break
            if math.sqrt(max(energy, 0.0)) <= 0.25 * cfg.residual_target:
                break
            if it % _STALL_WINDOW == 0:
                if energy > (1.0 - _STALL_DROP) * checkpoint:
                    break
                checkpoint = energy
            grad = pair_energy_grad(Q, space, SMOOTHING_EPS, True)[1]
        resid = true_residual(Q, space)
        if best is None or resid < best[0]:
            best = (resid, restart, Q)
    resid, restart, Q = best
    return Q, resid, restart
