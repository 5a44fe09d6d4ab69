"""The one-restart-at-a-time witness search, kept as the reference that the
lockstep search in ``eqdist.construct`` must match bit for bit.

Each restart runs its own Levenberg-Marquardt loop: one residual-and-gradient
call per trial point, accepted when the energy sum (d_ij - 1)^2 falls.  An
accepted step divides the damping by 3, down to _DAMPING_MIN; a rejected one
multiplies it by 4.  A restart stops as the lockstep search does: converged,
stalled (the energy fell by less than the fraction _STALL_DROP over the last
_STALL_WINDOW accepted steps), at the iteration cap, or when its damping
passes _DAMPING_MAX.  It reads these constants from ``eqdist.construct`` at
each call, so a test may patch them.  ``descend_reference`` gives every
restart's final points, accepted steps, stop cause, damping and max |d_ij - 1|,
``search_reference`` the best restart by that residual.

One restart's points are held as (dim, m), and its pair differences as
(dim, P) over the pairs i < j in ``np.triu_indices`` order, so that each
product and solve below is the one the lockstep search makes for that
restart.  The squares of a block's coordinates, and the blocks' powers, are
added one term after another, first to last, as the search adds them slab by
slab; so the sums of 8 or more terms match it too.  A block whose difference
has norm 0 gets gradient 0, as in the search.
"""

import functools
import math

import numpy as np

from eqdist import construct
from eqdist.space import Space


def _in_order(x: np.ndarray) -> np.ndarray:
    """The sum over the first axis of x, the first term first."""
    return functools.reduce(np.add, x)


def pair_residuals(Q: np.ndarray, space: Space):
    """Residuals d_ij - 1, (P,), and per-pair gradients g = dd_ij/dx_i,
    (dim, P), of the points Q (dim, m)."""
    i, j = np.triu_indices(Q.shape[1], 1)
    delta = Q[:, i] - Q[:, j]
    r = np.sqrt(np.array([_in_order(delta[sl] ** 2) for sl in space.block_slices]))
    top = r.max(axis=0)
    if math.isinf(space.p):
        d = top
        w = r.argmax(axis=0) == np.arange(space.n_blocks)[:, None]
    else:
        d = top * _in_order((r / top) ** space.p) ** (1.0 / space.p)
        w = r / d
        np.power(w, space.p - 2.0, out=w, where=r != 0.0)
    return d - 1.0, np.repeat(w, space.blocks, axis=0) * delta / d


def damped_step(res: np.ndarray, G: np.ndarray, lam: float) -> np.ndarray:
    """-(J^T J + lam I)^-1 J^T res for one restart, (dim, m): by the P x P
    system S o G^T G + lam I when P <= m dim, else by J^T J itself."""
    dim, P = G.shape
    m = int(round((1 + math.sqrt(1 + 8 * P)) / 2))
    i, j = np.triu_indices(m, 1)
    if P <= m * dim:
        M = np.zeros((P, m))
        M[np.arange(P), i] = 1.0
        M[np.arange(P), j] = -1.0
        A = (G.T @ G) * (M @ M.T)
        A[np.diag_indices(P)] += lam
        y = np.linalg.solve(A, res[:, None])[:, 0]
        return -((y * G) @ M)
    # J^T J and J^T res, pair by pair
    k = m * dim
    H = np.zeros((dim, m, dim, m))
    T = np.zeros((dim, m, m))
    for a in range(P):
        H[:, i[a], :, j[a]] = H[:, j[a], :, i[a]] = -np.outer(G[:, a], G[:, a])
        T[:, i[a], j[a]] = res[a] * G[:, a]
        T[:, j[a], i[a]] = -T[:, i[a], j[a]]
    rows = -np.add.reduce(H.transpose(0, 2, 1, 3), axis=-1)  # (dim, dim, m)
    for point in range(m):
        H[:, point, :, point] = rows[:, :, point]
    H = H.reshape(k, k)
    H[np.diag_indices(k)] += lam
    rhs = np.add.reduce(T, axis=-1).reshape(k, 1)
    return -np.linalg.solve(H, rhs).reshape(dim, m)


def descend_reference(Q: np.ndarray, space: Space, cfg):
    """(final points, accepted steps, STOP_CAUSES index, final damping, final
    max |d_ij - 1|) of each restart stacked on the first axis of Q, each
    descending alone; the values construct._descend returns for the same Q."""
    finals = [_descend_one(q, space, cfg) for q in Q]
    return tuple(np.array([f[n] for f in finals]) for n in range(5))


def _descend_one(Q: np.ndarray, space: Space, cfg):
    q = np.ascontiguousarray(Q.T)
    res, G = pair_residuals(q, space)
    energy = np.add.reduce(res * res)
    checkpoint, lam, it, stop = energy, construct._DAMPING_INIT, 0, None
    while stop is None:
        trial = q + damped_step(res, G, lam)
        r, g = pair_residuals(trial, space)
        en = np.add.reduce(r * r)
        if not en < energy:
            lam *= 4.0
            if lam > construct._DAMPING_MAX:
                stop = construct._OVERFLOW
            continue
        q, res, G, energy = trial, r, g, en
        lam = max(lam / 3.0, construct._DAMPING_MIN)
        it += 1
        if math.sqrt(energy) <= 0.25 * cfg.residual_target:
            stop = construct._CONVERGED
        elif it % construct._STALL_WINDOW == 0 and \
                energy > (1.0 - construct._STALL_DROP) * checkpoint:
            stop = construct._STALLED
        elif it >= construct.MAX_ITERS:
            stop = construct._CAPPED
        if it % construct._STALL_WINDOW == 0:
            checkpoint = energy
    return q.T, it, stop, lam, float(np.max(np.abs(res)))


def search_reference(space: Space, m: int, cfg) -> tuple[np.ndarray, float, int]:
    """(points, residual, restart_index) of the best restart, merged by
    lowest final max |d_ij - 1| with ties to the lowest restart index."""
    dim = space.ambient_dim
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        Q, *_, resid = _descend_one(rng.uniform(-1.0, 1.0, size=(m, dim)), space, cfg)
        if best is None or resid < best[0]:
            best = (resid, restart, Q)
    resid, restart, Q = best
    return Q, resid, restart
