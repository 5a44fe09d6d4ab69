"""The column-by-column Remez exchange, kept as the reference that
``eqdist.approx._remez_even`` must match bit for bit.

It builds the Remez matrix with one one-hot ``chebval`` call per column and
runs until the level test passes, a solve fails or ``REMEZ_MAX_ITER``
iterations are spent, even after the reference set stops changing.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from eqdist.approx import (GRID_SIZE, REMEZ_CONV_RTOL, REMEZ_MAX_ITER, _cheb_grid,
                           abs_power)
from eqdist.errors import CertificationError


def remez_reference(p: float, half_degree: int) -> tuple[np.ndarray, float]:
    """Best even-polynomial approximation of |x|^p on [0, 1].

    Returns (coefficients in the even-Chebyshev basis T_0, T_2, ..., and
    the achieved equioscillation error).
    """
    nh = half_degree
    j = np.arange(nh + 2)
    # reference init: sqrt of shifted-Chebyshev extrema in t = x^2, so the
    # points cluster near the x = 0 singularity the way the extrema do
    t0 = 0.5 * (1.0 + np.cos(math.pi * j / (nh + 1)))[::-1]
    x = np.sqrt(t0)
    grid_n = max(GRID_SIZE, 32 * nh + 1)
    xg = _cheb_grid(grid_n)
    fg = abs_power(xg, p)

    basis = np.zeros((nh + 1, 2 * nh + 1))
    for k in range(nh + 1):
        basis[k, 2 * k] = 1.0

    def qval(q, pts):
        full = np.zeros(2 * nh + 1)
        full[::2] = q
        return _cheb.chebval(pts, full)

    best_q, best_err = None, math.inf
    signs = (-1.0) ** j
    for _ in range(REMEZ_MAX_ITER):
        A = np.empty((nh + 2, nh + 2))
        for k in range(nh + 1):
            A[:, k] = _cheb.chebval(x, basis[k])
        A[:, nh + 1] = signs
        try:
            sol = np.linalg.solve(A, abs_power(x, p))
        except np.linalg.LinAlgError:
            break
        q, h = sol[: nh + 1], sol[nh + 1]
        eg = qval(q, xg) - fg
        ae = np.abs(eg)
        # one candidate per maximal same-sign run: the largest |error| in it
        cands: list[tuple[int, float, float]] = []  # (index, sign, |err|)
        ii = np.flatnonzero((ae[1:-1] >= ae[:-2]) & (ae[1:-1] >= ae[2:])) + 1
        for i in [0, *ii.tolist(), grid_n - 1]:
            s = 1.0 if eg[i] >= 0 else -1.0
            if cands and cands[-1][1] == s:
                if ae[i] > cands[-1][2]:
                    cands[-1] = (i, s, ae[i])
            else:
                cands.append((i, s, ae[i]))
        while len(cands) > nh + 2:
            if cands[0][2] <= cands[-1][2]:
                cands.pop(0)
            else:
                cands.pop()
        emax = max(c[2] for c in cands) if cands else float(ae.max())
        if emax < best_err:
            best_q, best_err = q.copy(), emax
        if len(cands) < nh + 2 or emax - abs(h) <= REMEZ_CONV_RTOL * emax:
            break
        x = np.sort(xg[[c[0] for c in cands]])
    if best_q is None:
        raise CertificationError("Remez exchange failed to produce a solution")
    return best_q, best_err
