"""The pairwise-distance kernel as it was before its powers were taken in
place, kept as the reference that ``eqdist.space.distance_matrix`` must match
bit for bit.

The block norms of an lp sum come from ``pair_block_norms``; on a plain lp
space they are ``np.abs`` of a fresh difference array.  The outer norm
rescales by the largest block norm, then takes ``(r / scale) ** p`` and
``** (1 / p)`` on new arrays, at p = 1 too.
"""

import math

import numpy as np

from eqdist.space import pair_block_norms


def pair_distances(space, A, B):
    """(len A, len B) distances between the rows of A and the rows of B."""
    if space.is_lp:
        r = np.abs(A[:, None, :] - B[None, :, :])
    else:
        r = pair_block_norms(space, A, B)
    top = np.max(r, axis=-1, initial=0.0)
    if math.isinf(space.p):
        return top
    scale = np.minimum(top + (top == 0.0), np.finfo(float).max)
    return top * np.sum((r / scale[..., None]) ** space.p, axis=-1) ** (1.0 / space.p)
