"""The pairwise-distance kernel in its plainest form, kept as the reference
that ``eqdist.space.distance_matrix`` and ``eqdist.space._outer_norm`` must match
bit for bit.

The block norms of an lp sum come from ``pair_block_norms``; on a plain lp
space they are ``np.abs`` of a fresh difference array.  At p = 1 the outer
norm is the plain sum of the block norms, with no rescale.  At other finite p
it rescales by the largest block norm, then takes ``(r / scale) ** p`` on a
new array, zeros included, and ``** (1 / p)`` of the sum.
"""

import math

import numpy as np

from eqdist.space import pair_block_norms


def outer_norm(r, p):
    """lp norm over the last axis of the nonnegative array r, on new arrays."""
    if p == 1.0:
        return np.sum(r, axis=-1)
    top = np.max(r, axis=-1, initial=0.0)
    if math.isinf(p):
        return top
    scale = np.minimum(top + (top == 0.0), np.finfo(float).max)
    return top * np.sum((r / scale[..., None]) ** p, axis=-1) ** (1.0 / p)


def pair_distances(space, A, B):
    """(len A, len B) distances between the rows of A and the rows of B."""
    if space.is_lp:
        r = np.abs(A[:, None, :] - B[None, :, :])
    else:
        r = pair_block_norms(space, A, B)
    return outer_norm(r, space.p)
