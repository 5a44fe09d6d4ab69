"""lp spaces and lp sums of Euclidean spaces: norms, distances, point sets.

A ``Space`` is a product of Euclidean blocks E^{a_1} x ... x E^{a_n} with the
outer lp norm applied to the vector of block Euclidean norms.  A plain lp^n
space is the special case where every block has dimension 1.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError, ResourceLimitError, require_exponent, require_int, shown

_TOL_REL = 1e-12
_TOL_ABS = 1e-14
# Cap on a space's ambient dimension.  The block tuple and enumerate_bounds'
# exact 2**N grow linearly in it: `bound` at this cap took 0.5 s with a 17 MB
# tracemalloc peak on a 2-vCPU Xeon, and about twice both at twice the cap.
MAX_AMBIENT_DIM = 10 ** 6


@dataclass(frozen=True)
class Space:
    """An lp sum of Euclidean blocks; p may be math.inf."""

    p: float
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", require_exponent("p", self.p, inf=True))
        blocks = tuple(require_int("a block dimension", a, 1) for a in self.blocks)
        if not blocks:
            raise InputError("blocks must not be empty")
        _check_ambient_dim(sum(blocks))
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def ambient_dim(self) -> int:
        return sum(self.blocks)

    @property
    def is_lp(self) -> bool:
        """True when every block is 1-dimensional (a plain lp^n space)."""
        return self.ambient_dim == self.n_blocks  # blocks >= 1 sum to their count only if all are 1

    @property
    def is_euclidean(self) -> bool:
        """True when the norm coincides with the Euclidean norm on R^dim.

        This holds for p = 2 (an l2 sum of Euclidean blocks is Euclidean) and
        for a single block (the outer norm is then irrelevant).
        """
        return self.p == 2.0 or self.n_blocks == 1

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        """The coordinates of each block, fixed once per space."""
        ends = itertools.accumulate(self.blocks)
        return tuple(slice(end - a, end) for a, end in zip(self.blocks, ends))

    def to_string(self) -> str:
        p_str = "inf" if math.isinf(self.p) else (
            str(int(self.p)) if self.p.is_integer() else repr(self.p))
        if self.is_lp:
            return f"lp:n={self.n_blocks},p={p_str}"
        return f"lpsum:blocks={','.join(str(a) for a in self.blocks)},p={p_str}"

    @staticmethod
    def from_string(s: str) -> "Space":
        if not isinstance(s, str):
            raise InputError(f"a space string must be a string, got {type(s).__name__}")
        m = re.fullmatch(r"lp:n=(\d+),p=([^,]+)", s.strip())
        if m:
            return Space(_parse_p(m.group(2)), (1,) * _parse_dim(m.group(1)))
        m = re.fullmatch(r"lpsum:blocks=(\d+(?:,\d+)*),p=([^,]+)", s.strip())
        if m:
            blocks = tuple(_parse_dim(a) for a in m.group(1).split(","))
            return Space(_parse_p(m.group(2)), blocks)
        raise InputError(f"unparseable space string: {s!r}")


def _check_ambient_dim(dim: int) -> None:
    if dim > MAX_AMBIENT_DIM:
        raise ResourceLimitError(
            f"ambient dimension {shown(dim)} exceeds the cap of {MAX_AMBIENT_DIM}")


def _parse_dim(tok: str) -> int:
    """A dimension token of a space string, refused above MAX_AMBIENT_DIM before
    int() reads it: past 4300 digits int() raises ValueError."""
    digits = tok.lstrip("0") or "0"  # leading zeros count towards that limit too
    if len(digits) > len(str(MAX_AMBIENT_DIM)):
        raise ResourceLimitError(f"a dimension of {len(digits)} digits exceeds the cap of "
                                 f"{MAX_AMBIENT_DIM}")
    dim = int(digits)
    _check_ambient_dim(dim)
    return dim


def _parse_p(tok: str) -> float:
    tok = tok.strip().lower()
    if tok in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(tok)
    except ValueError as e:
        raise InputError(f"unparseable p value: {tok!r}") from e


@dataclass(frozen=True)
class PointSet:
    """An ordered list of points in a Space (rows of a read-only array)."""

    space: Space
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = _finite_array("points", self.points)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError("points must be a nonempty m x dim array")
        if pts.shape[1] != self.space.ambient_dim:
            raise InputError(
                f"points have dimension {pts.shape[1]}, space has ambient dimension "
                f"{self.space.ambient_dim}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def to_jsonable(self) -> dict:
        return {"space": self.space.to_string(), "points": self.points.tolist()}

    @staticmethod
    def from_jsonable(obj: dict) -> "PointSet":
        try:
            space = Space.from_string(obj["space"])
            points = obj["points"]
        except (KeyError, TypeError) as e:
            raise InputError(f"point-set JSON must have 'space' and 'points': {e}") from e
        return PointSet(space, points)


def _finite_array(name: str, x) -> np.ndarray:
    """x as a float array, or InputError unless it is a rectangular array of finite reals."""
    try:
        arr = np.asarray(x)
        # numpy reads "1.5" and 1j as floats: bool, int, float and str-free object dtypes pass
        strings = arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat)
        if strings or arr.dtype.kind not in "biufO":
            raise TypeError(f"entries of dtype {arr.dtype}")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError) as e:
        raise InputError(f"{name} must be a rectangular array of numbers") from e
    except OverflowError:  # an integer past the largest double
        raise InputError(f"{name} must be finite numbers") from None
    if not np.isfinite(arr).all():
        raise InputError(f"{name} must be finite numbers")
    return arr


def _check_dim(space: Space, x: Sequence[float]) -> np.ndarray:
    arr = _finite_array("point coordinates", x)
    if arr.shape != (space.ambient_dim,):
        raise InputError(
            f"point has shape {arr.shape}, expected ({space.ambient_dim},)")
    return arr


# Row chunk of pair_map, and restart batch of the witness search: each
# temporary holds about this many bytes.
_CHUNK_BYTES = 1 << 20
# Sums of squares below this have lost precision to underflow.
_TINY = np.finfo(float).tiny
_MAX = np.finfo(float).max


def _block_sq_norms(space: Space, delta: np.ndarray, axis: int = -1) -> np.ndarray:
    """Squared Euclidean norms of the blocks of the differences delta, whose
    coordinates lie on the negative axis `axis`; that axis, of length dim,
    becomes one of length n_blocks.  On a plain lp space each block is one
    coordinate: delta ** 2.  A block's squares are summed along `axis`, so on the
    last axis numpy sums 8 or more of them pairwise, and on an earlier axis one
    slab after another."""
    if space.is_lp:
        return delta ** 2
    rest = (slice(None),) * (-1 - axis)  # the axes after the coordinate axis
    return np.stack([np.add.reduce(delta[(..., sl) + rest] ** 2, axis=axis)
                     for sl in space.block_slices], axis=axis)


def pair_block_sq_norms(space: Space, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(..., len A, len B, n_blocks) squared Euclidean norms of the blocks of
    A[..., i, :] - B[..., j, :]; leading axes of A and B broadcast as batch axes."""
    return _block_sq_norms(space, A[..., :, None, :] - B[..., None, :, :])


def pair_block_norms(space: Space, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(..., len A, len B, n_blocks) Euclidean norms of the blocks of
    A[..., i, :] - B[..., j, :]; leading axes of A and B broadcast as batch axes.

    On a plain lp space these are |A[i] - B[j]|.  Elsewhere they are the
    square roots of pair_block_sq_norms, except where a sum of squares
    overflows to inf or falls below the smallest normal float: those norms
    are recomputed by np.hypot, so they stay finite and nonzero as |.| does.
    """
    delta = A[..., :, None, :] - B[..., None, :, :]
    if space.is_lp:
        return np.abs(delta, out=delta)  # delta is this call's own array
    with np.errstate(over="ignore"):  # overflowed sums are recomputed; an inf |delta| stays inf
        S = _block_sq_norms(space, delta)
        R = np.sqrt(S)
        bad = (S == math.inf) | (S < _TINY)
        pairs = np.nonzero(bad.any(axis=-1))  # one pass for all blocks of these pairs
        D = np.abs(delta[pairs])  # hypot squares nothing; on one coordinate it gives the |entry|
        rescued = np.stack([np.hypot.reduce(D[:, sl], axis=1) for sl in space.block_slices], axis=1)
        R[pairs] = np.where(bad[pairs], rescued, R[pairs])
    return R


def _outer_norm(r: np.ndarray, p: float) -> np.ndarray:
    """lp norm over the last axis of the nonnegative array r.

    At p = 1 it is the plain sum of r, so an overflow gives inf.  Otherwise it
    rescales by the largest entry before exponentiating so large p does not
    overflow or underflow, and raises only the nonzero entries of the rescaled
    copy, in place: 0 ** p is +0 for p >= 1, and on its AVX-512 loops numpy's
    power takes about 4 times as long on a zero as on an ordinary value, while
    zeros fill most of the differences of structured sets (cross-polytopes,
    lp-simplices).  Calls the ufunc reductions directly: the np.max/np.sum
    wrappers cost a third of a call on one short vector.  r is only read,
    since callers read it again.
    """
    if p == 1.0:
        return np.add.reduce(r, axis=-1)
    top = np.maximum.reduce(r, axis=-1, initial=0.0)
    if math.isinf(p):
        return top
    # 1 where every entry is 0 (no 0/0), the largest double where top is inf (no inf/inf)
    scale = np.minimum(top + (top == 0.0), _MAX)
    x = r / scale[..., None]
    np.power(x, p, out=x, where=x != 0.0)  # the loop x ** p picks (np.square at p = 2)
    return top * np.add.reduce(x, axis=-1) ** (1.0 / p)


def distance(space: Space, x: Sequence[float], y: Sequence[float]) -> float:
    x, y = _check_dim(space, x), _check_dim(space, y)
    return float(_outer_norm(pair_block_norms(space, x[None], y[None])[0, 0], space.p))


def norm(space: Space, x: Sequence[float]) -> float:
    """The lp-sum norm of x: outer lp norm of the block Euclidean norms."""
    return distance(space, x, np.zeros(space.ambient_dim))


def pair_map(pointset: PointSet, fn) -> np.ndarray:
    """(..., m, m) values of fn(A, B), which gives the (..., len A, len B) values for
    the row pairs of A and B, run on row chunks of the upper triangle and mirrored.
    A chunk's (rows, cols, dim) pairwise temporaries hold about _CHUNK_BYTES."""
    pts, m = pointset.points, pointset.m
    rows = max(1, _CHUNK_BYTES // (8 * pts.size))
    for i in range(0, m, rows):
        values = fn(pts[i:i + rows], pts[i:])
        if i == 0:
            out = np.empty(values.shape[:-2] + (m, m))
        out[..., i:i + rows, i:] = values
    return np.triu(out) + np.triu(out, 1).swapaxes(-1, -2)


def distance_matrix(pointset: PointSet) -> np.ndarray:
    """Symmetric m x m matrix of pairwise distances (zero diagonal)."""
    space = pointset.space
    return pair_map(pointset, lambda A, B: _outer_norm(pair_block_norms(space, A, B), space.p))


def norm_sandwich_check(x: Sequence[float], p: float,
                        q: float) -> tuple[bool, tuple[float, float, float]]:
    """Check ||x||_q <= ||x||_p <= n^(1/p-1/q) ||x||_q for 1 <= p <= q.

    Returns (holds, (||x||_q, ||x||_p, n^(1/p-1/q)*||x||_q)).
    """
    p, q = require_exponent("p", p, inf=True), require_exponent("q", q, inf=True)
    if not p <= q:
        raise InputError(f"need 1 <= p <= q, got p={p}, q={q}")
    arr = np.abs(_finite_array("x", x))
    nq = float(_outer_norm(arr, q))
    np_ = float(_outer_norm(arr, p))
    upper = arr.size ** (1.0 / p - 1.0 / q) * nq  # 1 / inf is 0
    slack = _TOL_REL * max(nq, np_, upper) + _TOL_ABS
    holds = (nq <= np_ + slack) and (np_ <= upper + slack)
    return holds, (nq, np_, upper)
