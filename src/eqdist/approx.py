"""Certified even-polynomial approximation of |x|^p on [-1, 1].

The central object is an even polynomial P with P(0) = 0 whose sup-norm
distance to |x|^p is measured on a dense grid and certified against the
explicit Jackson-type bound B(p)/d^p.  The construction runs a Remez
exchange in the even-Chebyshev basis T_0, T_2, ..., T_{2*floor(d/2)} on
[0, 1], which is equivalent to best approximation of t^(p/2) on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (CertificationError, InfeasibleDegreeError, InputError,
                     NumericalError, ResourceLimitError, require_int)

GRID_SIZE = 4097          # Chebyshev-spaced measurement grid on [0, 1]
REMEZ_MAX_ITER = 50
REMEZ_CONV_RTOL = 1e-10   # equioscillation levels agree to this relative tol
# Beyond this degree the monomial coefficients of the approximant exceed
# ~1e13 and their cancellation noise on [0, 1] overtakes the error bound in
# double precision (even integer p is exempt: its coefficients are 0 and 1).
MAX_REMEZ_DEGREE = 45
# Cap on any degree, the exact even-integer path included: certify asks for no
# more (certify._approximant), and measuring P on the grid takes time
# linear in d, about 90 ms at d = 400 on one Xeon core.
MAX_DEGREE = 400
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def jackson_constant(p: float) -> float:
    """The explicit constant B(p) in the degree-d error bound B(p)/d^p."""
    if not 1.0 <= p < math.inf:
        raise InputError(f"p must be finite and >= 1, got {p}")
    cp = math.ceil(p)
    try:
        b = ((cp ** p) * (1.0 + math.pi ** 2 / 2.0) ** cp
             * math.prod(p - i for i in range(cp - 1)) / math.factorial(cp))
    except OverflowError:  # cp ** p alone, from about p = 143
        b = math.inf
    if not math.isfinite(b):  # the float products overflow to inf for p > 75
        raise NumericalError(f"B(p) overflows double precision at p={p:g}")
    return b


def int_power(t, k: int):
    """t^k for an integer k >= 0 by k - 1 repeated multiplications by t."""
    if k == 0:
        return np.ones_like(t)
    r = t
    for _ in range(k - 1):
        r = r * t
    return r


def abs_power(x, p: float):
    """|x|^p, evaluated so that integer p uses exact repeated multiplication.

    For even integer p the sequence of multiplications matches the Horner
    evaluation of the monomial x^p as an even polynomial, making the two
    bitwise identical.
    """
    x = np.asarray(x, dtype=float)
    if p == float(int(p)):
        k = int(p)
        r = int_power(x * x, k // 2)
        if k % 2 == 1:
            r = r * np.abs(x)
        return r
    return np.abs(x) ** p


@dataclass(frozen=True)
class EvenPolynomial:
    """P(x) = sum_j c_j x^(2j), j = 1..len(even_coeffs); P(0) = 0 structurally."""

    degree: int
    even_coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "degree", require_int("degree", self.degree, 1))
        coeffs = tuple(float(c) for c in self.even_coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise InputError(f"even coefficients must be finite, got {coeffs}")
        if len(coeffs) > self.degree // 2:
            raise InputError(
                f"{len(coeffs)} even coefficients exceed degree budget {self.degree}")
        object.__setattr__(self, "even_coeffs", coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        t = x * x
        v = np.zeros_like(t)
        for c in self.even_coeffs[::-1]:
            v = v * t + c
        return v * t


@dataclass(frozen=True)
class ApproxCertificate:
    p: float
    d: int
    measured_error: float
    jackson_bound: float
    grid_size: int


def _cheb_grid(n: int) -> np.ndarray:
    """n Chebyshev-spaced points on [0, 1] (dense near both endpoints)."""
    return 0.5 * (1.0 - np.cos(math.pi * np.arange(n) / (n - 1)))


def _golden_max(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section search for the maximum of a vectorised fn on each [a_i, b_i].

    All intervals step in lockstep and an interval stops once b_i - a_i <=
    1e-12, so each follows the same sequence of float operations as a scalar
    search on it alone.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    live = np.flatnonzero(b - a > 1e-12)
    while live.size:
        al, bl, cl, dl = a[live], b[live], c[live], d[live]
        fcl, fdl = fc[live], fd[live]
        up = fcl < fdl
        al = np.where(up, cl, al)
        bl = np.where(up, bl, dl)
        cl, dl = (np.where(up, dl, bl - _GOLDEN * (bl - al)),
                  np.where(up, al + _GOLDEN * (bl - al), cl))
        fx = fn(np.where(up, dl, cl))
        fc[live] = np.where(up, fdl, fx)
        fd[live] = np.where(up, fx, fcl)
        a[live], b[live], c[live], d[live] = al, bl, cl, dl
        live = live[bl - al > 1e-12]
    return np.maximum(fc, fd)


def _interior_maxima(a: np.ndarray) -> np.ndarray:
    """Indices i, 0 < i < len(a) - 1, with a[i] >= both neighbours."""
    return np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])) + 1


def approximation_error(P: EvenPolynomial, p: float) -> float:
    """Measured sup of |P(x) - |x|^p| over [0, 1] (equals [-1, 1] by evenness).

    Dense-grid maximum refined by golden-section search around every grid
    local maximum; the result is a lower bound on the true sup-error and is
    within 1e-10 of it for the degrees in scope.
    """
    if not 1.0 <= p < math.inf:
        raise InputError(f"p must be finite and >= 1, got {p}")
    xg = _cheb_grid(GRID_SIZE)
    err = np.abs(P(xg) - abs_power(xg, p))
    if p == float(int(p)):
        fn = lambda x: np.abs(P(x) - abs_power(x, p))
    else:
        # the C library's pow, point by point: numpy's SIMD power on arrays
        # can differ from it in the last bit, and the refined maxima are
        # reported to full precision
        fn = lambda x: np.abs(P(x) - np.array([math.pow(v, p) for v in np.abs(x)]))
    interior = _interior_maxima(err)
    return float(_golden_max(fn, xg[interior - 1], xg[interior + 1]).max(initial=err.max()))


def _remez_even(p: float, half_degree: int) -> tuple[np.ndarray, float]:
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
    basis = np.eye(2 * nh + 1)[::2].T  # column k holds T_{2k}

    best_q, best_err = None, math.inf
    signs = (-1.0) ** j
    used = set()  # the reference sets solved on so far
    for _ in range(REMEZ_MAX_ITER):
        used.add(x.tobytes())
        # one Clenshaw pass for all columns, bit for bit a chebval call per column
        A = np.column_stack((_cheb.chebval(x, basis).T, signs))
        try:
            sol = np.linalg.solve(A, abs_power(x, p))
        except np.linalg.LinAlgError:
            break
        q, h = sol[: nh + 1], sol[nh + 1]
        full = np.zeros(2 * nh + 1)
        full[::2] = q
        eg = _cheb.chebval(xg, full) - fg
        ae = np.abs(eg)
        # one candidate per maximal same-sign run: the largest |error| in it (numpy is slower)
        cands: list[tuple[int, float, float]] = []  # (index, sign, |err|)
        for i in [0, *_interior_maxima(ae).tolist(), grid_n - 1]:
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
        emax = max(c[2] for c in cands)
        if emax < best_err:
            best_q, best_err = q.copy(), emax
        if len(cands) < nh + 2 or emax - abs(h) <= REMEZ_CONV_RTOL * emax:
            break
        x = np.sort(xg[[c[0] for c in cands]])
        if x.tobytes() in used:
            break  # a fixed point or cycle: the rest would repeat iterations exactly
    if best_q is None:
        raise CertificationError("Remez exchange failed to produce a solution")
    return best_q, best_err


def approximate_abs_power(p: float, d: int) -> tuple[EvenPolynomial, ApproxCertificate]:
    """Even polynomial P, P(0) = 0, degree <= d, certified against B(p)/d^p.

    Even integer p with d >= p yields the exact monomial x^p (zero error).
    """
    if not 1.0 <= p < math.inf:
        raise InputError(f"p must be finite and >= 1, got {p}")
    if d < math.ceil(p):
        raise InputError(f"degree d={d} is below ceil(p)={math.ceil(p)}")
    d = require_int("degree d", d, 1)
    if d > MAX_DEGREE:
        raise ResourceLimitError(f"degree {d} exceeds the cap of {MAX_DEGREE}")
    nh = d // 2
    bound = jackson_constant(p) / d ** p

    if p == float(int(p)) and int(p) % 2 == 0:
        coeffs = [0.0] * nh
        coeffs[int(p) // 2 - 1] = 1.0
        P = EvenPolynomial(d, tuple(coeffs))
    elif d > MAX_REMEZ_DEGREE:
        raise ResourceLimitError(
            f"degree {d} exceeds {MAX_REMEZ_DEGREE}, past which the monomial "
            "coefficients of the approximant are no longer representable in "
            "double precision (exact even-integer p is unaffected)")
    else:
        q, _ = _remez_even(p, nh)
        full = np.zeros(2 * nh + 1)
        full[::2] = q
        power = _cheb.cheb2poly(full)
        # T_{2k} has even powers only, so odd entries are exactly zero
        P = EvenPolynomial(d, tuple(power[2::2]))

    measured = approximation_error(P, p)
    if measured > bound:
        raise CertificationError(
            f"approximation error {measured:.6e} exceeds bound {bound:.6e} "
            f"for p={p}, d={d}")
    return P, ApproxCertificate(p, d, measured, bound, GRID_SIZE)


def choose_degree(p: float, c: float, n: int, m: int) -> int:
    """Smallest integer d with d^p > c*n*sqrt(m); checks d^p < 2*c*n*sqrt(m).

    The two-sided window is guaranteed to contain an integer p-th power when
    c >= (2^(1/p) - 1)^(-p); otherwise an InfeasibleDegreeError may be raised.
    """
    if not 1.0 <= p < math.inf:
        raise InputError(f"p must be finite and >= 1, got {p}")
    n, m = require_int("n", n, 1), require_int("m", m, 1)
    if not c > 0:
        raise InputError(f"c must be positive, got {c}")
    target = c * n * math.sqrt(m)
    if not math.isfinite(target):
        raise InputError(f"c*n*sqrt(m) overflows double precision at c={c:.6g}")
    # the smallest d with d^p > target, from just below target^(1/p) by doubling steps
    # and bisection: unit steps may never end, as past 2^53 float(d + 1) can be float(d)
    lo = hi = max(1, math.floor(target ** (1.0 / p)) - 1)
    while not _power(hi, p) > target:
        lo, hi = hi, hi + 2 * (hi - lo) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _power(mid, p) > target else (mid, hi)
    d = hi
    if not _power(d, p) < 2.0 * target:
        raise InfeasibleDegreeError(
            f"no degree with {target:.6g} < d^{p} < {2 * target:.6g} "
            f"(need c >= (2^(1/p)-1)^(-p) = {_power(2 ** (1 / p) - 1, -p):.6g}, got c={c:.6g})")
    return d


def _power(x: float, p: float) -> float:
    """x ** p as a float, inf where it overflows or x = 0 and p < 0."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        return math.inf
