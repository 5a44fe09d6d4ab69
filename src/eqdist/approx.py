"""Certified even-polynomial approximation of |x|^p on [-1, 1].

The central object is an even polynomial P with P(0) = 0 whose sup-norm
distance to |x|^p is bounded above in closed form and certified against the
explicit Jackson-type bound B(p)/d^p.  The construction interpolates
t^(p/2), t = x^2, at the floor(d/2) + 1 Chebyshev-Lobatto points of
u = 2t - 1, which gives P in the even-Chebyshev basis T_0(x), T_2(x), ...,
T_{2*floor(d/2)}(x), since T_k(2x^2 - 1) = T_{2k}(x).  A Lobatto point sits
at t = 0, so the interpolant vanishes there up to rounding.  It is not the
best approximation, but it converges at the same algebraic rate within a
Lebesgue-constant factor (Trefethen, Approximation Theory and Approximation
Practice, 2013), well inside the bound.

The error bound reads P in the same basis.  |x|^p = sum_k a_k T_2k(x) with
a_k known in closed form and sum_{k>n} |a_k| too (ATAP Thm 4.2), and
|T_2k| <= 1 on [-1, 1]; so for P = sum_k b_k T_2k,

    sup |P(x) - |x|^p| <= sum_{k<=n} |a_k - b_k| + sum_{k>n} |a_k|.

The b_k of the stored coefficients are summed exactly, in integers.
approximation_error, a dense-grid maximum, is the independent lower check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (CertificationError, InfeasibleDegreeError, InputError,
                     NumericalError, ResourceLimitError, require_int)

GRID_SIZE = 4097          # Chebyshev-spaced measurement grid on [0, 1]
_GRID = 0.5 * (1.0 - np.cos(math.pi * np.arange(GRID_SIZE) / (GRID_SIZE - 1)))
_GRID.setflags(write=False)
# Beyond this degree the monomial coefficients of the approximant exceed
# ~1e13 and their cancellation noise on [0, 1] overtakes the error bound in
# double precision (even integer p is exempt: its coefficients are 0 and 1).
MAX_MONOMIAL_DEGREE = 45
# Cap on any degree, the exact even-integer path included: certify asks for no
# more (certify._approximant), as its thm2 and thm5 spans grow with d.
MAX_DEGREE = 400
# Relative allowance for the float error of the closed-form a_k and of the
# tail sum (lgamma, exp and the recurrence): at most 220 ulps, or 5e-14, for
# p <= 45 and k <= 22 against mpmath (tests/test_approx.py).
COEFF_RTOL = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _require_p(p: float) -> None:
    if not 1.0 <= p < math.inf:
        raise InputError(f"p must be finite and >= 1, got {p}")


def jackson_constant(p: float) -> float:
    """The explicit constant B(p) in the degree-d error bound B(p)/d^p."""
    _require_p(p)
    cp = math.ceil(p)
    try:
        b = ((cp ** p) * (1.0 + math.pi ** 2 / 2.0) ** cp
             * math.prod(p - i for i in range(cp - 1)) / math.factorial(cp))
    except OverflowError:  # cp ** p alone, from about p = 143
        b = math.inf
    if not math.isfinite(b):  # the float products overflow for p > 75: take logs
        try:  # the falling factorial is Gamma(p + 1) / Gamma(p - cp + 2)
            b = math.exp(p * math.log(cp) + cp * math.log(1.0 + math.pi ** 2 / 2.0)
                         + math.lgamma(p + 1.0) - math.lgamma(p - cp + 2.0)
                         - math.lgamma(cp + 1.0))
        except OverflowError:  # B(p) itself, from about p = 109.65
            raise NumericalError(f"B(p) overflows double precision at p={p:g}") from None
    return b


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
    measured_error: float  # a proven upper bound on sup |P(x) - |x|^p|
    jackson_bound: float


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
    local maximum above 0.0, both reading |x|^p as numpy's power of |x|; the
    result is a lower bound on the true sup-error and is within 1e-10 of it
    for the degrees in scope.  A peak of 0.0 lies where P and |x|^p agree
    exactly, as x^2 at p = 2 does at every grid point, and is not refined.
    """
    _require_p(p)
    fn = lambda x: np.abs(P(x) - np.abs(x) ** p)
    err = fn(_GRID)
    interior = _interior_maxima(err)
    interior = interior[err[interior] > 0.0]
    return float(_golden_max(fn, _GRID[interior - 1], _GRID[interior + 1]).max(initial=err.max()))


def _abs_power_chebyshev(p: float, n: int) -> list[float]:
    """a_0, ..., a_n of |x|^p = sum_k a_k T_2k(x), each within COEFF_RTOL.

    a_0 = Gamma(p + 1) / (2^p Gamma(p/2 + 1)^2), a_1 = 2 a_0 beta / (beta + 1)
    and a_(k+1) / a_k = (beta - k) / (beta + k + 1), with beta = p/2.
    """
    beta = p / 2.0
    a = [math.exp(math.lgamma(p + 1.0) - p * math.log(2.0) - 2.0 * math.lgamma(beta + 1.0))]
    if n:
        a.append(2.0 * a[0] * beta / (beta + 1.0))
    for k in range(1, n):
        a.append(a[-1] * (beta - k) / (beta + k + 1.0))
    return a


def _chebyshev_tail(p: float, n: int) -> float:
    """sum_{k>n} |a_k|, within COEFF_RTOL; needs n + 1 > p/2.

    For k > beta = p/2 the reflection formula gives |a_k| = Gamma(p + 1)
    |sin(pi beta)| Gamma(k - beta) / (pi 2^(p-1) Gamma(k + beta + 1)), and the
    sum over k > n telescopes to the closed form below.  The sine is taken at
    beta - round(beta), exact in floats, so that it does not cancel near even p.
    """
    beta = p / 2.0
    sine = abs(math.sin(math.pi * (beta - round(beta))))
    log_ratio = (math.lgamma(p + 1.0) + math.lgamma(n + 1.0 - beta)
                 - math.lgamma(n + 1.0 + beta) - (p - 1.0) * math.log(2.0))
    return sine * math.exp(log_ratio) / (math.pi * p)


def _error_bound(P: EvenPolynomial, p: float) -> float:
    """A proven upper bound on sup |P(x) - |x|^p| over [-1, 1], rounded upward;
    needs P.degree >= ceil(p), for the tail.

    With n = P.degree // 2 it is tail(p, n) + sum_{k<=n} |a_k - b_k| plus
    COEFF_RTOL of tail + sum |a_k| for their float error, where b_k are the
    exact T_2k coefficients of P: x^(2j) = 2^(1-2j) sum_k C(2j, j-k) T_2k(x),
    the k = 0 term halved.  Every term is a dyadic rational, so the sum is
    exact in integers over 2**shift, and only the final division rounds.
    """
    n = P.degree // 2
    a = _abs_power_chebyshev(p, n)
    tail = _chebyshev_tail(p, n)
    slack = COEFF_RTOL * (tail + math.fsum(map(abs, a)))
    ratios = [x.as_integer_ratio() for x in (*P.even_coeffs, *a, tail, slack)]
    shift = 2 * n + max(den.bit_length() - 1 for _, den in ratios)
    scaled = [num << (shift - den.bit_length() + 1) for num, den in ratios]  # x * 2**shift
    m = len(P.even_coeffs)
    b = [0] * (n + 1)  # b_k * 2**shift
    for j, c in enumerate(scaled[:m], start=1):
        c >>= 2 * j - 1  # c_j 2^(1-2j): exact, as shift >= 2n + log2 of c_j's denominator
        b[0] += math.comb(2 * j, j) * c >> 1
        for k in range(1, j + 1):
            b[k] += math.comb(2 * j, j - k) * c
    total = sum(abs(x - y) for x, y in zip(scaled[m:m + n + 1], b)) + sum(scaled[m + n + 1:])
    bound = total / (1 << shift)  # correctly rounded; step up if it rounded down
    num, den = bound.as_integer_ratio()
    return math.nextafter(bound, math.inf) if num << shift < total * den else bound


def _cheb_to_monomial(c: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the Chebyshev series c, by the recurrence of
    numpy's cheb2poly run in place on two arrays of len(c).

    Each entry takes the same float operations as in numpy: the negation is
    exact, a - b equals -b + a, and adding the zeros past numpy's shorter
    arrays leaves a non-zero value unchanged.  On the interpolant's series
    (odd entries +0.0, the last one non-zero) the result is cheb2poly's bit
    for bit, signed zeros included; numpy would trim trailing zeros.
    """
    c0, c1 = np.zeros(len(c)), np.zeros(len(c))
    c0[0] = c[-1]
    for i in range(len(c), 1, -1):  # (c0, c1) <- (c[i-2] - c1, c0 + 2x c1)
        c0, c1 = c1, c0
        c1[1:] += 2.0 * c0[:-1]
        np.negative(c0, out=c0)
        c0[0] += c[i - 2]
    c0[1:] += c1[:-1]  # c0 + x c1
    return c0


def _lobatto_interpolant(p: float, half_degree: int) -> np.ndarray:
    """Monomial coefficients, in x, of the even polynomial of degree
    2 * half_degree that interpolates |x|^p = t^(p/2) at the half_degree + 1
    Chebyshev-Lobatto points of u = 2t - 1, t = x^2.  chebfit gives it in the
    even-Chebyshev basis, and _cheb_to_monomial takes it to monomials with
    the same bits as numpy's cheb2poly.  With no points to spare
    (half_degree 0) it is the zero polynomial, the only even one with P(0) = 0.
    """
    nh = half_degree
    if nh == 0:
        return np.zeros(1)
    u = _cheb.chebpts2(nh + 1)
    full = np.zeros(2 * nh + 1)
    full[::2] = _cheb.chebfit(u, ((u + 1.0) / 2.0) ** (p / 2.0), nh)  # T_k(u) = T_2k(x)
    # T_{2k} has even powers only, so odd entries are exactly zero
    return _cheb_to_monomial(full)


def approximate_abs_power(p: float, d: int) -> tuple[EvenPolynomial, ApproxCertificate]:
    """Even polynomial P, P(0) = 0, degree <= d, certified against B(p)/d^p.

    The certificate's measured_error is the proven upper bound _error_bound.
    Even integer p with d >= p yields the exact monomial x^p (zero error).
    """
    _require_p(p)
    d = require_int("degree d", d, 1)
    if d < math.ceil(p):
        raise InputError(f"degree d={d} is below ceil(p)={math.ceil(p):.6g}")
    if d > MAX_DEGREE:
        raise ResourceLimitError(f"degree {d} exceeds the cap of {MAX_DEGREE}")
    nh = d // 2
    bound = jackson_constant(p) / d ** p

    if p % 2 == 0:  # x^p: one 1.0 among the nh even coefficients, exact
        P = EvenPolynomial(d, tuple(float(j == p // 2 - 1) for j in range(nh)))
        measured = 0.0
    elif d > MAX_MONOMIAL_DEGREE:
        raise ResourceLimitError(
            f"degree {d} exceeds {MAX_MONOMIAL_DEGREE}, past which the monomial "
            "coefficients of the approximant are no longer representable in "
            "double precision (exact even-integer p is unaffected)")
    else:
        # power[0] = P(0) is rounding noise, as the interpolant vanishes at t = 0
        P = EvenPolynomial(d, tuple(_lobatto_interpolant(p, nh)[2::2]))
        measured = _error_bound(P, p)
    if measured > bound:
        raise CertificationError(
            f"approximation error {measured:.6e} exceeds bound {bound:.6e} "
            f"for p={p}, d={d}")
    return P, ApproxCertificate(p, d, measured, bound)


def choose_degree(p: float, c: float, n: int, m: int) -> int:
    """Smallest integer d with d^p > c*n*sqrt(m); checks d^p < 2*c*n*sqrt(m).

    The two-sided window is guaranteed to contain an integer p-th power when
    c >= (2^(1/p) - 1)^(-p); otherwise an InfeasibleDegreeError may be raised.
    """
    _require_p(p)
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
