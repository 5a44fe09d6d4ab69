"""Certified even-polynomial approximation of |x|^p on [-1, 1].

The central object is an even polynomial P with P(0) = 0 whose sup-norm
distance to |x|^p is bounded above in closed form and certified against the
explicit Jackson-type bound B(p)/d^p.  The construction interpolates
t^(p/2), t = x^2, at the floor(d/2) + 1 Chebyshev-Lobatto points of
u = 2t - 1, which gives P in the even-Chebyshev basis T_0(x), T_2(x), ...,
T_{2*floor(d/2)}(x), since T_k(2x^2 - 1) = T_{2k}(x).  The nodes and the
scaled Chebyshev-Vandermonde system depend on floor(d/2) alone, so they are
built once per half-degree, and each fit is the one least-squares solve that
numpy's chebfit runs.  A Lobatto point sits at t = 0, so the interpolant
vanishes there up to rounding.  It is not the best approximation, but it
converges at the same algebraic rate within a Lebesgue-constant factor
(Trefethen, Approximation Theory and Approximation Practice, 2013), well
inside the bound.

The error bound reads P in the same basis.  |x|^p = sum_k a_k T_2k(x) with
a_k known in closed form and sum_{k>n} |a_k| too (ATAP Thm 4.2), and
|T_2k| <= 1 on [-1, 1]; so for P = sum_k b_k T_2k,

    sup |P(x) - |x|^p| <= sum_{k<=n} |a_k - b_k| + sum_{k>n} |a_k|.

The b_k of the stored coefficients are summed exactly, in integers.
approximation_error, a dense-grid maximum with each grid peak sampled at
PEAK_SAMPLES points over its two grid intervals, is the independent check: a
float measure of the error, which may read above the true sup by the Horner
rounding of P's monomial coefficients, 64 eps (1 + sum |c_j|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (CertificationError, InputError, NumericalError, ResourceLimitError,
                     require_exponent, require_int, require_positive, require_real, shown)

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
# Evenly spaced samples over the two grid intervals around each grid peak in
# approximation_error.  Against a golden-section search to 1e-12 on each peak,
# over 1,845 (p, d) cases with d <= 45, 129 samples come within 1.31e-11 of
# the top; 65 within 5.12e-11, and 33 fall up to 2.06e-10 short, past the
# 1e-10 promise (tests/test_approx.py checks it against mpmath).
PEAK_SAMPLES = 129


def jackson_constant(p: float) -> float:
    """The explicit constant B(p) in the degree-d error bound B(p)/d^p."""
    p = require_exponent("p", p)
    cp = math.ceil(p)
    try:
        b = ((cp ** p) * (1.0 + math.pi ** 2 / 2.0) ** cp
             * math.prod(p - i for i in range(cp - 1)) / math.factorial(cp))
    except OverflowError:  # cp ** p alone, from about p = 143
        b = math.inf
    if not math.isfinite(b):  # the float products overflow for p > 75: take logs
        try:
            b = math.exp(_log_jackson_constant(p))
        except OverflowError:  # B(p) itself, from about p = 109.65
            raise NumericalError(f"B(p) overflows double precision at p={p:g}") from None
    return b


def _log_jackson_constant(p: float) -> float:
    """log B(p); the falling factorial is Gamma(p + 1) / Gamma(p - ceil(p) + 2)."""
    cp = math.ceil(p)
    return (p * math.log(cp) + cp * math.log(1.0 + math.pi ** 2 / 2.0)
            + math.lgamma(p + 1.0) - math.lgamma(p - cp + 2.0) - math.lgamma(cp + 1.0))


def _jackson_bound(p: float, d: int) -> float:
    """B(p)/d^p; where B(p) overflows, as exp(log B(p) - p log d), which is
    finite up to about p = d = 398 (for the exact x^p)."""
    try:
        return jackson_constant(p) / d ** p
    except NumericalError:
        pass
    try:
        return math.exp(_log_jackson_constant(p) - p * math.log(d))
    except OverflowError:
        raise NumericalError(f"the bound B(p)/d^p overflows double precision at "
                             f"p={p:g}, d={d}") from None


@dataclass(frozen=True)
class EvenPolynomial:
    """P(x) = sum_j c_j x^(2j), j = 1..len(even_coeffs); P(0) = 0 structurally."""

    degree: int
    even_coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "degree", require_int("degree", self.degree, 1))
        coeffs = tuple(require_real("an even coefficient", c) for c in self.even_coeffs)
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


def approximation_error(P: EvenPolynomial, p: float) -> float:
    """Measured sup of |P(x) - |x|^p| over [0, 1] (equals [-1, 1] by evenness).

    The largest error on the grid and at PEAK_SAMPLES evenly spaced points
    over the two grid intervals around every grid local maximum above 0.0
    (all peaks in one evaluation), with |x|^p read as numpy's power of |x|.
    For d <= 45 the result is at most 1e-10 below the true sup-error.  It is
    not a lower bound: P is evaluated by Horner's rule in floats, whose
    rounding, up to 64 eps (1 + sum |c_j|), can lift it above the true sup
    once that outgrows the error (8.10e-9 against 6.31e-9 at p = 5.75,
    d = 45, where sum |c_j| = 9.3e7).  A peak of 0.0 lies where P and |x|^p
    agree exactly, as x^2 at p = 2 does at every grid point, and is not refined.
    """
    p = require_exponent("p", p)
    fn = lambda x: np.abs(P(x) - np.abs(x) ** p)
    err = fn(_GRID)
    mid = err[1:-1]
    peak = np.flatnonzero((mid >= err[:-2]) & (mid >= err[2:]) & (mid > 0.0))  # grid index - 1
    x = np.linspace(_GRID[peak], _GRID[peak + 2], PEAK_SAMPLES, axis=1)  # one row per peak
    return float(fn(x).max(initial=err.max()))


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


# half_degree -> (nodes t, scaled system, column norms, rcond) of the Lobatto
# fit; built on first use, at most MAX_MONOMIAL_DEGREE // 2 entries
_LOBATTO_SYSTEMS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, float]] = {}


def _lobatto_system(nh: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The part of chebfit at the nh + 1 Lobatto points of u that depends on nh
    only: the nodes t = (u + 1)/2, the Chebyshev-Vandermonde matrix over its
    column norms scl, scl and rcond, each as numpy's polyutils._fit forms them."""
    system = _LOBATTO_SYSTEMS.get(nh)
    if system is None:
        u = _cheb.chebpts2(nh + 1)
        lhs = _cheb.chebvander(u, nh).T
        scl = np.sqrt(np.square(lhs).sum(1))  # never 0: |T_k(1)| = 1
        t, matrix = (u + 1.0) / 2.0, lhs.T / scl
        for a in (t, matrix, scl):
            a.setflags(write=False)
        system = _LOBATTO_SYSTEMS[nh] = (t, matrix, scl, (nh + 1) * np.finfo(float).eps)
    return system


def _lobatto_interpolant(p: float, half_degree: int) -> np.ndarray:
    """Monomial coefficients, in x, of the even polynomial of degree
    2 * half_degree that interpolates |x|^p = t^(p/2) at the half_degree + 1
    Chebyshev-Lobatto points of u = 2t - 1, t = x^2.  The least-squares solve
    on the stored _lobatto_system is chebfit's own, so its even-Chebyshev
    coefficients keep chebfit's bits, and _cheb_to_monomial takes them to
    monomials with the same bits as numpy's cheb2poly.  With no points to spare
    (half_degree 0) it is the zero polynomial, the only even one with P(0) = 0.
    """
    nh = half_degree
    if nh == 0:
        return np.zeros(1)
    t, matrix, scl, rcond = _lobatto_system(nh)
    full = np.zeros(2 * nh + 1)
    full[::2] = np.linalg.lstsq(matrix, t ** (p / 2.0), rcond)[0] / scl  # T_k(u) = T_2k(x)
    # T_{2k} has even powers only, so odd entries are exactly zero
    return _cheb_to_monomial(full)


def approximate_abs_power(p: float, d: int) -> tuple[EvenPolynomial, ApproxCertificate]:
    """Even polynomial P, P(0) = 0, degree <= d, certified against B(p)/d^p.

    The certificate's measured_error is the proven upper bound _error_bound.
    Even integer p with d >= p yields the exact monomial x^p (zero error).
    """
    p = require_exponent("p", p)
    d = require_int("degree d", d, 1)
    if d < math.ceil(p):
        raise InputError(f"degree d={d} is below ceil(p)={math.ceil(p):.6g}")
    if d > MAX_DEGREE:
        raise ResourceLimitError(f"degree {shown(d)} exceeds the cap of {MAX_DEGREE}")
    nh = d // 2
    bound = _jackson_bound(p, d)

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
    c >= (2^(1/p) - 1)^(-p), as the paper's c (certify._paper_c, at least B(p))
    always is; otherwise an InputError ("no degree with ...") may be raised.
    """
    p = require_exponent("p", p)
    n, m = require_int("n", n, 1), require_int("m", m, 1)
    c = require_positive("c", c)
    try:
        target = c * n * math.sqrt(m)
    except OverflowError:  # n or m past the largest double
        target = math.inf
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
        raise InputError(
            f"no degree with {target:.6g} < d^{p} < {2 * target:.6g} "
            f"(need c >= (2^(1/p)-1)^(-p) = {_power(2 ** (1 / p) - 1, -p):.6g}, got c={c:.6g})")
    return d


def _power(x: float, p: float) -> float:
    """x ** p as a float, inf where it overflows or x = 0 and p < 0."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        return math.inf
