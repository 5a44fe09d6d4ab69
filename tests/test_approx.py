import math
import random
import runpy
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly, chebfit, chebpts2

from eqdist import approx, cli
from eqdist.approx import (COEFF_RTOL, MAX_MONOMIAL_DEGREE, EvenPolynomial,
                           approximate_abs_power, approximation_error,
                           choose_degree, jackson_constant)
from eqdist.errors import InputError, NumericalError, ResourceLimitError


def test_jackson_constant_values():
    base = 1 + math.pi ** 2 / 2
    assert abs(jackson_constant(1) - base) < 1e-14
    assert abs(jackson_constant(2) - 4 * base ** 2 * 2 / 2) < 1e-11
    assert abs(jackson_constant(1.5) - 2 ** 1.5 * base ** 2 * 1.5 / 2) < 1e-12
    # the falling factorial p (p - 1) ... (p - ceil(p) + 2), multiplied left to right
    assert jackson_constant(3.5) == 4 ** 3.5 * base ** 4 * (3.5 * 2.5 * 1.5) / 24
    with pytest.raises(InputError):
        jackson_constant(0.9)
    # 150^150 alone is past the largest double
    with pytest.raises(NumericalError):
        jackson_constant(150)
    for p in (math.inf, math.nan):
        with pytest.raises(InputError, match="finite"):
            jackson_constant(p)


def _jackson_mp(p):
    """B(p) at 50 digits: with c = ceil(p),
    c^p (1 + pi^2/2)^c Gamma(p + 1) / (Gamma(p - c + 2) c!)."""
    with mpmath.workdps(50):
        cp, p = math.ceil(p), mpmath.mpf(p)
        return (cp ** p * (1 + mpmath.pi ** 2 / 2) ** cp * mpmath.gamma(p + 1)
                / (mpmath.gamma(p - cp + 2) * mpmath.factorial(cp)))


def test_jackson_constant_overflow_edge():
    # up to p = 75 the float products are finite and give B(p); above it they
    # overflow to inf and B(p) is taken in log space, until it overflows itself
    assert jackson_constant(75.0) == (75.0 ** 75.0 * (1.0 + math.pi ** 2 / 2.0) ** 75
                                      * math.prod(75.0 - i for i in range(74)) / math.factorial(75))
    for p in (74.5, 75.0, math.nextafter(75.0, 76.0), 75.1, 80.0, 100.0, 109.6):
        assert abs(jackson_constant(p) / _jackson_mp(p) - 1) < 1e-12, p
    for p in (109.7, 110.0, 142.9):
        with pytest.raises(NumericalError, match="B\\(p\\) overflows"):
            jackson_constant(p)


def test_jackson_bound_edges():
    # below about p = 109.65 the bound is B(p)/d^p as jackson_constant gives it;
    # above, B(p) overflows and the quotient is exp(log B(p) - p log d), finite
    # up to p = d = 398 and past the largest double from p = d = 399
    assert approx._jackson_bound(109.6, 110) == jackson_constant(109.6) / 110 ** 109.6
    for p, d in ((109.6, 110), (109.7, 110), (120.0, 120), (120.0, 130), (150.5, 400),
                 (398.0, 398)):
        with mpmath.workdps(50):
            want = _jackson_mp(p) / mpmath.mpf(d) ** p
        assert abs(approx._jackson_bound(p, d) / want - 1) < 1e-12, (p, d)
    for p, d in ((399.0, 399), (400.0, 400)):
        with mpmath.workdps(50):
            assert _jackson_mp(p) / mpmath.mpf(d) ** p > sys.float_info.max
        with pytest.raises(NumericalError, match=f"B\\(p\\)/d\\^p overflows .* p={p:g}, d={d}$"):
            approx._jackson_bound(p, d)
    # approx takes the exact x^120 with error 0, where B(120) overflows
    with pytest.raises(NumericalError, match="B\\(p\\) overflows"):
        jackson_constant(120.0)
    P, cert = approximate_abs_power(120.0, 120)
    assert cert.measured_error == 0.0 and P.even_coeffs[-1] == 1.0
    assert cert.jackson_bound == approx._jackson_bound(120.0, 120)


def test_even_polynomial_structure():
    P = EvenPolynomial(6, (1.0, -0.5, 0.25))
    assert P(0.0) == 0.0
    x = np.linspace(-1, 1, 11)
    assert np.allclose(P(x), x**2 - 0.5 * x**4 + 0.25 * x**6)
    assert np.array_equal(P(x), P(-x))
    with pytest.raises(InputError):
        EvenPolynomial(4, (1.0, 2.0, 3.0))  # degree 6 > budget 4


def test_exact_even_integer_cases():
    P, cert = approximate_abs_power(2, 2)
    assert P.even_coeffs == (1.0,) and cert.measured_error == 0.0
    P, cert = approximate_abs_power(4, 4)
    assert P.even_coeffs == (0.0, 1.0) and cert.measured_error == 0.0
    for p in (2, 4, 6):
        for d in (p, p + 1, p + 5):
            _, cert = approximate_abs_power(p, d)
            assert cert.measured_error == 0.0


@pytest.mark.parametrize("call", [
    lambda: EvenPolynomial(0, ()),
    lambda: approximation_error(EvenPolynomial(2, ()), 0.5),
    lambda: choose_degree(math.inf, 1.0, 1, 1),
], ids=["degree-0", "error-at-p-below-1", "degree-at-p-inf"])
def test_refusals(call):
    with pytest.raises(InputError):
        call()


def _measured_with_sizes(P: EvenPolynomial, p: float) -> tuple[float, list[int]]:
    """approximation_error(P, p), and the size of each array it evaluates P on."""
    sizes = []

    class Spy(EvenPolynomial):
        def __call__(self, x):
            sizes.append(np.size(x))
            return super().__call__(x)

    return approximation_error(Spy(P.degree, P.even_coeffs), p), sizes


def test_p1_d1_is_the_zero_polynomial():
    # one Lobatto point leaves no even polynomial but 0 with P(0) = 0; its
    # bound is a_0 + tail(1, 0) = 2/pi + 2/pi, against the true error 1
    P, cert = approximate_abs_power(1, 1)
    assert P == EvenPolynomial(1, ())
    assert 4 / math.pi < cert.measured_error <= 4 / math.pi * (1 + 2 * COEFF_RTOL)
    # |x| rises over the grid, so no interior peak is refined and the grid
    # measure is the grid maximum, 1
    assert _measured_with_sizes(P, 1) == (1.0, [approx.GRID_SIZE, 0])


def test_error_over_the_bound_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(approx, "jackson_constant", lambda p: 1e-300)
    code = cli.run(["approx", "--p", "1.5", "--d", "12"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("failed: approximation error") and err.count("\n") == 1


def test_degree_precondition():
    with pytest.raises(InputError):
        approximate_abs_power(2.5, 2)
    with pytest.raises(InputError):
        approximate_abs_power(0.5, 4)
    # the degree is read as an integer before it is compared with ceil(p)
    for d in ("5", None):
        with pytest.raises(InputError, match="degree d must be a number"):
            approximate_abs_power(3, d)


def test_degree_cap_for_monomial_conversion():
    # past the cap the monomial representation drowns in cancellation noise
    with pytest.raises(ResourceLimitError):
        approximate_abs_power(1, MAX_MONOMIAL_DEGREE + 1)
    # exact even-integer powers are exempt from the cap
    _, cert = approximate_abs_power(2, 100)
    assert cert.measured_error == 0.0
    # the largest allowed degree still certifies for the hardest exponent
    _, cert = approximate_abs_power(1, MAX_MONOMIAL_DEGREE)
    assert cert.measured_error <= cert.jackson_bound


def test_lobatto_interpolant_certifies_every_degree():
    # the grid covers the odd integers 1, 7 and 75, both sides of the even
    # p = 2 and p = 8, and p past 10; p = 75 has the largest float-product
    # B(p) but no degree in range, as ceil(p) is past the cap
    eps = np.finfo(float).eps
    worst = (0.0, None)
    for p in (1, 1.3, 2 - 1e-6, 2 + 1e-6, 2.5, 4.7, 7, 8 - 1e-9, 12.3, 20.7):
        for d in range(math.ceil(p), MAX_MONOMIAL_DEGREE + 1):
            P, cert = approximate_abs_power(p, d)
            worst = max(worst, (cert.measured_error / cert.jackson_bound, (p, d)))
            # the proven bound holds the grid-measured error, up to the
            # rounding of Horner's evaluation of P
            slack = 64 * eps * (1.0 + sum(map(abs, P.even_coeffs)))
            assert approximation_error(P, p) <= cert.measured_error + slack, (p, d)
            assert p < 2.5 or cert.measured_error < 1e-3 * cert.jackson_bound, (p, d)
            # the node at t = 0 makes P(0) = 0 up to rounding, so dropping the
            # constant term of the monomial form moves the error by no more
            assert abs(approx._lobatto_interpolant(p, d // 2)[0]) <= 32 * eps, (p, d)
    # every case certifies, the worst by a factor of 4.66, at p = 1 where the
    # bound and B(p)/d^p both fall as 1/d (the zero polynomial at d = 1 is
    # within 1e-7 of it); from p = 2.5 on, by a factor above 1000
    assert worst[1] == (1, 45) and 0.2145 < worst[0] < 0.2146
    with pytest.raises(ResourceLimitError):
        approximate_abs_power(75, 75)


def test_monomial_conversion_is_numpys_cheb2poly(monkeypatch):
    # same values and sign bits of zeros as numpy's reference, on every series
    # the interpolant converts: each d in [ceil(p), 45], so nh = d // 2 from 0
    # (no conversion: the zero polynomial) and 1 (a series of length 3) up
    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    seen, cases = [], 0
    convert = approx._cheb_to_monomial

    def record(c):
        seen.append((c.copy(), convert(c)))
        return seen[-1][1]

    monkeypatch.setattr(approx, "_cheb_to_monomial", record)
    for p in (*np.linspace(1.0, 8.0, 71)[1:], 1, 1.5, 2.5, 8 - 1e-9, 12.3, 20.7, 44.9):
        for nh in sorted({d // 2 for d in range(math.ceil(p), MAX_MONOMIAL_DEGREE + 1)}):
            seen.clear()
            out = approx._lobatto_interpolant(p, nh)
            if nh == 0:
                assert not seen and same(out, np.zeros(1)), p
                continue
            [(full, mono)] = seen
            assert len(full) == 2 * nh + 1 and mono is out, (p, nh)
            assert same(mono, cheb2poly(full)), (p, nh)
            cases += 1
    # a series of length 1 or 2 is its own monomial form, as in numpy
    for c in ([0.0], [-0.0], [0.3], [0.3, -1.5]):
        assert same(convert(np.array(c)), cheb2poly(c)), c
    assert cases == 1566


_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_stored_lobatto_system_gives_chebfits_bits(monkeypatch):
    # the solve on the stored system is chebfit's own, so every coefficient
    # keeps its bits, signed zeros too; p covers both sides of the even
    # integers, p past 10, and every p of the first 16 approx-sweep rounds
    approx_round = runpy.run_path(str(_WORKLOADS))["_approx_round"]
    sweep = {job.check["p"] for i in range(16) for job in approx_round(random.Random(0), i)}
    ps = sorted({1.0001, 1.0417, 1.5, 2.7083, 3.5, 5.75, 7.25, 7.9999, 12.3, 20.7} | sweep)
    monkeypatch.setattr(approx, "_LOBATTO_SYSTEMS", {})
    seen = []
    monkeypatch.setattr(approx, "_cheb_to_monomial", lambda c: seen.append(c) or c)
    for nh in range(1, MAX_MONOMIAL_DEGREE // 2 + 1):
        u = chebpts2(nh + 1)
        for p in ps:
            seen.clear()
            approx._lobatto_interpolant(p, nh)
            [full] = seen
            ref = chebfit(u, ((u + 1.0) / 2.0) ** (p / 2.0), nh)
            assert np.array_equal(full[::2].view(np.int64), ref.view(np.int64)), (p, nh)
    assert len(ps) > 300
    # one entry per half-degree, each read-only and of full rank, so the
    # RankWarning that chebfit checks for could not have fired
    assert sorted(approx._LOBATTO_SYSTEMS) == list(range(1, MAX_MONOMIAL_DEGREE // 2 + 1))
    for nh, (t, matrix, scl, rcond) in approx._LOBATTO_SYSTEMS.items():
        for a in (t, matrix, scl):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert np.linalg.lstsq(matrix, t, rcond)[2] == nh + 1
    # no degree past the monomial cap reaches the solve
    with pytest.raises(ResourceLimitError):
        approximate_abs_power(1.5, MAX_MONOMIAL_DEGREE + 1)
    assert len(approx._LOBATTO_SYSTEMS) == MAX_MONOMIAL_DEGREE // 2


def test_only_the_exact_monomial_skips_refinement():
    # P is evaluated on the grid, then once on the samples of every peak
    # above 0.0; with none, that second array is empty.  numpy squares |x|
    # exactly, and Horner on the one-hot x^2 multiplies the same way, with
    # zero coefficients above x^2 or none
    for P in (EvenPolynomial(2, (1.0,)), EvenPolynomial(6, (1.0, 0.0, -0.0))):
        assert _measured_with_sizes(P, 2) == (0.0, [approx.GRID_SIZE, 0])
    # one ulp above 1 is not x^2: its error is refined, and above 0
    err, sizes = _measured_with_sizes(EvenPolynomial(2, (1.0 + 2.0 ** -52,)), 2)
    assert err > 0.0 and sizes[0] == approx.GRID_SIZE and len(sizes) == 2 and sizes[1] > 0
    # nor is the zero polynomial, too short to hold x^2
    assert approximation_error(EvenPolynomial(1, ()), 2) == 1.0


@pytest.mark.parametrize("p", [4, 6, 8])
def test_exact_monomial_grid_measure_is_within_rounding(p):
    # past p = 2 numpy's power and Horner's products round apart, so the
    # grid measure of the exact x^p is not 0.0, but stays within the slack
    # bench/oracle.py allows the Horner sum: 64 eps (1 + sum |c_j|)
    for d in (p, p + 5, 45):
        P, cert = approximate_abs_power(p, d)
        assert cert.measured_error == 0.0
        slack = 64 * np.finfo(float).eps * (1.0 + sum(map(abs, P.even_coeffs)))
        assert approximation_error(P, p) <= slack, (p, d)


def test_p1_d10_example():
    P, cert = approximate_abs_power(1, 10)
    assert cert.measured_error <= jackson_constant(1) / 10
    assert 0.1157 < cert.measured_error < 0.1158
    # the proven bound is about twice the grid-measured error
    assert 0.05 < approximation_error(P, 1) < cert.measured_error


def test_approximation_error_examples():
    assert approximation_error(EvenPolynomial(2, (1.0,)), 2) == 0.0
    err = approximation_error(EvenPolynomial(2, ()), 1)  # zero polynomial
    assert abs(err - 1.0) < 1e-15
    P, _ = approximate_abs_power(1, 10)
    assert approximation_error(P, 1) <= 0.5935



def test_grid_measure_is_within_1e_10_below_the_true_sup():
    # the true sup of |e|, e = P - |x|^p on [0, 1], at 50 digits with P's float
    # coefficients read exactly: |e(1)| or |e| at a root of e', found by
    # bracketing from each peak of |e| on a grid x = sin(theta), which is
    # Chebyshev-spaced in t = x^2 as the interpolation nodes are
    eps = np.finfo(float).eps
    for p, d in ((1, 41), (1, 39), (1.0001, 23), (1.3, 20), (3.5, 30), (8 - 1e-9, 30)):
        P, _ = approximate_abs_power(p, d)
        with mpmath.workdps(50):
            c, q = [mpmath.mpf(x) for x in P.even_coeffs], mpmath.mpf(p)
            e = lambda x: x * x * mpmath.polyval(c[::-1], x * x) - x ** q
            de = lambda x: (x * mpmath.polyval([2 * j * cj for j, cj in enumerate(c, 1)][::-1], x * x)
                            - q * x ** (q - 1))
            xs = [mpmath.sin(mpmath.pi * k / 400) for k in range(201)]
            ev = [abs(e(x)) for x in xs]
            sup = ev[-1]
            for i in range(1, len(xs) - 1):
                if ev[i - 1] <= ev[i] >= ev[i + 1]:
                    r = mpmath.findroot(de, (xs[i - 1], xs[i + 1]), solver="anderson")
                    assert xs[i - 1] <= r <= xs[i + 1], (p, d, i)
                    sup = max(sup, abs(e(r)))
        measured = approximation_error(P, p)
        assert sup - 1e-10 <= measured, (p, d, float(sup - measured))
        assert measured <= sup + 64 * eps * (1.0 + sum(map(abs, P.even_coeffs))), (p, d)


def test_jackson_bound_subset():
    # the full d <= 40 sweep runs in the acceptance suite
    for p in [1, 1.3, 2.5, 4.7]:
        for d in range(math.ceil(p), 15):
            _, cert = approximate_abs_power(p, d)
            assert cert.measured_error <= cert.jackson_bound


def test_error_monotone_in_degree():
    for p in [1, 1.5, 3]:
        errs = [approximate_abs_power(p, d)[1].measured_error
                for d in range(math.ceil(p), 41)]
        for lo, hi in zip(errs, errs[2:]):
            assert hi <= lo + 1e-12


def test_choose_degree_examples():
    assert choose_degree(1, 6, 2, 9) == 37
    assert choose_degree(2, 6, 3, 100) == 14
    assert choose_degree(2, 6, 1, 1) == 3


def test_choose_degree_window():
    rng = np.random.default_rng(23)
    for _ in range(500):
        p = rng.uniform(1, 8)
        c = (2 ** (1 / p) - 1) ** (-p) + 1e-6
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 10_000))
        d = choose_degree(p, c, n, m)
        t = c * n * math.sqrt(m)
        assert t < d ** p < 2 * t


def test_choose_degree_past_2_53():
    # float(d) rounds to even past 2^53, so several d share one float(d) ** p;
    # the answer is still the smallest integer d with d^p > target, as a
    # search one unit step at a time found it (129 and 384 steps for 2^60)
    assert [choose_degree(1.0, 2.0 ** e + k * 2.0 ** (e - 52), 1, 1) - 2 ** e
            for e in (54, 60) for k in (0, 1)] == [3, 6, 129, 384]
    assert choose_degree(1.5, 2.0 ** 80, 1, 1) == 11348359941645591
    # unit steps never end here: d += 1 leaves float(d) unchanged near 1e300
    d = choose_degree(1.0, 1e300, 1, 1)
    assert float(d) > 1e300 >= float(d - 1)
    with pytest.raises(InputError, match="no degree with"):  # no double lies above the largest one
        choose_degree(1.0, sys.float_info.max, 1, 1)
    with pytest.raises(InputError, match="overflows"):
        choose_degree(1.0, 1e308, 2, 1)


def test_choose_degree_infeasible():
    with pytest.raises(InputError, match="no degree with"):
        choose_degree(2.0, 0.1, 1, 1)
    # 2^(1/p) - 1 rounds to 0, so the needed c is 0^(-p): inf, not a ZeroDivisionError
    with pytest.raises(InputError, match=r"no degree with .*= inf, got c=1\)"):
        choose_degree(1e300, 1.0, 3, 6)
    with pytest.raises(InputError):
        choose_degree(2.0, 6.0, 0, 1)


def _a_mp(p, k):
    """a_k of |x|^p = sum_k a_k T_2k(x) at 50 digits, from the Gamma form:
    Gamma(p + 1) / (2^(p-1) Gamma(p/2 + k + 1) Gamma(p/2 - k + 1)), halved at k = 0."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        a = mpmath.gamma(p + 1) * mpmath.rgamma(p / 2 + k + 1) * mpmath.rgamma(p / 2 - k + 1)
        return a / 2 ** (p - 1) / (2 if k == 0 else 1)


def _tail_mp(p, n):
    """sum_{k>n} |a_k| at 50 digits, from a finite sum: at x = 0 the series
    gives sum_k (-1)^k a_k = 0, and (-1)^k a_k keeps one sign for k > p/2."""
    with mpmath.workdps(50):
        return abs(mpmath.fsum((-1) ** k * _a_mp(p, k) for k in range(n + 1)))


@pytest.mark.parametrize("p, n", [(1, 0), (1.3, 5), (2 - 1e-6, 1), (2.5, 3), (7, 10),
                                  (8 - 1e-9, 4), (12.3, 22)])
def test_closed_form_coefficients_and_tail_match_mpmath(p, n):
    rtol = COEFF_RTOL / 16
    a = approx._abs_power_chebyshev(p, n)
    for k in range(n + 1):
        assert abs(a[k] - _a_mp(p, k)) <= rtol * abs(_a_mp(p, k)), (p, k)
    tail = _tail_mp(p, n)
    assert abs(approx._chebyshev_tail(p, n) - tail) <= rtol * tail
    # a direct sum of the next 4000 terms, each from the one before as
    # a_(k+1) / a_k = (p/2 - k) / (p/2 + k + 1), and the closed form for the rest
    with mpmath.workdps(50):
        beta, ak, head = mpmath.mpf(p) / 2, _a_mp(p, n + 1), 0
        for k in range(n + 1, n + 4001):
            head, ak = head + abs(ak), ak * (beta - k) / (beta + k + 1)
    assert abs(head + approx._chebyshev_tail(p, n + 4000) - tail) <= rtol * tail


def test_closed_form_error_is_inside_its_margin():
    # the float error of a_k and of the tail grows with lgamma(p + 1); its edge
    # is at the largest p and k that reach the bound (d <= 45): at most 220
    # ulps there, about 1/20 of COEFF_RTOL
    worst = 0.0
    for p in (42.59191060437258, 44.9, 45 - 1e-9):
        a = approx._abs_power_chebyshev(p, 22)
        for k in range(23):
            worst = max(worst, abs(float(a[k] / _a_mp(p, k)) - 1))
        for n in range(math.ceil(p) // 2, 23):
            worst = max(worst, abs(float(approx._chebyshev_tail(p, n) / _tail_mp(p, n)) - 1))
    assert 2e-14 < worst < COEFF_RTOL / 16

