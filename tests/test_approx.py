import math
import sys

import numpy as np
import pytest

from eqdist import approx
from eqdist.approx import (MAX_REMEZ_DEGREE, EvenPolynomial,
                           approximate_abs_power, approximation_error,
                           choose_degree, falling_factorial, jackson_constant)
from eqdist.errors import InfeasibleDegreeError, InputError, NumericalError, ResourceLimitError

from remez_reference import remez_reference


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(123.4, 0) == 1.0
    assert falling_factorial(2.5, 2) == 3.75
    with pytest.raises(InputError):
        falling_factorial(2.0, -1)


def test_jackson_constant_values():
    base = 1 + math.pi ** 2 / 2
    assert abs(jackson_constant(1) - base) < 1e-14
    assert abs(jackson_constant(2) - 4 * base ** 2 * 2 / 2) < 1e-11
    assert abs(jackson_constant(1.5) - 2 ** 1.5 * base ** 2 * 1.5 / 2) < 1e-12
    with pytest.raises(InputError):
        jackson_constant(0.9)
    # 150^150 alone is past the largest double
    with pytest.raises(NumericalError):
        jackson_constant(150)
    for p in (math.inf, math.nan):
        with pytest.raises(InputError, match="finite"):
            jackson_constant(p)


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


def test_degree_precondition():
    with pytest.raises(InputError):
        approximate_abs_power(2.5, 2)
    with pytest.raises(InputError):
        approximate_abs_power(0.5, 4)


def test_remez_matches_column_by_column_reference():
    # the level test stops (1, *), (1.5, *), (3.7, 4) and (3.7, 20); (3.7, 45) and
    # (6.5, 30) reach a fixed point, and (6.5, 45), (6.75, 20), (7.25, 45) and
    # (7.35, 30) a cycle of two reference sets, where the reference ran on to
    # REMEZ_MAX_ITER
    for p, d in [(1, 2), (1, 10), (1, 45), (1.5, 4), (1.5, 12), (1.5, 33), (3.7, 4),
                 (3.7, 20), (3.7, 45), (6.5, 30), (6.5, 45), (6.75, 20), (7.25, 45),
                 (7.35, 30)]:
        q, err = approx._remez_even(p, d // 2)
        q_ref, err_ref = remez_reference(p, d // 2)
        assert q.tobytes() == q_ref.tobytes() and err == err_ref, (p, d)


def test_remez_stops_at_fixed_point_or_cycle(monkeypatch):
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: solves.append(1) or solve(A, b))
    for p, d in [(3.7, 45), (7.35, 30)]:  # a fixed point, a cycle of two
        solves.clear()
        approx._remez_even(p, d // 2)
        assert 1 <= len(solves) <= 10, (p, d)


def test_degree_cap_for_remez_path():
    # past the cap the monomial representation drowns in cancellation noise
    with pytest.raises(ResourceLimitError):
        approximate_abs_power(1, MAX_REMEZ_DEGREE + 1)
    # exact even-integer powers are exempt from the cap
    _, cert = approximate_abs_power(2, 100)
    assert cert.measured_error == 0.0
    # the largest allowed degree still certifies for the hardest exponent
    _, cert = approximate_abs_power(1, MAX_REMEZ_DEGREE)
    assert cert.measured_error <= cert.jackson_bound


def test_p1_d10_example():
    P, cert = approximate_abs_power(1, 10)
    assert cert.measured_error <= jackson_constant(1) / 10
    assert cert.measured_error <= 0.5935
    assert 0.01 < cert.measured_error < 0.1


def test_approximation_error_examples():
    assert approximation_error(EvenPolynomial(2, (1.0,)), 2) == 0.0
    err = approximation_error(EvenPolynomial(2, ()), 1)  # zero polynomial
    assert abs(err - 1.0) < 1e-15
    P, _ = approximate_abs_power(1, 10)
    assert approximation_error(P, 1) <= 0.5935



def test_golden_max_refines_each_interval_alone():
    from eqdist.approx import _golden_max

    # peaks of height k at k + 0.3 on [k, k + w_k]; widths differ so the
    # intervals stop after different numbers of steps
    fn = lambda x: np.floor(x) - (x - np.floor(x) - 0.3) ** 2
    a = np.array([0.0, 1.0, 2.0, 3.0])
    b = a + np.array([1e-3, 0.5, 0.9, 0.31])
    got = _golden_max(fn, a, b)
    want = [fn(np.array([0.001]))[0], 1.0, 2.0, 3.0]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    for i in range(4):
        assert _golden_max(fn, a[i:i + 1], b[i:i + 1])[0] == got[i]


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
    with pytest.raises(InfeasibleDegreeError):  # no double lies above the largest one
        choose_degree(1.0, sys.float_info.max, 1, 1)
    with pytest.raises(InputError, match="overflows"):
        choose_degree(1.0, 1e308, 2, 1)


def test_choose_degree_infeasible():
    with pytest.raises(InfeasibleDegreeError):
        choose_degree(2.0, 0.1, 1, 1)
    with pytest.raises(InputError):
        choose_degree(2.0, 6.0, 0, 1)
