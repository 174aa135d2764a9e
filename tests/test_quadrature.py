import math

import numpy as np
import pytest

from weyllab.errors import QuadratureFailure
from weyllab.quadrature import cumulative_simpson, tanh_sinh, tanh_sinh_rows


def test_smooth_integrand():
    v, err = tanh_sinh(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert abs(v - 2.0) < 1e-13


def test_inverse_sqrt_endpoint_singularity():
    # int_0^1 1/sqrt(x) = 2: the nodes near a = 0 are exact distances
    v, err = tanh_sinh(lambda w: 1.0 / np.sqrt(w), 0.0, 1.0, rel_tol=1e-12)
    assert abs(v - 2.0) < 1e-12
    # int_0^1 1/sqrt(1 - x) = 2, resolved through the exact d_hi
    (v,), (err,) = tanh_sinh_rows(
        lambda rows, w, d_lo, d_hi: 1.0 / np.sqrt(d_hi), [0.0], [1.0],
        rel_tol=1e-12)
    assert abs(v - 2.0) < 1e-12


def test_both_endpoint_singularities():
    # int_0^1 1/sqrt(x(1-x)) = pi
    (v,), (err,) = tanh_sinh_rows(
        lambda rows, w, d_lo, d_hi: 1.0 / np.sqrt(d_lo * d_hi), [0.0], [1.0],
        rel_tol=1e-12)
    assert abs(v - math.pi) < 1e-11


def test_log_singularity_plain_interface():
    v, err = tanh_sinh(np.log, 0.0, 1.0, rel_tol=1e-11)
    assert abs(v + 1.0) < 1e-10


def test_orientation_and_empty():
    assert tanh_sinh(np.sin, 1.0, 1.0) == (0.0, 0.0)
    with pytest.raises(QuadratureFailure):
        tanh_sinh(np.sin, 1.0, 0.0)


def test_stall_raises():
    # A non-integrable singularity cannot converge.
    with pytest.raises(QuadratureFailure):
        tanh_sinh(lambda w: 1.0 / w, 0.0, 1.0, rel_tol=1e-10)


def test_rows_match_closed_forms():
    # rows of int_a^b x^p / sqrt(b - x) with their own endpoints and powers,
    # one empty interval and one reversed interval
    a = np.array([0.0, 0.3, -1.0, 2.0, 1.0])
    b = np.array([1.0, 0.9, 0.5, 2.0, 0.5])
    p = np.array([0.0, 1.0, 2.0, 1.0, 1.0])

    def f(rows, w, d_lo, d_hi):
        return w ** p[rows, None] / np.sqrt(d_hi)

    values, errs = tanh_sinh_rows(f, a, b, rel_tol=1e-12)
    # with L = b - a, int_0^L (b - u)^p u^-1/2 du
    L = b[:3] - a[:3]
    exact = [2.0 * L[0] ** 0.5,
             2.0 * b[1] * L[1] ** 0.5 - 2.0 / 3.0 * L[1] ** 1.5,
             2.0 * b[2] ** 2 * L[2] ** 0.5 - 4.0 / 3.0 * b[2] * L[2] ** 1.5
             + 0.4 * L[2] ** 2.5]
    for i in range(3):
        assert abs(values[i] - exact[i]) <= 1e-15
        assert errs[i] <= 1e-12 * abs(values[i])
    assert (values[3], errs[3]) == (0.0, 0.0)
    assert errs[4] == np.inf


def test_rows_that_do_not_converge_are_left_undecided():
    # a non-integrable row stalls; it never raises and leaves the others
    values, errs = tanh_sinh_rows(
        lambda rows, w, d_lo, d_hi: np.where(rows[:, None] == 0, 1.0 / d_hi,
                                             1.0),
        np.zeros(2), np.ones(2), rel_tol=1e-10)
    assert errs[0] == np.inf
    assert abs(values[1] - 1.0) < 1e-14 and errs[1] <= 1e-10


def test_levels_nest_and_evaluate_only_their_new_nodes():
    # int_0^1 e^x converges at level 4 (mesh 1/16) at rel_tol 1e-12: the
    # nested rule evaluates 33 + 32 + 64 = 129 nodes, the 129 of level 4,
    # where evaluating every level afresh would take 33 + 65 + 129 = 227
    seen = []

    def f(rows, w, d_lo, d_hi):
        seen.append(w.size)
        return np.exp(w)

    (value,), (err,) = tanh_sinh_rows(f, [0.0], [1.0], rel_tol=1e-12)
    assert seen == [33, 32, 64]
    # the level-4 rule written out: nodes t = k/16, |k| <= 64, on (0, 1)
    h = 2.0 ** -4
    t = h * np.arange(-64, 65)
    z = 0.5 * math.pi * np.sinh(t)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(z) ** 2
    direct = 0.5 * np.sum(w * np.exp(0.5 + 0.5 * np.tanh(z)))
    assert abs(value - direct) <= 1e-15 * direct
    assert abs(value - (math.e - 1.0)) <= 1e-14
    # the scalar rule is one row of the same rule, called on 1-d nodes
    seen.clear()
    assert tanh_sinh(lambda x: f(None, x[None], None, None)[0], 0.0, 1.0,
                     rel_tol=1e-12) == (value, err)
    assert seen == [33, 32, 64]


def _steps(n, equal):
    if equal:
        return np.linspace(-0.5 * math.pi, 0.5 * math.pi, n)
    return np.cumsum(np.random.default_rng(n).uniform(0.1, 1.0, n))


# unequal steps, and make_pendulum_profile's 8,001 equal ones: scipy takes
# the unequal-step formula whenever x is given
@pytest.mark.parametrize("n, equal", [(3, False), (4, False), (5, False),
                                      (10, False), (11, False), (1000, False),
                                      (1001, False), (8001, True)])
def test_cumulative_simpson_matches_scipy_bit_for_bit(n, equal):
    from scipy.integrate import cumulative_simpson as scipy_simpson
    x = _steps(n, equal)
    y = np.random.default_rng(n + 1).standard_normal(n)
    assert np.array_equal(cumulative_simpson(y, x),
                          scipy_simpson(y, x=x, initial=0.0))
