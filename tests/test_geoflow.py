import math
import types

import numpy as np
import pytest

from weyllab import flows, geoflow, quadrature
from weyllab.errors import DegenerateInput, DomainError, QuadratureFailure
from weyllab.flows import turning_points
from weyllab.geoflow import (
    classify_tori,
    d_rotation_number,
    d_rotation_number_in_epsilon,
    integrate_geodesic,
    rotation_number,
    rotation_number_ode,
    unit_phase_point,
)
from weyllab.manifolds import (
    PerturbationSpec,
    ProfileCurve,
    _bump_jet,
    make_perturbed_sphere,
    make_pendulum_profile,
    make_round_sphere,
)

SPHERE = make_round_sphere()
SPEC = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)
PERT = make_perturbed_sphere(SPEC)


# --- Clairaut data ---------------------------------------------------------

def test_turning_points_symmetric():
    (s_minus,), (s_plus,) = turning_points(SPHERE, [math.sqrt(0.5)])
    assert s_plus == pytest.approx(math.pi / 4, abs=1e-11)
    assert s_minus == pytest.approx(-math.pi / 4, abs=1e-11)


def test_turning_points_domain():
    with pytest.raises(DomainError):
        turning_points(SPHERE, [0.5, 1.5])
    with pytest.raises(DomainError):
        turning_points(SPHERE, [0.0])


def test_turning_points_asymmetric_on_one_sided_perturbation():
    # with only the northern band perturbed, the turning points of orbits
    # reaching into the band are no longer mirror images
    def jet(s, order):
        bump = _bump_jet(0.5, 1.0, s, order)
        return tuple(r + 0.01 * f
                     for r, f in zip(SPHERE.jet(s, order), bump))

    one_sided = ProfileCurve(jet, "northern bump only")
    c = float(one_sided.alpha(0.7))
    (s_minus,), (s_plus,) = turning_points(one_sided, [c])
    assert s_plus == pytest.approx(0.7, abs=1e-11)
    assert abs(s_minus + 0.7) > 1e-4
    assert float(one_sided.alpha(s_minus)) == pytest.approx(c, abs=1e-11)


def test_rotation_number_round_sphere():
    orb = rotation_number(0.5, SPHERE)
    assert orb.Theta0 == pytest.approx(2 * math.pi, abs=1e-9)
    assert orb.return_time == pytest.approx(2 * math.pi, abs=1e-9)
    assert orb.theta_plus == pytest.approx(math.pi, abs=1e-9)


def test_rotation_number_round_sphere_grid():
    orb = rotation_number(np.linspace(0.05, math.pi / 2 - 0.05, 50), SPHERE)
    assert np.max(np.abs(orb.Theta0 - 2 * math.pi)) <= 1e-11
    assert np.max(np.abs(orb.return_time - 2 * math.pi)) <= 1e-11


@pytest.mark.parametrize("profile", [PERT, make_pendulum_profile(4.0)],
                         ids=["perturbed", "pendulum"])
def test_rotation_number_array_equals_scalar_calls(profile):
    grid = profile.s_max + np.linspace(0.01, 0.99, 12).reshape(3, 4) \
        * (math.pi / 2 - profile.s_max)
    orb = rotation_number(grid, profile)
    fd = d_rotation_number(grid, profile, "finite_difference")
    for idx in np.ndindex(grid.shape):
        one = rotation_number(float(grid[idx]), profile)
        for name, value in vars(one).items():
            assert getattr(orb, name)[idx] == value, name
        assert fd[idx] == d_rotation_number(float(grid[idx]), profile,
                                            "finite_difference")
    with pytest.raises(DomainError):
        rotation_number(np.array([0.5, math.pi / 2]), profile)


def test_rotation_number_raises_when_the_rule_does_not_converge(monkeypatch):
    # one level gives no difference to converge on: every row's err is inf
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", quadrature._FIRST_LEVEL)
    with pytest.raises(QuadratureFailure):
        rotation_number(0.5, PERT)
    with pytest.raises(QuadratureFailure):
        rotation_number(np.array([0.5, 0.9]), PERT)


def test_rotation_number_unseen_perturbation():
    # orbit with s_plus < a never enters the bump support
    orb = rotation_number(0.25, PERT)
    assert orb.Theta0 == pytest.approx(2 * math.pi, abs=1e-10)
    assert orb.s_minus == pytest.approx(-0.25, abs=1e-10)


def test_pendulum_theta0_sqrt_lower_bound():
    pend = make_pendulum_profile(4.0)
    s_plus = pend.s_max + 0.01
    orb = rotation_number(s_plus, pend)
    assert orb.Theta0 > 0.5 * math.sqrt(0.01)


# --- derivative of the rotation number -------------------------------------

def test_d_rotation_number_round_sphere_vanishes():
    for s_plus in (0.4, 0.9, 1.3):
        assert abs(d_rotation_number(s_plus, SPHERE, "formula")) < 1e-10


@pytest.mark.parametrize("profile", [PERT, make_pendulum_profile(4.0)],
                         ids=["perturbed", "pendulum"])
def test_d_rotation_number_formula_array_equals_scalar_calls(profile):
    grid = profile.s_max + np.linspace(0.01, 0.99, 12).reshape(3, 4) \
        * (math.pi / 2 - profile.s_max)
    d = d_rotation_number(grid, profile, "formula")
    assert d.shape == grid.shape
    for idx in np.ndindex(grid.shape):
        assert d[idx] == d_rotation_number(float(grid[idx]), profile,
                                           "formula")
    # one point within 1e-6 of s_max has no room for the split point
    bad = np.append(grid.ravel(), profile.s_max + 5e-7)
    with pytest.raises(DegenerateInput):
        d_rotation_number(bad, profile, "formula")


def test_d_rotation_number_formula_vs_fd():
    for s_plus in (0.9, 1.1, 1.3):
        f = d_rotation_number(s_plus, PERT, "formula")
        fd = d_rotation_number(s_plus, PERT, "finite_difference")
        assert abs(f - fd) < 1e-3 * max(abs(fd), 1e-8)


def test_d_rotation_number_pendulum_nonvanishing():
    pend = make_pendulum_profile(4.0)
    for s_plus in (0.1, 0.8, 1.4):
        assert abs(d_rotation_number(pend.s_max + s_plus * 0.9, pend,
                                     "finite_difference")) > 0


def test_epsilon_derivative_positive_and_consistent():
    h = 1e-4
    plus = make_perturbed_sphere(PerturbationSpec(epsilon=h, a=0.5, b=1.0))
    minus = make_perturbed_sphere(PerturbationSpec(epsilon=-h, a=0.5, b=1.0))
    for s_plus in (1.0, 1.2, 1.5):
        D = d_rotation_number_in_epsilon(SPEC, s_plus)
        fd = (d_rotation_number(s_plus, plus, "formula")
              - d_rotation_number(s_plus, minus, "formula")) / (2 * h)
        assert D > 0
        assert abs(D - fd) < 1e-3 * abs(fd)


# --- flow -------------------------------------------------------------------

def test_equatorial_orbit_is_invariant_circle():
    p0 = np.array([0.0, 0.0, 0.0, float(PERT.alpha(0.0))])
    tr = integrate_geodesic(p0, 10.0, PERT)
    t = np.linspace(0, 10, 21)
    y = tr(t)
    assert np.max(np.abs(y[0])) < 1e-12
    assert np.max(np.abs(y[1] - t / float(PERT.alpha(0.0)))) < 1e-9


def test_round_sphere_closure_at_2pi():
    p0 = unit_phase_point(SPHERE, 0.3, 1.0, 0.7)
    tr = integrate_geodesic(p0, 2 * math.pi, SPHERE)
    end = tr(2 * math.pi)
    dtheta = (end[1] - p0[1]) % (2 * math.pi)
    dtheta = min(dtheta, 2 * math.pi - dtheta)
    assert abs(end[0] - p0[0]) < 1e-7
    assert dtheta < 1e-7
    assert abs(end[2] - p0[2]) < 1e-7
    assert abs(end[3] - p0[3]) < 1e-7


def test_conservation_along_flow():
    p0 = unit_phase_point(PERT, -0.4, 0.0, 1.1)
    T = 30.0
    tr = integrate_geodesic(p0, T, PERT)
    report = tr.conservation_report()
    assert report["unit_speed_drift"] < 1e-8 * (1 + T)
    assert report["clairaut_drift"] < 1e-8 * (1 + T)


def test_meridian_closed_form():
    p0 = np.array([0.2, 0.5, 1.0, 0.0])
    tr = integrate_geodesic(p0, 8.0, SPHERE)
    y = tr(np.array([0.0, 2 * math.pi]))
    assert y[0, 1] == pytest.approx(0.2, abs=1e-12)
    t_pole = math.pi / 2 - 0.2
    mid = tr(t_pole + 0.3)
    assert mid[1] == pytest.approx((0.5 + math.pi) % (2 * math.pi), abs=1e-12)


def test_ode_vs_quadrature_rotation_number():
    for s_plus in (0.4, 1.0, 1.4):
        orb = rotation_number(s_plus, PERT)
        theta_ode, t_ode = rotation_number_ode(s_plus, PERT)
        assert abs(orb.Theta0 - theta_ode) < 1e-6
        assert abs(orb.return_time - t_ode) < 1e-6


def test_mirror_symmetry_conjugation():
    # (s, theta, xi_s, xi_theta) -> (s, -theta, xi_s, -xi_theta) conjugates
    # the flow to itself
    p0 = unit_phase_point(PERT, 0.2, 0.7, 0.9)
    pm = p0 * [1.0, -1.0, 1.0, -1.0]
    T = 5.0
    y = integrate_geodesic(p0, T, PERT)(T)
    ym = integrate_geodesic(pm, T, PERT)(T)
    assert abs(y[0] - ym[0]) < 1e-8
    assert abs(y[1] + ym[1]) % (2 * math.pi) < 1e-8
    assert abs(y[2] - ym[2]) < 1e-8
    assert abs(y[3] + ym[3]) < 1e-8


# --- rationality and classification ----------------------------------------

def _classify_at(monkeypatch, x, **kwargs):
    """classify_tori on one torus with Theta0 / 2 pi = x and a zero
    derivative, so that only the rational test decides."""
    orb = types.SimpleNamespace(Theta0=np.array([2.0 * math.pi * x]),
                                s_minus=np.zeros(1), return_time=np.ones(1))
    monkeypatch.setattr(geoflow, "rotation_number", lambda grid, prof: orb)
    monkeypatch.setattr(geoflow, "_d_theta0",
                        lambda prof, grid, s_minus: np.zeros(1))
    (torus,) = classify_tori(SPHERE, [0.5], **kwargs)
    return torus


@pytest.mark.parametrize("x, q_max, tol, status, pq", [
    (math.pi, 1000, 1e-6, "periodic", (355, 113)),
    # 355/113 is 2.7e-7 from pi, above the default tolerance
    (math.pi, 1000, 1e-9, "uncertain", (None, None)),
    (22 / 7, 50, 1e-9, "periodic", (22, 7)),
], ids=["pi", "pi-default-tol", "22-over-7"])
def test_classify_best_rational(monkeypatch, x, q_max, tol, status, pq):
    torus = _classify_at(monkeypatch, x, q_max=q_max, rational_tol=tol)
    assert torus.status == status and (torus.p, torus.q) == pq


def test_best_rational_golden_ratio(monkeypatch):
    # with a tolerance wide enough to accept any p/q, classify_tori reports
    # the best rational with q <= 50; for the golden ratio it stays far off
    golden = (1 + math.sqrt(5)) / 2
    torus = _classify_at(monkeypatch, golden, q_max=50, rational_tol=1.0)
    assert (torus.p, torus.q) == (55, 34)
    assert abs(golden - torus.p / torus.q) > 1e-9  # badly approximable


def test_classify_round_sphere_all_periodic():
    out = classify_tori(SPHERE, np.linspace(0.1, 1.5, 12))
    assert all(c.status == "periodic" and (c.p, c.q) == (1, 1) for c in out)
    assert not any(c.status == "aperiodic" for c in out)


def test_classify_perturbed_bands():
    grid = np.linspace(0.05, math.pi / 2 - 0.05, 25)
    out = classify_tori(PERT, grid)
    for c in out:
        if c.s_plus < 0.5:
            assert c.status == "periodic" and (c.p, c.q) == (1, 1)
        if c.s_plus >= 1.0:
            assert c.status == "aperiodic"


@pytest.mark.parametrize("s_plus", [0.1170, 0.1328])
def test_classify_strip_ignores_quadrature_noise(s_plus):
    # a finite-difference slope here is quadrature noise of ~3e-6, above
    # the default floor; the exact identity gives ~1e-12
    (c,) = classify_tori(PERT, [s_plus])
    assert abs(c.dTheta0) < 1e-9
    assert c.status == "periodic" and (c.p, c.q) == (1, 1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_classify_noise_signs_below_the_floor_carry_no_sign(monkeypatch,
                                                           sign):
    # in the spherical strip the exact derivative is ~1e-12 and its sign is
    # quadrature noise; it must not veto the band's first aperiodic torus
    formula = geoflow._d_theta0

    def noisy(profile, s_plus, s_minus):
        return np.where(s_plus < SPEC.a, sign * 1e-12,
                        formula(profile, s_plus, s_minus))

    monkeypatch.setattr(geoflow, "_d_theta0", noisy)
    grid = np.linspace(0.05, math.pi / 2 - 0.05, 25)
    out = classify_tori(PERT, grid)
    first = next(c for c in out if c.s_plus >= SPEC.a)
    assert first.dTheta0 > 1e-6
    assert first.status == "aperiodic"


def test_classify_makes_two_quadrature_calls(monkeypatch):
    # one rule for Theta0 and tau, one for the derivative identity, whatever
    # the number of tori, and no scalar rule
    calls = []

    def counted(rule):
        def spy(f, a, b, *args, **kwargs):
            calls.append((rule.__name__, np.size(a)))
            return rule(f, a, b, *args, **kwargs)
        return spy

    for module in (flows, geoflow):
        monkeypatch.setattr(module, "tanh_sinh_rows",
                            counted(quadrature.tanh_sinh_rows))
    monkeypatch.setattr(geoflow, "tanh_sinh", counted(quadrature.tanh_sinh))
    out = classify_tori(PERT, np.linspace(0.05, math.pi / 2 - 0.05, 25))
    assert len(out) == 25
    assert calls == [("tanh_sinh_rows", 100), ("tanh_sinh_rows", 100)]


def test_classify_synthetic_golden_table(monkeypatch):
    # a synthetic table whose rotation number is the golden angle (badly
    # approximable) should never read as periodic at q_max = 50
    golden = (1 + math.sqrt(5)) / 2
    assert _classify_at(monkeypatch, golden, q_max=50).status == "uncertain"
