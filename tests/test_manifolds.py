import json
import math

import numpy as np
import pytest

from weyllab.errors import ConfigError, DomainError, InvariantViolation
from weyllab.manifolds import (
    HALF_PI,
    PerturbationSpec,
    band_area,
    bump_function,
    flat_torus,
    make_perturbed_sphere,
    make_pendulum_profile,
    make_round_sphere,
    manifold_from_config,
    manifold_volume,
    product,
    round_sphere,
    surface_of_revolution,
    validate_profile,
)
from weyllab.quadrature import tanh_sinh

GRID = np.linspace(-HALF_PI + 1e-4, HALF_PI - 1e-4, 10_000)


def test_round_sphere_profile():
    p = make_round_sphere()
    assert p.alpha(0.0) == 1.0
    assert p.d_alpha(-HALF_PI) == pytest.approx(1.0, abs=1e-15)
    assert p.dd_alpha(0.0) == -1.0
    validate_profile(p)
    mask = np.abs(GRID) > 1e-3
    assert np.all(-GRID[mask] * p.d_alpha(GRID[mask]) > 0)


def test_round_sphere_derivative_consistency():
    p = make_round_sphere()
    h = 1e-6
    s = np.linspace(-1.4, 1.4, 17)
    fd = (p.alpha(s + h) - p.alpha(s - h)) / (2 * h)
    assert np.max(np.abs(fd - p.d_alpha(s))) < 1e-9


def test_bump_properties():
    f = bump_function(0.5, 1.0)
    x = np.linspace(0.5, 1.0, 1001)
    vals = f(x)
    assert np.all(vals >= 0)
    assert abs(np.max(vals) - 1.0) < 1e-12
    assert f(np.array([0.5, 1.0, 0.2, 1.4])).tolist() == [0, 0, 0, 0]


def test_perturbed_sphere_difference_is_exactly_the_bump():
    spec = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)
    p = make_perturbed_sphere(spec)
    base = make_round_sphere()
    s = np.linspace(-1.5, 1.5, 501)
    lhs = p.alpha(s) - base.alpha(s)
    rhs = 0.01 * (bump_function(0.5, 1.0)(s) + bump_function(-1.0, -0.5)(s))
    # equal to the last representable bit of the profile values
    assert np.max(np.abs(lhs - rhs)) <= np.finfo(float).eps


def test_perturbed_sphere_zero_eps_matches_round():
    spec = PerturbationSpec(epsilon=0.0, a=0.5, b=1.0)
    p = make_perturbed_sphere(spec)
    assert np.array_equal(p.alpha(GRID), np.cos(GRID))


def test_perturbed_sphere_invariants_and_rejection():
    spec = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)
    validate_profile(make_perturbed_sphere(spec))
    with pytest.raises(InvariantViolation):
        make_perturbed_sphere(PerturbationSpec(epsilon=10.0, a=0.5, b=1.0))


def test_perturbation_spec_bounds():
    with pytest.raises(DomainError):
        PerturbationSpec(epsilon=0.01, a=1.0, b=0.5)


def test_pendulum_profile_shape():
    p = make_pendulum_profile(4.0)
    assert abs(p.alpha(HALF_PI)) < 1e-12 and abs(p.alpha(-HALF_PI)) < 1e-12
    interior = np.linspace(-HALF_PI + 1e-3, HALF_PI - 1e-3, 2001)
    assert np.all(p.alpha(interior) > 0)
    assert p.d_alpha(-HALF_PI) == pytest.approx(1.0, abs=1e-9)
    assert p.d_alpha(HALF_PI) == pytest.approx(-1.0, abs=1e-9)


def test_pendulum_large_energy_limit():
    p = make_pendulum_profile(1e4)
    s = np.linspace(-1.5, 1.5, 101)
    assert np.max(np.abs(p.alpha(s) / p.alpha_max - np.cos(s))) < 1e-3


def test_pendulum_rejects_low_energy():
    with pytest.raises(DomainError):
        make_pendulum_profile(2.0)


def test_volumes():
    assert manifold_volume(round_sphere(2)) == pytest.approx(4 * math.pi)
    assert manifold_volume(flat_torus((2 * math.pi, 2 * math.pi))) == \
        pytest.approx(4 * math.pi ** 2)
    m1 = round_sphere(2)
    m2 = flat_torus((2 * math.pi,))
    assert manifold_volume(product(m1, m2)) == pytest.approx(
        manifold_volume(m1) * manifold_volume(m2))


def test_perturbed_volume_quadrature_oracle():
    spec = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)
    m = surface_of_revolution(make_perturbed_sphere(spec))
    bump_mass = tanh_sinh(bump_function(0.5, 1.0), 0.5, 1.0,
                          rel_tol=1e-12)[0] + \
        tanh_sinh(bump_function(-1.0, -0.5), -1.0, -0.5, rel_tol=1e-12)[0]
    expected = 4 * math.pi + 2 * math.pi * 0.01 * bump_mass
    assert manifold_volume(m) == pytest.approx(expected, rel=1e-9)


def test_volume_resolves_a_narrow_bump():
    spec = PerturbationSpec(epsilon=0.001, a=0.5, b=0.6)
    mass = tanh_sinh(bump_function(spec.a, spec.b), spec.a, spec.b,
                     rel_tol=1e-13)[0]
    m = surface_of_revolution(make_perturbed_sphere(spec))
    assert manifold_volume(m) == pytest.approx(
        4 * math.pi * (1.0 + spec.epsilon * mass), rel=1e-9)


@pytest.mark.parametrize("make, breaks", [
    (make_round_sphere, ()),
    (lambda: make_pendulum_profile(4.0), ()),
    (lambda: make_perturbed_sphere(PerturbationSpec(0.01, 0.5, 1.0)),
     (-1.0, -0.5, 0.5, 1.0)),
    # a bump 0.1 wide, whose peak is about 0.006 wide
    (lambda: make_perturbed_sphere(PerturbationSpec(0.001, 0.5, 0.6)),
     (-0.6, -0.5, 0.5, 0.6)),
], ids=["round", "pendulum", "perturbed", "narrow-bump"])
def test_band_areas_match_tanh_sinh(make, breaks):
    # 2 pi int alpha by tanh-sinh on the pieces between the ends of the
    # bumps' supports, where alpha is analytic
    profile = make()
    for s0, s1 in ((-HALF_PI, HALF_PI), (1.05, 1.45), (-0.4, 0.4),
                   (0.5, 0.55), (-1.2, 0.52)):
        cuts = [s0] + [c for c in breaks if s0 < c < s1] + [s1]
        ref = sum(2 * math.pi * tanh_sinh(profile.alpha, lo, hi,
                                          rel_tol=1e-14)[0]
                  for lo, hi in zip(cuts[:-1], cuts[1:]))
        assert band_area(profile, s0, s1) == pytest.approx(ref, rel=1e-13)
    assert manifold_volume(surface_of_revolution(profile)) \
        == band_area(profile, -HALF_PI, HALF_PI)


def _reference_bump(a, b, weight=None):
    """One-sided bump evaluator: bump(x) weight(x) on (a, b), 0 outside."""
    peak = math.exp(-4.0 / (b - a))

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        inside = (x > a) & (x < b)
        xi = x[inside]
        with np.errstate(over="ignore", under="ignore"):
            val = np.exp(-1.0 / (xi - a) - 1.0 / (b - xi)) / peak
        out[inside] = val if weight is None else val * weight(xi)
        return out

    return f


def _reference_perturbed(eps, a, b):
    """alpha, alpha', alpha'' as sums of separate one-sided bump evaluators."""
    def bump_and_derivatives(lo, hi):
        def gp(x):
            return 1.0 / (x - lo) ** 2 - 1.0 / (hi - x) ** 2

        def gpp_plus_gp2(x):
            return -2.0 / (x - lo) ** 3 - 2.0 / (hi - x) ** 3 + gp(x) ** 2

        return (_reference_bump(lo, hi), _reference_bump(lo, hi, gp),
                _reference_bump(lo, hi, gpp_plus_gp2))

    plus, minus = bump_and_derivatives(a, b), bump_and_derivatives(-b, -a)
    base = _reference_round()
    return [lambda s, k=k: base[k](s) + eps * (plus[k](s) + minus[k](s))
            for k in range(3)]


def _reference_round():
    return [np.cos, lambda s: -np.sin(s), lambda s: -np.cos(s)]


def _reference_pendulum(E):
    """alpha, alpha', alpha'', each inverting sigma(s) on its own."""
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicSpline

    def speed(u):
        return np.sqrt(E - 2.0 * np.sin(np.asarray(u, dtype=float)))

    s_tab = np.linspace(-HALF_PI, HALF_PI, 8001)
    sig_tab = cumulative_simpson(speed(s_tab), x=s_tab, initial=0.0)
    sig_tab -= sig_tab[4000]
    lo, hi = float(sig_tab[0]), float(sig_tab[-1])
    scale, center = (hi - lo) / math.pi, 0.5 * (hi + lo)
    spline = CubicSpline(s_tab, sig_tab)

    def s_of_scaled(sig_t):
        sig = np.clip(center + scale * np.asarray(sig_t, dtype=float), lo, hi)
        s = np.interp(sig, sig_tab, s_tab)
        for _ in range(4):
            s = np.clip(s - (spline(s) - sig) / speed(s), -HALF_PI, HALF_PI)
        return s

    def d_abar(s):
        v = speed(s)
        return -np.cos(s) ** 2 / v - v * np.sin(s)

    def dd_abar(s):
        v = speed(s)
        return (3.0 * np.sin(s) * np.cos(s) / v - np.cos(s) ** 3 / v ** 3
                - v * np.cos(s))

    def alpha(sig_t):
        s = s_of_scaled(sig_t)
        return speed(s) * np.cos(s) / scale

    def d_alpha(sig_t):
        s = s_of_scaled(sig_t)
        return d_abar(s) / speed(s)

    def dd_alpha(sig_t):
        s = s_of_scaled(sig_t)
        v = speed(s)
        dv = -np.cos(s) / v
        return scale * (dd_abar(s) * v - d_abar(s) * dv) / v ** 3

    return [alpha, d_alpha, dd_alpha]


@pytest.mark.parametrize("make, reference", [
    pytest.param(make_round_sphere, _reference_round, id="round"),
    pytest.param(
        lambda: make_perturbed_sphere(PerturbationSpec(0.01, 0.5, 1.0)),
        lambda: _reference_perturbed(0.01, 0.5, 1.0), id="perturbed"),
    pytest.param(
        lambda: make_perturbed_sphere(PerturbationSpec(0.0103, 0.49, 1.013)),
        lambda: _reference_perturbed(0.0103, 0.49, 1.013), id="jittered"),
    pytest.param(lambda: make_pendulum_profile(4.0),
                 lambda: _reference_pendulum(4.0), id="pendulum")])
def test_jets_equal_the_separate_evaluators(make, reference):
    # a dense grid of the whole profile, plus every support edge and its
    # neighbouring floats on either side
    edges = [0.5, 1.0, 0.49, 1.013]
    near = [np.nextafter(e, e + d) for e in edges + [-e for e in edges]
            for d in (-1.0, 0.0, 1.0)]
    s = np.concatenate([np.linspace(-HALF_PI, HALF_PI, 100_001), near])
    ref = reference()
    mirrored = [lambda s: ref[0](-s), lambda s: -ref[1](-s),
                lambda s: ref[2](-s)]
    profile = make()
    for p, expect in ((profile, ref), (profile.reflected(), mirrored)):
        want = [f(s) for f in expect]
        for order in (0, 1, 2):
            got = p.jet(s, order)
            assert len(got) == order + 1
            for k in range(order + 1):
                assert np.array_equal(got[k], want[k]), (order, k)


def test_revolution_volume_matches_sphere():
    m = surface_of_revolution(make_round_sphere())
    assert manifold_volume(m) == pytest.approx(4 * math.pi, rel=1e-12)


def test_config_round_trip():
    # every config kind, read back from JSON, builds a manifold of its dim
    cfgs = [
        ({"kind": "round_sphere", "n": 3}, 3),
        ({"kind": "round_sphere", "n": 2.0}, 2),
        ({"kind": "flat_torus", "periods": [2 * math.pi, 2 * math.pi]}, 2),
        ({"kind": "perturbed_sphere", "epsilon": 0.01, "a": 0.5, "b": 1.0}, 2),
        ({"kind": "pendulum", "E": 4.0}, 2),
        ({"kind": "surface_of_revolution"}, 2),
        ({"kind": "product", "factors": [
            {"kind": "round_sphere", "n": 2},
            {"kind": "flat_torus", "periods": [2 * math.pi]}]}, 3),
    ]
    for cfg, dim in cfgs:
        assert manifold_from_config(json.loads(json.dumps(cfg))).dim == dim


def test_config_rejects_garbage():
    # the fields bind to the kind's builder: a missing, unknown or
    # misspelled one raises an error that names it, in a product factor too
    factor = {"kind": "flat_torus", "periods": [2 * math.pi], "perods": [1]}
    for cfg, key in [
        ({"kind": "klein_bottle"}, "klein_bottle"),
        ("not a dict", "kind"),
        ({"kind": "round_sphere", "dim": 3}, "dim"),
        ({"kind": "flat_torus", "periods": [1.0, 1.0], "perods": [1.0]},
         "perods"),
        ({"kind": "perturbed_sphere", "epsilon": 0.01, "a": 0.5}, "'b'"),
        ({"kind": "product", "factors": [{"kind": "round_sphere"}, factor]},
         "perods"),
        ({"kind": "surface_of_revolution", "profile": "round"}, "profile"),
        # a value of the wrong type
        ({"kind": "pendulum", "E": "four"}, "'E'"),
        ({"kind": "round_sphere", "n": True}, "'n'"),
        ({"kind": "flat_torus", "periods": 6.28}, "'periods'"),
        ({"kind": "flat_torus", "periods": [6.28, None]}, "'periods'"),
        ({"kind": "perturbed_sphere", "epsilon": [0.01], "a": 0.5, "b": 1.0},
         "'epsilon'"),
    ]:
        with pytest.raises(ConfigError, match=key):
            manifold_from_config(cfg)
