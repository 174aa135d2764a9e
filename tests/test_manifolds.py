import json
import math

import numpy as np
import pytest

from weyllab.errors import ConfigError, DomainError, InvariantViolation
from weyllab.manifolds import (
    HALF_PI,
    PerturbationSpec,
    bump_function,
    flat_torus,
    make_perturbed_sphere,
    make_pendulum_profile,
    make_round_sphere,
    manifold_from_config,
    manifold_to_config,
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
    assert p(0.0) == 1.0
    assert p.d_alpha(-HALF_PI) == pytest.approx(1.0, abs=1e-15)
    assert p.dd_alpha(0.0) == -1.0
    validate_profile(p)
    mask = np.abs(GRID) > 1e-3
    assert np.all(-GRID[mask] * p.d_alpha(GRID[mask]) > 0)


def test_round_sphere_derivative_consistency():
    p = make_round_sphere()
    h = 1e-6
    s = np.linspace(-1.4, 1.4, 17)
    fd = (p(s + h) - p(s - h)) / (2 * h)
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
    lhs = p(s) - base(s)
    rhs = 0.01 * (spec.f_plus(s) + spec.f_minus(s))
    # equal to the last representable bit of the profile values
    assert np.max(np.abs(lhs - rhs)) <= np.finfo(float).eps


def test_perturbed_sphere_zero_eps_matches_round():
    spec = PerturbationSpec(epsilon=0.0, a=0.5, b=1.0)
    p = make_perturbed_sphere(spec)
    assert np.array_equal(p(GRID), np.cos(GRID))


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
    assert abs(p(HALF_PI)) < 1e-12 and abs(p(-HALF_PI)) < 1e-12
    interior = np.linspace(-HALF_PI + 1e-3, HALF_PI - 1e-3, 2001)
    assert np.all(p(interior) > 0)
    assert p.d_alpha(-HALF_PI) == pytest.approx(1.0, abs=1e-9)
    assert p.d_alpha(HALF_PI) == pytest.approx(-1.0, abs=1e-9)


def test_pendulum_large_energy_limit():
    p = make_pendulum_profile(1e4)
    s = np.linspace(-1.5, 1.5, 101)
    assert np.max(np.abs(p(s) / p.alpha_max - np.cos(s))) < 1e-3


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
    bump_mass = tanh_sinh(spec.f_plus, 0.5, 1.0, rel_tol=1e-12)[0] + \
        tanh_sinh(spec.f_minus, -1.0, -0.5, rel_tol=1e-12)[0]
    expected = 4 * math.pi + 2 * math.pi * 0.01 * bump_mass
    assert manifold_volume(m) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("profile", [
    make_perturbed_sphere(PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)),
    make_perturbed_sphere(PerturbationSpec(epsilon=0.0103, a=0.49,
                                           b=1.013))],
    ids=["perturbed", "jittered"])
def test_alpha_pair_is_alpha_and_d_alpha_bit_for_bit(profile):
    # a dense grid over both bump supports, plus every support edge and
    # its neighbouring floats on either side
    edges = [0.5, 1.0, 0.49, 1.013]
    near = [np.nextafter(e, e + d) for e in edges + [-e for e in edges]
            for d in (-1.0, 0.0, 1.0)]
    s = np.concatenate([np.linspace(-HALF_PI, HALF_PI, 100_001), near,
                        np.random.default_rng(5).uniform(-1.1, 1.1, 20_000)])
    for p in (profile, profile.reflected()):
        assert p.alpha_pair is not None
        a, da = p.alpha_and_d_alpha(s)
        assert np.array_equal(a, p.alpha(s))
        assert np.array_equal(da, p.d_alpha(s))


def test_alpha_pair_only_for_the_default_bumps():
    # a custom bump on one side keeps the two evaluators
    spec = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0,
                            f_minus=lambda s: np.zeros(np.shape(s)))
    p = make_perturbed_sphere(spec)
    assert spec.bumps is None and p.alpha_pair is None
    s = np.linspace(-1.2, 1.2, 101)
    a, da = p.alpha_and_d_alpha(s)
    assert np.array_equal(a, p.alpha(s)) and np.array_equal(da, p.d_alpha(s))


def test_revolution_volume_matches_sphere():
    m = surface_of_revolution(make_round_sphere())
    assert manifold_volume(m) == pytest.approx(4 * math.pi, rel=1e-12)


def test_config_round_trip(tmp_path):
    cfgs = [
        {"kind": "round_sphere", "n": 3},
        {"kind": "flat_torus", "periods": [2 * math.pi, 2 * math.pi]},
        {"kind": "perturbed_sphere", "epsilon": 0.01, "a": 0.5, "b": 1.0},
        {"kind": "product", "factors": [
            {"kind": "round_sphere", "n": 2},
            {"kind": "flat_torus", "periods": [2 * math.pi]}]},
    ]
    for cfg in cfgs:
        m = manifold_from_config(cfg)
        back = manifold_to_config(m)
        assert manifold_from_config(back).dim == m.dim
        assert json.loads(json.dumps(back)) == back


def test_config_rejects_garbage():
    with pytest.raises(ConfigError):
        manifold_from_config({"kind": "klein_bottle"})
    with pytest.raises(ConfigError):
        manifold_from_config("not a dict")
