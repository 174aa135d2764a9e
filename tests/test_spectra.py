import math

import numpy as np
import pytest
from scipy.special import lpmv

from weyllab import spectra
from weyllab.errors import DomainError, IncompleteSpectrum, SolverFailure
from weyllab.manifolds import (
    PerturbationSpec,
    ProfileCurve,
    make_pendulum_profile,
    make_perturbed_sphere,
    make_round_sphere,
)
from weyllab.spectra import (
    Spectrum,
    _MagnusGrid,
    _certify_windings,
    _cheb_size,
    _half_turns,
    _magnus_step,
    _matching_angle,
    _newton,
    _prufer_angle,
    _winding_brackets,
    product_spectrum,
    sphere_spectrum,
    spectrum_for_manifold,
    surface_spectrum,
    torus_spectrum,
)

TWO_PI = 2 * math.pi


def test_sphere_spectrum_n2():
    s = sphere_spectrum(2, 4.0)
    assert np.allclose(s.lambdas, [0, math.sqrt(2), math.sqrt(6), math.sqrt(12)])
    assert s.mults.tolist() == [1, 3, 5, 7]


def test_sphere_spectrum_n1():
    s = sphere_spectrum(1, 2.5)
    assert s.lambdas.tolist() == [0, 1, 2]
    assert s.mults.tolist() == [1, 2, 2]


def test_sphere_spectrum_n3():
    s = sphere_spectrum(3, 3.0)
    assert np.allclose(s.lambdas, [0, math.sqrt(3), math.sqrt(8)])
    assert s.mults.tolist() == [1, 4, 9]


def test_torus_count_81():
    t = torus_spectrum((TWO_PI, TWO_PI), 5.0)
    assert t.count(5.0) == 81
    # brute force: lattice points in the closed disk of radius 5
    k = np.arange(-5, 6)
    kx, ky = np.meshgrid(k, k)
    assert np.sum(kx ** 2 + ky ** 2 <= 25) == 81


@pytest.mark.parametrize("periods, lambda_max", [
    ((TWO_PI, TWO_PI), 80.0),
    ((TWO_PI, 3.0), 60.0),
    ((TWO_PI, TWO_PI, TWO_PI), 12.0),
])
def test_torus_spectrum_matches_the_full_meshgrid(periods, lambda_max):
    # the lattice written out as full index grids
    axes = [np.arange(-int(e) - 1, int(e) + 2)
            for e in (lambda_max * L / TWO_PI for L in periods)]
    grids = np.meshgrid(*axes, indexing="ij")
    lam2 = np.zeros_like(grids[0], dtype=float)
    for g, L in zip(grids, periods):
        lam2 += (TWO_PI * g / L) ** 2
    lam2 = lam2.ravel()
    lam2 = lam2[lam2 <= lambda_max ** 2 * (1 + 1e-14)]
    vals, counts = np.unique(np.round(lam2, 9), return_counts=True)
    t = torus_spectrum(periods, lambda_max)
    assert t.lambdas.tobytes() == np.sqrt(vals).tobytes()
    assert t.mults.tobytes() == counts.tobytes()


def test_torus_multiplicity_of_25():
    t = torus_spectrum((TWO_PI, TWO_PI), 6.0)
    i = int(np.argmin(np.abs(t.lambdas - 5.0)))
    assert t.mults[i] == 12


def test_circle_equals_one_sphere():
    t = torus_spectrum((TWO_PI,), 2.5)
    s = sphere_spectrum(1, 2.5)
    assert np.allclose(t.lambdas, s.lambdas)
    assert np.array_equal(t.mults, s.mults)


def test_product_of_circles_is_torus():
    c = torus_spectrum((TWO_PI,), 6.0)
    p = product_spectrum(c, c, 6.0)
    t = torus_spectrum((TWO_PI, TWO_PI), 6.0)
    assert np.allclose(p.lambdas, t.lambdas, atol=1e-12)
    assert np.array_equal(p.mults, t.mults)


def test_product_s2_x_s1():
    p = product_spectrum(sphere_spectrum(2, 3.0), sphere_spectrum(1, 3.0), 3.0)
    # brute-force enumeration of l(l+1) + k^2 <= 9
    expect = {}
    for l in range(4):
        for k in range(-3, 4):
            lam2 = l * (l + 1) + k * k
            if lam2 <= 9:
                expect[round(lam2, 9)] = expect.get(round(lam2, 9), 0) + (2 * l + 1)
    assert p.total == sum(expect.values())
    for lam, mult in zip(p.lambdas, p.mults):
        assert expect[round(lam ** 2, 9)] == mult


def test_product_identity_element():
    point = Spectrum(np.array([0.0]), np.array([1]), 10.0, 0, 1.0, "pt")
    s = sphere_spectrum(2, 3.0)
    p = product_spectrum(s, point, 3.0)
    assert np.allclose(p.lambdas, s.lambdas)
    assert np.array_equal(p.mults, s.mults)


def test_product_commutes():
    a = sphere_spectrum(2, 4.0)
    b = torus_spectrum((TWO_PI,), 4.0)
    p1 = product_spectrum(a, b, 4.0)
    p2 = product_spectrum(b, a, 4.0)
    assert np.allclose(p1.lambdas, p2.lambdas, atol=1e-12)
    assert np.array_equal(p1.mults, p2.mults)


def test_product_of_circles_keeps_the_levels_of_the_torus():
    # each circle keeps its level 3 at this cutoff, so the product must too
    lambda_max = 3.0 - 4e-16
    circle = sphere_spectrum(1, lambda_max)
    product = product_spectrum(circle, circle, lambda_max)
    torus = torus_spectrum((TWO_PI, TWO_PI), lambda_max)
    assert np.allclose(product.lambdas, torus.lambdas, rtol=0, atol=1e-12)
    assert np.array_equal(product.mults, torus.mults)


def test_product_requires_complete_factors():
    with pytest.raises(IncompleteSpectrum):
        product_spectrum(sphere_spectrum(2, 2.0), sphere_spectrum(1, 5.0), 5.0)


@pytest.mark.parametrize("lambda_max", [0.0, -1.0])
@pytest.mark.parametrize("build", [
    lambda lm: torus_spectrum((TWO_PI, TWO_PI), lm),
    lambda lm: sphere_spectrum(2, lm),
    lambda lm: product_spectrum(sphere_spectrum(2, 5.0),
                                sphere_spectrum(1, 5.0), lm),
], ids=["torus", "sphere", "product"])
def test_closed_forms_refuse_a_non_positive_cutoff(build, lambda_max):
    with pytest.raises(DomainError):
        build(lambda_max)


# --- radial solver -----------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_radial():
    return surface_spectrum(make_round_sphere(), 8.0)


def test_radial_matches_closed_form_counts(sphere_radial):
    cf = sphere_spectrum(2, 8.0)
    assert sphere_radial.total == cf.total


def test_radial_eigenvalues_are_legendre(sphere_radial):
    for lam in sphere_radial.lambdas[1:]:
        l = round((math.sqrt(1 + 4 * lam ** 2) - 1) / 2)
        assert lam ** 2 == pytest.approx(l * (l + 1), rel=1e-8)


def test_radial_m2_eigenvalues(sphere_radial):
    # mode m=2: eigenvalues l(l+1) for l >= 2
    lams = sorted(mode.lam for mode in sphere_radial.basis if mode.m == 2)
    for k, lam in enumerate(lams):
        l = k + 2
        assert lam ** 2 == pytest.approx(l * (l + 1), rel=1e-6)


def test_radial_eigenfunctions_match_legendre(sphere_radial):
    svals = np.array([-1.2, -0.5, 0.0, 0.3, 1.0])
    for mode in sphere_radial.basis:
        m, l = mode.m, mode.m + mode.k
        if mode.lam == 0.0:
            expected = np.full_like(svals, 1 / math.sqrt(4 * math.pi))
        else:
            N = math.sqrt((2 * l + 1) * math.factorial(l - m)
                          / (4 * math.pi * math.factorial(l + m)))
            expected = N * lpmv(m, l, np.sin(svals))
        got = mode(svals)
        err = min(np.max(np.abs(got - expected)), np.max(np.abs(got + expected)))
        assert err < 1e-6


def test_eigenfunction_normalization_and_telescoping(sphere_radial):
    mode = sphere_radial.basis[(2, 3)]
    total = mode.band_weight(-math.pi / 2, math.pi / 2)
    assert total == pytest.approx(1.0, abs=1e-10)
    parts = (mode.band_weight(-math.pi / 2, -0.3)
             + mode.band_weight(-0.3, 0.7)
             + mode.band_weight(0.7, math.pi / 2))
    assert parts == pytest.approx(total, abs=1e-12)


def test_even_profile_eigenfunctions_have_parity(sphere_radial):
    s = np.linspace(-1.4, 1.4, 21)
    for key in [(0, 1), (1, 0), (2, 2), (3, 1)]:
        mode = sphere_radial.basis[key]
        sym = np.max(np.abs(mode(s) - mode(-s)))
        anti = np.max(np.abs(mode(s) + mode(-s)))
        assert min(sym, anti) < 1e-8


def test_perturbed_eigenvalues_near_round(sphere_radial):
    consts = []
    for eps in (0.01, 0.005):
        p = make_perturbed_sphere(PerturbationSpec(epsilon=eps, a=0.5, b=1.0))
        sp = surface_spectrum(p, 6.0, with_eigenfunctions=False)
        cf = sphere_spectrum(2, 6.5)
        dist = max(np.min(np.abs(cf.lambdas - lam)) for lam in sp.lambdas)
        consts.append(dist / eps)
    assert abs(consts[0] - consts[1]) < 0.25 * max(consts)


def _assert_every_mode_is_legendre(lambda_max, count):
    spec = surface_spectrum(make_round_sphere(), lambda_max,
                            with_eigenfunctions=False)
    assert spec.total == count
    for lam, tags in zip(spec.lambdas[1:], spec.mode_tags[1:]):
        for m, k in tags:
            l2 = (m + k) * (m + k + 1)
            assert abs(lam ** 2 - l2) <= 1e-8 * l2


def test_radial_every_mode_is_legendre_at_12():
    _assert_every_mode_is_legendre(12.0, 144)


def test_radial_every_mode_is_legendre_at_30():
    _assert_every_mode_is_legendre(30.0, 900)


@pytest.mark.parametrize("l", [5, 8, 11])
def test_cutoff_at_an_eigenvalue_keeps_the_multiplet(l):
    lam = math.sqrt(l * (l + 1))
    assert sphere_spectrum(2, lam).total == (l + 1) ** 2
    radial = surface_spectrum(make_round_sphere(), lam,
                              with_eigenfunctions=False)
    assert radial.total == (l + 1) ** 2


def test_matching_angle_is_monotone_through_every_eigenvalue():
    # odd modes of the round sphere vanish at s_max at their eigenvalues,
    # so F's end angle sits on a zero of u there: the sweep must not jump
    grid = _MagnusGrid(make_round_sphere(), 12.0)
    rel = np.linspace(-1e-6, 1e-6, 21)
    m, lam2 = [], []
    for l in range(1, 12):
        for mode in range(l + 1):
            m.append(np.full(rel.size, mode))
            lam2.append(l * (l + 1) * (1.0 + rel))
    F = _matching_angle(grid, np.concatenate(m),
                        np.concatenate(lam2)).reshape(-1, rel.size)
    steps = np.diff(F, axis=1)
    assert np.all(steps > 0)
    assert np.all(F[:, -1] - F[:, 0] < 1e-3)
    # and each crossing is a multiple of pi inside the sweep
    assert np.all(np.floor(F[:, 0] / np.pi) + 1 == np.floor(F[:, -1] / np.pi))


def test_prufer_angle_takes_its_branch_from_the_sign_of_u():
    # atan2 rounds the angle of (1e-17, -1) to pi; the branch of u's sign
    # keeps the continuous angle continuous across the zero of u
    before = _prufer_angle(np.array([1e-17]), np.array([-1.0]), 1.0, 0)
    after = _prufer_angle(np.array([-1e-17]), np.array([-1.0]), 1.0, 1)
    assert before[0] <= np.pi and after[0] >= np.pi
    assert after[0] - before[0] < 1e-15
    assert _prufer_angle(np.array([0.0]), np.array([-1.0]), 1.0, 0)[0] \
        == np.pi


def test_half_turns_count_several_zeros_in_one_step():
    # a step that advances the phase by omega from phi0 in [0, pi) passes
    # floor((phi0 + omega) / pi) zeros of u; its parity is the sign flip
    phi0 = np.linspace(0.0, np.pi, 7, endpoint=False)[:, None]
    omega = np.array([0.0, 0.5, 3.0, 3.5, 7.0, 12.0])[None, :]
    count = np.floor((phi0 + omega) / np.pi).astype(int)
    assert np.array_equal(_half_turns(count % 2 == 1, omega), count)


def test_steps_of_several_half_turns_keep_the_winding():
    # with constant coefficients one Magnus step is exact whatever its
    # length, so steps that turn the phase by more than pi must give the
    # fine grid's F, winding included
    flat = ProfileCurve(lambda s, order: (np.ones(np.shape(s)),)
                        + (np.zeros(np.shape(s)),) * order, "cylinder")
    coarse = _MagnusGrid(flat, 12.0, coarsen=60.0)
    m = np.repeat(np.arange(0.0, 6.0), 3)
    lam2 = np.tile([50.5, 100.5, 140.5], 6)
    assert _magnus_step(coarse.terms, m * m, lam2)[4].max() > 2 * np.pi
    F = _matching_angle(_MagnusGrid(flat, 12.0), m, lam2)
    assert np.allclose(_matching_angle(coarse, m, lam2), F, rtol=0,
                       atol=1e-10)


def test_winding_certificate_names_the_mode_that_disagrees():
    profile = make_round_sphere()
    nodes = np.array([1e-6, 40.0, 150.0])
    modes = [0, 1, 2]
    grid = _MagnusGrid(profile, 12.0)
    table = _matching_angle(grid, np.repeat(modes, 3).astype(float),
                            np.tile(nodes, 3)).reshape(3, 3)
    coarse = _MagnusGrid(profile, 12.0, coarsen=2.0)
    _certify_windings(coarse, table, nodes, modes)
    table[1, -1] += np.pi
    with pytest.raises(SolverFailure) as err:
        _certify_windings(coarse, table, nodes, modes)
    assert err.value.mode == 1


def test_newton_finds_roots_of_a_monotone_function():
    F = lambda m, x: (x ** 3 + m * x, 3 * x ** 2 + m)
    m = np.array([0.0, 1.0, 4.0])
    goal = np.array([8.0, 30.0, 80.0])
    lo, hi = np.zeros(3), np.full(3, 5.0)
    root = _newton(F, m, goal, lo, hi, F(m, lo)[0] - goal,
                   F(m, hi)[0] - goal, tol=1e-12)
    assert np.allclose(root, [2.0, 3.0, 4.0], rtol=1e-12, atol=0)


def test_newton_rejects_a_bracket_that_misses_its_target():
    F = lambda m, x: (x, np.ones_like(x))
    m, goal = np.array([0.0, 0.0]), np.array([1.5, 5.0])
    lo, hi = np.array([1.0, 6.0]), np.array([2.0, 7.0])
    with pytest.raises(SolverFailure):
        _newton(F, m, goal, lo, hi, lo - goal, hi - goal, tol=1e-10)


def test_newton_rejects_a_value_outside_its_bracket():
    # a planted 2 pi jump between the table's values and the passes' ones
    F = lambda m, x: (x + 2 * np.pi * (x > 1.25), np.ones_like(x))
    m, goal = np.array([3.0]), np.array([1.5])
    lo, hi = np.array([1.0]), np.array([2.0])
    with pytest.raises(SolverFailure) as err:
        _newton(F, m, goal, lo, hi, lo - goal, hi - goal, tol=1e-10)
    assert err.value.mode == 3 and err.value.bracket == (1.0, 2.0)


def test_energy_integral_gives_the_derivative_of_F():
    # F' from the energy integral against a central difference of F
    grid = _MagnusGrid(make_perturbed_sphere(PerturbationSpec(0.01, 0.5, 1.0)),
                       12.0)
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.5, 12.0, 60)
    m = np.floor(rng.uniform(0.0, 1.0, 60) * lam)
    lam2 = lam * lam
    h = 1e-5 * lam2
    F, dF = _matching_angle(grid, m, lam2, derivative=True)
    assert np.array_equal(F, _matching_angle(grid, m, lam2))
    fd = (_matching_angle(grid, m, lam2 + h)
          - _matching_angle(grid, m, lam2 - h)) / (2 * h)
    assert np.max(np.abs(dF / fd - 1.0)) < 1e-5


def test_perturbed_solve_takes_at_most_seven_passes(monkeypatch):
    # 1 table pass, 1 certificate pass and the Newton passes
    calls = []
    plain = spectra._matching_angle

    def counted(*args, **kwargs):
        calls.append(np.size(args[2]))
        return plain(*args, **kwargs)

    monkeypatch.setattr(spectra, "_matching_angle", counted)
    profile = make_perturbed_sphere(PerturbationSpec(0.01, 0.5, 1.0))
    spec = surface_spectrum(profile, 12.0)
    assert spec.total == 144
    assert len(calls) <= 7


def _plain_magnus_step(terms, m2, lam2):
    """The step of _magnus_step written as plain expressions."""
    (b1, b2, b3), (p1, p2, p3) = terms
    c1 = m2 * b1 - lam2 * p1
    c2 = m2 * b2 - lam2 * p2
    c3 = m2 * b3 - lam2 * p3
    k = b1 * c2 - b2 * c1
    xb = -20.0 * b1 - b3
    xc = -20.0 * c1 - c3
    za = (b3 * c1 - b1 * c3) / 30.0
    zb = b2 + k * b1 / 30.0
    zc = c2 - k * c1 / 30.0
    oa = (xb * zc - zb * xc) / 240.0
    ob = b1 + b3 / 12.0 + (k * zb - za * xb) / 120.0
    oc = c1 + c3 / 12.0 + (xc * za - k * zc) / 120.0
    d = oa * oa + ob * oc
    omega = np.sqrt(np.maximum(-d, 0.0))
    osc, hyp = d < 0, d > 0
    cs = np.cos(omega, out=np.ones_like(d), where=osc)
    sn = np.sin(omega, out=np.ones_like(d), where=osc)
    np.divide(sn, omega, out=sn, where=osc)
    kappa = np.sqrt(np.maximum(d, 0.0))
    np.cosh(kappa, out=cs, where=hyp)
    np.sinh(kappa, out=sn, where=hyp)
    np.divide(sn, kappa, out=sn, where=hyp)
    return cs + sn * oa, sn * ob, sn * oc, cs - sn * oa, omega


@pytest.mark.parametrize("lambda_max, eigenfunctions",
                         [(12.0, True), (60.0, False)])
def test_in_place_magnus_step_is_the_plain_formula(monkeypatch, lambda_max,
                                                   eigenfunctions):
    # chunks captured from a solve, every third one compared bit for bit
    seen = []
    step = spectra._magnus_step

    def compared(terms, m2, lam2):
        out = step(terms, m2, lam2)
        if len(seen) % 3 == 0:
            ref = _plain_magnus_step(terms, m2, lam2)
            assert all(np.array_equal(a, b) for a, b in zip(out, ref))
        seen.append(np.shape(out[0]))
        return out

    monkeypatch.setattr(spectra, "_magnus_step", compared)
    surface_spectrum(make_round_sphere(), lambda_max,
                     with_eigenfunctions=eigenfunctions)
    assert len(seen) >= 10
    # the table pass, the Newton passes and the eigenfunction build
    assert len({shape[-1] for shape in seen}) >= 3


def test_winding_table_rejects_a_decreasing_row():
    nodes = np.array([0.0, 1.0, 2.0, 3.0])
    table = np.array([[0.5, 4.0, 7.0, 10.0],
                      [0.5, 4.0, 3.0, 10.0]])
    with pytest.raises(SolverFailure):
        _winding_brackets(table, nodes, [0, 1])


def test_winding_table_brackets_each_target():
    nodes = np.array([0.0, 1.0, 2.0, 3.0])
    table = np.array([[0.5, 4.0, 7.0, 10.0]])
    m, goal, lo, hi, f_lo, f_hi = _winding_brackets(table, nodes, [3])
    assert np.allclose(goal, np.pi * np.array([1, 2, 3]))
    assert lo.tolist() == [0.0, 1.0, 2.0] and hi.tolist() == [1.0, 2.0, 3.0]
    assert np.all(f_lo < 0) and np.all(f_hi >= 0) and np.all(m == 3)


def test_batched_band_weights_match_clenshaw(sphere_radial):
    got = sphere_radial.basis.band_weights(-0.3, 0.7)
    ref = [np.diff(np.polynomial.chebyshev.chebval(
        np.array([-0.3, 0.7]) / (math.pi / 2), mode.weight_coeffs))[0]
        for mode in sphere_radial.basis]
    assert np.allclose(got, ref, rtol=0, atol=1e-13)


def test_mode_floor_certificate(sphere_radial):
    # no mode beyond lambda_max * max alpha contributes
    assert sphere_radial.basis.m.max() <= 8


def test_weyl_sanity_torus():
    t = torus_spectrum((TWO_PI, TWO_PI), 60.0)
    lam = 60.0
    main = math.pi * lam ** 2 / (4 * math.pi ** 2) * t.volume / math.pi ** 1
    # (2pi)^-2 vol(B^2) vol lam^2 = lam^2 pi 4 pi^2 / 4 pi^2 = pi lam^2
    assert t.count(lam) == pytest.approx(math.pi * lam ** 2, rel=0.05)


def test_spectrum_dispatch():
    from weyllab.manifolds import flat_torus, product, round_sphere
    m = product(round_sphere(2), flat_torus((TWO_PI,)))
    s = spectrum_for_manifold(m, 5.0)
    assert s.dim == 3
    assert s.volume == pytest.approx(8 * math.pi ** 2)


def test_weyl_sanity_sphere_and_product():
    # N(lam)/lam^n approaches the main-term coefficient within 5%
    from weyllab.weyl import weyl_main_term
    s = sphere_spectrum(2, 60.0)
    assert float(s.count(60.0)) == pytest.approx(
        float(weyl_main_term(60.0, 2, s.volume)), rel=0.05)
    p = product_spectrum(sphere_spectrum(2, 55.0), sphere_spectrum(1, 55.0),
                         55.0)
    assert float(p.count(55.0)) == pytest.approx(
        float(weyl_main_term(55.0, 3, p.volume)), rel=0.05)


def test_product_associative():
    a = sphere_spectrum(2, 4.0)
    b = sphere_spectrum(1, 4.0)
    c = torus_spectrum((TWO_PI,), 4.0)
    p1 = product_spectrum(product_spectrum(a, b, 4.0), c, 4.0)
    p2 = product_spectrum(a, product_spectrum(b, c, 4.0), 4.0)
    assert np.allclose(p1.lambdas, p2.lambdas, atol=1e-12)
    assert np.array_equal(p1.mults, p2.mults)


def test_pendulum_spectrum_nonsymmetric_profile():
    # the solver must handle profiles whose maximum is off-center
    prof = make_pendulum_profile(4.0)
    spec = surface_spectrum(prof, 6.0)
    assert spec.lambdas[0] == 0.0
    assert np.all(np.diff(spec.lambdas) > 0)
    mode = spec.basis[(1, 1)]
    assert mode.band_weight(-math.pi / 2, math.pi / 2) == pytest.approx(
        1.0, abs=1e-9)
    # the stored radial factor satisfies its equation (coarse fd check)
    s = np.linspace(-1.1, 1.1, 7)
    h = 1e-4
    u = mode(s)
    flux = lambda t: prof.alpha(t) * (mode(t + h) - mode(t - h)) / (2 * h)
    lap = -(flux(s + h) - flux(s - h)) / (2 * h * prof.alpha(s)) \
        + u / prof.alpha(s) ** 2
    resid = np.max(np.abs(lap - mode.lam ** 2 * u))
    assert resid < 1e-3 * max(1.0, mode.lam ** 2)


# --- the eigenbasis table ---------------------------------------------------

def test_table_rows_follow_the_spectrum_entries(perturbed_radial):
    spec = perturbed_radial
    basis = spec.basis
    tags = [mk for entry in spec.mode_tags for mk in entry]
    assert list(zip(basis.m.tolist(), basis.k.tolist())) == tags
    assert (basis.m[0], basis.k[0], basis.lam[0]) == (0, 0, 0.0)
    assert np.all(np.diff(basis.lam) >= 0)
    sizes = [len(entry) for entry in spec.mode_tags]
    assert basis.entry.tolist() == np.repeat(np.arange(len(sizes)),
                                             sizes).tolist()
    assert np.allclose(basis.lam, spec.lambdas[basis.entry], rtol=1e-8,
                       atol=0)
    # a row view shares the table's memory
    mode = basis[(3, 2)]
    assert np.shares_memory(mode.coeffs, basis.coeffs)
    assert np.shares_memory(mode.weight_coeffs, basis.weight_coeffs)


def test_table_values_are_the_row_clenshaw_bit_for_bit(perturbed_radial):
    basis = perturbed_radial.basis
    s = np.concatenate([np.linspace(-math.pi / 2, math.pi / 2, 1000),
                        [basis.profile.s_max]])
    got = basis.values(s)
    assert got.shape == (len(basis), len(s))
    for row, mode in zip(got, basis):
        assert np.array_equal(row, mode(s))
    assert np.array_equal(basis.values(0.3),
                          [mode(0.3) for mode in basis])


def test_table_band_weights_are_the_row_band_weights(perturbed_radial):
    basis = perturbed_radial.basis
    got = basis.band_weights(1.05, 1.45)
    ref = np.array([mode.band_weight(1.05, 1.45) for mode in basis])
    # one product over the stack (BLAS gemm) and one per row (gemv) sum in
    # different orders, so they agree to rounding, not bit for bit
    assert np.allclose(got, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("lambda_max, bound", [(12.0, 1.1 * 1.95e-8),
                                               (30.0, 1.1 * 3.74e-8)])
def test_round_eigenbasis_is_normalized_legendre(lambda_max, bound):
    # every row of the table against 2 pi-normalized associated Legendre
    # functions of sin s, up to sign, on 61 points
    basis = surface_spectrum(make_round_sphere(), lambda_max).basis
    s = np.linspace(-1.5, 1.5, 61)
    l = basis.m + basis.k
    norm = np.sqrt((2 * l + 1) / (4 * math.pi) * np.exp(
        [math.lgamma(a - b + 1) - math.lgamma(a + b + 1)
         for a, b in zip(l, basis.m)]))
    ref = norm[:, None] * lpmv(basis.m[:, None], l[:, None], np.sin(s))
    got = basis.values(s)
    err = np.minimum(np.abs(got - ref), np.abs(got + ref)).max()
    assert err <= bound


# a bump 0.1 wide whose peak, about 0.006 wide, falls between the nodes
# of the lambda-sized table
NARROW_BUMP = PerturbationSpec(0.001, 0.5, 0.6)


def test_table_size_follows_lambda_max_and_the_profile():
    round_ = make_round_sphere()
    assert [_cheb_size(round_, lm) for lm in (12.0, 40.0, 60.0, 120.0,
                                              200.0)] \
        == [256, 256, 512, 512, 1024]
    assert _cheb_size(make_perturbed_sphere(PerturbationSpec(0.01, 0.5, 1.0)),
                      12.0) == 256
    narrow = make_perturbed_sphere(NARROW_BUMP)
    assert [_cheb_size(narrow, lm) for lm in (12.0, 200.0)] == [1024, 1024]


def _assert_doubling_moves_nothing(spec, monkeypatch):
    # the same solve with twice the nodes moves no band weight by 1e-9
    # and no value by 1e-8
    rule = spectra._cheb_size
    monkeypatch.setattr(spectra, "_cheb_size", lambda p, lm: 2 * rule(p, lm))
    basis = spec.basis
    doubled = surface_spectrum(basis.profile, spec.lambda_max).basis
    assert doubled.coeffs.shape[1] == 2 * basis.coeffs.shape[1]
    for band in ((1.05, 1.45), (-0.4, 0.4), (0.5, 0.55),
                 (-math.pi / 2, math.pi / 2)):
        assert np.max(np.abs(doubled.band_weights(*band)
                             - basis.band_weights(*band))) < 1e-9
    s = np.linspace(-math.pi / 2, math.pi / 2, 201)
    assert np.max(np.abs(doubled.values(s) - basis.values(s))) < 1e-8


def test_table_size_rule_is_converged(perturbed_radial, monkeypatch):
    _assert_doubling_moves_nothing(perturbed_radial, monkeypatch)


def test_table_size_rule_is_converged_on_a_narrow_bump(monkeypatch):
    spec = surface_spectrum(make_perturbed_sphere(NARROW_BUMP), 12.0)
    _assert_doubling_moves_nothing(spec, monkeypatch)

