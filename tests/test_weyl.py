import math
import tracemalloc

import numpy as np
import pytest

from weyllab import weyl
from weyllab.errors import DomainError, IncompleteSpectrum
from weyllab.manifolds import (flat_torus, make_round_sphere, round_sphere,
                               surface_of_revolution)
from weyllab.spectra import (Spectrum, sphere_spectrum, surface_spectrum,
                             torus_spectrum)
from weyllab.weyl import (
    CountingSeries,
    build_smoothing_kernel,
    circle_integral_quadrature,
    counting,
    counting_grid,
    fit_remainder,
    kuznecov,
    localized_counting,
    projector_kernels,
    smoothed_series,
    smoothed_series_direct,
    weyl_main_term,
)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def s2():
    return sphere_spectrum(2, 520.0)


@pytest.fixture(scope="module")
def torus():
    return torus_spectrum((TWO_PI, TWO_PI), 30.0)


@pytest.fixture(scope="module")
def radial():
    return surface_spectrum(make_round_sphere(), 12.0)


@pytest.fixture(scope="module")
def kernel():
    return build_smoothing_kernel(1.0)


# --- counting ----------------------------------------------------------------

def test_counting_sphere_at_10(s2):
    cs = counting(s2, np.array([10.0]))
    assert cs.N[0] == 100
    assert cs.main[0] == pytest.approx(100.0)
    assert cs.E[0] == pytest.approx(0.0, abs=1e-9)


def test_counting_torus_at_5(torus):
    cs = counting(torus, np.array([5.0]))
    assert cs.N[0] == 81
    assert cs.main[0] == pytest.approx(25 * math.pi)
    assert cs.E[0] == pytest.approx(81 - 25 * math.pi)


def test_counting_below_zero(torus):
    cs = counting(torus, np.array([-1.0, 0.0]))
    assert cs.N[0] == 0
    assert cs.N[1] == 1


def test_counting_requires_complete_spectrum(torus):
    with pytest.raises(IncompleteSpectrum):
        counting(torus, np.array([100.0]))


def test_counting_jumps_equal_multiplicities(s2):
    for j in (3, 10, 25):
        lam = s2.lambdas[j]
        below = np.nextafter(lam, -np.inf)
        cs = counting(s2, np.array([below, lam]))
        assert cs.N[1] - cs.N[0] == s2.mults[j]


def test_counting_grid_resolves_jumps(s2):
    grid = counting_grid(s2, 5.0, 50.0)
    cs = counting(s2, grid)
    assert np.max(cs.E) > 0 and np.min(cs.E) < 0


# --- localized counting --------------------------------------------------------

def test_localized_counting_homogeneous_band(radial):
    lams = np.array([4.0, 8.0, 11.0])
    band = (-0.4, 0.7)
    loc = localized_counting(radial, band, lams)
    full = counting(radial, lams)
    # on the round sphere the diagonal kernel is constant: the band count
    # is the volume fraction of the full count
    frac = loc.volume / full.volume
    assert np.allclose(loc.N, frac * full.N, rtol=1e-6)


def test_localized_counting_full_band_matches_counting(radial):
    lams = np.array([4.0, 8.0, 11.0])
    loc = localized_counting(radial, (-math.pi / 2, math.pi / 2), lams)
    full = counting(radial, lams)
    assert np.allclose(loc.N, full.N, atol=1e-8)


def test_localized_partition_sums_to_counting(radial):
    lams = np.array([6.0, 10.0])
    cuts = [-math.pi / 2, -0.5, 0.3, 1.0, math.pi / 2]
    total = np.zeros_like(lams)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total = total + localized_counting(radial, (lo, hi), lams).N
    assert np.allclose(total, counting(radial, lams).N, atol=1e-8)


# --- projector kernels ---------------------------------------------------------

def test_kernel_diagonal_equals_count_over_area(s2):
    man = round_sphere(2)
    (kv,) = projector_kernels(man, (0.3, 0.2), (0.3, 0.2), [10.0])
    assert kv.Pi == pytest.approx(100 / (4 * math.pi), rel=1e-12)
    assert kv.comparison == pytest.approx(100 / (4 * math.pi), rel=1e-12)


def test_kernel_hermitian_symmetry():
    man = flat_torus((TWO_PI, TWO_PI))
    x, y = (0.1, 0.2), (0.4, 1.0)
    (k1,) = projector_kernels(man, x, y, [20.0])
    (k2,) = projector_kernels(man, y, x, [20.0])
    assert k1.Pi == pytest.approx(k2.Pi, abs=1e-10)


def test_kernel_positivity_on_diagonal():
    man = flat_torus((TWO_PI, TWO_PI))
    for kv in projector_kernels(man, (0.7, 0.1), (0.7, 0.1),
                                [5.0, 12.0, 20.0]):
        assert kv.Pi >= 0


def test_torus_offdiagonal_envelope():
    man = flat_torus((TWO_PI, TWO_PI))
    (kv,) = projector_kernels(man, (0.0, 0.0), (0.1, 0.0), [50.0])
    # remainder measured against the sqrt(lambda) envelope scale
    assert abs(kv.E0) <= 5.0 * math.sqrt(50.0)


def test_revolution_kernel_consistency(radial):
    man = surface_of_revolution(make_round_sphere())
    (kv,) = projector_kernels(man, (0.4, 1.1), (0.4, 1.1), [8.0],
                              spec=radial)
    # homogeneous: N(lambda)/(4 pi)
    expected = radial.count(8.0) / (4 * math.pi)
    assert kv.Pi == pytest.approx(float(expected), rel=1e-7)


def test_kernel_domain_errors():
    man = flat_torus((TWO_PI, TWO_PI))
    with pytest.raises(DomainError):
        projector_kernels(man, (0.0, 0.0), (math.pi, 0.0), [10.0])


# --- smoothing kernel ----------------------------------------------------------

def test_kernel_mass_is_one(kernel):
    from scipy.integrate import simpson
    ds = kernel.s_table[1] - kernel.s_table[0]
    mass = 2 * simpson(kernel.rho_table, dx=ds) - 0.0
    assert mass == pytest.approx(1.0, abs=1e-8)


def rho_hat(xi):
    """The kernel's frequency-side profile (exact plateau convolution).

    The bump integrated over [-0.25, 0.25] cap [|xi| - 1.5, |xi| + 1.5]
    by the 120-node Gauss rule mapped onto each interval.
    """
    bump = weyl._rho_gauss()[0]
    v = np.abs(np.asarray(xi, dtype=float))
    lo = np.maximum(-0.25, v - 1.5)
    hi = np.minimum(0.25, v + 1.5)
    gx, gw = weyl._gauss_rule(120)
    mid = (0.5 * (lo + hi))[..., None]
    half = 0.5 * (hi - lo)
    out = half * np.sum(gw * bump(mid + half[..., None] * gx), axis=-1)
    return np.where(lo < hi, out, 0.0)


def test_rho_hat_plateau_and_support():
    assert rho_hat(0.0) == pytest.approx(1.0, abs=1e-12)
    assert rho_hat(0.9) == pytest.approx(1.0, abs=1e-12)
    assert float(rho_hat(2.1)) == 0.0
    assert float(rho_hat(1.9)) == 0.0      # support is [-1.75, 1.75]


def test_rho_hat_is_the_per_point_gauss_rule():
    # one 120-node Gauss rule per point, mapped onto [lo, hi]
    x, w = np.polynomial.legendre.leggauss(120)

    def gauss_legendre(f, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(np.sum(w * f(mid + half * x)))

    bump = weyl._bump_unit(0.25)
    xi = np.concatenate([[0.0, -0.0, 1.25, -1.25, 1.5, 1.75, -1.75, 2.1],
                         np.random.default_rng(4).uniform(-2.0, 2.0, 400)])
    ref = []
    for v in np.abs(xi):
        lo, hi = max(-0.25, v - 1.5), min(0.25, v + 1.5)
        ref.append(gauss_legendre(bump, lo, hi) if lo < hi else 0.0)
    assert np.array_equal(rho_hat(xi), ref)
    assert rho_hat(xi.reshape(4, -1)).shape == (4, 102)


def _kernel_tables(s_max, ds):
    """(s, rho, P) on the nodes k ds of [0, s_max]: the smoothing kernel's
    own tables at its spacing, else built the way it builds them."""
    if (s_max, ds) == (weyl._KERNEL_S_MAX, weyl._KERNEL_DS):
        K = build_smoothing_kernel(1.0)
        return K.s_table, K.rho_table, K.P_table
    s = np.arange(0.0, s_max + ds, ds)
    rho = weyl._rho_table(s, ds)
    return s, rho, 1.0 - weyl.cumulative_simpson(rho[::-1], -s[::-1])[::-1]


@pytest.mark.parametrize("s_max, ds, nodes", [
    (420.0, 0.002, 210_001),
    # the last block of 2,048 holds 1,653 nodes
    (37.0, 0.01, 3_701),
])
def test_kernel_table_matches_rho_exact_at_every_node(s_max, ds, nodes):
    s, rho, _ = _kernel_tables(s_max, ds)
    assert len(s) == nodes
    assert np.max(np.abs(rho - weyl.rho_exact(s))) <= 1e-15


@pytest.mark.parametrize("s_max, ds", [(420.0, 0.002), (37.0, 0.01)])
def test_kernel_P_table_is_scipys_cumulative_simpson(s_max, ds):
    # 210,001 and 3,701 nodes: the default table and an odd-sized one
    from scipy.integrate import cumulative_simpson
    s, rho, P = _kernel_tables(s_max, ds)
    ref = 1.0 - cumulative_simpson(rho[::-1], x=-s[::-1], initial=0.0)[::-1]
    assert np.array_equal(P, ref)


@pytest.mark.parametrize("sigma", [1.0, 5.0])
def test_P_matches_the_trapezoid_formula(sigma):
    K = build_smoothing_kernel(sigma)
    s, rho, Ptab = K.s_table, K.rho_table, K.P_table

    def trapezoid_P(x):
        # linear rho between nodes, integrated from the node below
        ax = np.minimum(np.abs(x), s[-1])
        ds = s[1] - s[0]
        idx = np.minimum((ax / ds).astype(int), len(s) - 2)
        frac = ax - s[idx]
        rho0, rho1 = rho[idx], rho[idx + 1]
        rho_x = rho0 + (rho1 - rho0) * (frac / ds)
        tail = Ptab[idx] + 0.5 * frac * (rho0 + rho_x)
        return np.where(x >= 0, tail, 1.0 - tail)

    # sigma (lam - lambda_j), as smoothed_series passes it
    rng = np.random.default_rng(17)
    gaps = np.concatenate([rng.uniform(-30.0, 30.0, 100_000),
                           rng.uniform(-450.0, 450.0, 100_000)]) / sigma
    x = np.concatenate([sigma * gaps, s[::37], -s[::41],
                        [0.0, -0.0, s[-1], -s[-1]],
                        [420.5, -420.5, 1e3, -1e3, 1e9, -1e9]])
    assert np.max(np.abs(K.P(x) - trapezoid_P(x))) <= 1e-15
    grid = x[:600].reshape(20, 30)
    assert np.array_equal(K.P(grid), K.P(x[:600]).reshape(20, 30))
    assert K.P(-3.0).shape == ()
    assert abs(K.P(-3.0) - trapezoid_P(np.float64(-3.0))) <= 1e-15


def test_P_limits(kernel):
    assert kernel.P(np.array([1e9]))[0] == pytest.approx(1.0, abs=1e-9)
    assert kernel.P(np.array([-1e9]))[0] == pytest.approx(0.0, abs=1e-9)
    assert kernel.P(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-9)


def test_single_eigenvalue_smoothing(kernel):
    from weyllab.spectra import Spectrum
    spec = Spectrum(np.array([0.0]), np.array([1]), 1e4, 1, 1.0, "pt")
    lam = np.array([3.0, -2.0])
    sm = smoothed_series(spec, lam, kernel)
    assert sm[0] == pytest.approx(float(kernel.P(np.array([3.0]))[0]))
    assert sm[1] == pytest.approx(float(kernel.P(np.array([-2.0]))[0]))


def test_smoothed_far_above_spectrum_is_total(kernel):
    s = sphere_spectrum(2, 500.0)
    lam = np.array([30.0])
    sm = smoothed_series(s, lam, kernel)
    # below the top by much more than the kernel tail: close to N
    assert sm[0] == pytest.approx(float(s.count(30.0)), rel=0.1)


def test_smoothed_series_window_guard(kernel):
    s = sphere_spectrum(2, 50.0)
    with pytest.raises(IncompleteSpectrum, match="grid max \\+ tail"):
        smoothed_series(s, np.array([45.0]), kernel)


def test_table_vs_direct_convolution(kernel, s2):
    rng = np.random.default_rng(3)
    lams = rng.uniform(15.0, 60.0, 8)
    sm = smoothed_series(s2, lams, kernel)
    W = float(s2.count(lams.max() + kernel.s_table[-1]))
    bound = kernel.consistency_bound(W)
    for i, lam in enumerate(lams):
        direct = smoothed_series_direct(s2, lam, kernel)
        assert abs(sm[i] - direct) <= bound


def test_table_vs_direct_other_scale(s2):
    K5 = build_smoothing_kernel(5.0)
    lams = np.array([20.0, 41.3])
    sm = smoothed_series(s2, lams, K5)
    W = float(s2.count(lams.max() + K5.s_table[-1] / 5.0))
    for i, lam in enumerate(lams):
        direct = smoothed_series_direct(s2, lam, K5)
        assert abs(sm[i] - direct) <= K5.consistency_bound(W)


def test_rho_exact_folded_rule_matches_the_unfolded_rule():
    # the 200-node rule with both signs of every node, as written out
    bump = weyl._bump_unit(0.25)
    gx, gw = np.polynomial.legendre.leggauss(200)
    bx, bw = 0.25 * gx, 0.25 * gw * bump(0.25 * gx)
    rng = np.random.default_rng(21)
    s = np.concatenate([np.arange(0.0, 420.002, 0.002),
                        rng.uniform(0.0, 500.0, 1000)])
    ref = np.empty_like(s)
    for start in range(0, len(s), 4096):
        sl = s[start:start + 4096]
        with np.errstate(invalid="ignore", divide="ignore"):
            sinc = np.where(sl > 0, np.sin(1.5 * sl) / (math.pi * sl),
                            1.5 / math.pi)
        ref[start:start + 4096] = sinc * (np.cos(np.outer(sl, bx)) @ bw)
    assert np.max(np.abs(weyl.rho_exact(s) - ref)) <= 1e-15


@pytest.mark.parametrize("n_grid, lo, hi, sigma, dim, lambda_max", [
    (1, 50.0, 50.0, 1.0, 2, 520.0),
    # 300 rows: the 2^16 block splits the 521 levels unevenly
    (300, 15.0, 95.0, 1.0, 2, 520.0),
    # more rows than one block holds
    (70_001, 0.0, 5.5, 200.0, 1, 8.0),
])
def test_smoothed_series_blocks_match_the_dense_matrix(n_grid, lo, hi, sigma,
                                                       dim, lambda_max):
    s = sphere_spectrum(dim, lambda_max)
    K = build_smoothing_kernel(sigma)
    lams = np.linspace(lo, hi, n_grid)
    w = s.mults.astype(float)
    # the spread grid would have more nodes than the spectrum has levels,
    # so the levels are the sources (16,012 nodes for the 9 levels at 200)
    assert weyl._sources(s.lambdas, w, sigma)[0] is s.lambdas
    dense = K.P(K.sigma * (lams[:, None] - s.lambdas[None, :])) @ w
    sm = smoothed_series(s, lams, K)
    assert sm.shape == lams.shape
    assert np.max(np.abs(sm - dense)) <= 1e-13 * float(np.sum(w))


def test_smoothed_series_grid_path_matches_the_dense_sum(kernel):
    spec, lams = _benchmark_torus(kernel)
    w = spec.mults.astype(float)
    mu, W = weyl._sources(spec.lambdas, w, kernel.sigma)
    assert len(mu) == 6228 < len(spec.lambdas)
    assert np.array_equal(mu, np.arange(-5, 6223) * 0.1)
    # the pairwise sum, written out by blocks of levels
    dense = np.zeros_like(lams)
    for c0 in range(0, len(w), 4096):
        dense += kernel.P(kernel.sigma * (lams[:, None]
                                          - spec.lambdas[None, c0:c0 + 4096])
                          ) @ w[c0:c0 + 4096]
    sm = smoothed_series(spec, lams, kernel)
    # The table's P is the true P plus a constant (the mass it misses),
    # plus a smooth error from its Simpson nodes, plus the error of its
    # linear rho inside a cell, at most max|rho''| ds^3 / 12 =
    # (1.75^3 / (3 pi)) 0.002^3 / 12 = 3.8e-10.  The 12 Lagrange weights
    # sum to 1 and reproduce smooth functions, so only the in-cell error
    # stays, once at the level and once through the weights, whose
    # absolute sum is at most 1.63 (the Lebesgue constant of the central
    # cell); the spreading's own remainder is 1.2e-15 per unit weight.
    bound = float(np.sum(w)) * ((1.0 + 1.63) * 3.8e-10 + 1.2e-15)
    assert np.max(np.abs(sm - dense)) <= bound
    direct_bound = kernel.consistency_bound(
        float(spec.count(min(spec.lambda_max,
                             lams.max() + kernel.s_table[-1]))))
    for i in (0, 41, 99):
        direct = smoothed_series_direct(spec, float(lams[i]), kernel)
        assert abs(sm[i] - direct) <= direct_bound


def test_spread_weights_reproduce_moments(kernel, perturbed_radial):
    # sum_k W_k mu_k^d = sum_j w_j lambda_j^d for d < 12, in the variable
    # x = (lambda - c) / r that maps the spectrum onto [-1, 1]: on the
    # benchmark torus, and on a Kuznecov helper, whose weights p conj(q)
    # for two points take both signs
    torus = _benchmark_torus(kernel)[0]
    basis = perturbed_radial.basis
    prods = np.sum(weyl._period_integrals(basis, ("point", 0.4, 1.1))
                   * np.conj(weyl._period_integrals(basis,
                                                    ("point", -0.2, 0.3))),
                   axis=1).real
    assert np.any(prods < 0) and np.any(prods > 0)
    for lam, w in ((torus.lambdas, torus.mults.astype(float)),
                   (basis.lam, prods)):
        for sigma in (1.0, 3.7):
            mu, W = weyl._spread(lam, w, weyl._SPREAD_STEP / sigma)
            c, r = 0.5 * (lam.max() + lam.min()), 0.5 * (lam.max() - lam.min())
            for d in range(weyl._SPREAD_POINTS):
                spread = np.sum(W * ((mu - c) / r) ** d)
                exact = np.sum(w * ((lam - c) / r) ** d)
                assert abs(spread - exact) <= 1e-14 * np.sum(np.abs(w))


def _benchmark_torus(kernel):
    """The benchmark's torus (87,080 levels) and its 100 grid points."""
    spec = torus_spectrum(
        (TWO_PI, TWO_PI), 200.0 + kernel.tail_cut_for(kernel.tail_tol) + 2.0)
    grid = np.sort(np.random.default_rng(11).uniform(20.0, 200.0, 100))
    return spec, grid


def _transient_mb(fn) -> float:
    """Peak traced allocation above the level at the call, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def test_smoothed_series_memory_is_bounded(kernel):
    spec, grid = _benchmark_torus(kernel)
    assert _transient_mb(lambda: smoothed_series(spec, grid, kernel)) < 16.0


def test_kernel_build_memory_is_bounded():
    weyl._kernel_tables.cache_clear()
    assert _transient_mb(lambda: build_smoothing_kernel(1.0)) < 40.0


# --- kuznecov ------------------------------------------------------------------

def test_circle_integrals_of_nonzero_modes_vanish(radial):
    basis = radial.basis
    integrals = circle_integral_quadrature(basis, 0.3)
    assert np.max(np.abs(integrals[basis.m != 0])) < 1e-10
    # the m = 0 integrals keep their analytic value 2 pi alpha(s0) u(s0)
    zero = basis.m == 0
    exact = 2 * math.pi * math.cos(0.3) * basis.values(0.3)[zero]
    assert np.allclose(integrals[zero], exact, rtol=0, atol=1e-12)


def test_point_kuznecov_equals_diagonal_kernel(radial):
    man = surface_of_revolution(make_round_sphere())
    x = ("point", 0.4, 1.1)
    lams = np.array([3.0, 4.0, 5.0])
    ks = kuznecov(radial, x, x, lams, t0=1.0, tail_tol=0.02)
    for value, kv in zip(ks.values, projector_kernels(
            man, (0.4, 1.1), (0.4, 1.1), lams, spec=radial)):
        assert value == pytest.approx(kv.Pi, abs=1e-8)


def test_equator_kuznecov_odd_modes_vanish(radial):
    # P_l(0) = 0 for odd l: odd radial parity contributes nothing
    for mode in radial.basis:
        if mode.m == 0 and mode.k % 2 == 1:
            assert abs(float(mode(0.0))) < 1e-8


def test_kuznecov_monotone_for_equal_targets(radial):
    eq = ("circle", 0.0)
    lams = np.linspace(2.0, 5.0, 12)
    ks = kuznecov(radial, eq, eq, lams, t0=1.0, tail_tol=0.02)
    assert np.all(np.diff(ks.values) >= -1e-12)
    assert ks.trunc_bound >= 0.0


# --- remainder fits -------------------------------------------------------------

def test_fit_synthetic_log_model_exact():
    lam = np.geomspace(20, 200, 400)
    E = lam / np.log(lam)
    cs = CountingSeries(lam, E + lam ** 2, lam ** 2, E, 2, 4 * math.pi)
    fit = fit_remainder(cs, "log", (20, 200))
    assert fit.constant == pytest.approx(1.0, abs=1e-6)
    assert fit.trend == pytest.approx(1.0, abs=1e-6)


def test_fit_sphere_standard_bracket(s2):
    grid = counting_grid(s2, 20.0, 200.0)
    cs = counting(s2, grid)
    fit = fit_remainder(cs, "standard", (20, 200))
    assert 0.5 <= fit.constant <= 4.0
    assert 0.8 <= fit.trend <= 1.25


def test_fit_power_window_guard(s2):
    cs = counting(s2, counting_grid(s2, 20.0, 100.0))
    with pytest.raises(DomainError):
        fit_remainder(cs, "standard", (5, 100))


def test_weyl_main_term_values():
    # S^2: lambda^2; 2-torus (2pi)^2: pi lambda^2
    assert weyl_main_term(10.0, 2, 4 * math.pi) == pytest.approx(100.0)
    assert weyl_main_term(10.0, 2, 4 * math.pi ** 2) == pytest.approx(
        100 * math.pi)


# --- table reads against the per-mode formulas -------------------------------

def _kernel_by_modes(basis, x, y, lams):
    """Pi_lam(x, y) at each of ``lams`` by one loop over the modes."""
    (s1, t1), (s2, t2) = x, y
    vals = np.zeros(len(lams))
    for mode in basis:
        contrib = float(mode(s1)) * float(mode(s2))
        contrib *= 2.0 * math.cos(mode.m * (t1 - t2)) if mode.m > 0 else 1.0
        vals += np.where(mode.lam <= lams, contrib, 0.0)
    return vals


def _kuznecov_by_modes(basis, H1, H2):
    """Sorted (lambda, sum p conj(q)) per mode, one loop over the modes."""

    def amplitudes(H, mode):
        if H[0] == "point":
            u = float(mode(H[1]))
            if mode.m == 0:
                return [u]
            return [u * np.exp(1j * mode.m * H[2]),
                    u * np.exp(-1j * mode.m * H[2])]
        if mode.m == 0:
            return [2.0 * math.pi * float(basis.profile.alpha(H[1]))
                    * float(mode(H[1]))]
        return [0.0, 0.0]

    lam, prod = [], []
    for mode in basis:
        contrib = sum(p * np.conj(q) for p, q in zip(amplitudes(H1, mode),
                                                     amplitudes(H2, mode)))
        lam.append(mode.lam)
        prod.append(float(np.real(contrib)))
    order = np.argsort(lam)
    return np.asarray(lam)[order], np.asarray(prod)[order]


@pytest.mark.parametrize("x, y", [((0.4, 1.1), (0.4, 1.1)),
                                  ((0.3, 1.0), (0.5, 1.0)),
                                  ((-1.2, 2.0), (0.9, 2.0))])
def test_revolution_kernel_matches_the_mode_loop(perturbed_radial, x, y):
    spec = perturbed_radial
    man = surface_of_revolution(spec.basis.profile)
    lams = np.linspace(2.0, spec.lambda_max, 9)
    ref = _kernel_by_modes(spec.basis, x, y, lams)
    got = [kv.Pi for kv in projector_kernels(man, x, y, lams, spec=spec)]
    assert np.allclose(got, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("H1, H2", [
    (("point", 0.4, 1.1), ("point", -0.2, 0.3)),
    (("point", 0.4, 1.1), ("circle", 0.3)),
    (("circle", 1.2), ("circle", 0.3))])
def test_kuznecov_matches_the_mode_loop(perturbed_radial, H1, H2):
    spec = perturbed_radial
    kernel = build_smoothing_kernel(1.0)
    lams = np.linspace(2.0, spec.lambda_max - kernel.tail_cut_for(0.02) - 1.0,
                       9)
    ks = kuznecov(spec, H1, H2, lams, t0=1.0, tail_tol=0.02)
    lam, prod = _kuznecov_by_modes(spec.basis, H1, H2)
    values = np.concatenate([[0.0], np.cumsum(prod)])[
        np.searchsorted(lam, lams, side="right")]
    helper = Spectrum(lam, np.ones(len(lam), dtype=int), spec.lambda_max, 2,
                      spec.volume, "reference")
    smoothed = smoothed_series(helper, lams, kernel, weights=prod,
                               tail_tol=0.02)
    assert np.allclose(ks.values, values, rtol=1e-13, atol=0)
    assert np.allclose(ks.smoothed, smoothed, rtol=1e-13, atol=0)


def test_revolution_kernel_off_diagonal_matches_legendre():
    # the round profile through the radial solver, against the closed
    # Legendre sum of round_sphere(2), between consecutive levels
    profile = make_round_sphere()
    spec = surface_spectrum(profile, 20.0)
    man = surface_of_revolution(profile)
    levels = np.sqrt([l * (l + 1) for l in range(20)])
    mids = 0.5 * (levels[:-1] + levels[1:])
    worst = 0.0
    for x, y in [((0.3, 1.0), (0.5, 1.0)), ((-1.2, 2.0), (0.9, 2.0)),
                 ((0.4, 1.1), (0.4, 1.1))]:
        lams = mids[mids < 20.0]
        got = projector_kernels(man, x, y, lams, spec=spec)
        exact = projector_kernels(round_sphere(2), x, y, lams)
        for lam, g, e in zip(lams, got, exact):
            worst = max(worst, abs(g.Pi - e.Pi) / lam)
    assert worst <= 1e-9
