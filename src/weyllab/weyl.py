"""Counting functions, projector kernels, smoothed comparisons, Kuznecov sums.

Conventions: frequencies lambda (square roots of Laplace eigenvalues), the
half-open counting N(lam) = #{lambda_j <= lam}, and the main term
(2 pi)^-n vol(B^n) vol_g lam^n.  The semiclassical parameter is calibrated
as h = 1/lambda, so smoothing the lambda axis with rho_sigma corresponds to
a propagation horizon sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import eval_legendre, jv

from .errors import DomainError, IncompleteSpectrum, WindowTooSmall
from .manifolds import ModelManifold, band_area, lattice_box
from .quadrature import gauss_legendre
from .spectra import Spectrum, band_weights


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def weyl_main_term(lam, dim: int, volume: float):
    lam = np.asarray(lam, dtype=float)
    return (2.0 * math.pi) ** (-dim) * ball_volume(dim) * volume * lam ** dim


# ---------------------------------------------------------------------------
# Counting series


@dataclass
class CountingSeries:
    lambdas: np.ndarray
    N: np.ndarray
    main: np.ndarray
    E: np.ndarray
    dim: int
    volume: float
    label: str = ""


def counting_grid(spec: Spectrum, lo: float, hi: float,
                  n_base: int = 400) -> np.ndarray:
    """Evaluation grid resolving every jump: eigenvalues and pre-jump points."""
    base = np.geomspace(max(lo, 1e-6), hi, n_base)
    jumps = spec.lambdas[(spec.lambdas >= lo) & (spec.lambdas <= hi)]
    pre = np.nextafter(jumps, -np.inf)
    grid = np.unique(np.concatenate([base, jumps, pre]))
    return grid[(grid >= lo) & (grid <= hi)]


def counting(spec: Spectrum, lambdas) -> CountingSeries:
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size and lambdas.max() > spec.lambda_max + 1e-12:
        raise IncompleteSpectrum(
            f"grid reaches {lambdas.max()}, spectrum complete only to "
            f"{spec.lambda_max}")
    N = spec.count(lambdas).astype(float)
    N[lambdas < 0] = 0.0
    main = weyl_main_term(np.maximum(lambdas, 0.0), spec.dim, spec.volume)
    return CountingSeries(lambdas, N, main, N - main, spec.dim, spec.volume,
                          spec.label)


def localized_counting(spec: Spectrum, band: tuple[float, float],
                       lambdas) -> CountingSeries:
    """int_W Pi_lam(x,x) over the band W = [s0, s1] x S^1.

    Each eigenmode contributes its localized mass, the band integral of its
    density; for the radial basis this is the stored cumulative weight.
    """
    if spec.basis is None:
        raise IncompleteSpectrum("localized counting needs the eigenfunction "
                                 "store of a surface spectrum")
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size and lambdas.max() > spec.lambda_max + 1e-12:
        raise IncompleteSpectrum("grid exceeds the spectrum cutoff")
    s0, s1 = band
    rows = [i for i, tags in enumerate(spec.mode_tags) for _ in tags]
    modes = [spec.basis[mk] for tags in spec.mode_tags for mk in tags]
    copies = np.array([1 if mode.m == 0 else 2 for mode in modes])
    weights = np.bincount(rows, copies * band_weights(modes, s0, s1),
                          minlength=len(spec.lambdas))
    csum = np.concatenate([[0.0], np.cumsum(weights)])
    idx = np.searchsorted(spec.lambdas, lambdas, side="right")
    NW = csum[idx]
    vol_w = band_area(spec.basis.profile, s0, s1)
    main = weyl_main_term(lambdas, 2, vol_w)
    return CountingSeries(lambdas, NW, main, NW - main, 2, vol_w,
                          f"{spec.label} band [{s0}, {s1}]")


# ---------------------------------------------------------------------------
# Projector kernels


@dataclass
class KernelValue:
    x: tuple
    y: tuple
    lam: float
    Pi: float
    comparison: float
    E0: float


def _sphere_distance(x, y) -> float:
    s1, t1 = x
    s2, t2 = y
    c = (math.sin(s1) * math.sin(s2)
         + math.cos(s1) * math.cos(s2) * math.cos(t1 - t2))
    return math.acos(min(1.0, max(-1.0, c)))


def _torus_distance(periods, x, y) -> float:
    d2 = 0.0
    for xi, yi, L in zip(x, y, periods):
        r = abs(xi - yi) % L
        d2 += min(r, L - r) ** 2
    return math.sqrt(d2)


def euclidean_comparison(lam: float, r: float, n: int) -> float:
    """(2 pi)^-n int_{|xi|<lam} e^{i<v, xi>} d xi at |v| = r (radial form)."""
    if r < 1e-12:
        return ball_volume(n) * lam ** n / (2.0 * math.pi) ** n
    return (2.0 * math.pi) ** (-n / 2.0) * (lam / r) ** (n / 2.0) \
        * jv(n / 2.0, lam * r)


def projector_kernel(manifold: ModelManifold, x, y, lam: float,
                     spec: Optional[Spectrum] = None) -> KernelValue:
    """Pi_lam(x, y) and its flat comparison integral.

    Points are chart tuples: (s, theta) on spheres and surfaces of
    revolution, Cartesian coordinates on flat tori.  The comparison is only
    defined below the injectivity scale of the chart.
    """
    if manifold.kind == "round_sphere" and manifold.n == 2:
        r = _sphere_distance(x, y)
        if r >= math.pi - 1e-12:
            raise DomainError("antipodal pair: comparison chart invalid")
        L = int(math.floor(0.5 * (math.sqrt(1 + 4 * lam ** 2) - 1) + 1e-12))
        ls = np.arange(L + 1)
        val = float(np.sum((2 * ls + 1) * eval_legendre(ls, math.cos(r)))
                    / (4 * math.pi))
        comp = euclidean_comparison(lam, r, 2)
        return KernelValue(x, y, lam, val, comp, val - comp)

    if manifold.kind == "flat_torus":
        periods = manifold.periods
        d = len(periods)
        r = _torus_distance(periods, x, y)
        if r >= min(periods) / 2.0:
            raise DomainError("pair beyond the torus injectivity radius")
        grids = lattice_box([lam * L / (2 * math.pi) for L in periods])
        lam2 = phase = 0.0
        for g, L, xi, yi in zip(grids, periods, x, y):
            kstar = 2 * math.pi * g / L
            lam2 = lam2 + kstar ** 2
            phase = phase + kstar * (xi - yi)
        inside = lam2 <= lam ** 2 * (1 + 1e-14)
        val = float(np.sum(np.cos(phase[inside]))) / manifold.volume
        comp = euclidean_comparison(lam, r, d)
        return KernelValue(tuple(x), tuple(y), lam, val, comp, val - comp)

    if manifold.kind == "surface_of_revolution":
        if spec is None or spec.basis is None:
            raise IncompleteSpectrum("revolution kernel needs a surface "
                                     "spectrum with eigenfunctions")
        if lam > spec.lambda_max + 1e-12:
            raise IncompleteSpectrum("lam exceeds the spectrum cutoff")
        s1, t1 = x
        s2, t2 = y
        val = 0.0
        for (m, k), mode in spec.basis.modes.items():
            if mode.lam <= lam:
                contrib = float(mode(s1)) * float(mode(s2))
                val += contrib * (2.0 * math.cos(m * (t1 - t2)) if m > 0
                                  else 1.0)
        if abs(s1 - s2) < 1e-12 and abs(t1 - t2) < 1e-12:
            r = 0.0
        elif abs((t1 - t2) % (2 * math.pi)) < 1e-12:
            r = abs(s1 - s2)           # same meridian
        else:
            raise DomainError("comparison on revolution surfaces supports "
                              "coincident points or same-meridian pairs")
        comp = euclidean_comparison(lam, r, 2)
        return KernelValue(x, y, lam, val, comp, val - comp)

    raise DomainError(f"no kernel for manifold kind {manifold.kind!r}")


# ---------------------------------------------------------------------------
# Smoothing kernel


def _bump_unit(width: float):
    """Normalized smooth bump supported on (-width, width)."""

    def raw(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < width
        with np.errstate(over="ignore", under="ignore"):
            z = x[inside] / width
            out[inside] = np.exp(-1.0 / (1.0 - z * z))
        return out

    mass = gauss_legendre(raw, -width, width, n=200)
    return lambda x: raw(x) / mass


_RHO_GAUSS = None
_RHO_CHUNK = 2048          # rows of the cosine block in rho_exact


def rho_exact(s):
    """Analytic time-side kernel rho(s) = sin(1.5 s)/(pi s) psi_hat(s).

    psi_hat is the Fourier transform of the width-0.5 mollifier, evaluated
    by fixed Gauss quadrature; no tables involved.  The 200-node rule and
    the bump are both even, so each +/- pair of nodes is folded into one
    cosine: 100 non-negative nodes carrying the summed weights.
    """
    global _RHO_GAUSS
    if _RHO_GAUSS is None:
        bump = _bump_unit(0.25)
        gx, gw = np.polynomial.legendre.leggauss(200)
        bw = 0.25 * gw * bump(0.25 * gx)
        h = len(gx) // 2
        _RHO_GAUSS = (0.25 * gx[h:], bw[h:] + bw[:h][::-1])
    bx, bw = _RHO_GAUSS
    s = np.abs(np.asarray(s, dtype=float))
    flat = s.ravel()
    out = np.empty_like(flat)
    for start in range(0, len(flat), _RHO_CHUNK):
        sl = flat[start:start + _RHO_CHUNK]
        psi_hat = np.cos(np.outer(sl, bx)) @ bw
        with np.errstate(invalid="ignore", divide="ignore"):
            sinc = np.where(sl > 0, np.sin(1.5 * sl) / (math.pi * sl),
                            1.5 / math.pi)
        out[start:start + _RHO_CHUNK] = sinc * psi_hat
    return out.reshape(s.shape)


@dataclass
class SmoothingKernel:
    """Time-side kernel rho with plateau Fourier profile.

    rho_hat is 1 on [-1.25, 1.25] and vanishes outside [-1.75, 1.75]
    (indicator of [-1.5, 1.5] mollified at width 0.25), so the defining
    requirements (1 on [-1, 1], support in [-2, 2]) hold with margin.
    The scaled kernel is rho_sigma(u) = sigma rho(sigma u); its
    antiderivative P drives all series smoothing.
    """

    sigma: float
    s_table: np.ndarray = field(repr=False)
    rho_table: np.ndarray = field(repr=False)
    P_table: np.ndarray = field(repr=False)
    decay_constants: dict = field(default_factory=dict)
    tail_tol: float = 1e-9

    def P(self, x):
        """Antiderivative int_{-inf}^x rho; P(-x) = 1 - P(x).

        Piecewise trapezoid correction between table nodes keeps the
        evaluation error at the cubic-in-spacing scale.
        """
        x = np.asarray(x, dtype=float)
        ax = np.minimum(np.abs(x), self.s_table[-1])
        ds = self.s_table[1] - self.s_table[0]
        idx = np.minimum((ax / ds).astype(int), len(self.s_table) - 2)
        s0 = self.s_table[idx]
        frac = ax - s0
        rho0 = self.rho_table[idx]
        rho1 = self.rho_table[idx + 1]
        rho_x = rho0 + (rho1 - rho0) * (frac / ds)
        tail = self.P_table[idx] + 0.5 * frac * (rho0 + rho_x)
        return np.where(x >= 0, tail, 1.0 - tail)

    def rho_hat(self, xi):
        """Frequency-side profile (exact plateau convolution)."""
        xi = np.asarray(xi, dtype=float)
        bump = _bump_unit(0.25)

        def single(v):
            lo, hi = max(-0.25, v - 1.5), min(0.25, v + 1.5)
            if lo >= hi:
                return 0.0
            return gauss_legendre(bump, lo, hi, n=120)

        return np.vectorize(single)(np.abs(xi))

    def tail_cut_for(self, tol: float) -> float:
        """Smallest x beyond which |P - step| stays below ``tol``."""
        dev = np.abs(1.0 - self.P_table)
        above = dev > tol
        if not np.any(above):
            return 0.0
        return float(self.s_table[above][-1]) + float(
            self.s_table[1] - self.s_table[0])

    def consistency_bound(self, total_weight: float) -> float:
        """Numerical bound for table-vs-direct smoothing comparisons."""
        return (self.tail_tol + 2e-9) * max(total_weight, 1.0)


_KERNEL_CACHE: dict = {}


def build_smoothing_kernel(scale: float, s_max: float = 420.0,
                           ds: float = 0.002) -> SmoothingKernel:
    """Construct rho_sigma for sigma = scale (table shared across scales)."""
    if scale <= 0:
        raise DomainError("smoothing scale must be positive")
    key = (s_max, ds)
    if key not in _KERNEL_CACHE:
        from scipy.integrate import cumulative_simpson
        s = np.arange(0.0, s_max + ds, ds)
        rho = rho_exact(s)
        # P(x) = 1 - int_x^inf rho, cumulative Simpson from the far end
        tail_from = cumulative_simpson(rho[::-1], x=-s[::-1], initial=0.0)[::-1]
        P = 1.0 - tail_from
        decay = {}
        for j in range(1, 9):
            decay[j] = float(np.max(np.abs(rho) * (1.0 + s) ** j))
        # achievable step-function tolerance: the P deviation still present
        # at the end of the table bounds everything beyond it
        tol = max(1e-9, 2.0 * float(np.abs(1.0 - P)[-1]))
        _KERNEL_CACHE[key] = (s, rho, P, decay, tol)
    s, rho, P, decay, tol = _KERNEL_CACHE[key]
    return SmoothingKernel(scale, s, rho, P, dict(decay), tail_tol=tol)


_SMOOTH_BLOCK = 1 << 16    # elements of one P block in smoothed_series


def smoothed_series(spec: Spectrum, lambdas, kernel: SmoothingKernel,
                    weights: Optional[np.ndarray] = None,
                    tail_tol: Optional[float] = None) -> np.ndarray:
    """(rho_sigma * series)(lam) = sum_j w_j P(sigma (lam - lambda_j)).

    The spectrum must extend beyond the grid by the kernel tail length at
    the requested step tolerance; otherwise :class:`WindowTooSmall`
    reports the required enlargement.  Contributions of eigenvalues above
    the cutoff are bounded by :func:`truncation_bound`.

    The grid x spectrum matrix of P is never formed: it is evaluated in
    blocks of at most ``_SMOOTH_BLOCK`` (2^16) elements, about 0.5 MB
    each, so memory stays bounded and each block stays in cache.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    tol = kernel.tail_tol if tail_tol is None else tail_tol
    margin = kernel.tail_cut_for(tol) / kernel.sigma
    required = float(lambdas.max()) + margin
    if spec.lambda_max + 1e-9 < required:
        raise WindowTooSmall(
            f"spectrum complete to {spec.lambda_max}, need {required:.3f} "
            f"(grid max + tail {margin:.3f} at step tolerance {tol:.1e})",
            required=required)
    if weights is None:
        weights = spec.mults.astype(float)
    out = np.zeros_like(lambdas)
    rows = min(len(lambdas), _SMOOTH_BLOCK)
    cols = _SMOOTH_BLOCK // rows
    for r0 in range(0, len(lambdas), rows):
        lam = lambdas[r0:r0 + rows, None]
        for c0 in range(0, len(spec.lambdas), cols):
            lj = spec.lambdas[c0:c0 + cols]
            out[r0:r0 + rows] += (
                kernel.P(kernel.sigma * (lam - lj[None, :]))
                @ weights[c0:c0 + cols])
    return out


def truncation_bound(spec: Spectrum, lam_grid_max: float,
                     kernel: SmoothingKernel,
                     weights: Optional[np.ndarray] = None) -> float:
    """Bound on the smoothed-series mass missing above the spectral cutoff.

    Extrapolates the known weight density beyond ``lambda_max`` with the
    Weyl-type power growth and integrates it against the kernel's step
    deviation; an estimate, reported alongside smoothed values.
    """
    if weights is None:
        weights = spec.mults.astype(float)
    lam_top = spec.lambda_max
    lo = 0.9 * lam_top
    top_weight = float(np.sum(weights[spec.lambdas >= lo]))
    density = 1.5 * top_weight / max(lam_top - lo, 1e-9)
    s = kernel.s_table
    dev = np.abs(1.0 - kernel.P_table)
    t = lam_top + s / kernel.sigma
    g = density * (t / lam_top) ** max(spec.dim - 1, 0)
    shift = kernel.sigma * (lam_top - lam_grid_max)
    dev_shifted = np.interp(s + shift, s, dev, right=0.0)
    return float(np.trapezoid(dev_shifted * g, s / kernel.sigma))


def smoothed_series_direct(spec: Spectrum, lam: float,
                           kernel: SmoothingKernel,
                           weights: Optional[np.ndarray] = None) -> float:
    """Direct convolution quadrature oracle for one grid point.

    Integrates rho_sigma(u) N(lam - u) du by composite Simpson over the
    intervals where the step series is constant, with rho evaluated
    analytically; independent of the antiderivative table used by
    :func:`smoothed_series`.  Long intervals get enough nodes to resolve
    the kernel oscillation (frequency 1.5 sigma).
    """
    if weights is None:
        weights = spec.mults.astype(float)
    csum = np.concatenate([[0.0], np.cumsum(weights)])
    u_max = kernel.s_table[-1] / kernel.sigma
    cuts = lam - spec.lambdas
    cuts = np.sort(cuts[(cuts > -u_max) & (cuts < u_max)])
    edges = np.concatenate([[-u_max], cuts, [u_max]])
    a = edges[:-1]
    b = edges[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    N_here = csum[np.searchsorted(spec.lambdas, lam - 0.5 * (a + b),
                                  side="right")]
    live = N_here != 0.0
    a, b, N_here = a[live], b[live], N_here[live]
    span = kernel.sigma * (b - a)
    n_pts = np.where(span < 0.02, 3,
                     np.maximum(5, (10.0 * span).astype(int) * 2 + 5))
    total = 0.0
    for n in np.unique(n_pts):
        m = n_pts == n
        frac = np.linspace(0.0, 1.0, n)
        u = a[m][:, None] + (b - a)[m][:, None] * frac[None, :]
        vals = kernel.sigma * rho_exact(kernel.sigma * u)
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        h = (b - a)[m] / (n - 1)
        simpson = (vals @ w) * (h / 3.0)
        total += float(np.sum(N_here[m] * simpson))
    return float(total)


# ---------------------------------------------------------------------------
# Kuznecov sums


@dataclass
class KuznecovSeries:
    H1: tuple
    H2: tuple
    lambdas: np.ndarray
    values: np.ndarray
    smoothed: np.ndarray
    E_t0: np.ndarray
    t0: float
    trunc_bound: float


def circle_integral_quadrature(mode, s0: float, profile,
                               n_theta: int = 512) -> complex:
    """Latitude-circle integral of u e^{i m theta} by explicit quadrature.

    Exercises the angular integration path; analytically 2 pi alpha(s0)
    u(s0) for m = 0 and 0 otherwise.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    vals = float(mode(s0)) * np.exp(1j * mode.m * theta)
    return complex(np.sum(vals) * (2 * math.pi / n_theta)
                   * float(profile.alpha(s0)))


def kuznecov(spec: Spectrum, H1, H2, lambdas, t0: float = 1.0,
             kernel: Optional[SmoothingKernel] = None,
             tail_tol: float = 1e-4) -> KuznecovSeries:
    """Cumulative sums of period-integral products over two submanifolds.

    Descriptors: ``("point", s, theta)`` or ``("circle", s0)``.  For
    latitude circles only m = 0 modes contribute (the angular integral of
    e^{i m theta} vanishes otherwise); for points every mode contributes
    with both signs of m.

    The smoothed comparison carries the truncation bound of the spectrum's
    finite cutoff in ``trunc_bound``; radial-solver spectra are short, so
    the default step tolerance is looser than for closed forms.
    """
    if spec.basis is None:
        raise IncompleteSpectrum("Kuznecov sums need the eigenfunction store")
    lambdas = np.asarray(lambdas, dtype=float)
    profile = spec.basis.profile

    def amplitudes(H, mode):
        """List of complex period integrals, one per eigenspace member."""
        if H[0] == "point":
            s, theta = H[1], H[2]
            u = float(mode(s))
            if mode.m == 0:
                return [u]
            return [u * np.exp(1j * mode.m * theta),
                    u * np.exp(-1j * mode.m * theta)]
        if H[0] == "circle":
            s0 = H[1]
            if mode.m == 0:
                return [2.0 * math.pi * float(profile.alpha(s0))
                        * float(mode(s0))]
            return [0.0, 0.0]
        raise DomainError(f"unknown submanifold descriptor {H[0]!r}")

    lam_list, prod_list = [], []
    for (m, k), mode in spec.basis.modes.items():
        a1 = amplitudes(H1, mode)
        a2 = amplitudes(H2, mode)
        contrib = sum(p * np.conj(q) for p, q in zip(a1, a2))
        lam_list.append(mode.lam)
        prod_list.append(contrib.real if np.iscomplexobj(contrib)
                         else float(contrib))
    order = np.argsort(lam_list)
    lam_arr = np.asarray(lam_list, dtype=float)[order]
    prod_arr = np.asarray(prod_list, dtype=float)[order]
    csum = np.concatenate([[0.0], np.cumsum(prod_arr)])
    values = csum[np.searchsorted(lam_arr, lambdas, side="right")]

    if kernel is None:
        kernel = build_smoothing_kernel(t0)
    helper = Spectrum(lam_arr.copy(), np.ones(len(lam_arr), dtype=int),
                      spec.lambda_max, spec.dim, spec.volume, "kuznecov")
    smoothed = smoothed_series(helper, lambdas, kernel, weights=prod_arr,
                               tail_tol=tail_tol)
    return KuznecovSeries(tuple(H1), tuple(H2), lambdas, values, smoothed,
                          values - smoothed, t0,
                          truncation_bound(helper, float(lambdas.max()),
                                           kernel, weights=np.abs(prod_arr)))


# ---------------------------------------------------------------------------
# Remainder fitting


@dataclass
class RemainderFit:
    model: str
    constant: float
    gamma: Optional[float]
    window: tuple
    trend: float
    residual: float = 0.0


def _model_values(model: str, lam: np.ndarray, dim: int) -> np.ndarray:
    if model == "standard":            # lam^{n-1}
        return lam ** (dim - 1)
    if model == "log":                 # lam^{n-1} / log lam
        return lam ** (dim - 1) / np.log(lam)
    raise DomainError(f"unknown remainder model {model!r}")


def fit_remainder(series: CountingSeries, model: str,
                  window: tuple[float, float],
                  n_windows: int = 16) -> RemainderFit:
    """Sup-constant (fixed models) or envelope exponent (power model).

    The trend is the ratio of the sup-constants over the upper and lower
    logarithmic halves of the window; a ratio near 1 means the model
    captures the growth with no drift.
    """
    lo, hi = window
    if lo < 10:
        raise DomainError("window must start at lam >= 10")
    m = (series.lambdas >= lo) & (series.lambdas <= hi)
    lam = series.lambdas[m]
    E = np.abs(series.E[m])
    if len(lam) < 8:
        raise DomainError("window contains too few grid points")

    if model in ("standard", "log"):
        ratios = E / _model_values(model, lam, series.dim)
        const = float(np.max(ratios))
        mid = math.sqrt(lo * hi)
        lower = float(np.max(ratios[lam <= mid]))
        upper = float(np.max(ratios[lam > mid])) if np.any(lam > mid) else lower
        return RemainderFit(model, const, None, window,
                            trend=upper / lower)

    if model == "power":
        edges = np.geomspace(lo, hi, n_windows + 1)
        env_lam, env_val = [], []
        for i in range(n_windows):
            mm = (lam >= edges[i]) & (lam <= edges[i + 1])
            if np.any(mm) and np.max(E[mm]) > 0:
                env_lam.append(math.sqrt(edges[i] * edges[i + 1]))
                env_val.append(np.max(E[mm]))
        env_lam = np.log(env_lam)
        env_val = np.log(env_val)
        A = np.vstack([env_lam, np.ones_like(env_lam)]).T
        coef, res, *_ = np.linalg.lstsq(A, env_val, rcond=None)
        gamma = float(coef[0])
        const = float(np.exp(coef[1]))
        half = len(env_lam) // 2
        t_lo = np.max(env_val[:half] - gamma * env_lam[:half])
        t_hi = np.max(env_val[half:] - gamma * env_lam[half:])
        return RemainderFit(model, const, gamma, window,
                            trend=float(np.exp(t_hi - t_lo)),
                            residual=float(res[0]) if len(res) else 0.0)

    raise DomainError(f"unknown remainder model {model!r}")
