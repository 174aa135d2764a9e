"""Counting functions, projector kernels, smoothed comparisons, Kuznecov sums.

Conventions: frequencies lambda (square roots of Laplace eigenvalues), the
half-open counting N(lam) = #{lambda_j <= lam}, and the main term
(2 pi)^-n vol(B^n) vol_g lam^n.  The semiclassical parameter is calibrated
as h = 1/lambda, so smoothing the lambda axis with rho_sigma corresponds to
a propagation horizon sigma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import eval_legendre, jv

from .errors import DomainError, IncompleteSpectrum
from .manifolds import ModelManifold, band_area, check_points, lattice_box
from .quadrature import cumulative_simpson
from .spectra import Spectrum, level_cut


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
    """Evaluation grid resolving every jump: eigenvalues and pre-jump points.
    DomainError unless lo < hi and hi > 0."""
    if not (lo < hi and hi > 0):
        raise DomainError(f"window [{lo}, {hi}] is empty or not positive")
    base = np.geomspace(max(lo, 1e-6), hi, n_base)
    jumps = spec.lambdas[(spec.lambdas >= lo) & (spec.lambdas <= hi)]
    pre = np.nextafter(jumps, -np.inf)
    grid = np.unique(np.concatenate([base, jumps, pre]))
    return grid[(grid >= lo) & (grid <= hi)]


def counting(spec: Spectrum, lambdas) -> CountingSeries:
    lambdas = np.asarray(lambdas, dtype=float)
    spec.require(lambdas)
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
    spec.require(lambdas)
    s0, s1 = band
    basis = spec.basis
    vol_w = band_area(basis.profile, s0, s1)
    copies = np.where(basis.m == 0, 1, 2)
    weights = np.bincount(basis.entry, copies * basis.band_weights(s0, s1),
                          minlength=len(spec.lambdas))
    csum = np.concatenate([[0.0], np.cumsum(weights)])
    idx = np.searchsorted(spec.lambdas, lambdas, side="right")
    NW = csum[idx]
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


def projector_kernels(manifold: ModelManifold, x, y, lams,
                      spec: Optional[Spectrum] = None) -> list:
    """Pi_lam(x, y) and its flat comparison integral at each lam of
    ``lams``, in order.

    Points are chart tuples: (s, theta) on spheres and surfaces of
    revolution, Cartesian coordinates on flat tori.  The chart, and the
    injectivity scale below which the comparison is defined, are checked
    once per pair.  On a surface of revolution the pair's terms u_i(s1)
    u_i(s2) times the angular factor come from one Clenshaw pass of
    ``spec``'s eigenbasis; each lam selects the rows with lambda_i <= lam.
    """
    check_points(manifold, x, y)
    if manifold.kind == "round_sphere" and manifold.n == 2:
        r = _sphere_distance(x, y)
        if r >= math.pi - 1e-12:
            raise DomainError("antipodal pair: comparison chart invalid")

        def value(lam):
            L = int(math.floor(0.5 * (math.sqrt(1 + 4 * lam ** 2) - 1)
                               + 1e-12))
            ls = np.arange(L + 1)
            return float(np.sum((2 * ls + 1) * eval_legendre(ls, math.cos(r)))
                         / (4 * math.pi))
    elif manifold.kind == "flat_torus":
        periods = manifold.periods
        r = _torus_distance(periods, x, y)
        if r >= min(periods) / 2.0:
            raise DomainError("pair beyond the torus injectivity radius")

        def value(lam):
            grids = lattice_box([lam * L / (2 * math.pi) for L in periods])
            lam2 = phase = 0.0
            for g, L, xi, yi in zip(grids, periods, x, y):
                kstar = 2 * math.pi * g / L
                lam2 = lam2 + kstar ** 2
                phase = phase + kstar * (xi - yi)
            inside = lam2 <= level_cut(lam)
            return float(np.sum(np.cos(phase[inside]))) / manifold.volume
    elif manifold.kind == "surface_of_revolution":
        if spec is None or spec.basis is None:
            raise IncompleteSpectrum("revolution kernel needs a surface "
                                     "spectrum with eigenfunctions")
        (s1, t1), (s2, t2) = x, y
        if abs(s1 - s2) < 1e-12 and abs(t1 - t2) < 1e-12:
            r = 0.0
        elif abs((t1 - t2) % (2 * math.pi)) < 1e-12:
            r = abs(s1 - s2)           # same meridian
        else:
            raise DomainError("comparison on revolution surfaces supports "
                              "coincident points or same-meridian pairs")
        spec.require(lams)
        basis = spec.basis
        u1, u2 = basis.values([s1, s2]).T
        # the pair +-m carries 2 cos(m (t1 - t2)), and m = 0 carries 1
        terms = u1 * u2 * np.where(basis.m > 0,
                                   2.0 * np.cos(basis.m * (t1 - t2)), 1.0)

        def value(lam):
            return float(np.sum(terms[basis.lam <= lam]))
    else:
        raise DomainError(f"no kernel for manifold kind {manifold.kind!r}")
    out = []
    for lam in lams:
        val = value(lam)
        comp = euclidean_comparison(lam, r, manifold.dim)
        out.append(KernelValue(tuple(x), tuple(y), lam, val, comp,
                               val - comp))
    return out


# ---------------------------------------------------------------------------
# Smoothing kernel


@functools.cache
def _gauss_rule(n: int):
    """The n-node Gauss-Legendre nodes and weights on [-1, 1], cached."""
    return np.polynomial.legendre.leggauss(n)


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

    gx, gw = _gauss_rule(200)
    mass = width * float(np.sum(gw * raw(width * gx)))
    return lambda x: raw(x) / mass


_RHO_CHUNK = 2048          # nodes of one cosine block


@functools.cache
def _rho_gauss():
    """The width-0.25 bump and the folded 200-node rule for psi_hat.

    The rule and the bump are both even, so each +/- pair of nodes is
    folded into one cosine: 100 non-negative nodes carrying the summed
    weights.  Returns (bump, nodes, weights).
    """
    gx, gw = _gauss_rule(200)
    bump = _bump_unit(0.25)
    bw = 0.25 * gw * bump(0.25 * gx)
    h = len(gx) // 2
    return bump, 0.25 * gx[h:], bw[h:] + bw[:h][::-1]


def _sinc(s):
    """sin(1.5 s)/(pi s) for s >= 0, the plateau's indicator transform."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s > 0, np.sin(1.5 * s) / (math.pi * s),
                        1.5 / math.pi)


def rho_exact(s):
    """Analytic time-side kernel rho(s) = sin(1.5 s)/(pi s) psi_hat(s).

    psi_hat is the Fourier transform of the width-0.5 mollifier, evaluated
    by fixed Gauss quadrature with one cosine per point and node; no tables
    involved.  This is the independent oracle: the kernel table of
    :func:`build_smoothing_kernel` takes another evaluation path, and
    :func:`smoothed_series_direct` integrates with this one.
    """
    _, bx, bw = _rho_gauss()
    s = np.abs(np.asarray(s, dtype=float))
    flat = s.ravel()
    out = np.empty_like(flat)
    for start in range(0, len(flat), _RHO_CHUNK):
        sl = flat[start:start + _RHO_CHUNK]
        out[start:start + _RHO_CHUNK] = (_sinc(sl)
                                         * (np.cos(np.outer(sl, bx)) @ bw))
    return out.reshape(s.shape)


def _rho_table(s: np.ndarray, ds: float) -> np.ndarray:
    """rho at the nodes s_k = k ds, from blocked exponentials.

    With k = k0 + r, cos(k ds x) = cos(k0 ds x) cos(r ds x) - sin(k0 ds x)
    sin(r ds x): the r-factors, one (100 x _RHO_CHUNK) pair, serve every
    block, and each block start k0 contributes one row of weighted
    cosines and sines, so psi_hat of the whole table is two matrix
    products and no per-node cosine.
    """
    _, bx, bw = _rho_gauss()
    theta = ds * bx
    starts = np.arange(0, len(s), _RHO_CHUNK, dtype=float)
    phase = np.outer(starts, theta)
    step = np.outer(theta, np.arange(_RHO_CHUNK, dtype=float))
    psi_hat = (bw * np.cos(phase)) @ np.cos(step)
    psi_hat -= (bw * np.sin(phase)) @ np.sin(step)
    return _sinc(s) * psi_hat.ravel()[:len(s)]


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
    bend_table: np.ndarray = field(repr=False)     # 0.5 ds diff(rho)
    tail_tol: float = 1e-9

    def P(self, x):
        """Antiderivative int_{-inf}^x rho; P(-x) = 1 - P(x).

        Read from the tables of :func:`build_smoothing_kernel`, not from
        :func:`rho_exact`: in the cell [s_i, s_i + ds], at u = (|x| -
        s_i)/ds, rho is linear and its integral from s_i is the quadratic
        (bend_i u + ds rho_i) u, with bend_i = 0.5 ds (rho_{i+1} - rho_i).
        This trapezoid correction keeps the evaluation error at the
        cubic-in-spacing scale.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        ds = self.s_table[1] - self.s_table[0]
        u = np.abs(flat)
        np.minimum(u, self.s_table[-1], out=u)
        u /= ds
        idx = u.astype(np.intp)
        np.minimum(idx, len(self.s_table) - 2, out=idx)
        u -= idx
        tail = self.bend_table[idx]
        tail *= u
        lin = self.rho_table[idx]
        lin *= ds
        tail += lin
        tail *= u
        tail += self.P_table[idx]
        np.subtract(1.0, tail, out=tail, where=flat < 0)
        return tail.reshape(x.shape)

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


# the kernel tables' nodes: s_k = k _KERNEL_DS on [0, _KERNEL_S_MAX]
_KERNEL_S_MAX = 420.0
_KERNEL_DS = 0.002


@functools.cache
def _kernel_tables():
    """The tables every scale shares: (s, rho, P, bend, tail_tol).

    rho from :func:`_rho_table` (:func:`rho_exact` is its oracle); P(s_k) =
    1 - int_{s_k}^{s_max} rho by cumulative Simpson from the far end; the
    bends 0.5 ds diff(rho) for :meth:`SmoothingKernel.P`; ``tail_tol``, the
    reachable step tolerance, is twice |1 - P| at s_max, at least 1e-9.
    """
    ds = _KERNEL_DS
    s = np.arange(0.0, _KERNEL_S_MAX + ds, ds)
    rho = _rho_table(s, ds)
    P = 1.0 - cumulative_simpson(rho[::-1], -s[::-1])[::-1]
    bend = 0.5 * ds * np.diff(rho)
    # achievable step-function tolerance: the P deviation still present at
    # the end of the table bounds everything beyond it
    return s, rho, P, bend, max(1e-9, 2.0 * float(np.abs(1.0 - P)[-1]))


def build_smoothing_kernel(scale: float) -> SmoothingKernel:
    """rho_sigma for sigma = scale, on the tables of :func:`_kernel_tables`,
    which every scale shares: only ``sigma`` differs."""
    if scale <= 0:
        raise DomainError("smoothing scale must be positive")
    s, rho, P, bend, tol = _kernel_tables()
    return SmoothingKernel(scale, s, rho, P, bend, tail_tol=tol)


_SMOOTH_BLOCK = 1 << 16    # elements of one P or spreading block

# Spreading the levels onto the nodes mu_k = k h, h = _SPREAD_STEP / sigma,
# each level onto the _SPREAD_POINTS nearest nodes with its Lagrange
# weights.  For one grid point lam, f(mu) = P(sigma (lam - mu)) has
# |f^(12)| = sigma^12 |rho^(11)|, and as rho_hat <= 1 vanishes outside
# [-1.75, 1.75], |rho^(11)| <= (2 pi)^-1 int |xi|^11 dxi = 1.75^12 / (12 pi)
# = 21.9.  With the level in the stencil's central cell, Lagrange's
# remainder is at most max |omega| h^12 |f^(12)| / 12!, where omega(t) =
# prod_{i=0}^{11} (t - i) peaks on [5, 6] at t = 5.5 with |omega| = 26,380:
# 26,380 (sigma h)^12 21.9 / 12! = 1.2e-15 per unit weight at sigma h = 0.1.
_SPREAD_POINTS = 12
_SPREAD_STEP = 0.1
_SPREAD_LEFT = _SPREAD_POINTS // 2 - 1     # stencil nodes left of the cell
# barycentric weights of equispaced nodes, (-1)^i binom(11, i)
_BARY = np.array([(-1.0) ** i * math.comb(_SPREAD_POINTS - 1, i)
                  for i in range(_SPREAD_POINTS)])


def _spread(lambdas: np.ndarray, weights: np.ndarray, h: float):
    """Weights W_k on the nodes mu_k = k h that carry the levels' weights.

    Each level lambda_j = (k_j + t) h, with k_j = floor(lambda_j / h) -
    ``_SPREAD_LEFT`` and t in [5, 6), gives w_j l_i(t) to node k_j + i,
    with l_i the Lagrange basis of the nodes 0..11 in barycentric form;
    so sum_k W_k p(mu_k) = sum_j w_j p(lambda_j) for every polynomial p
    of degree below ``_SPREAD_POINTS``.  Blocks of ``_SMOOTH_BLOCK``
    stencil entries go through ``np.bincount``.  Returns (mu, W).
    """
    x = lambdas / h
    first = np.floor(x).astype(np.intp) - _SPREAD_LEFT
    k_lo = int(first.min())
    n = int(first.max()) - k_lo + _SPREAD_POINTS
    offsets = np.arange(_SPREAD_POINTS)
    W = np.zeros(n)
    step = _SMOOTH_BLOCK // _SPREAD_POINTS
    for j0 in range(0, len(x), step):
        k = first[j0:j0 + step]
        t = x[j0:j0 + step] - k
        # a level on a node (t = 5) takes that node's weight alone; its
        # row is computed off the node and overwritten
        on_node = t == _SPREAD_LEFT
        t[on_node] += 0.5
        q = _BARY / (t[:, None] - offsets)
        q *= (weights[j0:j0 + step] / q.sum(axis=1))[:, None]
        q[on_node] = 0.0
        q[on_node, _SPREAD_LEFT] = weights[j0:j0 + step][on_node]
        W += np.bincount(((k - k_lo)[:, None] + offsets).ravel(), q.ravel(),
                         minlength=n)
    return (k_lo + np.arange(n)) * h, W


def _sources(lambdas: np.ndarray, weights: np.ndarray, sigma: float):
    """The point masses that :func:`smoothed_series` sums P over.

    The spread nodes of :func:`_spread` where there are fewer of them
    than levels, else the levels themselves.  Returns (positions, weights).
    """
    h = _SPREAD_STEP / sigma
    nodes = (math.floor(float(lambdas.max()) / h)
             - math.floor(float(lambdas.min()) / h) + _SPREAD_POINTS)
    if nodes < len(lambdas):
        return _spread(lambdas, weights, h)
    return lambdas, weights


def smoothed_series(spec: Spectrum, lambdas, kernel: SmoothingKernel,
                    weights: Optional[np.ndarray] = None,
                    tail_tol: Optional[float] = None) -> np.ndarray:
    """(rho_sigma * series)(lam) = sum_j w_j P(sigma (lam - lambda_j)).

    The spectrum must extend beyond the grid by the kernel tail length at
    the requested step tolerance; otherwise :class:`IncompleteSpectrum`
    reports the required enlargement.  Contributions of eigenvalues above
    the cutoff are bounded by :func:`truncation_bound`.

    The sum runs over the sources of :func:`_sources`.  Where the nodes
    mu_k = k h, h = 0.1 / sigma, spanning the spectrum are fewer than its
    levels, each level's weight is first spread onto its 12 nearest nodes
    with its Lagrange weights, and the sum is sum_k W_k P(sigma (lam -
    mu_k)); P varies on the scale 1 / sigma, and the interpolation error
    is at most 1.2e-15 per unit weight (derived at ``_SPREAD_POINTS``),
    below the table's own evaluation error.  Otherwise the levels are the
    sources.  The grid x sources matrix of P is never formed: it is
    evaluated in blocks of at most ``_SMOOTH_BLOCK`` (2^16) elements,
    about 0.5 MB each, so memory stays bounded and each block stays in
    cache.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    tol = kernel.tail_tol if tail_tol is None else tail_tol
    margin = kernel.tail_cut_for(tol) / kernel.sigma
    spec.require(float(lambdas.max()) + margin, f" (grid max + tail "
                 f"{margin:.3f} at step tolerance {tol:.1e})")
    if weights is None:
        weights = spec.mults.astype(float)
    mu, W = _sources(spec.lambdas, weights, kernel.sigma)
    out = np.zeros_like(lambdas)
    rows = min(len(lambdas), _SMOOTH_BLOCK)
    cols = _SMOOTH_BLOCK // rows
    for r0 in range(0, len(lambdas), rows):
        lam = lambdas[r0:r0 + rows, None]
        for c0 in range(0, len(mu), cols):
            out[r0:r0 + rows] += (
                kernel.P(kernel.sigma * (lam - mu[None, c0:c0 + cols]))
                @ W[c0:c0 + cols])
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


_CIRCLE_NODES = 512        # angular nodes of circle_integral_quadrature


def circle_integral_quadrature(basis, s0: float) -> np.ndarray:
    """Latitude-circle integrals of u e^{i m theta}, one per basis row.

    Exercises the angular integration path; analytically 2 pi alpha(s0)
    u(s0) for m = 0 and 0 otherwise.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, _CIRCLE_NODES, endpoint=False)
    vals = basis.values(s0)[:, None] * np.exp(1j * basis.m[:, None] * theta)
    return (np.sum(vals, axis=1) * (2 * math.pi / _CIRCLE_NODES)
            * float(basis.profile.alpha(s0)))


def _period_integrals(basis, H) -> np.ndarray:
    """Period integrals over H of each row's two eigenfunctions, +m and -m.

    Shape (rows, 2), complex; an m = 0 row has one eigenfunction, so its
    -m column is 0.
    """
    zero = basis.m == 0
    if H[0] == "point":
        phase = np.exp(1j * np.outer(basis.m, [H[2], -H[2]]))
        amp = basis.values(H[1])[:, None] * phase
        amp[zero, 1] = 0.0
    elif H[0] == "circle":
        amp = np.zeros((len(basis), 2), dtype=complex)
        amp[zero, 0] = (2.0 * math.pi * float(basis.profile.alpha(H[1]))
                        * basis.values(H[1])[zero])
    else:
        raise DomainError(f"unknown submanifold descriptor {H[0]!r}")
    return amp


def kuznecov(spec: Spectrum, H1, H2, lambdas, t0: float = 1.0,
             tail_tol: float = 1e-4) -> KuznecovSeries:
    """Cumulative sums of period-integral products over two submanifolds.

    Descriptors: ``("point", s, theta)`` or ``("circle", s0)``.  For
    latitude circles only m = 0 modes contribute (the angular integral of
    e^{i m theta} vanishes otherwise); for points every mode contributes
    with both signs of m.  Each mode adds sum p conj(q) over its
    eigenfunctions, with p and q its period integrals over H1 and H2.

    The smoothed comparison carries the truncation bound of the spectrum's
    finite cutoff in ``trunc_bound``; radial-solver spectra are short, so
    the default step tolerance is looser than for closed forms.
    """
    if spec.basis is None:
        raise IncompleteSpectrum("Kuznecov sums need the eigenfunction store")
    lambdas = np.asarray(lambdas, dtype=float)
    basis = spec.basis
    prods = np.sum(_period_integrals(basis, H1)
                   * np.conj(_period_integrals(basis, H2)), axis=1).real
    # the rows ascend in lambda, so their running sum is the series
    csum = np.concatenate([[0.0], np.cumsum(prods)])
    values = csum[np.searchsorted(basis.lam, lambdas, side="right")]

    kernel = build_smoothing_kernel(t0)
    helper = Spectrum(basis.lam, np.ones(len(basis), dtype=int),
                      spec.lambda_max, spec.dim, spec.volume, "kuznecov")
    smoothed = smoothed_series(helper, lambdas, kernel, weights=prods,
                               tail_tol=tail_tol)
    return KuznecovSeries(tuple(H1), tuple(H2), lambdas, values, smoothed,
                          values - smoothed, t0,
                          truncation_bound(helper, float(lambdas.max()),
                                           kernel, weights=np.abs(prods)))


# ---------------------------------------------------------------------------
# Remainder fitting


@dataclass
class RemainderFit:
    model: str
    constant: float
    gamma: Optional[float]
    window: tuple
    trend: float


def _model_values(model: str, lam: np.ndarray, dim: int) -> np.ndarray:
    if model == "standard":            # lam^{n-1}
        return lam ** (dim - 1)
    if model == "log":                 # lam^{n-1} / log lam
        return lam ** (dim - 1) / np.log(lam)
    raise DomainError(f"unknown remainder model {model!r}")


_POWER_WINDOWS = 16        # logarithmic sub-windows of the power envelope


def fit_remainder(series: CountingSeries, model: str,
                  window: tuple[float, float]) -> RemainderFit:
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
        edges = np.geomspace(lo, hi, _POWER_WINDOWS + 1)
        env_lam, env_val = [], []
        for i in range(_POWER_WINDOWS):
            mm = (lam >= edges[i]) & (lam <= edges[i + 1])
            if np.any(mm) and np.max(E[mm]) > 0:
                env_lam.append(math.sqrt(edges[i] * edges[i + 1]))
                env_val.append(np.max(E[mm]))
        env_lam = np.log(env_lam)
        env_val = np.log(env_val)
        A = np.vstack([env_lam, np.ones_like(env_lam)]).T
        coef = np.linalg.lstsq(A, env_val, rcond=None)[0]
        gamma = float(coef[0])
        const = float(np.exp(coef[1]))
        half = len(env_lam) // 2
        t_lo = np.max(env_val[:half] - gamma * env_lam[:half])
        t_hi = np.max(env_val[half:] - gamma * env_lam[half:])
        return RemainderFit(model, const, gamma, window,
                            trend=float(np.exp(t_hi - t_lo)))

    raise DomainError(f"unknown remainder model {model!r}")
