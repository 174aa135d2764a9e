"""Laplace spectra: closed forms, product merge, and separable radial solver.

Surfaces of revolution separate into radial problems per angular mode m:

    -(alpha u')'/alpha + (m^2/alpha^2) u = lambda^2 u,

with boundedness at the poles.  A generalized Pruefer angle, integrated by
RK4 from both poles to the profile maximum in one stacked loop, gives the
matching angle F(lambda^2), which increases with lambda^2 and passes n pi
exactly at the eigenvalues of mode m.  The solver works in two steps:

* a winding table: F for every mode at about ceil(lambda_max) + 1 nodes
  uniform in lambda, in one batched pass.  The integer winding of each row
  counts the mode's eigenvalues below the top node, so completeness below
  the cutoff is certified by integer arithmetic, and the table interval
  holding each crossing is that eigenvalue's bracket;
* Illinois iteration (regula falsi with halving of a retained end), run on
  all brackets at once until each is narrower than the requested lambda^2
  tolerance, then a secant step through the true end values.

The cutoff keeps an eigenvalue whose refined lambda^2 lies within the
relative slack ``_CUTOFF_RTOL`` of lambda_max^2, so a cutoff that is itself
an eigenvalue keeps its whole multiplet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, IncompleteInput, SolverFailure
from .manifolds import (HALF_PI, ModelManifold, ProfileCurve, lattice_box,
                        manifold_volume, sphere_volume)

_GROUP_TOL = 1e-8          # relative clustering of merged frequencies
# Relative lambda^2 slack of the radial solver's cutoff: far above its
# discretisation error (~3e-9 relative) and far below the relative level
# spacing (~2 / lambda_max, 3e-2 at lambda_max 60).
_CUTOFF_RTOL = 1e-6
# Rounding noise allowed in a winding-table row before it counts as a
# decrease of F (radians).
_MONOTONE_SLACK = 1e-9
# Illinois steps before the radial solver gives up; a converging run takes
# about ten.
_ILLINOIS_MAX_STEPS = 100
# Batch size times steps per chunk of precomputed Pruefer coefficients:
# each coefficient array of a chunk then takes about 256 kB, which keeps
# the transient small without adding measurable per-chunk overhead.
_CHUNK_ELEMS = 1 << 14
_CHEB_N = 2048


# ---------------------------------------------------------------------------
# Spectrum container


@dataclass
class Spectrum:
    """Sorted frequency/multiplicity list, complete below ``lambda_max``."""

    lambdas: np.ndarray
    mults: np.ndarray
    lambda_max: float
    dim: int
    volume: float
    label: str
    mode_tags: Optional[list] = None        # per entry: list of (m, k)
    basis: Optional["SurfaceEigenbasis"] = None

    def __post_init__(self):
        order = np.argsort(self.lambdas)
        self.lambdas = np.asarray(self.lambdas, dtype=float)[order]
        self.mults = np.asarray(self.mults, dtype=int)[order]
        if self.mode_tags is not None:
            self.mode_tags = [self.mode_tags[i] for i in order]
        if len(self.lambdas):
            if self.lambdas[0] < -1e-12:
                raise DomainError("negative frequency in spectrum")

    def count(self, lam) -> np.ndarray:
        """N(lam) with the half-open convention lambda_j <= lam."""
        lam = np.asarray(lam, dtype=float)
        idx = np.searchsorted(self.lambdas, lam, side="right")
        csum = np.concatenate([[0], np.cumsum(self.mults)])
        return csum[idx]

    @property
    def total(self) -> int:
        return int(np.sum(self.mults))


def _group(lams: np.ndarray, mults: np.ndarray, tags=None):
    """Merge entries whose frequencies agree to _GROUP_TOL (relative)."""
    order = np.argsort(lams)
    lams, mults = lams[order], mults[order]
    if tags is not None:
        tags = [tags[i] for i in order]
    out_l, out_m, out_t = [], [], []
    for i, lam in enumerate(lams):
        if out_l and abs(lam - out_l[-1]) <= _GROUP_TOL * (1.0 + lam):
            out_m[-1] += mults[i]
            if tags is not None:
                out_t[-1].extend(tags[i])
        else:
            out_l.append(lam)
            out_m.append(int(mults[i]))
            if tags is not None:
                out_t.append(list(tags[i]))
    return (np.array(out_l), np.array(out_m, dtype=int),
            out_t if tags is not None else None)


# ---------------------------------------------------------------------------
# Closed forms


def sphere_spectrum(n: int, lambda_max: float) -> Spectrum:
    """Round unit n-sphere: frequencies sqrt(k(k+n-1))."""
    if n < 1:
        raise DomainError("sphere dimension must be >= 1")
    lams, mults = [], []
    k = 0
    while True:
        lam2 = k * (k + n - 1)
        if lam2 > lambda_max ** 2 * (1 + 1e-14):
            break
        if n == 1:
            mult = 1 if k == 0 else 2
        else:
            mult = (math.comb(k + n, n) - math.comb(k + n - 2, n)
                    if k >= 2 else (1 if k == 0 else n + 1))
        lams.append(math.sqrt(lam2))
        mults.append(mult)
        k += 1
    return Spectrum(np.array(lams), np.array(mults), lambda_max, n,
                    sphere_volume(n), f"S^{n}")


def torus_spectrum(periods, lambda_max: float) -> Spectrum:
    """Flat torus R^d / (L_1 Z x ... x L_d Z): dual-lattice norms."""
    periods = tuple(float(p) for p in periods)
    if any(p <= 0 for p in periods):
        raise DomainError("periods must be positive")
    grids = lattice_box([lambda_max * L / (2 * math.pi) for L in periods])
    lam2 = sum((2 * math.pi * g / L) ** 2 for g, L in zip(grids, periods))
    lam2 = lam2.ravel()
    lam2 = lam2[lam2 <= lambda_max ** 2 * (1 + 1e-14)]
    vals, counts = np.unique(np.round(lam2, 9), return_counts=True)
    return Spectrum(np.sqrt(vals), counts, lambda_max, len(periods),
                    math.prod(periods), f"torus{periods}")


def product_spectrum(s1: Spectrum, s2: Spectrum,
                     lambda_max: float) -> Spectrum:
    """Frequencies sqrt(l1^2 + l2^2), multiplicities multiplied."""
    for s in (s1, s2):
        if s.lambda_max < lambda_max - 1e-12:
            raise IncompleteInput(
                f"factor {s.label} truncated at {s.lambda_max} < {lambda_max}")
    l2a = s1.lambdas[s1.lambdas <= lambda_max] ** 2
    m_a = s1.mults[s1.lambdas <= lambda_max]
    l2b = s2.lambdas[s2.lambdas <= lambda_max] ** 2
    m_b = s2.mults[s2.lambdas <= lambda_max]
    sums = l2a[:, None] + l2b[None, :]
    mults = m_a[:, None] * m_b[None, :]
    keep = sums <= lambda_max ** 2 * (1 + 1e-14)
    lams = np.sqrt(sums[keep])
    lams, mults, _ = _group(lams, mults[keep])
    return Spectrum(lams, mults, lambda_max, s1.dim + s2.dim,
                    s1.volume * s2.volume, f"{s1.label} x {s2.label}")


# ---------------------------------------------------------------------------
# Chebyshev storage for radial eigenfunctions


def _cheb_nodes(n: int) -> np.ndarray:
    """Chebyshev extrema on [-pi/2, pi/2], ascending."""
    return -HALF_PI * np.cos(np.pi * np.arange(n) / (n - 1))


def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the extrema grid (ascending x).

    Supports batched rows: vals shape (..., n).
    """
    n = vals.shape[-1]
    v = vals[..., ::-1]                 # descending x for the DCT convention
    ext = np.concatenate([v, v[..., -2:0:-1]], axis=-1)
    c = np.fft.rfft(ext, axis=-1).real / (n - 1)
    c[..., 0] *= 0.5
    c[..., -1] *= 0.5
    return c[..., :n]


@dataclass
class ModeEigenfunction:
    """Radial factor u_{m,k}(s) of an eigenfunction u(s) e^{i m theta}.

    Normalized so the full complex eigenfunction has unit L^2 norm:
    2 pi int u^2 alpha ds = 1 (each of +-m carries its own copy; real
    cosine/sine pairs are linear combinations with the same normalization).
    """

    m: int
    k: int
    lam: float
    coeffs: np.ndarray = field(repr=False)         # Chebyshev of u
    weight_coeffs: np.ndarray = field(repr=False)  # antiderivative of 2pi u^2 alpha

    def __call__(self, s):
        return np.polynomial.chebyshev.chebval(
            np.asarray(s, dtype=float) / HALF_PI, self.coeffs)

    def band_weight(self, s0: float, s1: float) -> float:
        """2 pi int_{s0}^{s1} u^2 alpha ds (the localized mass)."""
        return float(band_weights([self], s0, s1)[0])


def band_weights(modes, s0: float, s1: float) -> np.ndarray:
    """``band_weight(s0, s1)`` of every mode in ``modes``, in one product.

    The stacked antiderivative coefficients meet one Chebyshev Vandermonde
    matrix at the two band edges.
    """
    coeffs = np.stack([mode.weight_coeffs for mode in modes])
    vander = np.polynomial.chebyshev.chebvander(
        np.array([s0, s1]) / HALF_PI, coeffs.shape[1] - 1)
    ends = coeffs @ vander.T
    return ends[:, 1] - ends[:, 0]


class SurfaceEigenbasis:
    """Store of radial eigenfunctions keyed by (m, k), m >= 0."""

    def __init__(self, profile: ProfileCurve):
        self.profile = profile
        self.modes: dict[tuple[int, int], ModeEigenfunction] = {}

    def add(self, mode: ModeEigenfunction):
        self.modes[(mode.m, mode.k)] = mode

    def __getitem__(self, key):
        return self.modes[key]

    def __len__(self):
        return len(self.modes)


# ---------------------------------------------------------------------------
# Radial solver


def _bessel_logderiv(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d/dx log J_m(x) for small x, by the three-term power series."""
    y = 0.25 * x * x
    S = 1.0 - y / (m + 1) + y * y / (2.0 * (m + 1) * (m + 2))
    dS = -1.0 / (m + 1) + y / ((m + 1) * (m + 2))
    return m / x + 0.5 * x * dS / S


class _RadialGrid:
    """Graded integration grid shared by a whole eigenvalue batch.

    Bulk spacing resolves the fastest Pruefer winding (~lambda_max); near
    the poles the spacing shrinks like alpha/(m_max+1), which keeps the
    boundary-layer attraction stable for explicit RK4.  The grid runs from
    the pole up to ``hi``, the maximum of alpha, so alpha grows along it:
    the pole layer is walked point by point, and the first step at the
    bulk spacing starts a bulk of equal steps, summed in order as the walk
    would, with the last one clamped at ``hi``.
    """

    def __init__(self, profile: ProfileCurve, lam_max: float, m_max: int,
                 hi: float, delta: float = 1e-4):
        lo = -HALF_PI + delta
        h_bulk = 0.08 / (2.0 * lam_max + 2.0)
        pts = [lo]
        s = lo
        while s < hi:
            h = 0.7 * float(profile.alpha(s)) / (m_max + 1.0)
            if h >= h_bulk:
                break
            s = min(s + h, hi)
            pts.append(s)
        bulk = np.cumsum(np.append(
            s, np.full(int(math.ceil((hi - s) / h_bulk)) + 2, h_bulk)))
        # the walk ends at the first point at or past hi
        n_bulk = int(np.argmax(bulk >= hi)) if s < hi else 0
        self.s = np.append(pts, np.minimum(bulk[1:n_bulk + 1], hi))
        mid = 0.5 * (self.s[:-1] + self.s[1:])
        self.h = np.diff(self.s)
        self.a0, self.da0 = profile.alpha_and_d_alpha(self.s[:-1])
        self.am, self.dam = profile.alpha_and_d_alpha(mid)
        self.a1, self.da1 = profile.alpha_and_d_alpha(self.s[1:])
        self.delta = delta


class _PairGrid:
    """The left and right half-grids stacked for one fused RK4 loop.

    Arrays have shape (steps or nodes, 2, 1): side 0 is the left grid,
    side 1 the right grid of the reflected profile.  The shorter side is
    padded with h = 0 steps (profile values repeated), which leave theta
    unchanged.
    """

    def __init__(self, grid_L: _RadialGrid, grid_R: _RadialGrid):
        n = max(len(grid_L.h), len(grid_R.h))

        def stack(parts, length, fill=None):
            return np.stack([np.concatenate(
                [v, np.full(length - len(v), v[-1] if fill is None else fill)])
                for v in parts], axis=1)[:, :, None]

        sides = (grid_L, grid_R)
        self.h = stack([g.h for g in sides], n, 0.0)
        self.a = stack([np.append(g.a0, g.a1[-1]) for g in sides], n + 1)
        self.da = stack([np.append(g.da0, g.da1[-1]) for g in sides], n + 1)
        self.am = stack([g.am for g in sides], n)
        self.dam = stack([g.dam for g in sides], n)
        self.delta = grid_L.delta


def _prufer_coeffs(a, da, m2, lam2):
    """theta' = p + q cos(2 theta) + r sin(2 theta) at profile values a, da.

    The Pruefer angle of u and alpha u' / kappa, kappa^2 = m^2 + lam^2 alpha^2,
    turns at kappa/alpha cos^2 + (lam^2 alpha - m^2/alpha)/kappa sin^2
    + lam^2 alpha alpha' / kappa^2 sin cos, written here in double angles.
    """
    kap2 = m2 + lam2 * a * a
    kap = np.sqrt(kap2)
    cos2 = kap / a
    sin2 = (lam2 * a - m2 / a) / kap
    return 0.5 * (cos2 + sin2), 0.5 * (cos2 - sin2), 0.5 * lam2 * a * da / kap2


def _matching_angle(grid: _PairGrid, m: np.ndarray,
                    lam2: np.ndarray) -> np.ndarray:
    """F(lambda^2) = theta_left + theta_right at the profile maximum.

    One RK4 loop integrates the Pruefer angle from both poles for every
    (m, lam2) pair; F is increasing in lam2 and crosses n pi exactly at the
    n-th eigenvalue of mode m above the floor winding.  The right-hand
    side's coefficients do not depend on theta, so they are computed for a
    chunk of steps at once, leaving a few operations per RK stage.
    """
    m = np.asarray(m, dtype=float)
    m2 = m * m
    lam2 = np.asarray(lam2, dtype=float)
    x = np.sqrt(lam2) * grid.delta
    r0 = grid.a[0] * np.sqrt(lam2) * _bessel_logderiv(m, x)
    kap0 = np.sqrt(m2 + lam2 * grid.a[0] ** 2)
    theta = np.arctan2(kap0, r0)
    n = len(grid.h)
    chunk = max(16, _CHUNK_ELEMS // max(1, lam2.size))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        pn, qn, rn = _prufer_coeffs(grid.a[start:stop + 1],
                                    grid.da[start:stop + 1], m2, lam2)
        pm, qm, rm = _prufer_coeffs(grid.am[start:stop],
                                    grid.dam[start:stop], m2, lam2)
        for i in range(stop - start):
            h = grid.h[start + i]
            # RK4 stage points in doubled angle: 2 (theta + h k / 2) = th2 + h k
            th2 = 2.0 * theta
            k1 = pn[i] + qn[i] * np.cos(th2) + rn[i] * np.sin(th2)
            t = th2 + h * k1
            k2 = pm[i] + qm[i] * np.cos(t) + rm[i] * np.sin(t)
            t = th2 + h * k2
            k3 = pm[i] + qm[i] * np.cos(t) + rm[i] * np.sin(t)
            t = th2 + (2.0 * h) * k3
            k4 = pn[i + 1] + qn[i + 1] * np.cos(t) + rn[i + 1] * np.sin(t)
            theta = theta + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return theta[0] + theta[1]


def _integrate_uw(grid: _RadialGrid, m: np.ndarray, lam2: np.ndarray):
    """Linear pass collecting the radial solution along the grid.

    Returns (U, logscale) with U[:, j] the renormalized solution at grid
    node j and logscale the accumulated log of the stripped factors, so the
    true solution is U * exp(logscale - logscale_ref) rowwise.
    """
    m = np.asarray(m, dtype=float)
    m2 = m * m
    n = len(grid.s)
    batch = len(lam2)
    U = np.empty((batch, n))
    LS = np.empty((batch, n))
    x = np.sqrt(lam2) * grid.delta
    u = np.ones(batch)
    w = float(grid.a0[0]) * np.sqrt(lam2) * _bessel_logderiv(m, x)
    logs = np.zeros(batch)
    U[:, 0], LS[:, 0] = u, logs

    def rhs(u, w, a, m2, lam2):
        return w / a, (m2 / a - lam2 * a) * u

    for i in range(len(grid.h)):
        h = grid.h[i]
        du1, dw1 = rhs(u, w, grid.a0[i], m2, lam2)
        du2, dw2 = rhs(u + 0.5 * h * du1, w + 0.5 * h * dw1, grid.am[i], m2, lam2)
        du3, dw3 = rhs(u + 0.5 * h * du2, w + 0.5 * h * dw2, grid.am[i], m2, lam2)
        du4, dw4 = rhs(u + h * du3, w + h * dw3, grid.a1[i], m2, lam2)
        u = u + (h / 6.0) * (du1 + 2 * du2 + 2 * du3 + du4)
        w = w + (h / 6.0) * (dw1 + 2 * dw2 + 2 * dw3 + dw4)
        scale = np.maximum(np.maximum(np.abs(u), np.abs(w)), 1e-30)
        u /= scale
        w /= scale
        logs = logs + np.log(scale)
        U[:, i + 1], LS[:, i + 1] = u, logs
    return U, LS, u, w, logs


def _winding_brackets(table: np.ndarray, nodes: np.ndarray, modes: list):
    """Targets and their brackets from a winding table.

    ``table[i, j]`` is F(nodes[j]) for mode ``modes[i]``.  Mode i owns the
    targets n pi for n from floor(F(nodes[0]) / pi) + 1 to
    floor(F(nodes[-1]) / pi); each gets the table interval that holds its
    crossing.  Returns (m, goal, lo, hi, f_lo, f_hi) per target, with f the
    table value minus the goal.
    """
    if np.any(np.diff(table, axis=1) < -_MONOTONE_SLACK):
        i = int(np.argmin(np.min(np.diff(table, axis=1), axis=1)))
        raise SolverFailure("winding table row is not monotone",
                            mode=modes[i], bracket=(nodes[0], nodes[-1]))
    n_lo = np.floor(table[:, 0] / math.pi + 1e-9).astype(int)
    n_hi = np.floor(table[:, -1] / math.pi).astype(int)
    rows = np.repeat(np.arange(len(modes)), np.maximum(n_hi - n_lo, 0))
    n = np.concatenate([np.arange(a + 1, b + 1) for a, b in zip(n_lo, n_hi)])
    goal = n * math.pi
    # first node at or past the goal; the straddle check catches clipping
    j = np.clip(np.sum(table[rows] < goal[:, None], axis=1), 1, len(nodes) - 1)
    return (np.asarray(modes, dtype=float)[rows], goal, nodes[j - 1],
            nodes[j], table[rows, j - 1] - goal, table[rows, j] - goal)


def _illinois(F, m, goal, lo, hi, f_lo, f_hi, tol: float) -> np.ndarray:
    """Roots of F(m, x) = goal in [lo, hi] by vectorized Illinois iteration.

    Regula falsi on every bracket at once; when one end is kept twice in a
    row its working value is halved (the Illinois rule), so both ends close
    in.  Each row iterates until its bracket is narrower than ``tol``, then
    the root is the secant point through the true (never halved) values at
    its two ends.
    """
    if np.any(f_lo >= 0) or np.any(f_hi < 0):
        bad = int(np.argmax((f_lo >= 0) | (f_hi < 0)))
        raise SolverFailure("bracket does not straddle its target",
                            mode=int(m[bad]), bracket=(lo[bad], hi[bad]))
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float)
                          for v in (lo, hi, f_lo, f_hi))
    g_lo, g_hi = f_lo.copy(), f_hi.copy()
    kept = np.zeros(len(lo), dtype=int)      # +1: lo kept last step, -1: hi
    for _ in range(_ILLINOIS_MAX_STEPS):
        act = np.flatnonzero(hi - lo > tol)
        if act.size == 0:
            break
        a, b, ga, gb = lo[act], hi[act], g_lo[act], g_hi[act]
        x = a - ga * (b - a) / (gb - ga)
        # a quarter tolerance off each end, so every step shrinks the bracket
        x = np.clip(x, a + 0.25 * tol, b - 0.25 * tol)
        fx = F(m[act], x) - goal[act]
        up = fx >= 0                          # x becomes the new hi
        g_lo[act] = np.where(up & (kept[act] == 1), 0.5 * ga, ga)
        g_hi[act] = np.where(~up & (kept[act] == -1), 0.5 * gb, gb)
        hi[act] = np.where(up, x, b)
        f_hi[act] = np.where(up, fx, f_hi[act])
        g_hi[act] = np.where(up, fx, g_hi[act])
        lo[act] = np.where(up, a, x)
        f_lo[act] = np.where(up, f_lo[act], fx)
        g_lo[act] = np.where(up, g_lo[act], fx)
        kept[act] = np.where(up, 1, -1)
    else:
        raise SolverFailure(f"Illinois iteration did not converge in "
                            f"{_ILLINOIS_MAX_STEPS} steps")
    return lo - f_lo * (hi - lo) / (f_hi - f_lo)


def surface_spectrum(profile: ProfileCurve, lambda_max: float,
                     m_max: Optional[int] = None,
                     with_eigenfunctions: bool = True,
                     bisect_tol: float = 1e-10) -> Spectrum:
    """Spectrum of the Laplacian on the surface of revolution of ``profile``.

    Eigenvalues of mode m are the crossings of the monotone matching angle
    F(lambda^2) = theta_left + theta_right at the profile maximum through
    n pi.  One batched pass tabulates F for every mode on a coarse node set
    that ends just past ``lambda_max**2 * (1 + _CUTOFF_RTOL)``; the integer
    winding of each row enumerates its eigenvalues (so none below the top
    node is missed) and gives each its own bracket.  Vectorized Illinois
    iteration then narrows every bracket below ``bisect_tol`` in lambda^2.

    An eigenvalue belongs to the spectrum when its refined lambda^2 is at
    most ``lambda_max**2 * (1 + _CUTOFF_RTOL)``: a cutoff that is itself an
    eigenvalue keeps its whole multiplet, whichever side of it the
    discretisation error puts each mode.
    """
    a_max = profile.alpha_max
    m_needed = int(math.ceil(lambda_max * a_max)) + 2
    if m_max is None:
        m_max = m_needed
    if m_max < lambda_max * a_max:
        raise DomainError(f"m_max={m_max} below lambda_max*max alpha")

    mid = profile.s_max
    refl = profile.reflected()
    grid_L = _RadialGrid(profile, lambda_max, m_max, hi=mid)
    grid_R = _RadialGrid(refl, lambda_max, m_max, hi=-mid)
    pair = _PairGrid(grid_L, grid_R)

    def F(m_arr, lam2_arr):
        return _matching_angle(pair, m_arr, lam2_arr)

    lam2_cut = lambda_max ** 2 * (1.0 + _CUTOFF_RTOL)
    lam2_lo = min(1e-6, lambda_max ** 2 * 1e-9)

    # ----- one winding table: every mode on nodes uniform in lambda
    modes = [m for m in range(0, m_max + 1)
             if m * m <= lam2_cut * a_max * a_max + 1e-9]
    n_nodes = int(math.ceil(lambda_max)) + 1
    lam_top = math.sqrt(lam2_cut * (1.0 + _CUTOFF_RTOL))
    nodes = np.concatenate(
        [[lam2_lo], (lam_top * np.arange(1, n_nodes) / (n_nodes - 1)) ** 2])
    table = F(np.repeat(np.array(modes, dtype=float), n_nodes),
              np.tile(nodes, len(modes))).reshape(len(modes), n_nodes)
    targets_m, goal, lo, hi, f_lo, f_hi = _winding_brackets(table, nodes,
                                                            modes)

    # ----- Illinois iteration inside every bracket at once
    lam2_star = _illinois(F, targets_m, goal, lo, hi, f_lo, f_hi, bisect_tol)
    keep = lam2_star <= lam2_cut
    targets_m, lam2_star = targets_m[keep], lam2_star[keep]
    lam_star = np.sqrt(np.maximum(lam2_star, 0.0))

    # ----- assemble entries
    lams = [0.0]
    mults = [1]
    tags = [[(0, 0)]]
    k_counter = {m: (1 if m == 0 else 0) for m in modes}
    entry_of_target = []
    for i in range(len(targets_m)):
        m = int(targets_m[i])
        k = k_counter[m]
        k_counter[m] = k + 1
        lams.append(lam_star[i])
        mults.append(1 if m == 0 else 2)
        tags.append([(m, k)])
        entry_of_target.append((m, k))

    vol = manifold_volume(
        ModelManifold(kind="surface_of_revolution", dim=2, profile=profile))

    basis = None
    if with_eigenfunctions:
        basis = SurfaceEigenbasis(profile)
        basis.add(_constant_mode(profile, vol))
        _build_eigenfunctions(profile, grid_L, grid_R, targets_m, lam2_star,
                              entry_of_target, basis)

    lam_arr, mult_arr, tag_arr = _group(np.array(lams), np.array(mults), tags)
    return Spectrum(lam_arr, mult_arr, lambda_max, 2, vol,
                    profile.label, mode_tags=tag_arr, basis=basis)


def _constant_mode(profile: ProfileCurve, vol: float) -> ModeEigenfunction:
    nodes = _cheb_nodes(_CHEB_N)
    u = np.full(_CHEB_N, 1.0 / math.sqrt(vol))
    coeffs = _cheb_coeffs(u)
    wvals = 2.0 * math.pi * u * u * profile.alpha(nodes)
    w_coeffs = np.polynomial.chebyshev.chebint(_cheb_coeffs(wvals)) * HALF_PI
    return ModeEigenfunction(0, 0, 0.0, coeffs, w_coeffs)


def _build_eigenfunctions(profile, grid_L, grid_R, targets_m, lam2_star,
                          entry_of_target, basis, chunk: int = 192):
    from scipy.interpolate import CubicSpline

    nodes = _cheb_nodes(_CHEB_N)
    alpha_nodes = profile.alpha(nodes)
    mid = profile.s_max
    left_nodes = nodes <= mid
    for start in range(0, len(targets_m), chunk):
        sl = slice(start, start + chunk)
        m_b = targets_m[sl]
        l2_b = lam2_star[sl]
        UL, LSL, uL, wL, logsL = _integrate_uw(grid_L, m_b, l2_b)
        UR, LSR, uR, wR, logsR = _integrate_uw(grid_R, m_b, l2_b)

        # true values relative to the matching point scale
        valsL = UL * np.exp(LSL - LSL[:, -1][:, None])
        valsR = UR * np.exp(LSR - LSR[:, -1][:, None])
        # glue: scale the right side for continuity, picking whichever of
        # u or w = alpha u' dominates at the matching point (odd modes
        # vanish there, where the u-ratio is pure shooting noise)
        kap_mid = np.sqrt(m_b ** 2 + l2_b * float(profile.alpha(mid)) ** 2)
        use_u = np.abs(kap_mid * uL) >= np.abs(wL)
        gamma = np.where(use_u,
                         uL / np.where(np.abs(uR) > 0, uR, 1.0),
                         -wL / np.where(np.abs(wR) > 0, wR, 1.0))

        splL = CubicSpline(grid_L.s, valsL.T)
        splR = CubicSpline(grid_R.s, valsR.T)
        n_rows = len(m_b)
        u_nodes = np.empty((n_rows, _CHEB_N))
        u_nodes[:, left_nodes] = splL(nodes[left_nodes]).T
        u_nodes[:, ~left_nodes] = (splR(-nodes[~left_nodes]).T
                                   * gamma[:, None])

        wvals = 2.0 * math.pi * u_nodes ** 2 * alpha_nodes[None, :]
        w_coeffs = np.polynomial.chebyshev.chebint(
            _cheb_coeffs(wvals), axis=-1) * HALF_PI
        norm2 = (np.polynomial.chebyshev.chebvander(1.0, w_coeffs.shape[-1] - 1)
                 @ w_coeffs.T).ravel() - \
                (np.polynomial.chebyshev.chebvander(-1.0, w_coeffs.shape[-1] - 1)
                 @ w_coeffs.T).ravel()
        scale = 1.0 / np.sqrt(norm2)
        u_nodes *= scale[:, None]
        coeffs = _cheb_coeffs(u_nodes)
        wvals = 2.0 * math.pi * u_nodes ** 2 * alpha_nodes[None, :]
        w_coeffs = np.polynomial.chebyshev.chebint(
            _cheb_coeffs(wvals), axis=-1) * HALF_PI
        for row in range(n_rows):
            m, k = entry_of_target[start + row]
            basis.add(ModeEigenfunction(m, k, math.sqrt(l2_b[row]),
                                        coeffs[row], w_coeffs[row]))


# ---------------------------------------------------------------------------
# Dispatch


def spectrum_for_manifold(m: ModelManifold, lambda_max: float,
                          with_eigenfunctions: bool = True) -> Spectrum:
    if m.kind == "round_sphere":
        return sphere_spectrum(m.n, lambda_max)
    if m.kind == "flat_torus":
        return torus_spectrum(m.periods, lambda_max)
    if m.kind == "product":
        s1 = spectrum_for_manifold(m.factors[0], lambda_max, False)
        s2 = spectrum_for_manifold(m.factors[1], lambda_max, False)
        return product_spectrum(s1, s2, lambda_max)
    if m.kind == "surface_of_revolution":
        return surface_spectrum(m.profile, lambda_max,
                                with_eigenfunctions=with_eigenfunctions)
    raise DomainError(f"unknown manifold kind {m.kind!r}")
