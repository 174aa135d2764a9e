"""Laplace spectra: closed forms, product merge, and separable radial solver.

Surfaces of revolution separate into radial problems per angular mode m:

    -(alpha u')'/alpha + (m^2/alpha^2) u = lambda^2 u,

with boundedness at the poles.  In y = (u, w = alpha u') the problem is
y' = A(s) y with the traceless A = [[0, 1/alpha], [m^2/alpha - lam^2 alpha,
0]].  One propagator carries y from both poles to the maximum of alpha:
sixth-order Magnus steps with three Gauss points, whose exponentials have
a closed form for traceless 2x2 matrices.  Its steps follow the profile,
min(0.2 / lambda_max, 0.1 alpha), not the oscillation, so the step count
grows only like lambda_max.  The zeros of u are counted from its exact
sign changes (and the step's phase advance where it passes pi), which
gives the matching angle F(lambda^2) = theta_left + theta_right; F
increases with lambda^2 and passes n pi exactly at the eigenvalues of
mode m.  The solver works in three steps:

* a winding table: F for every mode at about ceil(lambda_max) + 1 nodes
  uniform in lambda, in one batched pass.  The integer winding of each row
  counts the mode's eigenvalues below the top node, and the table interval
  holding each crossing is that eigenvalue's bracket;
* a winding certificate: F at the first and last nodes again, on a grid
  with half the steps, must give every mode the same integer windings, so
  the count below the cutoff is checked at run time;
* Illinois iteration (regula falsi with halving of a retained end), run on
  all brackets at once until each is narrower than the requested lambda^2
  tolerance, then a secant step through the true end values.  Each new F
  value must lie between its bracket's end values.

The cutoff keeps an eigenvalue whose refined lambda^2 lies within the
relative slack ``_CUTOFF_RTOL`` of lambda_max^2, so a cutoff that is itself
an eigenvalue keeps its whole multiplet.  Eigenfunctions come from the
same propagator: one pass stores y at the grid nodes, and a partial Magnus
step reaches each Chebyshev node from the node to its left.

The eigenfunctions are one table, :class:`SurfaceEigenbasis`, with a row
per mode (m, k) in the order of the spectrum's entries.  Every caller reads
it through ``values(s)``, all u_i(s) in one Clenshaw pass, or
``band_weights(s0, s1)``, all band masses in one Vandermonde product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, IncompleteInput, SolverFailure
from .manifolds import (HALF_PI, ModelManifold, ProfileCurve,
                        manifold_volume, sphere_volume)

_GROUP_TOL = 1e-8          # relative clustering of merged frequencies
# Relative lambda^2 slack of the radial solver's cutoff: far above its
# discretisation error (~1e-9 relative) and far below the relative level
# spacing (~2 / lambda_max, 3e-2 at lambda_max 60).
_CUTOFF_RTOL = 1e-6
# Rounding noise allowed in a winding-table row before it counts as a
# decrease of F (radians).
_MONOTONE_SLACK = 1e-9
# Illinois steps before the radial solver gives up; a converging run takes
# about ten.
_ILLINOIS_MAX_STEPS = 100
# Radial steps follow the profile, not lambda: a step is
# min(_STEP_BULK / lambda_max, _STEP_POLE * alpha) at its left end, so a
# step advances the phase by at most about 0.2 and the pole layer, where
# the coefficients vary on the scale of alpha, is resolved.
_STEP_BULK = 0.2
_STEP_POLE = 0.1
_POLE_DELTA = 1e-4         # the integration starts this far from each pole
# Gauss-Legendre points of the sixth-order Magnus step, as step fractions
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
# Batch size times steps per chunk of precomputed step matrices: each
# array of a chunk then takes about 256 kB, which keeps the transient
# small without adding measurable per-chunk overhead.
_CHUNK_ELEMS = 1 << 14
_CHEB_N = 2048
_EIGEN_CHUNK = 48          # targets per eigenfunction build pass
# Illinois iteration narrows every bracket below this width in lambda^2
_LAM2_TOL = 1e-10
_TORUS_BLOCK = 128         # first-index rows per block of torus_spectrum


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
        if len(self.lambdas) and self.lambdas[0] < -1e-12:
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
    order = np.argsort(lams, kind="stable")
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
    """Flat torus R^d / (L_1 Z x ... x L_d Z): dual-lattice norms.

    The dual lattice is enumerated in the orthant of nonnegative indices,
    each point standing for its 2^(nonzero indices) sign images, which
    share its lambda^2 bit for bit.  The orthant goes in blocks of the
    first index; each block bounds the second index by the ball at its
    first row, so only a thin rim outside the ball is formed.
    """
    periods = tuple(float(p) for p in periods)
    if any(p <= 0 for p in periods):
        raise DomainError("periods must be positive")
    cut = lambda_max ** 2 * (1 + 1e-14)
    axes = [np.arange(int(e) + 2)
            for e in (lambda_max * L / (2 * math.pi) for L in periods)]
    terms = [(2 * math.pi * g / L) ** 2 for g, L in zip(axes, periods)]
    images = [np.where(g > 0, 2.0, 1.0) for g in axes]
    vals, counts = np.empty(0), np.empty(0)
    for start in range(0, len(axes[0]), _TORUS_BLOCK):
        rows = slice(start, start + _TORUS_BLOCK)
        lam2, mult = [terms[0][rows]], [images[0][rows]]
        if len(periods) > 1:
            n = np.searchsorted(terms[1], cut - terms[0][start], "right") + 1
            lam2.append(terms[1][:n])
            mult.append(images[1][:n])
        lam2 = np.meshgrid(*(lam2 + terms[2:]), indexing="ij", sparse=True)
        mult = np.meshgrid(*(mult + images[2:]), indexing="ij", sparse=True)
        lam2 = sum(lam2)                   # 0 + t_1 + t_2 + ..., in order
        keep = lam2 <= cut
        # merge the block into the distinct values so far
        vals, inverse = np.unique(
            np.concatenate([vals, np.round(lam2[keep], 9)]),
            return_inverse=True)
        counts = np.bincount(inverse, np.concatenate(
            [counts, np.prod(np.broadcast_arrays(*mult), axis=0)[keep]]))
    return Spectrum(np.sqrt(vals), counts.astype(int), lambda_max,
                    len(periods), math.prod(periods), f"torus{periods}")


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


def _cheb_integral(c: np.ndarray) -> np.ndarray:
    """Coefficients of the antiderivative in s = x pi/2, zero at s = 0.

    Row-batched ``chebint``: b_k = (c_{k-1} - c_{k+1}) / (2k), with c_0
    counted twice in b_1, and b_0 makes the value at x = 0 vanish.
    """
    n = c.shape[-1]
    c = np.concatenate([c, np.zeros(c.shape[:-1] + (2,))], axis=-1)
    b = np.empty(c.shape[:-1] + (n + 1,))
    b[..., 1:] = (c[..., :n] - c[..., 2:]) / (2.0 * np.arange(1, n + 1))
    b[..., 1] += 0.5 * c[..., 0]
    # T_k(0) is (-1)^(k/2) for even k and 0 for odd k
    b[..., 0] = b[..., 2::4].sum(axis=-1) - b[..., 4::4].sum(axis=-1)
    return b * HALF_PI


def _band_masses(weight_coeffs: np.ndarray, s0: float, s1: float):
    """2 pi int_{s0}^{s1} u^2 alpha ds of one row or a stack of rows."""
    vander = np.polynomial.chebyshev.chebvander(
        np.array([s0, s1]) / HALF_PI, weight_coeffs.shape[-1] - 1)
    ends = weight_coeffs @ vander.T
    return ends[..., 1] - ends[..., 0]


@dataclass
class ModeEigenfunction:
    """Radial factor u_{m,k}(s) of an eigenfunction u(s) e^{i m theta}.

    Normalized so the full complex eigenfunction has unit L^2 norm:
    2 pi int u^2 alpha ds = 1 (each of +-m carries its own copy; real
    cosine/sine pairs are linear combinations with the same normalization).
    A row view of :class:`SurfaceEigenbasis`: the arrays are its table rows.
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
        return float(_band_masses(self.weight_coeffs, s0, s1))


class SurfaceEigenbasis:
    """Radial eigenfunctions of a surface of revolution as one table.

    Row i is mode (``m[i]`` >= 0, ``k[i]``) at frequency ``lam[i]``, with the
    Chebyshev coefficients of u_i (``coeffs[i]``) and of the antiderivative
    of 2 pi u_i^2 alpha (``weight_coeffs[i]``).  Rows follow the flattened
    ``mode_tags``, so ``lam`` ascends from the constant mode at row 0;
    ``entry[i]`` is row i's spectrum entry.
    """

    def __init__(self, profile: ProfileCurve, m, k, lam, entry):
        self.profile = profile
        self.m, self.k, self.lam, self.entry = m, k, lam, entry
        self.coeffs = np.empty((len(m), _CHEB_N))
        self.weight_coeffs = np.empty((len(m), _CHEB_N + 1))
        self._row = {key: i for i, key in enumerate(zip(m.tolist(),
                                                        k.tolist()))}

    def __getitem__(self, key) -> ModeEigenfunction:
        i = self._row[key]
        return ModeEigenfunction(*key, float(self.lam[i]), self.coeffs[i],
                                 self.weight_coeffs[i])

    def __iter__(self):
        return (self[key] for key in self._row)

    def __len__(self):
        return len(self.m)

    def values(self, s) -> np.ndarray:
        """u_i(s) of every row, shape (rows,) + shape(s): one Clenshaw pass."""
        return np.polynomial.chebyshev.chebval(
            np.asarray(s, dtype=float) / HALF_PI, self.coeffs.T)

    def band_weights(self, s0: float, s1: float) -> np.ndarray:
        """2 pi int_{s0}^{s1} u_i^2 alpha ds of every row, in one product."""
        return _band_masses(self.weight_coeffs, s0, s1)


# ---------------------------------------------------------------------------
# Radial solver


def _bessel_series(m: np.ndarray, x: np.ndarray):
    """S(x) = J_m(x) m! (2/x)^m for small x and dS/dy, y = x^2/4.

    Three terms of the power series; d/dx log J_m(x) = m/x + x/2 dS/dy / S.
    """
    y = 0.25 * x * x
    S = 1.0 - y / (m + 1) + y * y / (2.0 * (m + 1) * (m + 2))
    return S, -1.0 / (m + 1) + y / ((m + 1) * (m + 2))


def _side_nodes(profile: ProfileCurve, lam_max: float, hi: float,
                coarsen: float) -> np.ndarray:
    """Nodes from the pole at -pi/2 + _POLE_DELTA up to ``hi``.

    A step is min(_STEP_BULK / lam_max, _STEP_POLE alpha) at its left end,
    times ``coarsen``.  alpha grows up to ``hi``, the maximum of alpha, so
    the pole layer is walked point by point and the rest is one run of
    equal steps.
    """
    h_bulk = coarsen * _STEP_BULK / lam_max
    s = -HALF_PI + _POLE_DELTA
    pts = [s]
    while s < hi:
        h = coarsen * _STEP_POLE * float(profile.alpha(s))
        if h >= h_bulk:
            pts.extend(np.linspace(s, hi, int(math.ceil((hi - s) / h_bulk))
                                   + 1)[1:])
            break
        s = min(s + h, hi)
        pts.append(s)
    return np.array(pts)


def _magnus_terms(profile: ProfileCurve, s, h) -> np.ndarray:
    """The profile's part of the sixth-order Magnus step from s over h.

    With A_k = A(s + c_k h) at the Gauss points c_k, the step uses the
    combinations h A_2, sqrt(15) h / 3 (A_3 - A_1) and 10 h / 3 (A_3 - 2 A_2
    + A_1).  A = [[0, 1/alpha], [m^2/alpha - lam^2 alpha, 0]] is linear in
    1/alpha and alpha, so the result has shape (2, 3, ...): the three
    combinations of 1/alpha, then of alpha.  One profile call covers every
    Gauss point.
    """
    s, h = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(h, dtype=float))
    a = profile.alpha(s + _GAUSS.reshape((3,) + (1,) * s.ndim) * h)
    out = np.empty((2, 3) + s.shape)
    for f, v in zip(out, (1.0 / a, a)):
        f[0] = h * v[1]
        f[1] = (math.sqrt(15.0) / 3.0) * h * (v[2] - v[0])
        f[2] = (10.0 / 3.0) * h * (v[2] - 2.0 * v[1] + v[0])
    return out


def _magnus_step(terms: np.ndarray, m2, lam2):
    """exp(Omega) of the sixth-order Magnus step and its phase advance.

    Omega (Blanes, Casas and Ros 2000, three Gauss points) is built from
    the combinations q_j = [[0, b_j], [c_j, 0]] with c_j = m^2 b_j - lam^2
    p_j, where ``terms`` holds (b, p) as :func:`_magnus_terms` returns
    them.  Every matrix is traceless 2x2, so each commutator is a few
    products, and Omega = [[a, b], [c, -a]] squares to d I, d = a^2 + b c:
    exp(Omega) = cos(omega) I + sin(omega)/omega Omega where d = -omega^2
    < 0, and the cosh/sinh form where d > 0.  Returns the entries (e00,
    e01, e10, e11) and omega, which is 0 where the step does not oscillate.
    """
    (b1, b2, b3), (p1, p2, p3) = terms
    c1 = m2 * b1 - lam2 * p1
    c2 = m2 * b2 - lam2 * p2
    c3 = m2 * b3 - lam2 * p3
    # Omega = q1 + q3/12 + [X, Z]/240 with X = -20 q1 - q3 + [q1, q2] and
    # Z = q2 - [q1, 2 q3 + [q1, q2]]/60.  [q1, q2] = diag(k, -k); X and Z
    # are written (a, b, c) for [[a, b], [c, -a]], and then [X, Z] is
    # (X_b Z_c - Z_b X_c, 2 (X_a Z_b - Z_a X_b), 2 (X_c Z_a - X_a Z_c)).
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
    # each element takes only its own branch: cos and sin/omega where d < 0,
    # cosh and sinh/kappa where d > 0, and 1 and 1 where d = 0
    osc, hyp = d < 0, d > 0
    cs = np.cos(omega, out=np.ones_like(d), where=osc)
    sn = np.sin(omega, out=np.ones_like(d), where=osc)
    np.divide(sn, omega, out=sn, where=osc)
    kappa = np.sqrt(np.maximum(d, 0.0))
    np.cosh(kappa, out=cs, where=hyp)
    np.sinh(kappa, out=sn, where=hyp)
    np.divide(sn, kappa, out=sn, where=hyp)
    return cs + sn * oa, sn * ob, sn * oc, cs - sn * oa, omega


def _half_turns(flip, omega):
    """Zeros of u in a step: the count of parity ``flip`` nearest omega/pi.

    ``flip`` says whether u changed sign over the step, which is exact.
    The step is the flow of y' = Omega y over unit time, and in the chart
    (omega u, u') of that flow the phase advances by exactly omega, so the
    count lies within 1 of omega/pi.  A hyperbolic step (omega = 0) has at
    most one zero, and the sign change alone decides it.
    """
    return flip + 2 * np.round((omega / math.pi - flip) / 2.0).astype(int)


def _prufer_angle(u, w, kappa, turns):
    """Continuous Pruefer angle of (kappa u, w) after ``turns`` zeros of u.

    The angle is turns pi plus the angle of the vector on the branch the
    sign of u selects, which lies in [0, pi] whatever rounding does: near a
    zero of u, with w < 0, it reads about pi before the zero and about 0
    after it, where ``turns`` has gone up by one.  Taking the branch from a
    rounded angle instead (atan2 gives pi at u = 1e-17, w = -1) would add
    a spurious half-turn there.
    """
    sign = np.where(u < 0, -1.0, 1.0)
    return turns * math.pi + np.arctan2(kappa * u * sign, w * sign)


class _MagnusGrid:
    """Steps from both poles up to the maximum of alpha, for one loop.

    Side 0 runs on the profile, side 1 on the reflected profile; both end
    at alpha's maximum.  The step terms have shape (2, 3, steps, 2, 1); the
    shorter side is padded with zero terms, whose step is the identity.
    """

    def __init__(self, profile: ProfileCurve, lam_max: float,
                 coarsen: float = 1.0):
        self.sides = (profile, profile.reflected())
        self.nodes = [_side_nodes(side, lam_max, hi, coarsen)
                      for side, hi in zip(self.sides,
                                          (profile.s_max, -profile.s_max))]
        n = max(len(s) for s in self.nodes) - 1
        self.terms = np.zeros((2, 3, n, 2, 1))
        for k, (side, s) in enumerate(zip(self.sides, self.nodes)):
            self.terms[:, :, :len(s) - 1, k, 0] = _magnus_terms(
                side, s[:-1], np.diff(s))
        self.alpha_start = np.array(
            [[profile.alpha(-HALF_PI + _POLE_DELTA)],
             [profile.alpha(HALF_PI - _POLE_DELTA)]], dtype=float)
        self.alpha_end = float(profile.alpha(profile.s_max))


def _propagate(grid: _MagnusGrid, m, lam2, store: bool = False):
    """Carry the regular solution from both poles to the maximum of alpha.

    y = (u, w = alpha u') starts from the Bessel series at -pi/2 + delta
    with u = 1 and takes one Magnus step per grid step.  The step matrices
    of a chunk are computed at once; the loop only applies them, rescales
    y to unit length and counts the zeros of u.  Returns (u, w, turns),
    each of shape (2, rows), and with ``store`` also (U, W, L) at every
    node, shape (nodes, 2, rows): y there is (U, W) exp(L).
    """
    m = np.asarray(m, dtype=float)
    m2 = m * m
    lam2 = np.asarray(lam2, dtype=float)
    lam = np.sqrt(lam2)
    rows = lam2.size
    u = np.ones((2, rows))
    x = lam * _POLE_DELTA
    S, dS = _bessel_series(m, x)
    w = grid.alpha_start * lam * (m / x + 0.5 * x * dS / S)
    turns = np.zeros((2, rows), dtype=int)
    neg = np.zeros((2, rows), dtype=bool)
    n = grid.terms.shape[2]
    if store:
        U, W, L = (np.empty((n + 1, 2, rows)) for _ in range(3))
        U[0], W[0], L[0] = u, w, 0.0
    chunk = max(16, _CHUNK_ELEMS // rows)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        e00, e01, e10, e11, omega = _magnus_step(
            grid.terms[:, :, start:stop], m2, lam2)
        several = omega.max() >= math.pi
        for i in range(stop - start):
            u, w = e00[i] * u + e01[i] * w, e10[i] * u + e11[i] * w
            r = np.hypot(u, w)
            u /= r
            w /= r
            flip = (u < 0) != neg
            neg ^= flip
            turns += _half_turns(flip, omega[i]) if several else flip
            if store:
                j = start + i + 1
                U[j], W[j], L[j] = u, w, L[j - 1] + np.log(r)
    if store:
        return u, w, turns, U, W, L
    return u, w, turns


def _matching_angle(grid: _MagnusGrid, m, lam2) -> np.ndarray:
    """F(lambda^2) = theta_left + theta_right at the maximum of alpha.

    F is increasing in lam2 and crosses n pi exactly at the n-th
    eigenvalue of mode m above the floor winding.
    """
    u, w, turns = _propagate(grid, m, lam2)
    kap = np.sqrt(np.asarray(m, dtype=float) ** 2
                  + np.asarray(lam2, dtype=float) * grid.alpha_end ** 2)
    return np.sum(_prufer_angle(u, w, kap, turns), axis=0)


def _windings(f_first, f_last):
    """Integer windings floor(F/pi) at the first and last table nodes.

    The first carries a 1e-9 slack: the constant mode's F sits just above
    pi there, and the crossing at lambda = 0 is not a target.
    """
    return (np.floor(np.asarray(f_first) / math.pi + 1e-9).astype(int),
            np.floor(np.asarray(f_last) / math.pi).astype(int))


def _certify_windings(coarse: _MagnusGrid, table: np.ndarray,
                      nodes: np.ndarray, modes: list) -> None:
    """Check the table's integer windings against a grid with half the steps.

    F at the first and last table nodes of every mode is recomputed on
    ``coarse``; each mode's eigenvalue count below the top node is the
    difference of the two windings, so equal windings make that count a
    checked result, not an assumption about the step size.
    """
    k = len(modes)
    m = np.tile(np.asarray(modes, dtype=float), 2)
    lam2 = np.repeat([nodes[0], nodes[-1]], k)
    f = _matching_angle(coarse, m, lam2)
    fine = np.stack(_windings(table[:, 0], table[:, -1]))
    other = np.stack(_windings(f[:k], f[k:]))
    if np.any(fine != other):
        end, i = np.argwhere(fine != other)[0]
        at = (nodes[0], nodes[-1])[end]
        raise SolverFailure(
            f"winding of mode {modes[i]} at lambda^2 = {at:.6g} is "
            f"{fine[end, i]} but {other[end, i]} with half the steps",
            mode=modes[i], bracket=(nodes[0], nodes[-1]))


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
    n_lo, n_hi = _windings(table[:, 0], table[:, -1])
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
        # F increases, so F(x) lies between the true values at the ends
        out = ((fx < f_lo[act] - _MONOTONE_SLACK)
               | (fx > f_hi[act] + _MONOTONE_SLACK))
        if out.any():
            i = act[int(np.argmax(out))]
            raise SolverFailure(
                f"F of mode {int(m[i])} left its bracket: not monotone",
                mode=int(m[i]), bracket=(lo[i], hi[i]))
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
                     with_eigenfunctions: bool = True) -> Spectrum:
    """Spectrum of the Laplacian on the surface of revolution of ``profile``.

    Eigenvalues of mode m are the crossings of the monotone matching angle
    F(lambda^2) = theta_left + theta_right at the profile maximum through
    n pi.  One batched pass tabulates F for every mode on a coarse node set
    that ends just past ``lambda_max**2 * (1 + _CUTOFF_RTOL)``; the integer
    winding of each row enumerates its eigenvalues (so none below the top
    node is missed) and gives each its own bracket, and a grid with half
    the steps must give every mode the same windings, else
    ``SolverFailure``.  Vectorized Illinois iteration then narrows every
    bracket below ``_LAM2_TOL`` in lambda^2.

    An eigenvalue belongs to the spectrum when its refined lambda^2 is at
    most ``lambda_max**2 * (1 + _CUTOFF_RTOL)``: a cutoff that is itself an
    eigenvalue keeps its whole multiplet, whichever side of it the
    discretisation error puts each mode.
    """
    a_max = profile.alpha_max
    grid = _MagnusGrid(profile, lambda_max)

    def F(m_arr, lam2_arr):
        return _matching_angle(grid, m_arr, lam2_arr)

    lam2_cut = lambda_max ** 2 * (1.0 + _CUTOFF_RTOL)
    lam2_lo = min(1e-6, lambda_max ** 2 * 1e-9)

    # ----- one winding table: every mode on nodes uniform in lambda
    modes = [m for m in range(int(math.ceil(lambda_max * a_max)) + 3)
             if m * m <= lam2_cut * a_max * a_max + 1e-9]
    n_nodes = int(math.ceil(lambda_max)) + 1
    lam_top = math.sqrt(lam2_cut * (1.0 + _CUTOFF_RTOL))
    nodes = np.concatenate(
        [[lam2_lo], (lam_top * np.arange(1, n_nodes) / (n_nodes - 1)) ** 2])
    table = F(np.repeat(np.array(modes, dtype=float), n_nodes),
              np.tile(nodes, len(modes))).reshape(len(modes), n_nodes)
    targets_m, goal, lo, hi, f_lo, f_hi = _winding_brackets(table, nodes,
                                                            modes)
    _certify_windings(_MagnusGrid(profile, lambda_max, coarsen=2.0), table,
                      nodes, modes)

    # ----- Illinois iteration inside every bracket at once
    lam2_star = _illinois(F, targets_m, goal, lo, hi, f_lo, f_hi, _LAM2_TOL)
    keep = lam2_star <= lam2_cut
    targets_m, lam2_star = targets_m[keep], lam2_star[keep]

    # ----- entries: the constant mode, then the targets, which come mode by
    # mode; k counts a mode's targets from 0 (from 1 for m = 0)
    k = (np.arange(len(targets_m)) - np.searchsorted(targets_m, targets_m)
         + (targets_m == 0))
    m_row = np.concatenate([[0], targets_m.astype(int)])
    k_row = np.concatenate([[0], k])
    lam_row = np.concatenate([[0.0], np.sqrt(np.maximum(lam2_star, 0.0))])
    # rows in entry order, known before any eigenfunction is built
    order = np.argsort(lam_row, kind="stable")
    m_row, k_row, lam_row = m_row[order], k_row[order], lam_row[order]
    lam_arr, mult_arr, tag_arr = _group(
        lam_row, np.where(m_row == 0, 1, 2),
        [[mk] for mk in zip(m_row.tolist(), k_row.tolist())])

    vol = manifold_volume(
        ModelManifold(kind="surface_of_revolution", dim=2, profile=profile))
    basis = None
    if with_eigenfunctions:
        entry = np.repeat(np.arange(len(tag_arr)), [len(t) for t in tag_arr])
        basis = SurfaceEigenbasis(profile, m_row, k_row, lam_row, entry)
        row = np.argsort(order)        # the row of each unsorted entry
        _build_eigenfunctions(basis, grid, vol, targets_m, lam2_star, row[1:])
    return Spectrum(lam_arr, mult_arr, lambda_max, 2, vol,
                    profile.label, mode_tags=tag_arr, basis=basis)


def _build_eigenfunctions(basis: SurfaceEigenbasis, grid: _MagnusGrid,
                          vol: float, targets_m, lam2_star, rows):
    """Fill the table of ``basis``: radial factors, normalized.

    Row 0 is the constant mode 1 / sqrt(vol).  Target i goes to row
    ``rows[i]``, in chunks of ``_EIGEN_CHUNK`` targets: one stored pass
    gives (u, w) and the log scale at the grid nodes; each Chebyshev node
    is reached by a partial Magnus step from the node to its left, and
    nodes below the first grid node take the Bessel series.  The right
    side is scaled to meet the left at the maximum of alpha.
    """
    profile = basis.profile
    nodes = _cheb_nodes(_CHEB_N)
    alpha_nodes = profile.alpha(nodes)
    u = np.full(_CHEB_N, 1.0 / math.sqrt(vol))
    basis.coeffs[0] = _cheb_coeffs(u)
    basis.weight_coeffs[0] = _cheb_integral(
        _cheb_coeffs(2.0 * math.pi * u * u * alpha_nodes))
    left = nodes <= profile.s_max
    x = (nodes[left], -nodes[~left])   # each side in its own coordinate
    # per side: the grid node j left of each point (-1 below the first
    # node) and the terms of the partial step from node j to the point
    steps = []
    for side, s, xs in zip(grid.sides, grid.nodes, x):
        j = np.minimum(np.searchsorted(s, xs, side="right") - 1, len(s) - 2)
        base = s[np.maximum(j, 0)]
        steps.append((j, _magnus_terms(side, base,
                                       np.maximum(xs - base, 0.0))))
    for start in range(0, len(targets_m), _EIGEN_CHUNK):
        sl = slice(start, start + _EIGEN_CHUNK)
        m_b, l2_b, rows_b = targets_m[sl], lam2_star[sl], rows[sl]
        lam_b = np.sqrt(l2_b)
        u_end, w_end, _, U, W, L = _propagate(grid, m_b, l2_b, store=True)
        u_nodes = np.empty((len(m_b), _CHEB_N))
        parts = []
        for side, (xs, (j, terms)) in enumerate(zip(x, steps)):
            e00, e01, _, _, _ = _magnus_step(terms[..., None], m_b ** 2, l2_b)
            jj = np.maximum(j, 0)
            # true values relative to the scale at the matching point
            vals = ((e00 * U[jj, side] + e01 * W[jj, side])
                    * np.exp(L[jj, side] - L[-1, side]))
            pole = j < 0
            if pole.any():
                rho = xs[pole, None] + HALF_PI
                S = _bessel_series(m_b, lam_b * rho)[0]
                S0 = _bessel_series(m_b, lam_b * _POLE_DELTA)[0]
                vals[pole] = ((rho / _POLE_DELTA) ** m_b * S / S0
                              * np.exp(-L[-1, side]))
            parts.append(vals.T)
        # glue: scale the right side for continuity, picking whichever of
        # u or w = alpha u' dominates at the matching point (odd modes
        # vanish there, where the u-ratio is pure shooting noise)
        (uL, uR), (wL, wR) = u_end, w_end
        kap_mid = np.sqrt(m_b ** 2 + l2_b * grid.alpha_end ** 2)
        use_u = np.abs(kap_mid * uL) >= np.abs(wL)
        gamma = np.where(use_u,
                         uL / np.where(np.abs(uR) > 0, uR, 1.0),
                         -wL / np.where(np.abs(wR) > 0, wR, 1.0))
        u_nodes[:, left] = parts[0]
        u_nodes[:, ~left] = parts[1] * gamma[:, None]

        wvals = 2.0 * math.pi * u_nodes ** 2 * alpha_nodes[None, :]
        w_coeffs = _cheb_integral(_cheb_coeffs(wvals))
        # the mass is the antiderivative at x = 1 (every T_k is 1) minus
        # its value at x = -1 (T_k is (-1)^k)
        norm2 = np.sum(w_coeffs[:, 1::2], axis=1) * 2.0
        basis.coeffs[rows_b] = _cheb_coeffs(u_nodes) / np.sqrt(norm2)[:, None]
        basis.weight_coeffs[rows_b] = w_coeffs / norm2[:, None]


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
