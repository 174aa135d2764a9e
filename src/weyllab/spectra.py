"""Laplace spectra: closed forms, product merge, and separable radial solver.

Surfaces of revolution separate into radial problems per angular mode m:

    -(alpha u')'/alpha + (m^2/alpha^2) u = lambda^2 u,

with boundedness at the poles.  In y = (u, w = alpha u') the problem is
y' = A(s) y with the traceless A = [[0, 1/alpha], [m^2/alpha - lam^2 alpha,
0]].  One propagator carries y from both poles to the maximum of alpha:
sixth-order Magnus steps with three Gauss points, whose exponentials have
a closed form for traceless 2x2 matrices.  Its steps follow the profile,
min(0.2 / lambda_max, the node spacing of the profile's own Chebyshev
table, 0.1 alpha), not the oscillation, so the step count grows only like
lambda_max.  The zeros of u are counted from its exact
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
* safeguarded Newton iteration on all brackets at once.  The pass that
  propagates y also accumulates the energy integral J = int alpha u^2 ds
  of each side, and the lambda^2-derivative of a Pruefer angle is an
  energy integral of the solution (Pryce, *Numerical Solution of
  Sturm-Liouville Problems*, 1993), so every pass returns F and F'.  The
  steps are taken in lambda, a step that leaves its bracket falls back to
  the Illinois point, and two guard points close each bracket below the
  requested lambda^2 tolerance; the root is the secant point through the
  true end values.  Each new F value must lie between its bracket's end
  values.

The cutoff keeps an eigenvalue whose refined lambda^2 lies within the
relative slack ``_CUTOFF_RTOL`` of lambda_max^2, so a cutoff that is itself
an eigenvalue keeps its whole multiplet.  Eigenfunctions come from the
same propagator: one pass stores y at the grid nodes, and a partial Magnus
step reaches each Chebyshev node from the node to its left.  The number
of Chebyshev nodes follows lambda_max and the profile (:func:`_cheb_size`):
the smallest power of two above pi lambda_max + 128, or more where the
profile's own Chebyshev table needs it.

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

from .errors import DomainError, IncompleteSpectrum, SolverFailure
from .manifolds import (HALF_PI, ModelManifold, ProfileCurve, _cheb_coeffs,
                        _cheb_integral, _cheb_nodes, _profile_size,
                        manifold_volume, sphere_volume)

_GROUP_TOL = 1e-8          # relative clustering of merged frequencies
# Relative lambda^2 slack of the radial solver's cutoff: far above its
# discretisation error (~1e-9 relative) and far below the relative level
# spacing (~2 / lambda_max, 3e-2 at lambda_max 60).
_CUTOFF_RTOL = 1e-6
# Rounding noise allowed in a winding-table row before it counts as a
# decrease of F (radians).
_MONOTONE_SLACK = 1e-9
# Root passes (Newton, Illinois fallback or guard) before the radial solver
# gives up; a converging run takes five or six.
_ROOT_MAX_PASSES = 100
# Radial steps follow the profile, not the oscillation: a step is
# min(_STEP_BULK / lambda_max, h_profile, _STEP_POLE * alpha) at its left
# end, so a step advances the phase by at most about 0.2, spans at most
# the node spacing h_profile at the equator of the profile's own Chebyshev
# table (0.019 for the packaged bumps, 0.005 for a bump 0.1 wide), and the
# pole layer, where the coefficients vary on the scale of alpha, is
# resolved.
_STEP_BULK = 0.2
_STEP_POLE = 0.1
_POLE_DELTA = 1e-4         # the integration starts this far from each pole
# Gauss-Legendre points of the sixth-order Magnus step, as step fractions
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
# Batch size times steps per chunk of precomputed step matrices: each
# array of a chunk then takes about 256 kB, which keeps the transient
# small without adding measurable per-chunk overhead.
_CHUNK_ELEMS = 1 << 14
# Chebyshev nodes of the eigenbasis table beyond degree pi lambda_max: with
# twice the nodes no band weight moves by 1e-9 (see _cheb_size)
_CHEB_MARGIN = 128
_STORE_ELEMS = 1 << 18    # elements of one stored array per build pass
# Every root bracket ends narrower than this in lambda^2, with F at its two
# ends on either side of the goal; the root is the secant point there.
_LAM2_TOL = 1e-10
# F' from the energy integral is good to about 1e-6 relative (checked
# against central differences), so a Newton step shorter than _GUARD_STEP
# _LAM2_TOL leaves an error of about 0.1 _LAM2_TOL; the guard points sit
# _GUARD_OFFSET _LAM2_TOL on either side of the new point.
_GUARD_STEP = 1e5
_GUARD_OFFSET = 0.45
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

    def require(self, lams, why: str = "") -> None:
        """IncompleteSpectrum, ending in ``why``, unless every lam of
        ``lams`` is at most lambda_max + 1e-12; every reader calls it."""
        top = float(np.max(lams, initial=-np.inf))
        if top > self.lambda_max + 1e-12:
            raise IncompleteSpectrum(f"{self.label} is complete to "
                                     f"{self.lambda_max}, not to {top}{why}")

    def count(self, lam) -> np.ndarray:
        """N(lam) with the half-open convention lambda_j <= lam."""
        lam = np.asarray(lam, dtype=float)
        idx = np.searchsorted(self.lambdas, lam, side="right")
        csum = np.concatenate([[0], np.cumsum(self.mults)])
        return csum[idx]

    @property
    def total(self) -> int:
        return int(np.sum(self.mults))


def check_cutoff(lambda_max: float) -> None:
    """DomainError unless lambda_max > 0; every builder calls it first."""
    if not lambda_max > 0:
        raise DomainError(f"lambda_max = {lambda_max} is not positive")


def level_cut(lam: float) -> float:
    """A closed-form level lies at or below lam when lambda^2 <= this."""
    return lam ** 2 * (1 + 1e-14)


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
    check_cutoff(lambda_max)
    if n < 1:
        raise DomainError("sphere dimension must be >= 1")
    lams, mults = [], []
    k, cut = 0, level_cut(lambda_max)
    while True:
        lam2 = k * (k + n - 1)
        if lam2 > cut:
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
    first row, so only a thin rim outside the ball is formed.  The blocks'
    rounded values and image counts are merged once, at the end.
    """
    check_cutoff(lambda_max)
    periods = tuple(float(p) for p in periods)
    if any(p <= 0 for p in periods):
        raise DomainError("periods must be positive")
    cut = level_cut(lambda_max)
    axes = [np.arange(int(e) + 2)
            for e in (lambda_max * L / (2 * math.pi) for L in periods)]
    terms = [(2 * math.pi * g / L) ** 2 for g, L in zip(axes, periods)]
    count_type = np.min_scalar_type(2 ** len(periods))   # holds any count
    images = [np.where(g > 0, 2, 1).astype(count_type)
              for g in axes]
    vals, counts = [], []
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
        vals.append(np.round(lam2[keep], 9))
        counts.append(np.prod(np.broadcast_arrays(*mult), axis=0,
                              dtype=count_type)[keep])
    # one merge of every block into the distinct values: one sort, then a
    # sum of the image counts (bytes until then) over each run of equal
    # values
    vals = np.concatenate(vals)
    order = np.argsort(vals)
    vals = vals[order]
    first = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
    counts = np.add.reduceat(np.concatenate(counts)[order], first, dtype=int)
    return Spectrum(np.sqrt(vals[first]), counts, lambda_max,
                    len(periods), math.prod(periods), f"torus{periods}")


def product_spectrum(s1: Spectrum, s2: Spectrum,
                     lambda_max: float) -> Spectrum:
    """Frequencies sqrt(l1^2 + l2^2), multiplicities multiplied."""
    check_cutoff(lambda_max)
    for s in (s1, s2):
        s.require(lambda_max, " (a product factor)")
    a, b = (s.lambdas ** 2 <= level_cut(lambda_max) for s in (s1, s2))
    sums = s1.lambdas[a, None] ** 2 + s2.lambdas[None, b] ** 2
    mults = s1.mults[a, None] * s2.mults[None, b]
    keep = sums <= level_cut(lambda_max)
    lams = np.sqrt(sums[keep])
    lams, mults, _ = _group(lams, mults[keep])
    return Spectrum(lams, mults, lambda_max, s1.dim + s2.dim,
                    s1.volume * s2.volume, f"{s1.label} x {s2.label}")


# ---------------------------------------------------------------------------
# Chebyshev storage for radial eigenfunctions


def _cheb_size(profile: ProfileCurve, lambda_max: float) -> int:
    """Chebyshev nodes of the eigenbasis table of ``profile``.

    The larger of two powers of two.  The first is the smallest above
    pi lambda_max + ``_CHEB_MARGIN``: the mass density u^2 alpha of a row at
    lambda oscillates like cos(2 lambda s), that is cos(pi lambda x) in
    x = s / (pi/2), whose Chebyshev coefficients fall off
    super-exponentially past degree pi lambda.  The second is
    :func:`_profile_size`: u and the antiderivative of u^2 alpha are as
    smooth as the antiderivative of alpha, so a narrow bump widens the
    table.
    """
    return max(1 << math.ceil(math.log2(math.pi * lambda_max + _CHEB_MARGIN)),
               _profile_size(profile))


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

    def __init__(self, profile: ProfileCurve, m, k, lam, entry, nodes: int):
        self.profile = profile
        self.m, self.k, self.lam, self.entry = m, k, lam, entry
        self.coeffs = np.empty((len(m), nodes))
        self.weight_coeffs = np.empty((len(m), nodes + 1))
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


def _side_nodes(profile: ProfileCurve, h_bulk: float, hi: float,
                coarsen: float) -> np.ndarray:
    """Nodes from the pole at -pi/2 + _POLE_DELTA up to ``hi``.

    A step is min(h_bulk, coarsen _STEP_POLE alpha) at its left end.
    alpha grows up to ``hi``, the maximum of alpha, so the pole layer is
    walked point by point and the rest is one run of equal steps.
    """
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
    shape = np.broadcast_shapes(b1.shape, np.shape(m2), np.shape(lam2))
    c1, c2, c3, k, xc, za, zb, zc, oa, ob, oc, t = (np.empty(shape)
                                                     for _ in range(12))
    for c, b, p in ((c1, b1, p1), (c2, b2, p2), (c3, b3, p3)):
        np.multiply(m2, b, out=c)             # c = m2 b - lam2 p
        c -= np.multiply(lam2, p, out=t)
    # Omega = q1 + q3/12 + [X, Z]/240 with X = -20 q1 - q3 + [q1, q2] and
    # Z = q2 - [q1, 2 q3 + [q1, q2]]/60.  [q1, q2] = diag(k, -k); X and Z
    # are written (a, b, c) for [[a, b], [c, -a]], and then [X, Z] is
    # (X_b Z_c - Z_b X_c, 2 (X_a Z_b - Z_a X_b), 2 (X_c Z_a - X_a Z_c)).
    # Each line keeps the operations and their order of the plain formula
    # in its comment, so the result is the same to the bit.
    np.multiply(b1, c2, out=k)                # k = b1 c2 - b2 c1
    k -= np.multiply(b2, c1, out=t)
    xb = -20.0 * b1 - b3                      # one value per step
    np.multiply(c1, -20.0, out=xc)            # xc = -20 c1 - c3
    xc -= c3
    np.multiply(b3, c1, out=za)               # za = (b3 c1 - b1 c3) / 30
    za -= np.multiply(b1, c3, out=t)
    za /= 30.0
    np.multiply(k, b1, out=zb)                # zb = b2 + k b1 / 30
    zb /= 30.0
    zb += b2
    np.multiply(k, c1, out=zc)                # zc = c2 - k c1 / 30
    zc /= 30.0
    np.subtract(c2, zc, out=zc)
    np.multiply(xb, zc, out=oa)               # oa = (xb zc - zb xc) / 240
    oa -= np.multiply(zb, xc, out=t)
    oa /= 240.0
    np.multiply(k, zb, out=ob)   # ob = b1 + b3/12 + (k zb - za xb) / 120
    ob -= np.multiply(za, xb, out=t)
    ob /= 120.0
    ob += b1 + b3 / 12.0
    np.divide(c3, 12.0, out=c3)  # oc = c1 + c3/12 + (xc za - k zc) / 120
    c3 += c1
    np.multiply(xc, za, out=oc)
    oc -= np.multiply(k, zc, out=t)
    oc /= 120.0
    oc += c3
    d = np.multiply(oa, oa, out=c1)           # d = oa^2 + ob oc
    d += np.multiply(ob, oc, out=t)
    omega = np.negative(d, out=c2)
    np.maximum(omega, 0.0, out=omega)
    np.sqrt(omega, out=omega)
    # each element takes only its own branch: cos and sin/omega where d < 0,
    # cosh and sinh/kappa where d > 0, and 1 and 1 where d = 0
    osc, hyp = d < 0, d > 0
    cs, sn, kappa = k, xc, zb
    cs.fill(1.0)
    sn.fill(1.0)
    np.cos(omega, out=cs, where=osc)
    np.sin(omega, out=sn, where=osc)
    np.divide(sn, omega, out=sn, where=osc)
    np.maximum(d, 0.0, out=kappa)
    np.sqrt(kappa, out=kappa)
    np.cosh(kappa, out=cs, where=hyp)
    np.sinh(kappa, out=sn, where=hyp)
    np.divide(sn, kappa, out=sn, where=hyp)
    np.multiply(sn, oa, out=t)                # e00 = cs + sn oa
    e00 = np.add(cs, t, out=za)
    e11 = np.subtract(cs, t, out=cs)          # e11 = cs - sn oa
    return e00, np.multiply(sn, ob, out=ob), np.multiply(sn, oc, out=oc), \
        e11, omega


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
        h_bulk = coarsen * min(_STEP_BULK / lam_max,
                               HALF_PI * math.pi / _profile_size(profile))
        self.nodes = [_side_nodes(side, h_bulk, hi, coarsen)
                      for side, hi in zip(self.sides,
                                          (profile.s_max, -profile.s_max))]
        n = max(len(s) for s in self.nodes) - 1
        self.terms = np.zeros((2, 3, n, 2, 1))
        for k, (side, s) in enumerate(zip(self.sides, self.nodes)):
            self.terms[:, :, :len(s) - 1, k, 0] = _magnus_terms(
                side, s[:-1], np.diff(s))
        # corrected-trapezoid weights of the energy integral at every node:
        # the u^2 weight, then the u w weight (alpha u u' = u w)
        self.energy = np.zeros((2, n + 1, 2, 1))
        for k, (side, s) in enumerate(zip(self.sides, self.nodes)):
            a, da = side.jet(s, 1)
            h = np.diff(s)
            before = np.concatenate([[0.0], h])
            after = np.concatenate([h, [0.0]])
            d2 = after * after - before * before
            self.energy[0, :len(s), k, 0] = (0.5 * a * (before + after)
                                             + da * d2 / 12.0)
            self.energy[1, :len(s), k, 0] = d2 / 6.0
        self.alpha_start = np.array(
            [[profile.alpha(-HALF_PI + _POLE_DELTA)],
             [profile.alpha(HALF_PI - _POLE_DELTA)]], dtype=float)
        self.alpha_end = float(profile.alpha(profile.s_max))


def _propagate(grid: _MagnusGrid, m, lam2, store: bool = False,
               energy: bool = False):
    """Carry the regular solution from both poles to the maximum of alpha.

    y = (u, w = alpha u') starts from the Bessel series at -pi/2 + delta
    with u = 1 and takes one Magnus step per grid step.  The step matrices
    of a chunk are computed at once; the loop only applies them and
    rescales y to unit length, and the zeros of u, the energy and the
    stored nodes of the chunk are read from its rescaled y and scale
    factors once the chunk is done.  Returns (u, w, turns, J), each of
    shape (2, rows), and with ``store`` also (U, W, L) at every node,
    shape (nodes, 2, rows): y there is (U, W) exp(L).  With ``energy``, J
    is int alpha u^2 ds from the pole in the scale of the returned (u, w)
    (else None): the series term alpha delta / (2 m + 2) up to the first
    node, then the grid's corrected trapezoid rule.
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
    J = None
    if energy:
        ew, euw = grid.energy
        J = (grid.alpha_start * _POLE_DELTA / (2.0 * m + 2.0)
             + ew[0] * u * u + euw[0] * u * w)
    if store:
        U, W, L = (np.empty((n + 1, 2, rows)) for _ in range(3))
        U[0], W[0], L[0] = u, w, 0.0
    chunk = max(16, _CHUNK_ELEMS // rows)
    # a chunk's rescaled (u, w) after each step, and the scale factors
    Uc, Wc, Rc = (np.empty((chunk, 2, rows)) for _ in range(3))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        c = stop - start
        e00, e01, e10, e11, omega = _magnus_step(
            grid.terms[:, :, start:stop], m2, lam2)
        for i in range(c):
            a = e00[i] * u
            a += e01[i] * w
            b = e10[i] * u
            b += e11[i] * w
            r = np.hypot(a, b, out=Rc[i])
            u = np.divide(a, r, out=Uc[i])
            w = np.divide(b, r, out=Wc[i])
        below = Uc[:c] < 0
        flip = below != np.concatenate([neg[None], below[:-1]])
        neg = below[-1]
        if omega.max() >= math.pi:
            flip = _half_turns(flip, omega)
        turns += flip.sum(axis=0)
        if energy:
            # log of the scale from node start + i to the chunk's end
            log_r = np.log(Rc[:c])
            to_end = np.cumsum(log_r[::-1], axis=0)[::-1]
            J *= np.exp(-2.0 * to_end[0])
            J += np.sum(np.exp(-2.0 * (to_end - log_r))
                        * (ew[start + 1:stop + 1] * Uc[:c] * Uc[:c]
                           + euw[start + 1:stop + 1] * Uc[:c] * Wc[:c]),
                        axis=0)
        if store:
            U[start + 1:stop + 1], W[start + 1:stop + 1] = Uc[:c], Wc[:c]
            L[start:stop + 1] = np.cumsum(np.concatenate(
                [L[start:start + 1], np.log(Rc[:c])]), axis=0)
    if store:
        return u, w, turns, J, U, W, L
    return u, w, turns, J


def _matching_angle(grid: _MagnusGrid, m, lam2, derivative: bool = False):
    """F(lambda^2) = theta_left + theta_right at the maximum of alpha.

    F is increasing in lam2 and crosses n pi exactly at the n-th
    eigenvalue of mode m above the floor winding.  With ``derivative``
    returns (F, F'), F' = dF/d(lambda^2) from the energy integral J of
    each side: with theta the angle of (kappa u, w), u w_E - w u_E = -J
    gives dtheta/dE = (kappa J + (alpha_end^2 / 2 kappa) u w)
    / (kappa^2 u^2 + w^2), summed over both sides.
    """
    u, w, turns, J = _propagate(grid, m, lam2, energy=derivative)
    kap = np.sqrt(np.asarray(m, dtype=float) ** 2
                  + np.asarray(lam2, dtype=float) * grid.alpha_end ** 2)
    F = np.sum(_prufer_angle(u, w, kap, turns), axis=0)
    if not derivative:
        return F
    dF = np.sum((kap * J + 0.5 * grid.alpha_end ** 2 / kap * u * w)
                / (kap * kap * u * u + w * w), axis=0)
    return F, dF


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


def _newton(F, m, goal, lo, hi, f_lo, f_hi, tol: float) -> np.ndarray:
    """Roots of F(m, x) = goal in brackets [lo, hi] of x = lambda^2 > 0.

    ``F`` returns the values and the derivatives in x.  Safeguarded Newton
    steps run on every bracket at once, taken in sqrt(x), in which F is
    nearly linear; each bracket starts at its secant point there.  A pass
    evaluates F and F' at the point of every bracket wider than ``tol``,
    keeps the part that still straddles the goal and steps by Newton from
    the new point.  A step that leaves its bracket falls back to the
    Illinois point: regula falsi on working end values, one of them halved
    when its end is kept twice in a row.  Once a Newton step is shorter
    than ``_GUARD_STEP`` tol, the next pass evaluates the two guard points
    ``_GUARD_OFFSET`` tol on either side of the new point instead, which
    close the bracket below ``tol`` when that point is as close to the
    root as the step predicts.  Every new F value must lie between its
    bracket's end values.  A root is the secant point through the true
    values at the two ends of a bracket narrower than ``tol`` that
    straddles the goal.
    """
    if np.any(f_lo >= 0) or np.any(f_hi < 0):
        bad = int(np.argmax((f_lo >= 0) | (f_hi < 0)))
        raise SolverFailure("bracket does not straddle its target",
                            mode=int(m[bad]), bracket=(lo[bad], hi[bad]))
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float)
                          for v in (lo, hi, f_lo, f_hi))
    g_lo, g_hi = f_lo.copy(), f_hi.copy()
    kept = np.zeros(len(lo), dtype=int)      # +1: lo kept last step, -1: hi
    r_lo, r_hi = np.sqrt(lo), np.sqrt(hi)
    x = (r_lo - f_lo * (r_hi - r_lo) / (f_hi - f_lo)) ** 2
    guard = np.zeros(len(lo), dtype=bool)
    for _ in range(_ROOT_MAX_PASSES):
        act = np.flatnonzero(hi - lo > tol)
        if act.size == 0:
            break
        a, b, gd = lo[act], hi[act], guard[act]
        # a quarter tolerance off each end, so every point is inside
        xa = np.clip(x[act], a + 0.25 * tol, b - 0.25 * tol)
        # p1 <= p2: the point twice, or its two guards
        p1 = np.where(gd, np.maximum(xa - _GUARD_OFFSET * tol, a), xa)
        p2 = np.where(gd, np.minimum(xa + _GUARD_OFFSET * tol, b), xa)
        row = np.concatenate([act, act[gd]])
        fx, dfx = F(m[row], np.concatenate([p1, p2[gd]]))
        fx = fx - goal[row]
        # F increases, so F(x) lies between the true values at the ends
        out = ((fx < f_lo[row] - _MONOTONE_SLACK)
               | (fx > f_hi[row] + _MONOTONE_SLACK))
        if out.any():
            i = row[int(np.argmax(out))]
            raise SolverFailure(
                f"F of mode {int(m[i])} left its bracket: not monotone",
                mode=int(m[i]), bracket=(lo[i], hi[i]))
        f1, d1 = fx[:act.size], dfx[:act.size]
        f2, d2 = f1.copy(), d1.copy()
        f2[gd], d2[gd] = fx[act.size:], dfx[act.size:]
        up = f1 >= 0                          # p1 becomes the new hi
        down = f2 < 0                         # p2 becomes the new lo
        # (neither: the guards straddle the goal and become both ends)
        halve = np.where(up, kept[act] == 1, kept[act] == -1)
        g_lo[act] = np.where(up, np.where(halve, 0.5, 1.0) * g_lo[act],
                             np.where(down, f2, f1))
        g_hi[act] = np.where(down, np.where(halve, 0.5, 1.0) * g_hi[act],
                             np.where(up, f1, f2))
        kept[act] = np.where(up, 1, np.where(down, -1, 0))
        f_lo[act] = np.where(up, f_lo[act], np.where(down, f2, f1))
        f_hi[act] = np.where(up, f1, np.where(down, f_hi[act], f2))
        lo[act] = np.where(up, a, np.where(down, p2, p1))
        hi[act] = np.where(up, p1, np.where(down, b, p2))
        # the Newton step in sqrt(x) from the new end nearest the root
        xp, fp, dp = (np.where(down, v2, v1)
                      for v1, v2 in ((p1, p2), (f1, f2), (d1, d2)))
        with np.errstate(divide="ignore", invalid="ignore"):
            rp = np.sqrt(xp)
            r_new = rp - fp / (2.0 * rp * dp)
        newton = r_new * r_new
        ok = (dp > 0) & (r_new > 0) & (newton > lo[act]) & (newton < hi[act])
        illinois = lo[act] - g_lo[act] * (hi[act] - lo[act]) / (
            g_hi[act] - g_lo[act])
        x[act] = np.where(ok, newton, illinois)
        guard[act] = ok & (np.abs(newton - xp) <= _GUARD_STEP * tol)
    else:
        raise SolverFailure(f"root iteration did not converge in "
                            f"{_ROOT_MAX_PASSES} passes")
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
    ``SolverFailure``.  Safeguarded Newton iteration, with F' from the
    energy integral of the same passes, then narrows every bracket below
    ``_LAM2_TOL`` in lambda^2 (:func:`_newton`).

    An eigenvalue belongs to the spectrum when its refined lambda^2 is at
    most ``lambda_max**2 * (1 + _CUTOFF_RTOL)``: a cutoff that is itself an
    eigenvalue keeps its whole multiplet, whichever side of it the
    discretisation error puts each mode.  The eigenbasis table has
    ``_cheb_size(profile, lambda_max)`` Chebyshev nodes per row.
    """
    check_cutoff(lambda_max)
    a_max = profile.alpha_max
    grid = _MagnusGrid(profile, lambda_max)

    def F(m_arr, lam2_arr):
        return _matching_angle(grid, m_arr, lam2_arr, derivative=True)

    lam2_cut = lambda_max ** 2 * (1.0 + _CUTOFF_RTOL)
    lam2_lo = min(1e-6, lambda_max ** 2 * 1e-9)

    # ----- one winding table: every mode on nodes uniform in lambda
    modes = [m for m in range(int(math.ceil(lambda_max * a_max)) + 3)
             if m * m <= lam2_cut * a_max * a_max + 1e-9]
    n_nodes = int(math.ceil(lambda_max)) + 1
    lam_top = math.sqrt(lam2_cut * (1.0 + _CUTOFF_RTOL))
    nodes = np.concatenate(
        [[lam2_lo], (lam_top * np.arange(1, n_nodes) / (n_nodes - 1)) ** 2])
    table = _matching_angle(
        grid, np.repeat(np.array(modes, dtype=float), n_nodes),
        np.tile(nodes, len(modes))).reshape(len(modes), n_nodes)
    targets_m, goal, lo, hi, f_lo, f_hi = _winding_brackets(table, nodes,
                                                            modes)
    _certify_windings(_MagnusGrid(profile, lambda_max, coarsen=2.0), table,
                      nodes, modes)

    # ----- safeguarded Newton iteration inside every bracket at once
    lam2_star = _newton(F, targets_m, goal, lo, hi, f_lo, f_hi, _LAM2_TOL)
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
        basis = SurfaceEigenbasis(profile, m_row, k_row, lam_row, entry,
                                  _cheb_size(profile, lambda_max))
        row = np.argsort(order)        # the row of each unsorted entry
        _build_eigenfunctions(basis, grid, vol, targets_m, lam2_star, row[1:])
    return Spectrum(lam_arr, mult_arr, lambda_max, 2, vol,
                    profile.label, mode_tags=tag_arr, basis=basis)


def _build_eigenfunctions(basis: SurfaceEigenbasis, grid: _MagnusGrid,
                          vol: float, targets_m, lam2_star, rows):
    """Fill the table of ``basis``: radial factors, normalized.

    Row 0 is the constant mode 1 / sqrt(vol).  Target i goes to row
    ``rows[i]``, in chunks whose stored arrays hold about ``_STORE_ELEMS``
    elements each: one stored pass of a chunk gives (u, w) and the log
    scale at the grid nodes; each Chebyshev node is reached by a partial
    Magnus step from the node to its left, and nodes below the first grid
    node take the Bessel series.  The right side is scaled to meet the
    left at the maximum of alpha.
    """
    profile = basis.profile
    n_cheb = basis.coeffs.shape[1]
    nodes = _cheb_nodes(n_cheb)
    alpha_nodes = profile.alpha(nodes)
    u = np.full(n_cheb, 1.0 / math.sqrt(vol))
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
    chunk = max(1, _STORE_ELEMS // (2 * (grid.terms.shape[2] + 1)))
    for start in range(0, len(targets_m), chunk):
        sl = slice(start, start + chunk)
        m_b, l2_b, rows_b = targets_m[sl], lam2_star[sl], rows[sl]
        lam_b = np.sqrt(l2_b)
        u_end, w_end, _, _, U, W, L = _propagate(grid, m_b, l2_b,
                                                 store=True)
        u_nodes = np.empty((len(m_b), n_cheb))
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
