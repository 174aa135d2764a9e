"""Model geometries: profiles of revolution, spheres, flat tori, products.

A profile ``alpha`` on [-pi/2, pi/2] defines the metric of revolution
``ds^2 + alpha(s)^2 dtheta^2`` on the two-sphere; the poles close smoothly
exactly when alpha vanishes at the endpoints with unit slope.  Each
profile is one jet evaluator, ``jet(s, order)``, which gives alpha and its
derivatives up to ``order`` in closed form from one pass over the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import (ConfigError, DomainError, InvariantViolation,
                     SolverFailure, bind, number)
from .quadrature import cumulative_simpson

HALF_PI = math.pi / 2.0

_VALIDATION_GRID = 10_000
# The profile's own Chebyshev table (see profile_table): the antiderivative
# of 2 pi alpha (about 4 pi at the end), sampled at _PROFILE_NODES extrema
# (spacing about 0.005 at the equator) and doubled, up to
# _PROFILE_MAX_NODES, until the upper half of its coefficients is below
# _PROFILE_TOL
_PROFILE_NODES = 1025
_PROFILE_MAX_NODES = (1 << 16) + 1
_PROFILE_TOL = 1e-10


@dataclass(frozen=True)
class ProfileCurve:
    """Profile of a metric of revolution, given by its jet evaluator.

    ``jet(s, order)`` takes a float or a numpy array and returns the tuple
    (alpha, alpha'[, alpha'']) at s, up to ``order`` (0, 1 or 2), computing
    only the derivatives asked for.  ``s_max`` locates the (unique)
    interior maximum of alpha, ``alpha_max`` its value; for even profiles
    s_max is 0.
    """

    jet: Callable
    label: str
    s_max: float = 0.0
    alpha_max: float = 1.0

    def alpha(self, s):
        return self.jet(s, 0)[0]

    def d_alpha(self, s):
        return self.jet(s, 1)[1]

    def dd_alpha(self, s):
        return self.jet(s, 2)[2]

    def reflected(self) -> "ProfileCurve":
        """Mirror profile alpha(-s); swaps the roles of the two poles."""
        jet = self.jet

        def mirrored(s, order):
            vals = jet(-np.asarray(s), order)
            return tuple(-v if k == 1 else v for k, v in enumerate(vals))

        return ProfileCurve(mirrored, self.label + " (reflected)",
                            s_max=-self.s_max, alpha_max=self.alpha_max)


def validate_profile(profile: ProfileCurve) -> None:
    """Check the profile invariants on a dense grid.

    The poles close (alpha = 0 with slope +-1), alpha is positive inside,
    unimodal about ``s_max``, and alpha'' is negative there.  Raises
    :class:`InvariantViolation` on failure.
    """
    for end, slope in ((-HALF_PI, 1.0), (HALF_PI, -1.0)):
        a, da = (float(v) for v in profile.jet(end, 1))
        if abs(a) > 1e-12:
            raise InvariantViolation(
                f"{profile.label}: alpha({end:+.3f}) = {a:.3e} != 0")
        if abs(da - slope) > 1e-6:
            raise InvariantViolation(
                f"{profile.label}: alpha'({end:+.3f}) = {da:.6f}, "
                f"expected {slope:+.0f}")
    s = np.linspace(-HALF_PI + 1e-4, HALF_PI - 1e-4, _VALIDATION_GRID)
    vals, dvals = profile.jet(s, 1)
    if np.any(vals <= 0):
        bad = s[np.argmin(vals)]
        raise InvariantViolation(
            f"{profile.label}: alpha not positive on the interior (s={bad:.4f})")
    mask = np.abs(s - profile.s_max) > 1e-3
    slope_in = -(s[mask] - profile.s_max) * dvals[mask]
    if np.any(slope_in <= 0):
        raise InvariantViolation(
            f"{profile.label}: not unimodal about s_max={profile.s_max:.4f} "
            f"(fails at s={s[mask][np.argmin(slope_in)]:.4f})")
    if float(profile.dd_alpha(profile.s_max)) >= 0:
        raise InvariantViolation(
            f"{profile.label}: alpha'' at the maximum is not negative")


def _validated(jet: Callable, label: str) -> ProfileCurve:
    """The profile of ``jet`` with its maximum located, after validation."""
    rough = ProfileCurve(jet, label)
    grid = np.linspace(-HALF_PI + 1e-6, HALF_PI - 1e-6, 4001)
    i = int(np.argmax(rough.alpha(grid)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if rough.d_alpha(lo) * rough.d_alpha(hi) < 0:
        s_star = brentq(lambda s: float(rough.d_alpha(s)), lo, hi, xtol=1e-14)
    else:
        s_star = grid[i]
    profile = ProfileCurve(jet, label, s_max=float(s_star),
                           alpha_max=float(rough.alpha(s_star)))
    validate_profile(profile)
    return profile


def _round_jet(s, order):
    s = np.asarray(s, dtype=float)
    cs = np.cos(s)
    return (cs,) if order == 0 else (cs, -np.sin(s), -cs)[:order + 1]


def make_round_sphere() -> ProfileCurve:
    """Round unit sphere, alpha(s) = cos s."""
    return ProfileCurve(_round_jet, "round sphere")


def _bump_jet(a: float, b: float, x, order: int) -> list:
    """(f, f'[, f'']) of bump_function(a, b) at x, from one gather.

    Only the points inside (a, b) are gathered.  With g = -1/(x-a) - 1/(b-x)
    the exponent, f' = f g' and f'' = f (g'' + g'^2).
    """
    x = np.asarray(x, dtype=float)
    out = [np.zeros(x.shape) for _ in range(order + 1)]
    inside = (x > a) & (x < b)
    if inside.any():
        p, q = x[inside] - a, b - x[inside]
        with np.errstate(over="ignore", under="ignore"):
            f = np.exp(-1.0 / p - 1.0 / q) / math.exp(-4.0 / (b - a))
        out[0][inside] = f
        if order >= 1:
            gp = 1.0 / p ** 2 - 1.0 / q ** 2
            out[1][inside] = f * gp
        if order >= 2:
            out[2][inside] = f * (-2.0 / p ** 3 - 2.0 / q ** 3 + gp ** 2)
    return out


def bump_function(a: float, b: float) -> Callable:
    """Smooth bump on (a, b), scaled to maximum 1, identically 0 outside.

    Standard mollifier exp(-1/(x-a) - 1/(b-x)); all derivatives vanish at
    the endpoints, which keeps perturbed-profile derivatives well
    conditioned near the support boundary.
    """
    return lambda x: _bump_jet(a, b, x, 0)[0]


@dataclass(frozen=True)
class PerturbationSpec:
    """Bump perturbation of the round sphere: epsilon times the bumps on
    (a, b) and on the mirror interval (-b, -a), with 0 < a < b < pi/2."""

    epsilon: float
    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < self.b < HALF_PI):
            raise DomainError(f"support bounds need 0 < a < b < pi/2, "
                              f"got a={self.a}, b={self.b}")


def make_perturbed_sphere(spec: PerturbationSpec) -> ProfileCurve:
    """alpha = cos s + epsilon (bump on (a, b) + bump on (-b, -a)).

    Both bumps come from one gather at |s|: the mirror bump at s is the
    bump at -s, with its slope negated.  Negation and sums with 0 are exact
    and the supports are disjoint, so every value equals the sum of the
    two one-sided evaluations bit for bit.  Validates the invariants.
    """
    eps, a, b = spec.epsilon, spec.a, spec.b

    def jet(s, order):
        s = np.asarray(s, dtype=float)
        bump = _bump_jet(a, b, np.abs(s), order)
        if order >= 1:
            bump[1] *= np.sign(s)
        return tuple(r + eps * f for r, f in zip(_round_jet(s, order), bump))

    return _validated(jet, f"perturbed sphere (eps={eps}, a={a}, b={b})")


def make_pendulum_profile(E: float) -> ProfileCurve:
    """Arc-length profile of the spherical-pendulum metric at energy E > 2.

    The metric (E - 2 sin s)(ds^2 + cos^2 s dtheta^2) is rewritten as
    dsig^2 + abar(sig)^2 dtheta^2 via sig(s) = int_0^s sqrt(E - 2 sin u) du,
    then the sig-domain is mapped affinely onto [-pi/2, pi/2].  The affine
    map scales the metric globally, which leaves rotation numbers unchanged;
    the scale is recorded in the label.  The resulting profile is unimodal
    with its maximum at a slightly negative latitude (it is not even).  Each
    jet call inverts sig(s) once, by Newton steps on a spline of the table.
    """
    if E <= 2:
        raise DomainError(f"pendulum reparametrization needs E > 2, got E={E}")

    from scipy.interpolate import CubicSpline

    def speed(u):
        return np.sqrt(E - 2.0 * np.sin(np.asarray(u, dtype=float)))

    s_tab = np.linspace(-HALF_PI, HALF_PI, 8001)
    sig_tab = cumulative_simpson(speed(s_tab), s_tab)
    sig_tab -= sig_tab[4000]          # anchor sigma(0) = 0
    sigma_minus, sigma_plus = float(sig_tab[0]), float(sig_tab[-1])
    scale = (sigma_plus - sigma_minus) / math.pi
    center = 0.5 * (sigma_plus + sigma_minus)
    sig_spline = CubicSpline(s_tab, sig_tab)

    def s_of_scaled(sig_t):
        sig = center + scale * np.asarray(sig_t, dtype=float)
        sig = np.clip(sig, sigma_minus, sigma_plus)
        s = np.interp(sig, sig_tab, s_tab)
        for _ in range(4):            # Newton on the spline, well below 1e-12
            s = np.clip(s - (sig_spline(s) - sig) / speed(s), -HALF_PI, HALF_PI)
        return s

    def jet(sig_t, order):
        # abar(s) = v cos s with v = speed(s); d/dsig = (1/v) d/ds
        s = s_of_scaled(sig_t)
        v, cs = speed(s), np.cos(s)
        out = (v * cs / scale,)
        if order >= 1:
            sn = np.sin(s)
            d_abar = -cs ** 2 / v - v * sn
            out += (d_abar / v,)
        if order >= 2:
            dd_abar = 3.0 * sn * cs / v - cs ** 3 / v ** 3 - v * cs
            out += (scale * (dd_abar * v - d_abar * (-cs / v)) / v ** 3,)
        return out

    return _validated(jet, f"spherical pendulum E={E} "
                           f"(metric globally scaled by {scale ** 2:.12g})")


# ---------------------------------------------------------------------------
# Model manifolds


@dataclass(frozen=True)
class ModelManifold:
    """A closed model manifold with an explicitly computable volume; the
    surfaces of revolution and the round 2-sphere carry their profile."""

    kind: str                     # surface_of_revolution | round_sphere | flat_torus | product
    dim: int
    profile: ProfileCurve = None
    n: int = None                 # for round spheres
    periods: tuple = None         # for flat tori
    factors: tuple = None         # for products

    @property
    def volume(self) -> float:
        return manifold_volume(self)


def surface_of_revolution(profile: ProfileCurve) -> ModelManifold:
    return ModelManifold(kind="surface_of_revolution", dim=2, profile=profile)


def round_sphere(n: int) -> ModelManifold:
    if n < 1:
        raise DomainError("sphere dimension must be >= 1")
    return ModelManifold(kind="round_sphere", dim=n, n=n,
                         profile=make_round_sphere() if n == 2 else None)


def flat_torus(periods) -> ModelManifold:
    periods = tuple(float(p) for p in periods)
    if any(p <= 0 for p in periods):
        raise DomainError("torus periods must be positive")
    return ModelManifold(kind="flat_torus", dim=len(periods), periods=periods)


def product(m1: ModelManifold, m2: ModelManifold) -> ModelManifold:
    return ModelManifold(kind="product", dim=m1.dim + m2.dim, factors=(m1, m2))


def lattice_box(extents) -> list:
    """Open integer index grids ("ij" order) of the box |k_i| <= int(e_i) + 1.

    One entry per extent e_i, shaped to broadcast against the others
    (``np.broadcast_arrays`` gives the full grids); callers scale the
    indices by their periods (positions) or by 2 pi / period (dual-lattice
    frequencies).
    """
    axes = [np.arange(-int(e) - 1, int(e) + 2) for e in extents]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def sphere_volume(n: int) -> float:
    """Volume of the round unit n-sphere."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


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


@lru_cache(maxsize=16)
def profile_table(profile: ProfileCurve) -> np.ndarray:
    """Chebyshev coefficients of int_0^s 2 pi alpha, in x = s / (pi/2).

    The antiderivative is sampled at ``_PROFILE_NODES`` extrema, doubled
    until its coefficients' upper half is below ``_PROFILE_TOL``.  A
    feature narrower than the first node spacing can fall between the
    nodes and go unseen.  Cached per profile, read-only: every band area,
    the volume and the spectral solver's table sizes read it.
    """
    n = _PROFILE_NODES
    while True:
        b = _cheb_integral(_cheb_coeffs(
            2.0 * math.pi * profile.alpha(_cheb_nodes(n))))
        if np.max(np.abs(b[n // 2:])) <= _PROFILE_TOL:
            b.flags.writeable = False      # one cached array for all callers
            return b
        if n >= _PROFILE_MAX_NODES:
            raise SolverFailure(f"{profile.label}: the profile is not "
                                f"resolved by {n} Chebyshev nodes")
        n = 2 * n - 1


def _profile_size(profile: ProfileCurve) -> int:
    """Chebyshev nodes that resolve the profile itself: the smallest power
    of two past which every coefficient of :func:`profile_table` is below
    ``_PROFILE_TOL``."""
    last = np.flatnonzero(np.abs(profile_table(profile)) > _PROFILE_TOL)[-1]
    return 1 << int(last).bit_length()


def check_band(s0: float, s1: float) -> None:
    """DomainError unless [s0, s1] is a band: -pi/2 <= s0 < s1 <= pi/2."""
    if not -HALF_PI <= s0 < s1 <= HALF_PI:
        raise DomainError(f"band [{s0}, {s1}] is empty or off [-pi/2, pi/2]")


def band_area(profile: ProfileCurve, s0: float, s1: float) -> float:
    """Riemannian area of the band [s0, s1] x S^1: 2 pi int alpha, read
    from :func:`profile_table` at the two ends, T_k(x) = cos(k arccos x)."""
    check_band(s0, s1)
    b = profile_table(profile)
    ends = np.cos(np.outer(np.arccos(np.array([s0, s1]) / HALF_PI),
                           np.arange(len(b)))) @ b
    return float(ends[1] - ends[0])


def check_points(manifold: ModelManifold, *points) -> None:
    """DomainError unless every (s, theta) point of a manifold with a
    profile lies in its chart, |s| <= pi/2; other manifolds pass."""
    if manifold.profile is None:
        return
    for s, _ in points:
        if not abs(s) <= HALF_PI:
            raise DomainError(f"point s = {s} leaves [-pi/2, pi/2]")


def manifold_volume(m: ModelManifold) -> float:
    """Riemannian volume; enters the Weyl main term."""
    if m.kind == "surface_of_revolution":
        return band_area(m.profile, -HALF_PI, HALF_PI)
    if m.kind == "round_sphere":
        return sphere_volume(m.n)
    if m.kind == "flat_torus":
        return math.prod(m.periods)
    if m.kind == "product":
        return manifold_volume(m.factors[0]) * manifold_volume(m.factors[1])
    raise DomainError(f"unknown manifold kind {m.kind!r}")


# ---------------------------------------------------------------------------
# JSON configuration


def _product(*, factors) -> ModelManifold:
    if not isinstance(factors, (list, tuple)) or len(factors) != 2:
        raise ConfigError("product config needs exactly two factors")
    return product(*(manifold_from_config(f) for f in factors))


def _flat_torus(*, periods) -> ModelManifold:
    if not isinstance(periods, (list, tuple)):
        raise ConfigError(f"'periods' must be a list of numbers, got "
                          f"{type(periods).__name__}")
    return flat_torus([number(p, "'periods' entry") for p in periods])


# each kind's builder; its keyword parameters are the kind's JSON fields
_BUILDERS = {
    "round_sphere": lambda *, n=2: round_sphere(int(n)),
    "perturbed_sphere": lambda *, epsilon, a, b: surface_of_revolution(
        make_perturbed_sphere(PerturbationSpec(number(epsilon, "'epsilon'"),
                                               number(a, "'a'"),
                                               number(b, "'b'")))),
    "pendulum": lambda *, E: surface_of_revolution(
        make_pendulum_profile(number(E, "'E'"))),
    "flat_torus": _flat_torus,
    "product": _product,
    # round profile realized through the revolution machinery
    "surface_of_revolution":
        lambda: surface_of_revolution(make_round_sphere()),
}


def manifold_from_config(cfg: dict) -> ModelManifold:
    """Build a manifold from a JSON object with a ``kind`` field; the other
    fields bind to the keyword parameters of the kind's builder."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("manifold config must be a dict with a 'kind' field")
    fields = dict(cfg)
    kind = fields.pop("kind")
    builder = _BUILDERS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ConfigError(f"unknown manifold kind {kind!r}")
    return builder(**bind(builder, fields, f"manifold {kind!r}"))
