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
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConfigError, DomainError, InvariantViolation

HALF_PI = math.pi / 2.0

_VALIDATION_GRID = 10_000


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

    def __call__(self, s):
        return self.alpha(s)

    def alpha(self, s):
        return self.jet(s, 0)[0]

    def d_alpha(self, s):
        return self.jet(s, 1)[1]

    def dd_alpha(self, s):
        return self.jet(s, 2)[2]

    def alpha_and_d_alpha(self, s):
        """(alpha(s), alpha'(s)) from one pass over the profile."""
        return self.jet(s, 1)

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

    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicSpline

    def speed(u):
        return np.sqrt(E - 2.0 * np.sin(np.asarray(u, dtype=float)))

    s_tab = np.linspace(-HALF_PI, HALF_PI, 8001)
    sig_tab = cumulative_simpson(speed(s_tab), x=s_tab, initial=0.0)
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
    """A closed model manifold with an explicitly computable volume."""

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
    return ModelManifold(kind="round_sphere", dim=n, n=n)


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


def band_area(profile: ProfileCurve, s0: float, s1: float) -> float:
    """Riemannian area of the band [s0, s1] x S^1: 2 pi int alpha, by quad."""
    return 2.0 * math.pi * quad(lambda s: float(profile.alpha(s)), s0, s1,
                                epsabs=1e-12, epsrel=1e-12)[0]


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


def manifold_from_config(cfg: dict) -> ModelManifold:
    """Build a manifold from a JSON-style dict with a ``kind`` field."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("manifold config must be a dict with a 'kind' field")
    kind = cfg["kind"]
    if kind == "round_sphere":
        return round_sphere(int(cfg.get("n", 2)))
    if kind == "perturbed_sphere":
        spec = PerturbationSpec(epsilon=float(cfg["epsilon"]),
                                a=float(cfg["a"]), b=float(cfg["b"]))
        return surface_of_revolution(make_perturbed_sphere(spec))
    if kind == "pendulum":
        return surface_of_revolution(make_pendulum_profile(float(cfg["E"])))
    if kind == "flat_torus":
        return flat_torus(cfg["periods"])
    if kind == "product":
        facs = cfg.get("factors")
        if not facs or len(facs) != 2:
            raise ConfigError("product config needs exactly two factors")
        return product(manifold_from_config(facs[0]), manifold_from_config(facs[1]))
    if kind == "surface_of_revolution":
        # round profile realized through the revolution machinery
        return surface_of_revolution(make_round_sphere())
    raise ConfigError(f"unknown manifold kind {kind!r}")
