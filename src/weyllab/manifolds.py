"""Model geometries: profiles of revolution, spheres, flat tori, products.

A profile ``alpha`` on [-pi/2, pi/2] defines the metric of revolution
``ds^2 + alpha(s)^2 dtheta^2`` on the two-sphere; the poles close smoothly
exactly when alpha vanishes at the endpoints with unit slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConfigError, DomainError, InvariantViolation

HALF_PI = math.pi / 2.0

_VALIDATION_GRID = 10_000


@dataclass(frozen=True)
class ProfileCurve:
    """Profile of a metric of revolution and its first two derivatives.

    Evaluators are vectorized (accept floats or numpy arrays).  Where no
    closed form exists the derivatives are 5-point central differences with
    step 1e-5.  ``s_max`` locates the (unique) interior maximum of alpha;
    for even profiles it is 0.  ``alpha_pair``, when given, returns
    ``(alpha(s), d_alpha(s))`` bit for bit from one pass over the profile;
    :meth:`alpha_and_d_alpha` falls back to the two evaluators.
    """

    alpha: Callable
    d_alpha: Callable
    dd_alpha: Callable
    label: str
    s_max: float = 0.0
    alpha_max: float = 1.0
    alpha_pair: Callable = field(default=None, repr=False, compare=False)

    def __call__(self, s):
        return self.alpha(s)

    def alpha_and_d_alpha(self, s):
        """(alpha(s), alpha'(s)), in one pass where the profile has one."""
        if self.alpha_pair is None:
            return self.alpha(s), self.d_alpha(s)
        return self.alpha_pair(s)

    def reflected(self) -> "ProfileCurve":
        """Mirror profile alpha(-s); swaps the roles of the two poles."""
        a, da, dda = self.alpha, self.d_alpha, self.dd_alpha
        pair = self.alpha_pair

        def mirrored_pair(s):
            val, slope = pair(-np.asarray(s))
            return val, -slope

        return ProfileCurve(
            alpha=lambda s: a(-np.asarray(s)),
            d_alpha=lambda s: -da(-np.asarray(s)),
            dd_alpha=lambda s: dda(-np.asarray(s)),
            label=self.label + " (reflected)",
            s_max=-self.s_max,
            alpha_max=self.alpha_max,
            alpha_pair=None if pair is None else mirrored_pair,
        )


def _finite_diff_evaluators(alpha, h: float = 1e-5):
    def d1(s):
        s = np.asarray(s, dtype=float)
        return (-alpha(s + 2 * h) + 8 * alpha(s + h)
                - 8 * alpha(s - h) + alpha(s - 2 * h)) / (12 * h)

    def d2(s):
        s = np.asarray(s, dtype=float)
        return (-alpha(s + 2 * h) + 16 * alpha(s + h) - 30 * alpha(s)
                + 16 * alpha(s - h) - alpha(s - 2 * h)) / (12 * h * h)

    return d1, d2


def _locate_max(alpha, d_alpha) -> tuple[float, float]:
    grid = np.linspace(-HALF_PI + 1e-6, HALF_PI - 1e-6, 4001)
    vals = alpha(grid)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if d_alpha(lo) * d_alpha(hi) < 0:
        s_star = brentq(lambda s: float(d_alpha(s)), lo, hi, xtol=1e-14)
    else:
        s_star = grid[i]
    return float(s_star), float(alpha(s_star))


def validate_profile(profile: ProfileCurve, strict: bool = True,
                     grid_points: int = _VALIDATION_GRID) -> None:
    """Check the profile invariants on a dense grid.

    Strict mode additionally requires the maximum at s = 0 (the mirror
    symmetric setup); unimodality about ``s_max`` is always required.
    Raises :class:`InvariantViolation` on failure.
    """
    a = profile.alpha
    da = profile.d_alpha
    for end, slope in ((-HALF_PI, 1.0), (HALF_PI, -1.0)):
        if abs(float(a(end))) > 1e-12:
            raise InvariantViolation(
                f"{profile.label}: alpha({end:+.3f}) = {float(a(end)):.3e} != 0")
        if abs(float(da(end)) - slope) > 1e-6:
            raise InvariantViolation(
                f"{profile.label}: alpha'({end:+.3f}) = {float(da(end)):.6f}, "
                f"expected {slope:+.0f}")
    s = np.linspace(-HALF_PI + 1e-4, HALF_PI - 1e-4, grid_points)
    vals = a(s)
    if np.any(vals <= 0):
        bad = s[np.argmin(vals)]
        raise InvariantViolation(
            f"{profile.label}: alpha not positive on the interior (s={bad:.4f})")
    dvals = da(s)
    if strict:
        mask = np.abs(s) > 1e-3
        if np.any(-s[mask] * dvals[mask] <= 0):
            bad = s[mask][np.argmin(-s[mask] * dvals[mask])]
            raise InvariantViolation(
                f"{profile.label}: -s*alpha'(s) > 0 fails at s={bad:.4f}")
    else:
        mask = np.abs(s - profile.s_max) > 1e-3
        if np.any(-(s[mask] - profile.s_max) * dvals[mask] <= 0):
            bad = s[mask][np.argmin(-(s[mask] - profile.s_max) * dvals[mask])]
            raise InvariantViolation(
                f"{profile.label}: not unimodal about s_max={profile.s_max:.4f} "
                f"(fails at s={bad:.4f})")
    if float(profile.dd_alpha(profile.s_max)) >= 0:
        raise InvariantViolation(
            f"{profile.label}: alpha'' at the maximum is not negative")


def make_round_sphere() -> ProfileCurve:
    """Round unit sphere, alpha(s) = cos s."""
    return ProfileCurve(
        alpha=lambda s: np.cos(np.asarray(s, dtype=float)),
        d_alpha=lambda s: -np.sin(np.asarray(s, dtype=float)),
        dd_alpha=lambda s: -np.cos(np.asarray(s, dtype=float)),
        label="round sphere",
        s_max=0.0,
        alpha_max=1.0,
    )


def _bump_evaluator(a: float, b: float, weight: Callable = None) -> Callable:
    """x -> bump(x) weight(x) on (a, b), 0 outside; the bump is evaluated once.

    Only the points inside the support are gathered, and the exponent is
    taken there alone; ``weight`` (default 1) sees those points only.
    """
    peak = math.exp(-4.0 / (b - a))  # value at the midpoint

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        inside = (x > a) & (x < b)
        if inside.any():
            xi = x[inside]
            with np.errstate(over="ignore", under="ignore"):
                val = np.exp(-1.0 / (xi - a) - 1.0 / (b - xi)) / peak
            out[inside] = val if weight is None else val * weight(xi)
        return out

    return f


def bump_function(a: float, b: float) -> Callable:
    """Smooth bump on (a, b), scaled to maximum 1, identically 0 outside.

    Standard mollifier exp(-1/(x-a) - 1/(b-x)); all derivatives vanish at
    the endpoints, which keeps perturbed-profile derivatives well
    conditioned near the support boundary.
    """
    return _bump_evaluator(a, b)


def _bump_derivatives(a: float, b: float):
    """First and second derivatives of bump_function(a, b).

    With g = -1/(x-a) - 1/(b-x) the exponent, they are bump g' and
    bump (g'' + g'^2).
    """
    def gp(xi):
        return 1.0 / (xi - a) ** 2 - 1.0 / (b - xi) ** 2

    def gp2_plus_gpp(xi):
        gpp = -2.0 / (xi - a) ** 3 - 2.0 / (b - xi) ** 3
        return gpp + gp(xi) ** 2

    return _bump_evaluator(a, b, gp), _bump_evaluator(a, b, gp2_plus_gpp)


def _bump_pair(a: float, b: float) -> Callable:
    """x -> (f, f') of the sum of the bumps on (a, b) and (-b, -a).

    One gather over both supports: the mirror bump at x is the bump at
    |x| with its slope negated.  Per point these are the operations of
    bump_function and the first of _bump_derivatives, reordered only where
    floating point is exact (negation, commuted sums), so the two sums are
    bit-identical to those evaluators' (the supports are disjoint).
    """
    peak = math.exp(-4.0 / (b - a))

    def f(x):
        x = np.asarray(x, dtype=float)
        val, slope = np.zeros(x.shape), np.zeros(x.shape)
        y = np.abs(x)
        inside = (y > a) & (y < b)
        if inside.any():
            yi = y[inside]
            with np.errstate(over="ignore", under="ignore"):
                v = np.exp(-1.0 / (yi - a) - 1.0 / (b - yi)) / peak
            val[inside] = v
            slope[inside] = np.sign(x[inside]) * v \
                * (1.0 / (yi - a) ** 2 - 1.0 / (b - yi) ** 2)
        return val, slope

    return f


@dataclass(frozen=True)
class PerturbationSpec:
    """Bump perturbation data for a perturbed sphere.

    ``f_plus`` is supported in (a, b) with 0 < a < b < pi/2; ``f_minus`` in
    the mirror interval (-b, -a).  Both are nonnegative and smooth.  When
    both are the default bumps, ``bumps`` evaluates (f_plus + f_minus, its
    derivative) in one pass; otherwise it is None.
    """

    epsilon: float
    a: float
    b: float
    f_plus: Callable = None
    f_minus: Callable = None
    d_f_plus: Callable = field(default=None, repr=False)
    dd_f_plus: Callable = field(default=None, repr=False)
    d_f_minus: Callable = field(default=None, repr=False)
    dd_f_minus: Callable = field(default=None, repr=False)
    bumps: Callable = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not (0 < self.a < self.b < HALF_PI):
            raise DomainError(f"support bounds need 0 < a < b < pi/2, "
                              f"got a={self.a}, b={self.b}")
        if self.f_plus is None and self.f_minus is None:
            object.__setattr__(self, "bumps", _bump_pair(self.a, self.b))
        if self.f_plus is None:
            d1, d2 = _bump_derivatives(self.a, self.b)
            object.__setattr__(self, "f_plus", bump_function(self.a, self.b))
            object.__setattr__(self, "d_f_plus", d1)
            object.__setattr__(self, "dd_f_plus", d2)
        if self.f_minus is None:
            d1m, d2m = _bump_derivatives(-self.b, -self.a)
            object.__setattr__(self, "f_minus", bump_function(-self.b, -self.a))
            object.__setattr__(self, "d_f_minus", d1m)
            object.__setattr__(self, "dd_f_minus", d2m)
        if self.d_f_plus is None:
            d1, d2 = _finite_diff_evaluators(self.f_plus)
            object.__setattr__(self, "d_f_plus", d1)
            object.__setattr__(self, "dd_f_plus", d2)
        if self.d_f_minus is None:
            d1, d2 = _finite_diff_evaluators(self.f_minus)
            object.__setattr__(self, "d_f_minus", d1)
            object.__setattr__(self, "dd_f_minus", d2)


def make_perturbed_sphere(spec: PerturbationSpec) -> ProfileCurve:
    """alpha = cos s + epsilon (f_plus + f_minus); validates the invariants."""
    eps = spec.epsilon

    def alpha(s):
        s = np.asarray(s, dtype=float)
        if spec.bumps is not None:
            return np.cos(s) + eps * spec.bumps(s)[0]
        return np.cos(s) + eps * (spec.f_plus(s) + spec.f_minus(s))

    def d_alpha(s):
        s = np.asarray(s, dtype=float)
        return -np.sin(s) + eps * (spec.d_f_plus(s) + spec.d_f_minus(s))

    def dd_alpha(s):
        s = np.asarray(s, dtype=float)
        return -np.cos(s) + eps * (spec.dd_f_plus(s) + spec.dd_f_minus(s))

    def alpha_pair(s):
        s = np.asarray(s, dtype=float)
        val, slope = spec.bumps(s)
        return np.cos(s) + eps * val, -np.sin(s) + eps * slope

    label = f"perturbed sphere (eps={eps}, a={spec.a}, b={spec.b})"
    s_star, a_star = _locate_max(alpha, d_alpha)
    profile = ProfileCurve(alpha, d_alpha, dd_alpha, label,
                           s_max=s_star, alpha_max=a_star,
                           alpha_pair=None if spec.bumps is None
                           else alpha_pair)
    validate_profile(profile, strict=True)
    return profile


def make_pendulum_profile(E: float) -> ProfileCurve:
    """Arc-length profile of the spherical-pendulum metric at energy E > 2.

    The metric (E - 2 sin s)(ds^2 + cos^2 s dtheta^2) is rewritten as
    dsig^2 + abar(sig)^2 dtheta^2 via sig(s) = int_0^s sqrt(E - 2 sin u) du,
    then the sig-domain is mapped affinely onto [-pi/2, pi/2].  The affine
    map scales the metric globally, which leaves rotation numbers unchanged;
    the scale is recorded in the label.  The resulting profile is unimodal
    with its maximum at a slightly negative latitude (it is not even), so
    invariants are checked about ``s_max``.
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

    def abar(s):
        return speed(s) * np.cos(s)

    def d_abar(s):
        v = speed(s)
        return -np.cos(s) ** 2 / v - v * np.sin(s)

    def dd_abar(s):
        v = speed(s)
        return 3.0 * np.sin(s) * np.cos(s) / v - np.cos(s) ** 3 / v ** 3 - v * np.cos(s)

    def alpha(sig_t):
        return abar(s_of_scaled(sig_t)) / scale

    def d_alpha(sig_t):
        s = s_of_scaled(sig_t)
        return d_abar(s) / speed(s)

    def dd_alpha(sig_t):
        s = s_of_scaled(sig_t)
        v = speed(s)
        dv = -np.cos(s) / v
        return scale * (dd_abar(s) * v - d_abar(s) * dv) / v ** 3

    label = (f"spherical pendulum E={E} "
             f"(metric globally scaled by {scale ** 2:.12g})")
    s_star, a_star = _locate_max(alpha, d_alpha)
    profile = ProfileCurve(alpha, d_alpha, dd_alpha, label,
                           s_max=s_star, alpha_max=a_star)
    validate_profile(profile, strict=False)
    return profile


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


def manifold_volume(m: ModelManifold) -> float:
    """Riemannian volume; enters the Weyl main term."""
    if m.kind == "surface_of_revolution":
        val = quad(lambda s: m.profile.alpha(s), -HALF_PI, HALF_PI,
                   epsabs=1e-12, epsrel=1e-12)[0]
        return 2.0 * math.pi * val
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
    """Build a manifold from a JSON-style dict; see :func:`manifold_to_config`."""
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


def manifold_to_config(m: ModelManifold) -> dict:
    if m.kind == "round_sphere":
        return {"kind": "round_sphere", "n": m.n}
    if m.kind == "flat_torus":
        return {"kind": "flat_torus", "periods": list(m.periods)}
    if m.kind == "product":
        return {"kind": "product",
                "factors": [manifold_to_config(f) for f in m.factors]}
    if m.kind == "surface_of_revolution":
        label = m.profile.label
        if label.startswith("perturbed sphere"):
            inner = label[label.index("(") + 1:label.rindex(")")]
            parts = dict(p.strip().split("=") for p in inner.split(","))
            return {"kind": "perturbed_sphere", "epsilon": float(parts["eps"]),
                    "a": float(parts["a"]), "b": float(parts["b"])}
        if label.startswith("spherical pendulum"):
            e_val = float(label.split("E=")[1].split()[0])
            return {"kind": "pendulum", "E": e_val}
        return {"kind": "surface_of_revolution"}
    raise ConfigError(f"cannot serialize manifold kind {m.kind!r}")
