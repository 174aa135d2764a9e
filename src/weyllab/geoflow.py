"""Geodesic dynamics on surfaces of revolution.

Rotation numbers and their derivatives, Hamiltonian flow integration
with conserved-quantity monitoring, and periodic-torus classification.
Phase-space states are 4-vectors (s, theta, xi_s, xi_theta) in the
(s, theta) chart.
The Clairaut data (turning points, and the angle and time integrals) come
from the batched :func:`weyllab.flows.turning_points` and
:func:`weyllab.flows.clairaut_segments`, which the radial certificate of
:class:`weyllab.flows.RevolutionFlow` shares; the rotation number of a
whole grid is one call.

Orbits are parametrized by the right turning point ``s_plus``; angular
advances are anchored at the profile maximum ``s_max`` (equal to 0 for
mirror-symmetric profiles, which recovers the usual split at the equator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import (DegenerateInput, DomainError, QuadratureFailure,
                     StepFailure)
from .flows import (RevolutionFlow, _alpha_sq_gap, _dop853_rows,
                    clairaut_segments, meridian_states, turning_points)
from .manifolds import HALF_PI, ProfileCurve, bump_function
from .quadrature import tanh_sinh, tanh_sinh_rows

_CLAIRAUT_REL_TOL = 1e-9
_FD_STEP = 1e-4            # half-width of d_rotation_number's differences
_CONSERVATION_CHECKS = 200  # sample times of Trajectory.conservation_report
_GEODESIC_TOL = 1e-10      # rtol = atol of integrate_geodesic
_RETURN_MAP_TOL = 1e-11    # rtol = atol of rotation_number_ode
_RETURN_MAP_T_MAX = 40.0   # time cap of its return map


def unit_phase_point(profile: ProfileCurve, s: float, theta: float,
                     psi: float) -> np.ndarray:
    """Unit-cosphere state (s, theta, xi_s, xi_theta) with fiber angle psi:
    (xi_s, xi_theta/alpha) = (cos, sin)."""
    a = float(profile.alpha(s))
    return np.array([s, theta, math.cos(psi), a * math.sin(psi)])


@dataclass(frozen=True)
class ClairautOrbit:
    """Conserved data of integrable orbits with right turning points s_plus.

    Floats for one orbit, arrays of the shape of s_plus for an array.
    """

    c: float
    s_plus: float
    s_minus: float
    theta_plus: float
    theta_minus: float
    Theta0: float
    return_time: float


@dataclass(frozen=True)
class TorusClassification:
    s_plus: float
    status: str                  # "periodic" | "aperiodic" | "uncertain"
    Theta0: float
    dTheta0: float
    return_time: float
    p: Optional[int] = None
    q: Optional[int] = None


# ---------------------------------------------------------------------------
# Clairaut data


def rotation_number(s_plus, profile: ProfileCurve) -> ClairautOrbit:
    """Full Clairaut data of the orbits with right turning points s_plus.

    Theta0 = theta_+ + theta_-, the azimuthal advance over one full radial
    oscillation; the return time is the period of that oscillation.  The
    two half advances are split at the profile maximum, so they agree with
    the equator-anchored definition on mirror-symmetric profiles.

    ``s_plus`` is a scalar or an array; for an array every field of the
    result is an array of its shape.  The left turning points come from
    :func:`weyllab.flows.turning_points`, and the four half integrals of
    every orbit from one :func:`weyllab.flows.clairaut_segments` call at
    rel_tol 1e-9.  Raises :class:`QuadratureFailure` when one of them does
    not converge.
    """
    s = np.asarray(s_plus, dtype=float)
    sp = s.ravel()
    if not np.all((profile.s_max < sp) & (sp < HALF_PI)):
        raise DomainError(f"s_plus={s_plus} outside ({profile.s_max}, pi/2)")
    c = profile.alpha(sp)
    s_minus = turning_points(profile, c)[0]
    k = len(sp)
    anchor = np.full(k, profile.s_max)
    # rows theta_+, theta_-, t_+, t_-, each orbit's half on either side
    # of the anchor
    lo = np.tile(np.concatenate([anchor, s_minus]), 2)
    hi = np.tile(np.concatenate([sp, anchor]), 2)
    turn = np.tile(np.concatenate([sp, s_minus]), 2)
    vals, errs = clairaut_segments(profile, np.tile(c, 4), lo, hi, turn,
                                   np.repeat([True, False], 2 * k),
                                   rel_tol=_CLAIRAUT_REL_TOL)
    if np.any(np.isinf(errs)):
        raise QuadratureFailure(
            "Clairaut quadrature did not converge at s_plus="
            f"{sp[np.isinf(errs).reshape(4, k).any(axis=0)]}")
    th_p, th_m, t_p, t_m = 2.0 * vals.reshape(4, k)
    fields = {"c": c, "s_plus": sp, "s_minus": s_minus, "theta_plus": th_p,
              "theta_minus": th_m, "Theta0": th_p + th_m,
              "return_time": t_p + t_m}
    if s.ndim == 0:
        return ClairautOrbit(**{n: float(v[0]) for n, v in fields.items()})
    return ClairautOrbit(**{n: v.reshape(s.shape) for n, v in fields.items()})


# ---------------------------------------------------------------------------
# Derivative of the rotation number


def _d_theta0(profile: ProfileCurve, s_plus, s_minus):
    """d Theta0 / d s_plus at each pair of turning points (s_plus, s_minus).

    Each half advance theta_s from the anchor z = s_max to its turning
    point s (s_plus or s_minus, with c = alpha(s)) is differentiated by the
    split-integral identity at beta = z + (s - z) / 2: integration by parts
    on the part between beta and s, differentiation under the integral on
    the part between z and beta.  With sigma = sign(s - z),

        d theta_s / d s = 2 alpha'(s) (I1 - sigma B + I2),
        I1 = int_beta^s (alpha^2 - 2c^2)(2 alpha'^2 + alpha alpha'')
                        / (sqrt(alpha^2 - c^2) alpha^3 alpha'^2),
        I2 = int_z^beta alpha / (alpha^2 - c^2)^(3/2),
        B = (alpha^2 - 2c^2) / (sqrt(alpha^2 - c^2) alpha^2 alpha') at beta,

    the integrals taken over the interval between their ends.  Then
    dTheta0 = d theta_+/d s_+ + d theta_-/d s_- * d s_-/d s_+ with
    d s_-/d s_+ = alpha'(s_+) / alpha'(s_-).  The I1 (singular at s, with
    the exact endpoint distances) and I2 rows of every orbit and both
    sides are one :func:`tanh_sinh_rows` call at rel_tol 1e-9.  Raises
    :class:`DegenerateInput` when a split point falls within 1e-6 of z or
    on a flat stretch of alpha, and :class:`QuadratureFailure` when a row
    does not converge.

    Near s_max the result cancels and is less accurate than rel_tol: each
    side is 2 alpha'(s) times a small difference of integrals that grow as
    s nears z (I1 and I2 are about 5500 and 1840 on the pendulum below),
    and the two sides nearly cancel.  On the pendulum (E = 4) at s_plus =
    0.05, 0.016 from s_max, dTheta0 is a 130-fold cancellation of -0.1252
    and 0.1262, good to about 5e-6 relative.
    """
    s_plus = np.asarray(s_plus, dtype=float)
    s_minus = np.asarray(s_minus, dtype=float)
    k = len(s_plus)
    z = profile.s_max
    s = np.concatenate([s_plus, s_minus])
    sigma = np.repeat([1.0, -1.0], k)
    c, da_s = profile.jet(s, 1)
    beta = z + 0.5 * (s - z)
    a_beta, da_beta = profile.jet(beta, 1)
    bad = (np.abs(da_beta) < 1e-8) | (sigma * (s - z) < 1e-6)
    if np.any(bad):
        raise DegenerateInput(
            f"cannot place the split point for s={s[bad]}")
    # rows: I1 of every orbit and side, then I2
    lo = np.concatenate([np.minimum(beta, s), np.minimum(z, beta)])
    hi = np.concatenate([np.maximum(beta, s), np.maximum(z, beta)])
    c2, s2 = np.tile(c, 2), np.tile(s, 2)
    at_hi = hi == s2
    singular = np.arange(4 * k) < 2 * k

    def integrand(i, w, d_lo, d_hi):
        out = np.empty(w.shape)
        one = singular[i]
        r, wr = i[one], w[one]
        cr = c2[r, None]
        a, da, dda = profile.jet(wr, 2)
        dw = np.where(at_hi[r, None], -d_hi[one], d_lo[one])
        gap = _alpha_sq_gap(profile, a, cr, s2[r, None], dw)
        out[one] = ((a * a - 2.0 * cr * cr) * (2.0 * da * da + a * dda)
                    / (np.sqrt(gap) * a ** 3 * da ** 2))
        cr = c2[i[~one], None]
        a = profile.alpha(w[~one])
        out[~one] = a / ((a - cr) * (a + cr)) ** 1.5
        return out

    vals, errs = tanh_sinh_rows(integrand, lo, hi, rel_tol=_CLAIRAUT_REL_TOL)
    if np.any(np.isinf(errs)):
        raise QuadratureFailure(
            "derivative quadrature did not converge at s="
            f"{s2[np.isinf(errs)]}")
    I1, I2 = vals.reshape(2, 2 * k)
    boundary = ((a_beta ** 2 - 2.0 * c * c)
                / (np.sqrt(a_beta ** 2 - c * c) * a_beta ** 2 * da_beta))
    d_plus, d_minus = (2.0 * da_s * (I1 - sigma * boundary + I2)).reshape(2, k)
    return d_plus + d_minus * (da_s[:k] / da_s[k:])


def d_rotation_number(s_plus, profile: ProfileCurve,
                      method: str = "formula"):
    """d Theta0 / d s_plus, by the exact identity or by central differences.

    ``s_plus`` is a scalar or an array; for an array the result has its
    shape.  ``"formula"`` evaluates every point by one :func:`_d_theta0`
    call, ``"finite_difference"`` all its Theta0 by one
    :func:`rotation_number` call.
    """
    s = np.asarray(s_plus, dtype=float)
    if method == "finite_difference":
        hi = np.minimum(s + _FD_STEP, HALF_PI - 1e-9)
        lo = np.maximum(s - _FD_STEP, profile.s_max + 1e-9)
        f_hi, f_lo = rotation_number(np.stack([hi, lo]), profile).Theta0
        d = (f_hi - f_lo) / (hi - lo)
    elif method == "formula":
        sp = s.ravel()
        s_minus = turning_points(profile, profile.alpha(sp))[0]
        d = _d_theta0(profile, sp, s_minus).reshape(s.shape)
    else:
        raise DomainError(f"unknown method {method!r}")
    return float(d) if s.ndim == 0 else d


def d_rotation_number_in_epsilon(spec, s_plus: float) -> float:
    """d/d eps of d Theta0/d s_plus at eps = 0 for a bump perturbation.

    Closed form on the round sphere: each bump contributes the weighted
    integral of f against (2 alpha0^2(w) + alpha0^2(s))/ (alpha0^2(w) -
    alpha0^2(s))^{5/2}; valid for s_plus >= b (orbit turning outside the
    support).
    """
    if s_plus < spec.b:
        raise DomainError("closed form requires s_plus >= b")
    c = math.cos(s_plus)

    def kernel(w, c_val):
        a0 = np.cos(w)
        gap = a0 * a0 - c_val * c_val
        return (2.0 * a0 * a0 + c_val * c_val) / gap ** 2.5

    def supported(f_bump, c_val):
        def f(w):
            val = f_bump(w)
            out = np.zeros_like(val)
            m = val > 0
            if np.any(m):
                out[m] = val[m] * kernel(w[m], c_val)
            return out
        return f

    I_plus = tanh_sinh(supported(bump_function(spec.a, spec.b), c),
                       spec.a, spec.b, rel_tol=1e-11)[0]
    # -2 alpha0'(s_plus) I_plus with alpha0' = -sin
    d_eps_d_theta_plus = 2.0 * math.sin(s_plus) * I_plus

    s_minus = -s_plus            # round-sphere pairing
    I_minus = tanh_sinh(supported(bump_function(-spec.b, -spec.a),
                                  math.cos(s_minus)),
                        -spec.b, -spec.a, rel_tol=1e-11)[0]
    d_eps_d_theta_minus = 2.0 * math.sin(s_minus) * I_minus

    # At eps = 0 the background is round: d theta_-/d s_- vanishes and
    # d s_-/d s_+ = -1, so the mixed derivative combines with a minus sign.
    return d_eps_d_theta_plus - d_eps_d_theta_minus


# ---------------------------------------------------------------------------
# Hamiltonian flow


class Trajectory:
    """Dense-output geodesic trajectory in the (s, theta) chart.

    ``rows_fn`` maps a flat array of times to the states there, one row
    per time; calling the trajectory at t gives shape (4,) + shape(t).
    """

    def __init__(self, rows_fn: Callable, t_span: tuple[float, float],
                 profile: ProfileCurve):
        self._rows = rows_fn
        self.t_span = t_span
        self.profile = profile

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self._rows(t.ravel()).T.reshape((4,) + t.shape)

    def conservation_report(self) -> dict:
        t = np.linspace(self.t_span[0], self.t_span[1], _CONSERVATION_CHECKS)
        y = self(t)
        a = self.profile.alpha(y[0])
        unit = y[2] ** 2 + y[3] ** 2 / a ** 2 - 1.0
        return {
            "unit_speed_drift": float(np.max(np.abs(unit))),
            "clairaut_drift": float(np.max(np.abs(y[3] - y[3][0]))),
        }


def integrate_geodesic(p0, T: float, profile: ProfileCurve) -> Trajectory:
    """Adaptive high-order integration of the unit cosphere geodesic flow
    from the state p0 = (s, theta, xi_s, xi_theta).

    One row of :func:`weyllab.flows._dop853_rows` with its dense output.
    Meridian data (xi_theta = 0) is dispatched to the pole-safe closed form
    :func:`weyllab.flows.meridian_states`; the chart equations degenerate
    there.
    """
    s, _, xi_s, xi_theta = (float(v) for v in p0)
    a = float(profile.alpha(s))
    if abs(xi_s ** 2 + xi_theta ** 2 / a ** 2 - 1.0) > 1e-6:
        raise DomainError("initial data must lie on the unit cosphere bundle")
    y0 = np.array(p0, dtype=float)[None, :]
    if abs(xi_theta) < 1e-12:
        return Trajectory(lambda t: meridian_states(y0, t), (0.0, T), profile)
    dense = _dop853_rows(RevolutionFlow(profile)._rhs, y0, T,
                         _GEODESIC_TOL, _GEODESIC_TOL)
    return Trajectory(lambda t: dense(0, t), (0.0, T), profile)


def rotation_number_ode(s_plus: float, profile: ProfileCurve):
    """(Theta0, return time) measured from the flow's turning-point return map.

    Starts at the right turning point and integrates until xi_s falls back
    through zero, i.e. one full radial oscillation.  Independent route used
    to cross-validate the quadrature values.
    """
    from scipy.integrate import solve_ivp
    c = float(profile.alpha(s_plus))
    y0 = [s_plus, 0.0, 0.0, c]
    flow = RevolutionFlow(profile)

    def rhs(t, y):
        return flow._rhs(y[None, :])[0]

    # burn in past the start (xi_s = 0 there, which would trigger the
    # event immediately), then stop at the first falling crossing: the
    # return to the right turning point after one full oscillation
    t_burn = 0.1
    sol_burn = solve_ivp(rhs, (0.0, t_burn), y0, method="DOP853",
                         rtol=_RETURN_MAP_TOL, atol=_RETURN_MAP_TOL)
    if not sol_burn.success:
        raise StepFailure(f"return-map burn-in failed: {sol_burn.message}")

    def falling(t, y):
        return y[2]

    falling.direction = -1.0
    falling.terminal = True

    sol = solve_ivp(rhs, (t_burn, _RETURN_MAP_T_MAX), sol_burn.y[:, -1],
                    method="DOP853", rtol=_RETURN_MAP_TOL,
                    atol=_RETURN_MAP_TOL,
                    dense_output=True, events=falling)
    if not sol.success:
        raise StepFailure(f"return-map integration failed: {sol.message}")
    times = sol.t_events[0]
    if len(times) == 0:
        raise StepFailure("no return within the time cap")
    t_ret = float(times[0])
    theta_ret = float(sol.sol(t_ret)[1])
    return theta_ret, t_ret


# ---------------------------------------------------------------------------
# Rationality detection and torus classification


def classify_tori(profile: ProfileCurve, grid: Iterable[float],
                  q_max: int = 50, rational_tol: float = 1e-9,
                  deriv_floor: float = 1e-6) -> list[TorusClassification]:
    """Classify the invariant tori over a grid of right turning points.

    A torus is aperiodic when |d Theta0 / d s_plus| clears the floor and no
    derivative among the five nearest grid points that clears it has the
    other sign (below the floor a sign is quadrature noise); otherwise
    periodic when the closest p/q to Theta0/2pi with q <= q_max
    (``Fraction.limit_denominator``) lies within rational_tol; otherwise
    uncertain.  The derivative comes from the exact identity: a finite
    difference of Theta0 carries quadrature noise of a few 1e-6, enough to
    clear the default floor on tori that are periodic.
    """
    grid = np.asarray(sorted(grid), dtype=float)
    orb = rotation_number(grid, profile)
    derivs = _d_theta0(profile, grid, orb.s_minus)
    out = []
    n = len(grid)
    for i, s in enumerate(grid):
        window = derivs[max(0, i - 2):min(n, i + 3)]
        signed = window[np.abs(window) > deriv_floor]
        data = (orb.Theta0[i], derivs[i], orb.return_time[i])
        if abs(derivs[i]) > deriv_floor \
                and np.all(np.sign(signed) == np.sign(derivs[i])):
            out.append(TorusClassification(s, "aperiodic", *data))
            continue
        x = orb.Theta0[i] / (2.0 * math.pi)
        best = Fraction(x).limit_denominator(q_max)
        p, q = best.numerator, best.denominator
        if abs(x - p / q) < rational_tol:
            out.append(TorusClassification(s, "periodic", *data, p=p, q=q))
        else:
            out.append(TorusClassification(s, "uncertain", *data))
    return out
