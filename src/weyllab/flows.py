"""Unit-cosphere flows and the fixed background phase metric.

The dynamical-size estimators measure distances in a fixed metric on the
cosphere bundle: the max of a base distance (round-chart great circle for
surfaces of revolution, flat quotient for tori) and the fiber angle gap.
Both factors are metrics, so the max is one; all radii in the tube and
measure machinery refer to it.

Every flow offers the same two hit tests, so the estimators never ask
which flow they have: ``return_hits(states, t0, T, thresh)`` and
``target_hits(states, y, t0, T, thresh)`` classify each sample by whether
its orbit comes within ``thresh`` of its start (phase distance) or of y
(base distance) over t0 <= |t| <= T, and return ``(hits, inflation)``.

The closed-form flows (flat torus, round sphere) also offer the exact
window minima behind their hits, ``self_return_min(states, t0, T)`` and
``target_min(states, y, t0, T)``, so their inflation is 0; the torus tries
only the lattice vectors within reach of the window.  Only the round
sphere moves rows by a time, ``flow(states, t)`` (great circles in closed
form); a single orbit on another surface of revolution is
:func:`weyllab.geoflow.integrate_geodesic`.
:class:`RevolutionFlow` decides ``return_hits`` in this order:

1. the radial certificate (:meth:`RevolutionFlow.radial_clears`) clears,
   without integrating, every regular sample that Clairaut's integral keeps
   away from its start: before its first radial return an orbit's phase
   distance from its start is at least its latitude change or its fiber
   gap, and both follow from the radial motion alone.  The time to leave
   the slab of latitudes within thresh of the start is the smaller of the
   slab bound (the least radial speed on the slab) and the sojourn around
   the nearer turning point (two Clairaut time integrals); the window must
   end that long before the radial period tau, which the length bound
   tau >= 2 (s_+ - s_-) settles for most rows before any tau quadrature;
2. near-meridian samples take the pole-safe closed form, on a grid;
3. the rest (windows that reach a radial period, slabs that hold both
   turning points) go through a coarse two-sided scan with fixed RK4
   steps, which certifies the samples that stay clear;
4. the scan's remaining candidates, forward and mirrored, are refined
   together in one pass of the row-batched DOP853 (:func:`_dop853_rows`),
   which :mod:`weyllab.geoflow` shares.

The Clairaut data of surfaces of revolution live here once, batched over
orbits: :func:`turning_points` (alpha = c on both sides of the maximum)
and :func:`clairaut_segments` (the time and angle integrals between two
radii, one tanh-sinh rule for all rows).  The certificate and
:func:`weyllab.geoflow.rotation_number` both call them.

``target_hits`` runs steps 2 to 4.  Every DOP853 row keeps its own step
size and error norm, so each is held to the same rtol/atol as a scalar
solve; a row whose step falls below 10 ulps of its time raises
:class:`StepFailure` instead of being extrapolated.  The inflation is the
largest over the steps that ran: the refinement grid slack (phase speed
times the refinement step) plus the integration budget, and the meridian
grid's half step plus the meridian position error.  Cleared samples add
none; their margin already holds the quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepFailure
from .manifolds import HALF_PI, ProfileCurve, lattice_box
from .quadrature import tanh_sinh_rows


def wrap_angle(d):
    """Distance on the circle R/2piZ."""
    d = np.mod(np.asarray(d, dtype=float), 2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


MERIDIAN_C_FLOOR = 2e-3
ODE_BUDGET = 1e-6             # integration error in scan and refinement slacks
_MERIDIAN_CHUNK = 2 ** 16     # (row, time) pairs per closed-form evaluation
_REFINE_CHUNK = 2 ** 15       # dense-output times per row and evaluation


def meridian_states(states, t) -> np.ndarray:
    """Closed-form flow of (near-)meridian data: position error O(|xi_theta|).

    ``t`` is one time for every row or an array of one time per row.

    Meridians traverse the profile curve at unit speed with theta jumping
    by pi at each pole; valid on every surface of revolution (the chart
    ODE degenerates at the poles, this does not).
    """
    states = np.asarray(states, dtype=float).reshape(-1, 4)
    xi_pos = states[:, 2] >= 0
    phi0 = np.where(xi_pos, states[:, 0], math.pi - states[:, 0])
    th_front = np.where(xi_pos, states[:, 1], states[:, 1] + math.pi)
    phi = np.mod(phi0 + t + HALF_PI, 2.0 * math.pi) - HALF_PI
    front = phi <= HALF_PI
    s = np.where(front, phi, math.pi - phi)
    th = np.where(front, th_front, th_front + math.pi)
    xi_s = np.where(front, 1.0, -1.0)
    return np.column_stack([s, np.mod(th, 2.0 * math.pi), xi_s,
                            np.zeros_like(s)])


def _alpha_sq_gap(profile: ProfileCurve, a, c, s_turn, dw):
    """alpha(w)^2 - c^2 from a = alpha(w), cancellation-guarded near s_turn.

    ``dw = w - s_turn`` is supplied in exact arithmetic by the quadrature
    rule.  Within 1e-5 of the turning point the difference alpha(w) - c is
    replaced by its two-term Taylor expansion (one jet of the profile at
    s_turn), which keeps the relative error of the gap near machine
    precision instead of eps/distance.  ``c`` and ``s_turn`` are scalars or
    arrays that broadcast against ``a``, one per row of a batched rule.
    """
    gap = (a - c) * (a + c)
    dw = np.asarray(dw, dtype=float)
    near = np.abs(dw) < 1e-5
    if np.any(near):
        _, da, dda = profile.jet(s_turn, 2)
        diff = da * dw + 0.5 * dda * dw * dw
        gap = np.where(near, diff * (a + c), gap)
    return np.where(gap > 1e-300, gap, np.inf)


def turning_points(profile: ProfileCurve, c):
    """(s_-, s_+) per entry of c: alpha = c on each monotone side of s_max.

    Bisection down to adjacent floats; each root is the end of its bracket
    where alpha <= c, so alpha > c strictly between the two.  Raises
    :class:`DomainError` unless every c lies in (0, alpha_max].
    """
    c = np.asarray(c, dtype=float)
    if np.any((c <= 0.0) | (c > profile.alpha_max)):
        raise DomainError(
            f"Clairaut constant outside (0, {profile.alpha_max}]")
    k = len(c)
    inside = np.full(2 * k, profile.s_max)                 # alpha > c
    outside = np.repeat([-HALF_PI, HALF_PI], k)            # alpha <= c
    cc = np.concatenate([c, c])
    for _ in range(64):
        mid = 0.5 * (inside + outside)
        up = profile.alpha(mid) > cc
        inside = np.where(up, mid, inside)
        outside = np.where(up, outside, mid)
    return outside[:k], outside[k:]


def clairaut_segments(profile: ProfileCurve, c, lo, hi, turn, angle,
                      rel_tol):
    """int_lo^hi numer / sqrt(alpha^2 - c^2) ds per row: (values, errs).

    The numerator is c / alpha where ``angle[i]`` is true (the azimuthal
    advance of an orbit with Clairaut constant c[i] from lo[i] to hi[i])
    and alpha otherwise (the time it takes).  ``turn[i]`` is the end that
    is a turning point, where the integrand is singular.  One batched
    tanh-sinh rule; as :func:`weyllab.quadrature.tanh_sinh_rows`, a row
    that does not converge gets ``err = inf``.
    """
    at_hi = turn == hi

    def density(i, w, d_lo, d_hi):
        dw = np.where(at_hi[i, None], -d_hi, d_lo)
        a = profile.alpha(w)
        gap = _alpha_sq_gap(profile, a, c[i, None], turn[i, None], dw)
        return np.where(angle[i, None], c[i, None] / a, a) / np.sqrt(gap)

    return tanh_sinh_rows(density, lo, hi, rel_tol=rel_tol)


def _mirror(states: np.ndarray) -> np.ndarray:
    """Covectors reversed: the mirror orbit runs the original backwards."""
    out = states.copy()
    out[:, 2] *= -1.0
    out[:, 3] *= -1.0
    return out


def _merge_circle_intervals(intervals) -> float:
    """Total measure of a union of angular intervals (fraction of 2 pi)."""
    if not intervals:
        return 0.0
    pts = sorted((a % (2 * math.pi), b - a) for a, b in intervals)
    merged = []
    for start, length in pts:
        end = start + length
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = sum(e - s for s, e in merged)
    if merged and merged[-1][1] > 2 * math.pi and merged[0][0] >= 0:
        overlap = min(merged[-1][1] - 2 * math.pi,
                      merged[0][1]) - merged[0][0]
        if overlap > 0:
            total -= overlap
    return min(total / (2 * math.pi), 1.0)


# ---------------------------------------------------------------------------
# Row-batched DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, II.4-5)

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(x):
    return np.sqrt(np.mean(x * x, axis=1))


def _combine(coef, K):
    """Stage sums coef[..., j] K[j] over the leading axis of K."""
    return (coef @ K.reshape(len(K), -1)).reshape(coef.shape[:-1]
                                                  + K.shape[1:])


def _initial_step(rhs, y0, f0, T, rtol, atol):
    """Hairer's starting step for every row (order 7 error estimator)."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, T)
        d2 = _rms((rhs(y0 + h0[:, None] * f0) - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0))
    return np.minimum(np.minimum(100.0 * h0, h1), T)


class _RowDense:
    """Dense output of :func:`_dop853_rows`: the accepted steps per row."""

    def __init__(self, rows, t_old, h, y_old, F, k):
        order = np.argsort(rows, kind="stable")     # each row in time order
        self.start = np.searchsorted(rows[order], np.arange(k + 1))
        self.t_old, self.h = t_old[order], h[order]
        self.y_old, self.F = y_old[order], F[order]

    def __call__(self, row, t):
        """The row's solution at the times t, shape (len(t), n)."""
        lo, hi = self.start[row], self.start[row + 1]
        seg = lo + np.clip(np.searchsorted(self.t_old[lo:hi], t) - 1,
                           0, hi - lo - 1)
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        y = np.zeros((len(t), self.F.shape[2]))
        for i in range(self.F.shape[1] - 1, -1, -1):
            y += self.F[seg, i]
            y *= x if i % 2 == 0 else 1.0 - x
        return y + self.y_old[seg]


def _dop853_rows(rhs, y0, T, rtol, atol):
    """Integrate the rows of y0 from t = 0 to T in lockstep by DOP853.

    ``rhs(y)`` maps an (m, n) array of states to their derivatives; the
    system is autonomous, so the stage times (DOP853.C) are not needed.  Each
    row has its own step size, rejection state and err5/err3 error norm
    over its n components, with scipy's DOP853 tableau and step-size
    factors, so each row is held to rtol/atol as in a scalar solve.  Rows
    retire when they reach T.  Returns the dense output of every accepted
    step; raises StepFailure when a row's step falls below 10 ulps of t or
    is not a number, so no row can hold the loop forever.
    """
    # imported here: only the tableau is read, and scipy.integrate is a
    # slow import that most processes never need
    from scipy.integrate import DOP853
    A, B, A_EXTRA = DOP853.A, DOP853.B, DOP853.A_EXTRA
    E3, E5, D = DOP853.E3, DOP853.E5, DOP853.D
    n_stages = len(B)
    y0 = np.asarray(y0, dtype=float)
    k, n = y0.shape
    t, y = np.zeros(k), y0.copy()
    f = rhs(y)
    h_abs = _initial_step(rhs, y, f, T, rtol, atol)
    rejected = np.zeros(k, dtype=bool)
    active = np.arange(k)
    steps = []
    while len(active):
        ta, ya, fa = t[active], y[active], f[active]
        min_step = 10.0 * np.abs(np.nextafter(ta, np.inf) - ta)
        ha = np.where(rejected[active], h_abs[active],
                      np.maximum(h_abs[active], min_step))
        small = ~(ha >= min_step)          # a NaN step fails too
        if np.any(small):
            raise StepFailure(
                f"DOP853 step fell below 10 ulps of t at t = "
                f"{float(np.min(ta[small])):.17g}")
        t_new = np.minimum(ta + ha, T)
        h = t_new - ta
        K = np.empty((D.shape[1], len(active), n))
        K[0] = fa
        for s in range(1, n_stages):
            K[s] = rhs(ya + h[:, None] * _combine(A[s, :s], K[:s]))
        y_new = ya + h[:, None] * _combine(B, K[:n_stages])
        K[n_stages] = rhs(y_new)
        scale = atol + np.maximum(np.abs(ya), np.abs(y_new)) * rtol
        e5 = np.sum((_combine(E5, K[:n_stages + 1]) / scale) ** 2, 1)
        e3 = np.sum((_combine(E3, K[:n_stages + 1]) / scale) ** 2, 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            err = np.where((e5 == 0) & (e3 == 0), 0.0,
                           np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * n))
            factor = np.where(err == 0, _MAX_FACTOR,
                              _SAFETY * err ** (-1.0 / 8.0))
        ok = err < 1
        grow = np.minimum(_MAX_FACTOR, factor)
        grow = np.where(rejected[active], np.minimum(1.0, grow), grow)
        h_abs[active] = h * np.where(ok, grow, np.fmax(_MIN_FACTOR, factor))
        rejected[active] = ~ok
        # the 7-term interpolant of every accepted step
        acc = np.nonzero(ok)[0]
        Ka, ha_acc = K[:, acc], h[acc, None]
        for s, a in enumerate(A_EXTRA, start=n_stages + 1):
            Ka[s] = rhs(ya[acc] + ha_acc * _combine(a[:s], Ka[:s]))
        dy = y_new[acc] - ya[acc]
        F = np.empty((len(acc), 7, n))
        F[:, 0] = dy
        F[:, 1] = ha_acc * Ka[0] - dy
        F[:, 2] = 2.0 * dy - ha_acc * (Ka[n_stages] + Ka[0])
        F[:, 3:] = (ha_acc * _combine(D, Ka)).transpose(1, 0, 2)
        rows = active[acc]
        steps.append((rows, ta[acc], h[acc], ya[acc], F))
        t[rows], y[rows], f[rows] = t_new[acc], y_new[acc], Ka[n_stages]
        active = active[t[active] < T]
    return _RowDense(*(np.concatenate(col) for col in zip(*steps)), k)


# ---------------------------------------------------------------------------
# Phase metric


class RevolutionMetric:
    """max(round-chart base distance, fiber angle gap) on S*M."""

    def __init__(self, profile: ProfileCurve):
        self.profile = profile

    def embed(self, s, theta):
        cs = np.cos(s)
        return np.stack([cs * np.cos(theta), cs * np.sin(theta), np.sin(s)],
                        axis=-1)

    def fiber_angle(self, state):
        s, _, xi_s, xi_t = (state[..., 0], state[..., 1],
                            state[..., 2], state[..., 3])
        a = self.profile.alpha(s)
        return np.arctan2(xi_t / a, xi_s)

    def distance(self, state_a, state_b):
        state_a = np.asarray(state_a, dtype=float)
        state_b = np.asarray(state_b, dtype=float)
        base = self.base_distance_from(state_b)(state_a)
        fiber = wrap_angle(self.fiber_angle(state_a)
                           - self.fiber_angle(state_b))
        return np.maximum(base, fiber)

    def base_distance_from(self, state_b):
        """state_a -> base distance to ``state_b``, embedded once here."""
        state_b = np.asarray(state_b, dtype=float)
        pb = self.embed(state_b[..., 0], state_b[..., 1])

        def dist(state_a):
            state_a = np.asarray(state_a, dtype=float)
            pa = self.embed(state_a[..., 0], state_a[..., 1])
            return np.arccos(np.clip(np.sum(pa * pb, axis=-1), -1.0, 1.0))
        return dist


# ---------------------------------------------------------------------------
# Flat torus flow (exact)


class ExactHits:
    """Hit tests of a flow whose window minima are exact: no inflation."""

    def return_hits(self, states, t0, T, thresh):
        return self.self_return_min(states, t0, T) < thresh, 0.0

    def target_hits(self, states, y_point, t0, T, thresh):
        return self.target_min(states, y_point, t0, T) < thresh, 0.0


@dataclass
class TorusFlow(ExactHits):
    """Free unit-speed flow on a flat torus; all scans are exact."""

    periods: tuple

    def __post_init__(self):
        self.periods = tuple(float(p) for p in self.periods)
        self.d = len(self.periods)

    def lattice(self, radius):
        """Period-lattice points, a box covering the ball of the radius."""
        grids = np.broadcast_arrays(
            *lattice_box([radius / L for L in self.periods]))
        return np.stack([g.ravel() * L for g, L in zip(grids, self.periods)],
                        axis=-1)

    def _window_min(self, omega, targets, t0, T):
        """min over t in [t0, T] of |t omega - v| for each target row v.

        omega: (n, d) unit rows; targets: (n, K, d).  Exact: the quadratic
        in t is minimized at the clipped projection.
        """
        proj = np.sum(targets * omega[:, None, :], axis=-1)
        t_star = np.clip(proj, t0, T)
        diff = t_star[..., None] * omega[:, None, :] - targets
        return np.sqrt(np.sum(diff ** 2, axis=-1))

    def self_return_min(self, states, t0, T):
        """Exact min over t0<=|t|<=T of d(phi_t rho, rho); fiber gap is 0.

        |t omega - v| >= |v| - T, and the zero vector gives t0, so a lattice
        vector at least T + max(1, t0) long cannot lower the minimum; only
        the shorter ones are tried.
        """
        states = np.asarray(states, dtype=float)
        omega = states[..., self.d:].reshape(-1, self.d)
        reach = T + max(1.0, t0)
        lat = self.lattice(reach)
        lat = lat[np.linalg.norm(lat, axis=1) < reach]
        targets = np.broadcast_to(lat[None, :, :],
                                  (omega.shape[0],) + lat.shape)
        d_fwd = self._window_min(omega, targets, t0, T).min(axis=1)
        # negative window: |t omega - k| with t in [-T, -t0] equals the
        # forward window against the negated lattice, which is the lattice
        return d_fwd

    def target_min(self, states, y_point, t0, T):
        """Exact min over t0<=|t|<=T of base distance from the orbit to y.

        The lattice range covers the reachable ball plus the displacement
        y - x for any representative of x and y on the fundamental domain.
        """
        states = np.asarray(states, dtype=float)
        x = states[..., :self.d].reshape(-1, self.d)
        omega = states[..., self.d:].reshape(-1, self.d)
        span = float(np.linalg.norm(self.periods))
        lat = self.lattice(T + 1.0 + span
                            + float(np.max(np.abs(y_point))))
        v = (np.asarray(y_point)[None, None, :] - x[:, None, :]
             + lat[None, :, :])
        fwd = self._window_min(omega, v, t0, T).min(axis=1)
        bwd = self._window_min(-omega, v, t0, T).min(axis=1)
        return np.minimum(fwd, bwd)

    def direction_fraction(self, targets, t0, T, thresh, beta_max):
        """Exact fraction of directions passing within thresh of a target.

        A direction counts when t omega comes within thresh of some target
        displacement v for t in [t0, T] (2-d torus).  Per target the
        admissible directions form an interval of half-width at most
        beta_max around the direction of v, found by monotone bisection;
        the union is merged exactly.  A zero target counts every direction
        when t = 0 lies in the window.
        """
        if self.d != 2:
            raise DomainError("exact oracle implemented for 2-d tori")
        intervals = []
        for v in targets:
            if math.hypot(*v) < 1e-14:
                if t0 <= 0:
                    return 1.0
                continue
            phi_v = math.atan2(v[1], v[0])

            def m_of(beta):
                om = np.array([[math.cos(phi_v + beta),
                                math.sin(phi_v + beta)]])
                return float(self._window_min(om, v[None, None, :],
                                              t0, T)[0, 0])

            if m_of(0.0) >= thresh:
                continue
            lo, hi = 0.0, beta_max
            if m_of(hi) < thresh:
                beta_star = hi
            else:
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if m_of(mid) < thresh:
                        lo = mid
                    else:
                        hi = mid
                beta_star = 0.5 * (lo + hi)
            intervals.append((phi_v - beta_star, phi_v + beta_star))
        return _merge_circle_intervals(intervals)


# ---------------------------------------------------------------------------
# Round sphere flow (closed form)


class RoundSphereFlow(ExactHits):
    """Great-circle flow on the round 2-sphere, in the (s, theta) chart."""

    def __init__(self, profile: ProfileCurve):
        self.profile = profile
        self.metric = RevolutionMetric(profile)

    def _embed_state(self, states):
        s, th = states[..., 0], states[..., 1]
        xi_s, xi_t = states[..., 2], states[..., 3]
        cs, ss = np.cos(s), np.sin(s)
        P = np.stack([cs * np.cos(th), cs * np.sin(th), ss], axis=-1)
        e_s = np.stack([-ss * np.cos(th), -ss * np.sin(th), cs], axis=-1)
        e_t = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=-1)
        V = xi_s[..., None] * e_s + (xi_t / cs)[..., None] * e_t
        return P, V

    def _chart_state(self, P, V):
        s = np.arcsin(np.clip(P[..., 2], -1.0, 1.0))
        th = np.arctan2(P[..., 1], P[..., 0])
        cs, ss = np.cos(s), np.sin(s)
        e_s = np.stack([-ss * np.cos(th), -ss * np.sin(th), cs], axis=-1)
        e_t = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=-1)
        xi_s = np.sum(V * e_s, axis=-1)
        xi_t = np.sum(V * e_t, axis=-1) * cs
        return np.stack([s, th, xi_s, xi_t], axis=-1)

    def flow(self, states, t):
        states = np.asarray(states, dtype=float)
        P, V = self._embed_state(states)
        Pt = P * math.cos(t) + V * math.sin(t)
        Vt = -P * math.sin(t) + V * math.cos(t)
        return self._chart_state(Pt, Vt)

    def self_return_min(self, states, t0, T):
        """min over t0 <= |t| <= T of the phase displacement.

        Every orbit closes at multiples of 2 pi (Zoll), the base
        displacement is exactly dist(t, 2 pi Z), and near a closure both
        base and fiber displacement grow monotonically with the offset, so
        the window minimum sits at the admissible time nearest a closure.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        best = np.full(len(states), np.inf)
        if t0 > T:
            return best
        two_pi = 2.0 * math.pi
        for k in range(0, int(T / two_pi) + 2):
            tk = k * two_pi
            t_star = min(max(tk, t0), T)
            if abs(t_star - tk) < 1e-12:
                return np.zeros(len(states))
            for t_signed in (t_star, -t_star):
                moved = self.flow(states, t_signed)
                best = np.minimum(best, self.metric.distance(moved, states))
        return best

    def target_min(self, states, y_point, t0, T):
        """Exact min of the base distance from the orbit to the point y.

        Along a great circle P(t) = P cos t + V sin t, the inner product
        with the fixed target is A cos t + B sin t; the extrema are
        analytic and the window endpoints are checked directly.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        P, V = self._embed_state(states)
        q = self.metric.embed(np.array(y_point[0]), np.array(y_point[1]))
        A = P @ q
        B = V @ q
        R = np.sqrt(A * A + B * B)
        phi = np.arctan2(B, A)      # max of dot at t = phi (mod 2pi)
        best = np.full(len(states), np.inf)
        for window in ((t0, T), (-T, -t0)):
            lo, hi = window
            t_cand = [np.clip(lo, lo, hi) * np.ones_like(phi),
                      np.clip(hi, lo, hi) * np.ones_like(phi)]
            # interior critical times phi + 2 pi k inside the window
            k_lo = math.ceil((lo - math.pi) / (2 * math.pi))
            k_hi = math.floor((hi + math.pi) / (2 * math.pi))
            for k in range(k_lo, k_hi + 1):
                t_cand.append(np.clip(phi + 2 * math.pi * k, lo, hi))
            for t in t_cand:
                dot = np.clip(A * np.cos(t) + B * np.sin(t), -1.0, 1.0)
                best = np.minimum(best, np.arccos(dot))
        return best


# ---------------------------------------------------------------------------
# Generic surface of revolution flow (batched integration)


class RevolutionFlow:
    """Geodesic flow of a surface of revolution in the (s, theta) chart.

    ``return_hits`` first lets the radial certificate clear the samples
    that cannot return before their first radial period, with no
    integration: each leaves its latitude slab by the slab bound or by its
    sojourn around the nearer turning point, and its window ends that long
    before tau, checked against the length bound 2 (s_+ - s_-) and only
    then against tau itself.  Then near-meridian samples (|xi_theta| below
    MERIDIAN_C_FLOOR) go through the pole-safe closed form, and the others
    through the coarse scan with fixed RK4 steps, whose undecided
    candidates are refined in one DOP853 pass per estimate.  Scans run over
    both time directions at once: the mirror state (both covector
    components negated) flows forward along the original orbit backwards.
    """

    def __init__(self, profile: ProfileCurve):
        self.profile = profile
        self.metric = RevolutionMetric(profile)

    def _rhs(self, y):
        a, da = self.profile.jet(y[:, 0], 1)
        out = np.empty_like(y)
        out[:, 0] = y[:, 2]
        out[:, 1] = y[:, 3] / (a * a)
        out[:, 2] = y[:, 3] ** 2 * da / a ** 3
        out[:, 3] = 0.0
        return out

    def _step(self, y, h):
        k1 = self._rhs(y)
        k2 = self._rhs(y + 0.5 * h * k1)
        k3 = self._rhs(y + 0.5 * h * k2)
        k4 = self._rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def phase_speed_bound(self, states, cap: float = 64.0) -> np.ndarray:
        """Per-sample bound on the phase-space speed in the background metric.

        The base speed is 1 (unit-speed geodesics); the chart fiber angle
        turns at rate |alpha'| c / alpha^2 <= max|alpha'| / c along an orbit
        with Clairaut constant c.  Near-meridian samples are capped; the speed
        above the cap enters the caller's reported inflation.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        c = np.abs(states[:, 3])
        grid = np.linspace(-HALF_PI + 1e-3, HALF_PI - 1e-3, 512)
        da_max = float(np.max(np.abs(self.profile.d_alpha(grid))))
        with np.errstate(divide="ignore"):
            fiber_rate = np.where(c > 1e-12, da_max / np.maximum(c, 1e-12),
                                  cap)
        return np.clip(np.maximum(1.0, fiber_rate), 1.0, cap)

    def scan_min(self, states, t0, T, distance_fn, h_scan=0.02):
        """Coarse scan of min over [t0, T] of distance_fn(phi_t(states)).

        Returns (coarse_min, slack); the slack, one number for every row, is
        the half-step bound at unit speed, valid for base-distance criteria,
        plus the integration budget.  The samples are the grid times k h
        in [t0, T] and t0 itself, reached by a partial step, so every time
        of the window lies within h / 2 of a sample and every sample lies
        in the window.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        y = states.copy()
        best = np.full(len(states), np.inf)
        n_steps = int(math.ceil(T / h_scan))
        h = T / n_steps
        for k in range(n_steps):
            if k * h <= t0 < (k + 1) * h:
                d = distance_fn(self._step(y, t0 - k * h))
                best = np.where(d < best, d, best)
            y = self._step(y, h)
            if (k + 1) * h >= t0 - 1e-12:
                d = distance_fn(y)
                best = np.where(d < best, d, best)
        return best, 0.5 * h + ODE_BUDGET

    def refine_min(self, states, t0, T, distance_fn, resolution):
        """Dense refinement of k rows in one batched DOP853 pass.

        Row i is integrated to T under per-row error control (rtol = atol
        = 1e-10) and its minimum of ``distance_fn(y, start_rows)`` is taken
        over the grid arange(max(t0, res_i), T, res_i), in chunks of at
        most 2^15 times.  Raises StepFailure when a row's step collapses.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        dense = _dop853_rows(self._rhs, states, T, rtol=1e-10, atol=1e-10)
        best = np.full(len(states), np.inf)
        for i, res in enumerate(resolution):
            t = np.arange(max(t0, res), T, res)
            for start in range(0, len(t), _REFINE_CHUNK):
                y = dense(i, t[start:start + _REFINE_CHUNK])
                vals = distance_fn(y, np.broadcast_to(states[i], y.shape))
                best[i] = min(best[i], np.min(vals))
        return best

    def return_hits(self, states, t0, T, thresh):
        """Samples returning within thresh of their start (phase metric).

        :meth:`radial_clears` decides the samples whose radial motion alone
        keeps them away, without integrating them.  Of the rest, the
        base-distance scan certifies non-return at unit Lipschitz rate (the
        phase distance dominates the base distance); every sample it cannot
        clear is refined in the full metric at a step scaled by its
        phase-speed bound.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        hits = np.zeros(len(states), dtype=bool)
        rest = np.nonzero(~self.radial_clears(states, t0, T, thresh))[0]
        hits[rest], inflation = self._hits(
            states[rest], t0, T, thresh,
            lambda y, ref: self.metric.distance(
                y, np.broadcast_to(ref, y.shape)),
            self.metric.base_distance_from, exact=False)
        return hits, inflation

    def radial_clears(self, states, t0, T, thresh):
        """Rows certified to stay thresh away from their start, unintegrated.

        A regular row (c = |xi_theta| >= MERIDIAN_C_FLOOR) starting at
        (s0, xi_s0) with fiber angle psi0 has phase distance from its start
        at least L = max(|s - s0|, gap(psi, psi0)): the round-chart base
        distance is at least the latitude difference, and psi depends only
        on (s, sign xi_s), as sin psi = xi_theta / alpha(s).  L has the
        radial period tau(c), and L < thresh needs s in the slab
        S = [s0 - thresh, s0 + thresh].  With the turning points s_-, s_+
        (alpha = c), an exit bound t_out is a time by which the orbit has
        left S, in either time direction, and after which it stays
        thresh away until tau - t_out.  Of these the smallest that holds:

        * the slab bound, for S strictly inside (s_-, s_+): the radial
          speed on S is at least v_min = sqrt(1 - c^2 / min_S alpha^2), so
          the orbit leaves S within thresh / v_min, and on the opposite leg
          the fiber gap is at least pi - beta_max - beta0,
          beta = arcsin(c / alpha), which must exceed thresh;
        * the sojourn around the nearer turning point s_turn, for S that
          holds it or ends short of it: t(s0 -> s_turn) + t(far edge ->
          s_turn), two Clairaut time integrals.  Once a period the orbit
          spends one interval of that length beyond the far edge, which
          holds every passage through S, the opposite leg's too;
        * S holds both turning points: undecided.

        A row is cleared when t_out <= t0 and T + t_out < tau.  The length
        bound tau >= 2 (s_+ - s_-) (the radial speed is at most 1) decides
        first, and only the rows it leaves get tau by quadrature.  The
        sojourn integrals run for the rows whose slab bound does not leave
        S by t0, and then for those whose slab bound fails against tau.
        Every integral is a batched tanh-sinh rule at rel_tol 1e-4 and
        counts ten times its quadrature error against the row; a row whose
        quadrature does not converge stays undecided.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        clear = np.zeros(len(states), dtype=bool)
        rows = np.nonzero(np.abs(states[:, 3]) >= MERIDIAN_C_FLOOR)[0]
        d = float(thresh)
        if not len(rows) or d > t0:
            # the radial speed is at most 1: leaving S takes at least d
            return clear
        alpha = self.profile.alpha
        c = np.abs(states[rows, 3])
        s_lo, s_hi = turning_points(self.profile, c)
        s0 = np.clip(states[rows, 0], s_lo, s_hi)
        lo_in, hi_in = s0 - d <= s_lo, s0 + d >= s_hi
        inner = ~lo_in & ~hi_in
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(inner, c / np.minimum(alpha(s0 - d),
                                                   alpha(s0 + d)), 1.0)
            opposite = math.pi - np.arcsin(ratio) \
                - np.arcsin(np.minimum(c / alpha(s0), 1.0)) > d
            # the slab bound, where it holds; its error is 0
            t_out = np.where(inner & opposite, d / np.sqrt(1.0 - ratio ** 2),
                             np.inf)
        # rows whose sojourn is taken, or that have none (S holds both
        # turning points)
        sojourned = lo_in & hi_in

        def sojourn(sel):
            """Lower t_out of the rows sel to the sojourn around the nearer
            turning point: from s0 and from the far edge, with 10 errs."""
            sel = sel[~sojourned[sel]]
            sojourned[sel] = True
            up = s_hi[sel] - s0[sel] < s0[sel] - s_lo[sel]
            turn = np.tile(np.where(up, s_hi[sel], s_lo[sel]), 2)
            ends = np.concatenate([s0[sel], np.where(up, s0[sel] - d,
                                                     s0[sel] + d)])
            legs, errs = clairaut_segments(
                self.profile, np.tile(c[sel], 2), np.minimum(ends, turn),
                np.maximum(ends, turn), turn,
                np.zeros(len(turn), dtype=bool), rel_tol=1e-4)
            t_out[sel] = np.minimum(t_out[sel], (legs + 10.0 * errs)
                                    .reshape(2, -1).sum(axis=0))

        sojourn(np.nonzero(t_out > t0)[0])
        clear[rows] = t_out <= t0
        # tau >= 2 (s_+ - s_-) at radial speed <= 1; the rest need tau, less
        # ten errors, in two halves split at s_max
        cand = np.nonzero(clear[rows] & (T + t_out >= 2.0 * (s_hi - s_lo)))[0]
        s_max = np.full(len(cand), self.profile.s_max)
        halves, errs = clairaut_segments(
            self.profile, np.tile(c[cand], 2),
            np.concatenate([s_lo[cand], s_max]),
            np.concatenate([s_max, s_hi[cand]]),
            np.concatenate([s_lo[cand], s_hi[cand]]),
            np.zeros(2 * len(cand), dtype=bool), rel_tol=1e-4)
        tau = 2.0 * (halves - 10.0 * errs).reshape(2, -1).sum(axis=0)
        sojourn(cand[T + t_out[cand] >= tau])
        clear[rows[cand]] = T + t_out[cand] < tau
        return clear

    def target_hits(self, states, y_point, t0, T, thresh):
        """Samples whose orbit passes within thresh of y (base distance).

        The scan decides every sample whose minimum lies farther than its
        slack from thresh; only the ambiguous ones are refined.
        """
        to_point = self.metric.base_distance_from(y_point)

        def dist(y, _):
            return to_point(y)
        return self._hits(states, t0, T, thresh, dist, lambda _: to_point,
                          exact=True)

    def _hits(self, states, t0, T, thresh, dist, scan_dist, exact):
        """Meridian closed form, two-sided scan, then batched refinement.

        ``dist(y, start)`` is the criterion and ``scan_dist(start)`` gives
        its unit-rate lower bound as a function of y alone, set up once per
        scan; with ``exact`` they coincide, so the scan decides the clear
        cases both ways and refinement runs at unit phase speed.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        hits = np.zeros(len(states), dtype=bool)
        inflation = 0.0
        merid = np.abs(states[:, 3]) < MERIDIAN_C_FLOOR
        if np.any(merid):
            res = thresh / 4.0
            hits[merid] = self._meridian_min(states[merid], t0, T, res,
                                             dist) < thresh
            inflation = 0.5 * res + MERIDIAN_C_FLOOR
        reg = np.nonzero(~merid)[0]
        if len(reg):
            mins, slack = self._scan_both(states[reg], t0, T, scan_dist)
            sure = mins + slack < thresh if exact \
                else np.zeros(len(reg), dtype=bool)
            hits[reg] = sure
            cand = reg[(mins - slack <= thresh) & ~sure]
            if len(cand):
                spd = np.ones(len(cand)) if exact \
                    else self.phase_speed_bound(states[cand])
                res = thresh / (4.0 * spd)
                # every candidate forward, then mirrored, in one pass
                best = self.refine_min(
                    np.vstack([states[cand], _mirror(states[cand])]), t0, T,
                    dist, np.concatenate([res, res]))
                n = len(cand)
                hits[cand] = np.minimum(best[:n], best[n:]) < thresh
                inflation = max(inflation,
                                float(np.max(spd * res)) + ODE_BUDGET)
        return hits, inflation

    def _scan_both(self, states, t0, T, scan_dist):
        """scan_min over both time directions: (minima per sample, slack).

        ``scan_dist(start)`` is set up once, for the doubled start rows.
        """
        states = np.asarray(states, dtype=float).reshape(-1, 4)
        doubled = np.vstack([states, _mirror(states)])
        coarse, slack = self.scan_min(doubled, t0, T, scan_dist(doubled))
        n = len(states)
        return np.minimum(coarse[:n], coarse[n:]), slack

    @staticmethod
    def _meridian_min(states, t0, T, resolution, dist):
        """Grid scan of (near-)meridian orbits through the closed form.

        Both time directions; the grid slack (unit Lipschitz rate) and the
        O(MERIDIAN_C_FLOOR) position error of the meridian approximation
        enter the caller's inflation.
        """
        n = len(states)
        t_grid = np.arange(t0, T + resolution, resolution)
        times = np.concatenate([t_grid, -t_grid])
        best = np.full(n, np.inf)
        step = max(1, _MERIDIAN_CHUNK // max(n, 1))
        for start in range(0, len(times), step):
            # (row, time) pairs, time-major: pair j * n + i is row i at t_j
            t = times[start:start + step]
            rows = np.tile(states, (len(t), 1))
            d = dist(meridian_states(rows, np.repeat(t, n)), rows)
            best = np.minimum(best, d.reshape(len(t), n).min(axis=0))
        return best
