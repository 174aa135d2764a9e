"""Phase-space tube covers and dynamical-size estimators.

Good covers over fiber circles, built from the manifold, with exact
section-chart audits, and Monte-Carlo measures of near-periodic, looping,
and recurrent sets with exact lattice oracles on flat tori; the time
horizons t(eps) and T(r) are plain functions from float to float.  Sets,
samplers and flows read the manifold's surface profile; a torus has none.

All measure estimators work with the fixed background phase metric of
:mod:`weyllab.flows` and classify a sample by its certified closest
approach; the criterion radius is twice the nominal scale R (the
ball-to-ball contact distance), with integration slack folded in and
reported.  The classification is one call to the flow's ``return_hits``
or ``target_hits``, so the estimators never ask which flow they have.  The
closed-form flows compute exact minima and report no inflation.  On other
surfaces of revolution ``return_hits`` decides each sample by the first of
these that can: the radial certificate (Clairaut's integral, no
integration), the meridian closed form, then a coarse scan and a fine
refinement that both sample one batched DOP853 pass; the inflation is the
largest slack of the steps that ran (see :mod:`weyllab.flows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CoverFailure, DomainError
from .flows import RevolutionFlow, RoundSphereFlow, TorusFlow, wrap_angle
from .manifolds import (HALF_PI, ModelManifold, band_area, check_band,
                        check_points)
# unused here, but perfbench/tracing.py times scalar quadrature at this name
from .quadrature import tanh_sinh  # noqa: F401


# ---------------------------------------------------------------------------
# Flows and samplers per manifold


def _halton(d: int, n: int, seed) -> np.ndarray:
    """n scrambled Halton points in [0, 1)^d, d <= 3.

    Owen's randomized Halton (arXiv 1706.02808), as scipy's
    ``qmc.Halton(d, scramble=True, seed=seed).random(n)`` draws it.
    Coordinate j is the base-b van der Corput sequence, b = 2, 3, 5, with
    its i-th base-b digit of the index sent through the i-th of
    ceil(54 / log2 b) - 1 permutations of range(b); one
    ``default_rng(seed)`` shuffles them all, base by base and digit by
    digit.  The point is sum_i perm_i[digit_i] b^-(i+1), summed in digit
    order, so every float operation is scipy's: the draws match scipy
    1.17's bit for bit (checked by the tests).  Past the largest index's
    top digit each digit is 0, and its term is one scalar.

    The result is the transpose of a (d, n) array, as scipy's is: the
    callers read whole columns, and each column is contiguous.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((d, n))
    for row, base in zip(out, (2, 3, 5)[:d]):
        perms = np.repeat(np.arange(base)[None],
                          math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q, top, b2r = np.arange(n), n - 1, 1.0 / base
        for perm in perms:
            if top > 0:
                q, digit = np.divmod(q, base)
                row += (perm * b2r)[digit]
                top //= base
            else:
                row += perm[0] * b2r
            b2r /= base
    return out.T


def flow_for(manifold: ModelManifold):
    """The geodesic flow of a 2-torus or of a manifold's surface profile
    (the round flow for the round one); DomainError for any other."""
    if manifold.kind == "flat_torus":
        if manifold.dim != 2:
            raise DomainError(f"the dynamics estimators take 2-d tori, not "
                              f"a {manifold.dim}-torus")
        return TorusFlow(manifold.periods)
    if manifold.profile is None:
        raise DomainError(f"no flow for manifold kind {manifold.kind!r}")
    if manifold.profile.label == "round sphere":
        return RoundSphereFlow(manifold.profile)
    return RevolutionFlow(manifold.profile)


@dataclass
class CosphereSet:
    """Descriptor of a subset of the unit cosphere bundle.

    kinds: "full"; "band" (s in [s0, s1]), over a surface profile or, when
    full, a torus.  Liouville measure = area x fiber angle.
    """

    manifold: ModelManifold
    kind: str = "full"
    s0: float = None
    s1: float = None

    def __post_init__(self):
        if self.kind not in ("full", "band"):
            raise DomainError(f"unknown set kind {self.kind!r}")
        if self.manifold.profile is None and (
                self.kind == "band" or self.manifold.kind != "flat_torus"):
            raise DomainError(f"no {self.kind} set on a {self.manifold.kind}")
        if self.kind == "band":
            check_band(self.s0, self.s1)

    def total_measure(self) -> float:
        m = self.manifold
        if self.kind == "band":
            return band_area(m.profile, self.s0, self.s1) * 2.0 * math.pi
        return m.volume * 2.0 * math.pi

    def sample(self, n: int, seed: int) -> np.ndarray:
        m = self.manifold
        u = _halton(3, n, seed)
        if m.kind == "flat_torus":
            x = u[:, :2] * np.asarray(m.periods)
            phi = 2.0 * math.pi * u[:, 2]
            return np.column_stack([x, np.cos(phi), np.sin(phi)])
        lo = self.s0 if self.kind == "band" else (-HALF_PI + 1e-6)
        hi = self.s1 if self.kind == "band" else (HALF_PI - 1e-6)
        grid = np.linspace(lo, hi, 4097)
        dens = m.profile.alpha(grid)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        s = np.interp(u[:, 0], cdf, grid)
        theta = 2.0 * math.pi * u[:, 1]
        psi = 2.0 * math.pi * u[:, 2]
        a = m.profile.alpha(s)
        return np.column_stack([s, theta, np.cos(psi), a * np.sin(psi)])


def _fiber_draw(manifold: ModelManifold, x, n: int, seed) -> tuple:
    """(psi, states): n fiber angles from one Halton draw and the unit
    covectors at x with those angles.  The second covector component has
    scale 1 on a torus and alpha(s) on a surface."""
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    psi = 2.0 * math.pi * _halton(1, n, seed)[:, 0]
    s0, th0 = x
    a = 1.0 if manifold.kind == "flat_torus" \
        else float(manifold.profile.alpha(s0))
    return psi, np.column_stack([np.full_like(psi, s0),
                                 np.full_like(psi, th0), np.cos(psi),
                                 a * np.sin(psi)])


# ---------------------------------------------------------------------------
# Measure estimates


@dataclass
class MeasureEstimate:
    value: float
    half_width: float
    samples: int
    total: float
    criterion_radius: float
    inflation: float = 0.0
    brute_force: Optional[float] = None

    @staticmethod
    def hoeffding(n: int, total: float) -> float:
        return math.sqrt(math.log(2.0 / 0.01) / (2.0 * n)) * total

    @classmethod
    def from_hits(cls, hits, total: float, criterion_radius: float,
                  inflation: float = 0.0,
                  brute_force: Optional[float] = None):
        """Hit fraction times the total, with the Hoeffding half-width."""
        n = len(hits)
        return cls(float(np.mean(hits)) * total, cls.hoeffding(n, total), n,
                   total, criterion_radius, inflation, brute_force)


def _empty_window(t0: float, T: float, samples: int, total: float,
                  criterion_radius: float, torus: bool):
    """The zero estimate of an empty window, t0 > T; None for any other.
    A window that starts before t = 0 is refused."""
    if t0 < 0:
        raise DomainError(f"the window starts at t0 = {t0} < 0")
    if t0 > T:
        return MeasureEstimate(0.0, 0.0, samples, total, criterion_radius,
                               brute_force=0.0 if torus else None)


def near_periodic_measure(U: CosphereSet, t0: float, T: float, R: float,
                          samples: int = 100_000,
                          seed: int = 0) -> MeasureEstimate:
    """mu(B(P^R_U(t0, T), R)) estimated by certified closest approach.

    A sample counts when its orbit returns within 2R of the start in the
    window t0 <= |t| <= T (the contact distance of two R-balls), as decided
    by the flow's ``return_hits``; on flat tori the exact lattice value
    fills ``brute_force``.
    """
    if samples < 1000:
        raise DomainError("use at least 1e3 samples")
    if not R > 0:
        raise DomainError(f"the radius R = {R} is not positive")
    flow = flow_for(U.manifold)
    torus = U.manifold.kind == "flat_torus"
    thresh = 2.0 * R
    total = U.total_measure()
    empty = _empty_window(t0, T, samples, total, thresh, torus)
    if empty is not None:
        return empty
    hits, inflation = flow.return_hits(U.sample(samples, seed), t0, T,
                                       thresh)
    brute = None
    if torus:
        # a near return is t omega close to a lattice vector k
        brute = total * flow.direction_fraction([(0.0, 0.0)], t0, T, thresh)
    return MeasureEstimate.from_hits(hits, total, thresh, inflation, brute)


def looping_pair_measure(manifold: ModelManifold, x, y, t0: float, T: float,
                         R: float, samples: int = 20_000, seed: int = 0):
    """Both one-sided looping measures of the pair (x, y) plus the product.

    Targets are points (fiber spheres); a sample in S*_xM counts when its
    orbit passes within 2R of y in the window, as decided by the flow's
    ``target_hits``.  Returns (est_xy, est_yx, product_with_T2) where the
    product realizes the pair quantity mu_x mu_y T^2.
    """
    if not R > 0:
        raise DomainError(f"the radius R = {R} is not positive")
    check_points(manifold, x, y)
    flow = flow_for(manifold)
    torus = manifold.kind == "flat_torus"
    thresh = 2.0 * R
    total = 2.0 * math.pi           # the Liouville measure of a fiber
    empty = _empty_window(t0, T, samples, total, thresh, torus)
    if empty is not None:
        return empty, empty, 0.0
    ests = []
    for src, dst, sd in ((x, y, seed), (y, x, seed + 1)):
        dst = np.asarray(dst, dtype=float)
        hits, inflation = flow.target_hits(
            _fiber_draw(manifold, src, samples, sd)[1], dst, t0, T, thresh)
        brute = None
        if torus:
            # the backward window toward v equals the forward window
            # toward -v, so the targets are +-(y - x) plus the lattice
            delta = dst - np.asarray(src, dtype=float)
            brute = total * flow.direction_fraction([delta, -delta], t0, T,
                                                    thresh)
        ests.append(MeasureEstimate.from_hits(hits, total, thresh, inflation,
                                              brute))
    product = ests[0].value * ests[1].value * T * T
    return ests[0], ests[1], product


# ---------------------------------------------------------------------------
# Recurrence

_RECURRENCE_PROBES = 4     # probe directions of recurrence_measure
_DYADIC_LEVELS = 3         # test arcs B(rho, R0 2^-k), k < _DYADIC_LEVELS


@dataclass
class RecurrenceVerdict:
    passes: bool
    scale_R0: float
    probes: list
    failures: list
    details: dict = field(default_factory=dict)


def recurrence_measure(manifold: ModelManifold, x, R0: float,
                       t_func: Callable[[float], float],
                       T_func: Callable[[float], float], r: float, R: float,
                       eps_list=(0.5,), samples: int = 4000,
                       seed: int = 0) -> RecurrenceVerdict:
    """Dyadic-ball recurrence test at the point x.

    For probe directions rho and test arcs A = B(rho, R0 2^-k) the
    estimator checks, for one of the two time directions, that the mass
    returning rR-close to A within times [t(eps), T(r)] stays below
    eps mu(B(A, R)).  A finite test family under-approximates the full
    quantifier; the verdict reports exactly which (A, eps) pairs fail.
    """
    if not (0 < R < R0 and r > 0):
        raise DomainError(f"need 0 < R < R0 and r > 0, got R = {R}, "
                          f"R0 = {R0}, r = {r}")
    check_points(manifold, x)
    flow = flow_for(manifold)
    if isinstance(flow, RevolutionFlow):
        raise DomainError("recurrence estimator supports flat tori and the "
                          "round sphere")
    total = 2.0 * math.pi
    thresh = 2.0 * r * R
    T_r = float(T_func(r))
    rng = np.random.default_rng(seed)
    probe_angles = rng.uniform(0.0, 2.0 * math.pi, _RECURRENCE_PROBES)
    # one draw of the fiber circle serves every test arc
    psi, states = _fiber_draw(manifold, x, samples, seed)
    moved = {}          # the base returns or moved states, per time
    failures = []
    probes = []
    for psi0 in probe_angles:
        best_sign = None
        for sign in (+1, -1):
            sign_ok = True
            for k in range(_DYADIC_LEVELS):
                a_k = R0 * 0.5 ** k
                for eps in eps_list:
                    t_eps = float(t_func(eps))
                    mu_target = eps * min(2.0 * (a_k + R), total)
                    if T_r <= t_eps:
                        continue      # empty window: vacuous pass
                    est = _recurrence_mass(flow, x, psi, states, psi0, a_k,
                                           thresh, t_eps, T_r, sign, moved)
                    if est >= mu_target:
                        sign_ok = False
                        failures.append({"psi0": float(psi0), "k": k,
                                         "eps": float(eps), "sign": sign,
                                         "estimate": est,
                                         "allowed": mu_target})
            if sign_ok:
                best_sign = sign
                break
        probes.append({"psi0": float(psi0), "best_sign": best_sign})
    passes = all(p["best_sign"] is not None for p in probes)
    return RecurrenceVerdict(passes, R0, probes, failures,
                             details={"T_r": T_r, "threshold": thresh})


def _recurrence_mass(flow, x, psi, states, psi0, a_k, thresh, t_lo, t_hi,
                     sign, moved):
    """Estimated mass of B(R^{rR}_{A, sign}, rR) on the fiber circle.

    ``states`` are the unit covectors at x with the fiber angles ``psi``.
    ``moved`` caches what the flow gives that no test arc enters: the
    torus's base returns by window, and on the sphere the base distance to
    x and the fiber angle of the states moved by each (sign, t*).
    """
    fiber_gap = np.maximum(wrap_angle(psi - psi0) - a_k, 0.0)
    near_A = fiber_gap < thresh
    if isinstance(flow, RoundSphereFlow):
        to_x = flow.metric.base_distance_from(x)
        hits = np.zeros(len(psi), dtype=bool)
        for t_star in flow.window_times(t_lo, t_hi):
            if (sign, t_star) not in moved:
                end = flow.flow(states, -sign * t_star)
                moved[sign, t_star] = to_x(end), flow.metric.fiber_angle(end)
            base, angle = moved[sign, t_star]
            fib = np.maximum(wrap_angle(angle - psi0) - a_k, 0.0)
            hits |= (np.maximum(base, fib) < thresh)
    else:
        # the torus flow keeps every fiber angle, so the condition splits
        # into near_A and a base return; the base return of -omega against
        # the period lattice is that of omega against the negated lattice,
        # the same set, so neither the time direction nor the arc enters
        if (t_lo, t_hi) not in moved:
            moved[t_lo, t_hi] = flow.return_hits(states, t_lo, t_hi,
                                                 thresh)[0]
        hits = moved[t_lo, t_hi]
    return float(np.mean(hits & near_A)) * 2.0 * math.pi


# ---------------------------------------------------------------------------
# Tubes and good covers over fiber circles


@dataclass
class GoodCover:
    """Tubes over the fiber circle: their center fiber angles, ascending,
    and the family (color) of each; the families are the color classes.
    The section chart at angle u is (transverse base offset, u), where the
    max metric makes balls boxes, so every audit is exact."""

    params: np.ndarray
    colors: np.ndarray
    r: float

    @property
    def D(self) -> int:
        return int(self.colors.max()) + 1

    def audit_disjointness(self) -> float:
        """Exact same-family 3r-disjointness: centers >= 6r apart.

        Within the section flow-out (tau + 3r below the injectivity time),
        two inflated tubes meet iff their section boxes do, iff the center
        parameters are closer than 6r.  Returns the worst margin.
        """
        margin = math.inf
        for f in range(self.D):
            params = self.params[self.colors == f]
            if len(params) < 2:
                continue
            d = wrap_angle(params[:, None] - params[None, :])
            np.fill_diagonal(d, np.inf)
            margin = min(margin, float(np.min(d)) - 6.0 * self.r)
        return margin

    def audit_coverage(self, n_probes: int = 10_000, seed: int = 0) -> dict:
        """Probe containment of the half-inflated target in the tube union.

        Probes live on the section: transverse offset below r/2 never
        obstructs (max metric), so coverage reduces to the parameter
        circle.
        """
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 2.0 * math.pi, n_probes)
        gaps = wrap_angle(u[:, None] - self.params[None, :])
        nearest = np.min(gaps, axis=1)
        failures = int(np.sum(nearest >= self.r))
        return {"pass": failures == 0, "failures": failures,
                "worst": float(np.max(nearest))}


FAMILY_BUDGET = 13        # good-cover families over a circle (greedy coloring)


def build_good_cover(manifold: ModelManifold, tau: float,
                     r: float) -> GoodCover:
    """Greedy maximal r-separated centers over a fiber circle of the
    manifold, families by greedy coloring.

    The cover depends only on tau, r and the section's injectivity time:
    half the shortest period on a flat torus (a tube self-overlap needs a
    lattice point within the tube radius of a flow segment), else 1.  The
    6r-proximity graph on centers captures inflated-tube intersection
    exactly, so the greedy coloring certifies the family disjointness by
    construction; the family count is checked against the budget.
    """
    if not r > 0:
        raise DomainError(f"the tube radius r = {r} is not positive")
    tau_inj = min(manifold.periods) / 2.0 \
        if manifold.kind == "flat_torus" else 1.0
    if tau + 3.0 * r >= tau_inj:
        raise DomainError(f"tau + 3r = {tau + 3 * r} reaches the section "
                          f"injectivity time {tau_inj}")
    n_cand = max(64, int(math.ceil(2.0 * math.pi / (r / 8.0))))
    cand = np.linspace(0.0, 2.0 * math.pi, n_cand, endpoint=False)
    chosen: list[float] = []
    for u in cand:
        if not chosen:
            chosen.append(float(u))
            continue
        d = wrap_angle(np.array(chosen) - u)
        if np.all(d >= r):
            chosen.append(float(u))
    # maximality: a leftover gap of 2r or more admits its midpoint (the
    # candidate grid can straddle the narrow admissible zone)
    for _ in range(8):
        params = np.sort(np.mod(np.array(chosen), 2.0 * math.pi))
        gaps = np.diff(np.concatenate([params,
                                       [params[0] + 2.0 * math.pi]]))
        wide = np.nonzero(gaps >= 2.0 * r)[0]
        if len(wide) == 0:
            break
        for i in wide:
            chosen.append(float(params[i] + 0.5 * gaps[i]))
    params = np.sort(np.mod(np.array(chosen), 2.0 * math.pi))

    # greedy coloring of the 6r-proximity graph
    n = len(params)
    colors = np.full(n, -1, dtype=int)
    dmat = wrap_angle(params[:, None] - params[None, :])
    for i in range(n):
        neighbor_colors = {colors[j] for j in range(n)
                           if j != i and dmat[i, j] < 6.0 * r
                           and colors[j] >= 0}
        c = 0
        while c in neighbor_colors:
            c += 1
        colors[i] = c
    cover = GoodCover(params, colors, r)
    if cover.D > FAMILY_BUDGET:
        raise CoverFailure(f"greedy coloring used {cover.D} families, "
                           f"budget {FAMILY_BUDGET}")
    margin = cover.audit_disjointness()
    if margin < 0:
        raise CoverFailure(f"same-family tubes overlap by {-margin}")
    return cover
