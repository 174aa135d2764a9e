"""Phase-space tube covers and dynamical-size estimators.

Resolution functions, good covers over fiber circles with exact
section-chart audits, and Monte-Carlo measures of near-periodic, looping,
and recurrent sets with exact lattice oracles on flat tori.

All measure estimators work with the fixed background phase metric of
:mod:`weyllab.flows` and classify a sample by its certified closest
approach; the criterion radius is twice the nominal scale R (the
ball-to-ball contact distance), with integration slack folded in and
reported.  The classification is one call to the flow's ``return_hits``
or ``target_hits``, so the estimators never ask which flow they have.  The
closed-form flows compute exact minima and report no inflation.  On other
surfaces of revolution ``return_hits`` decides each sample by the first of
these that can: the radial certificate (Clairaut's integral, no
integration), the meridian closed form, the coarse scan, and the batched
refinement; the inflation is the largest slack of the steps that ran (see
:mod:`weyllab.flows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CoverFailure, DomainError
from .flows import RevolutionFlow, RoundSphereFlow, TorusFlow, wrap_angle
from .manifolds import HALF_PI, ModelManifold, band_area, make_round_sphere
# unused here, but perfbench/tracing.py times scalar quadrature at this name
from .quadrature import tanh_sinh  # noqa: F401


# ---------------------------------------------------------------------------
# Resolution functions


@dataclass
class ResolutionFunction:
    """Scale-to-time horizon T(R), decreasing and continuous on (0, 1)."""

    eval: Callable

    def __call__(self, R):
        return self.eval(np.asarray(R, dtype=float))

    @classmethod
    def logarithmic(cls, c: float = 1.0, offset: float = 0.0):
        return cls(lambda R: offset + c * np.log(1.0 / R))

    @classmethod
    def constant(cls, value: float):
        return cls(lambda R: np.full_like(np.asarray(R, dtype=float), value))

    @classmethod
    def power(cls, p: float, c: float = 1.0):
        return cls(lambda R: c * np.asarray(R, dtype=float) ** (-p))


# ---------------------------------------------------------------------------
# Flows and samplers per manifold


def _halton(d: int, n: int, seed) -> np.ndarray:
    """n scrambled Halton points in [0, 1)^d.

    scipy.stats is imported here, where points are drawn: its import is a
    large share of a fresh process's start-up time and memory, and most
    processes that import weyllab never sample.
    """
    from scipy.stats import qmc
    return qmc.Halton(d=d, scramble=True, seed=seed).random(n)


def flow_for(manifold: ModelManifold):
    if manifold.kind == "flat_torus":
        return TorusFlow(manifold.periods)
    if manifold.kind == "round_sphere" and manifold.n == 2:
        return RoundSphereFlow(make_round_sphere())
    if manifold.kind == "surface_of_revolution":
        if manifold.profile.label == "round sphere":
            return RoundSphereFlow(manifold.profile)
        return RevolutionFlow(manifold.profile)
    raise DomainError(f"no flow for manifold kind {manifold.kind!r}")


@dataclass
class CosphereSet:
    """Descriptor of a subset of the unit cosphere bundle.

    kinds: "full"; "band" (s in [s0, s1], revolution surfaces); "fiber"
    (S*_x M over the point x).  Liouville measure = area x fiber angle.
    """

    manifold: ModelManifold
    kind: str = "full"
    s0: float = None
    s1: float = None
    x: tuple = None

    def total_measure(self) -> float:
        m = self.manifold
        if self.kind == "full":
            return m.volume * 2.0 * math.pi
        if self.kind == "band":
            return band_area(m.profile, self.s0, self.s1) * 2.0 * math.pi
        if self.kind == "fiber":
            return 2.0 * math.pi
        raise DomainError(f"unknown set kind {self.kind!r}")

    def sample(self, n: int, seed: int) -> np.ndarray:
        m = self.manifold
        if m.kind == "flat_torus" and self.kind not in ("full", "fiber"):
            raise DomainError("torus sets other than the full cosphere and "
                              "a fiber are not needed by the estimators")
        if m.kind == "flat_torus" and self.kind == "full":
            u = _halton(3, n, seed)
            x = u[:, :2] * np.asarray(m.periods)
            phi = 2.0 * math.pi * u[:, 2]
            return np.column_stack([x, np.cos(phi), np.sin(phi)])

        if self.kind == "fiber":
            u = _halton(1, n, seed)[:, 0]
            return _fiber_states(m, self.x, 2.0 * math.pi * u)
        prof = _profile_of(m)
        if self.kind in ("full", "band"):
            lo = self.s0 if self.kind == "band" else (-HALF_PI + 1e-6)
            hi = self.s1 if self.kind == "band" else (HALF_PI - 1e-6)
            u = _halton(3, n, seed)
            grid = np.linspace(lo, hi, 4097)
            dens = prof.alpha(grid)
            cdf = np.concatenate([[0.0], np.cumsum(
                0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
            cdf /= cdf[-1]
            s = np.interp(u[:, 0], cdf, grid)
            theta = 2.0 * math.pi * u[:, 1]
            psi = 2.0 * math.pi * u[:, 2]
            a = prof.alpha(s)
            return np.column_stack([s, theta, np.cos(psi),
                                    a * np.sin(psi)])
        raise DomainError(f"unknown set kind {self.kind!r}")


def _profile_of(manifold: ModelManifold):
    """Profile curve of a revolution surface; the round one otherwise."""
    return manifold.profile if manifold.kind == "surface_of_revolution" \
        else make_round_sphere()


def _fiber_states(manifold: ModelManifold, x, psi) -> np.ndarray:
    """Unit covectors at the point x with fiber angles psi.

    On a torus the columns are (x, y, cos psi, sin psi), so the scale a of
    the second covector component is 1; on a surface it is alpha(s).
    """
    s0, th0 = x
    a = 1.0 if manifold.kind == "flat_torus" \
        else float(_profile_of(manifold).alpha(s0))
    return np.column_stack([np.full_like(psi, s0), np.full_like(psi, th0),
                            np.cos(psi), a * np.sin(psi)])


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
    torus = U.manifold.kind == "flat_torus"
    thresh = 2.0 * R
    if t0 > T:
        return MeasureEstimate(0.0, 0.0, samples, U.total_measure(), thresh,
                               brute_force=0.0 if torus else None)
    flow = flow_for(U.manifold)
    hits, inflation = flow.return_hits(U.sample(samples, seed), t0, T,
                                       thresh)
    total = U.total_measure()
    brute = None
    if torus:
        # a near return is t omega close to a lattice vector k; k = 0
        # counts only when t = 0 lies in the window
        brute = total * flow.direction_fraction(
            flow.lattice(T + 1.0), t0, T, thresh, math.pi / 2)
    return MeasureEstimate.from_hits(hits, total, thresh, inflation, brute)


def looping_pair_measure(manifold: ModelManifold, x, y, t0: float, T: float,
                         R: float, samples: int = 20_000, seed: int = 0):
    """Both one-sided looping measures of the pair (x, y) plus the product.

    Targets are points (fiber spheres); a sample in S*_xM counts when its
    orbit passes within 2R of y in the window, as decided by the flow's
    ``target_hits``.  Returns (est_xy, est_yx, product_with_T2) where the
    product realizes the pair quantity mu_x mu_y T^2.
    """
    flow = flow_for(manifold)
    thresh = 2.0 * R
    ests = []
    for src, dst, sd in ((x, y, seed), (y, x, seed + 1)):
        U = CosphereSet(manifold, kind="fiber", x=src)
        dst = np.asarray(dst, dtype=float)
        hits, inflation = flow.target_hits(U.sample(samples, sd), dst, t0, T,
                                           thresh)
        total = U.total_measure()
        brute = None
        if manifold.kind == "flat_torus":
            # the backward window toward v equals the forward window
            # toward -v, so the targets are +-(y - x) plus the lattice
            delta = dst - np.asarray(src, dtype=float)
            lat = flow.lattice(T + 1.0 + float(np.max(np.abs(delta))))
            brute = total * flow.direction_fraction(
                np.vstack([delta[None, :] + lat, -delta[None, :] + lat]),
                t0, T, thresh, math.pi)
        ests.append(MeasureEstimate.from_hits(hits, total, thresh, inflation,
                                              brute))
    product = ests[0].value * ests[1].value * T * T
    return ests[0], ests[1], product


# ---------------------------------------------------------------------------
# Recurrence


@dataclass
class RecurrenceVerdict:
    passes: bool
    scale_R0: float
    probes: list
    failures: list
    details: dict = field(default_factory=dict)


def recurrence_measure(manifold: ModelManifold, x, R0: float,
                       t_func: ResolutionFunction,
                       T_func: ResolutionFunction, r: float, R: float,
                       eps_list=(0.5,), n_dyadic: int = 3,
                       probe_count: int = 4, samples: int = 4000,
                       seed: int = 0) -> RecurrenceVerdict:
    """Dyadic-ball recurrence test at the point x.

    For probe directions rho and test arcs A = B(rho, R0 2^-k) the
    estimator checks, for one of the two time directions, that the mass
    returning rR-close to A within times [t(eps), T(r)] stays below
    eps mu(B(A, R)).  A finite test family under-approximates the full
    quantifier; the verdict reports exactly which (A, eps) pairs fail.
    """
    if not (0 < R < R0):
        raise DomainError("need 0 < R < R0")
    flow = flow_for(manifold)
    total = 2.0 * math.pi
    thresh = 2.0 * r * R
    T_r = float(T_func(np.array([r]))[0])
    rng = np.random.default_rng(seed)
    probe_angles = rng.uniform(0.0, 2.0 * math.pi, probe_count)
    failures = []
    probes = []
    for psi0 in probe_angles:
        best_sign = None
        for sign in (+1, -1):
            sign_ok = True
            for k in range(n_dyadic):
                a_k = R0 * 0.5 ** k
                for eps in eps_list:
                    t_eps = float(t_func(np.array([eps]))[0])
                    mu_target = eps * min(2.0 * (a_k + R), total)
                    if T_r <= t_eps:
                        continue      # empty window: vacuous pass
                    est = _recurrence_mass(flow, manifold, x, psi0, a_k,
                                           thresh, t_eps, T_r, sign,
                                           samples, seed)
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


def _recurrence_mass(flow, manifold, x, psi0, a_k, thresh, t_lo, t_hi,
                     sign, samples, seed):
    """Estimated mass of B(R^{rR}_{A, sign}, rR) on the fiber circle."""
    u = _halton(1, samples, seed)[:, 0]
    psi = 2.0 * math.pi * u
    fiber_gap = np.maximum(wrap_angle(psi - psi0) - a_k, 0.0)
    near_A = fiber_gap < thresh
    if isinstance(flow, TorusFlow):
        # fiber distance is flow-invariant: the condition splits exactly
        om = np.column_stack([np.cos(psi), np.sin(psi)])
        lat = flow.lattice(t_hi + 1.0)
        targets = np.broadcast_to(lat[None, :, :],
                                  (samples,) + lat.shape)
        base_min = flow._window_min(sign * om, targets, t_lo, t_hi).min(axis=1)
        hits = base_min < thresh
    elif isinstance(flow, RoundSphereFlow):
        a = float(flow.profile.alpha(x[0]))
        states = np.column_stack([np.full(samples, x[0]),
                                  np.full(samples, x[1]),
                                  np.cos(psi), a * np.sin(psi)])
        # candidate return times: closures at 2 pi k inside the window
        hits = np.zeros(samples, dtype=bool)
        for k in range(0, int(t_hi / (2 * math.pi)) + 2):
            t_star = min(max(2 * math.pi * k, t_lo), t_hi)
            moved = flow.flow(states, -sign * t_star)
            base = flow.metric.base_distance_to_point(moved, x)
            fib = np.maximum(wrap_angle(flow.metric.fiber_angle(moved)
                                        - psi0) - a_k, 0.0)
            hits |= (np.maximum(base, fib) < thresh)
    else:
        raise DomainError("recurrence estimator supports flat tori and the "
                          "round sphere")
    return float(np.mean(hits & near_A)) * 2.0 * math.pi


# ---------------------------------------------------------------------------
# Tubes and good covers over fiber circles


@dataclass
class CircleTarget:
    """The fiber circle S*_x M, the cover transversal.

    Parametrized by the fiber angle psi.  Section coordinates at parameter
    u are (transverse base offset, u); the max metric makes section balls
    boxes, so all cover audits are exact in this chart.  The cover depends
    only on tau, r and the injectivity time, the same for every base
    point x.
    """

    manifold: ModelManifold

    def tau_inj(self) -> float:
        """Conservative injectivity time of the section flow-out.

        On a flat torus a tube self-overlap needs a lattice point within
        the tube radius of a flow segment, impossible below half the
        shortest period; on surfaces of revolution the background
        injectivity scale is of order one.
        """
        if self.manifold.kind == "flat_torus":
            return min(self.manifold.periods) / 2.0
        return 1.0


@dataclass
class Tube:
    center_param: float
    family: int = -1


@dataclass
class GoodCover:
    target: CircleTarget
    tubes: list
    families: list            # list of index lists
    r: float

    @property
    def D(self) -> int:
        return len(self.families)

    def center_params(self) -> np.ndarray:
        return np.array([t.center_param for t in self.tubes])

    def audit_disjointness(self) -> float:
        """Exact same-family 3r-disjointness: centers >= 6r apart.

        Within the section flow-out (tau + 3r below the injectivity time),
        two inflated tubes meet iff their section boxes do, iff the center
        parameters are closer than 6r.  Returns the worst margin.
        """
        margin = math.inf
        for fam in self.families:
            params = np.array([self.tubes[i].center_param for i in fam])
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
        params = self.center_params()
        gaps = wrap_angle(u[:, None] - params[None, :])
        nearest = np.min(gaps, axis=1)
        failures = int(np.sum(nearest >= self.r))
        return {"pass": failures == 0, "failures": failures,
                "worst": float(np.max(nearest))}


def family_budget(dim: int) -> int:
    """Dimensional bound for good-cover families (greedy coloring)."""
    return 13 ** dim


def build_good_cover(target: CircleTarget, tau: float, r: float,
                     anchor: float = 0.0) -> GoodCover:
    """Greedy maximal r-separated centers, families by greedy coloring.

    The 6r-proximity graph on centers captures inflated-tube intersection
    exactly for circle targets, so the greedy coloring certifies the
    family disjointness by construction; the family count is checked
    against the dimensional budget.  ``anchor`` rotates the candidate
    grid so a center lands exactly on a direction of interest.
    """
    if tau + 3.0 * r >= target.tau_inj():
        raise DomainError(f"tau + 3r = {tau + 3 * r} reaches the section "
                          f"injectivity time {target.tau_inj()}")
    n_cand = max(64, int(math.ceil(2.0 * math.pi / (r / 8.0))))
    cand = anchor + np.linspace(0.0, 2.0 * math.pi, n_cand, endpoint=False)
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
    tubes = [Tube(float(u)) for u in params]

    # greedy coloring of the 6r-proximity graph
    n = len(tubes)
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
        tubes[i].family = c
    n_fam = int(colors.max()) + 1
    if n_fam > family_budget(1):
        raise CoverFailure(f"greedy coloring used {n_fam} families, "
                           f"budget {family_budget(1)}")
    families = [[i for i in range(n) if colors[i] == f]
                for f in range(n_fam)]
    cover = GoodCover(target, tubes, families, r)
    margin = cover.audit_disjointness()
    if margin < 0:
        raise CoverFailure(f"same-family tubes overlap by {-margin}")
    return cover
