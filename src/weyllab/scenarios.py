"""Prepackaged verification scenarios with machine-checkable verdicts.

Each scenario pins its tolerances and produces a Verdict whose claims are
individually labeled; the CLI exposes them under ``scenario run`` and the
acceptance suite executes all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .covers import CosphereSet, MeasureEstimate, near_periodic_measure
from .flows import TorusFlow
from .geoflow import (classify_tori, d_rotation_number,
                      d_rotation_number_in_epsilon, integrate_geodesic,
                      rotation_number, rotation_number_ode,
                      unit_phase_point)
from .manifolds import (HALF_PI, PerturbationSpec, flat_torus,
                        make_perturbed_sphere, make_pendulum_profile,
                        make_round_sphere, surface_of_revolution)
from .spectra import (product_spectrum, sphere_spectrum, surface_spectrum,
                      torus_spectrum)
from .weyl import (build_smoothing_kernel, circle_integral_quadrature,
                   counting, counting_grid, fit_remainder, kuznecov,
                   localized_counting, projector_kernel, smoothed_series,
                   smoothed_series_direct)


@dataclass
class ExperimentConfig:
    """Description of one experiment run, read from a JSON object.

    ``task`` carries the scenario parameter overrides; reruns of an
    identical config reproduce identical outputs (evaluation order does
    not depend on worker count).
    """

    task: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    _FIELDS = ("task", "seeds", "tolerances")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        from .errors import ConfigError
        if not isinstance(raw, dict):
            raise ConfigError("experiment config must be a JSON object")
        unknown = set(raw) - set(cls._FIELDS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{k: raw[k] for k in raw})

    def scenario_overrides(self) -> dict:
        merged = dict(self.task)
        merged.update({f"seed_{k}": v for k, v in self.seeds.items()})
        if "seed" in self.seeds:
            merged["seed"] = self.seeds["seed"]
        merged.update(self.tolerances)
        return merged


@dataclass
class Claim:
    tag: str
    measured: float
    threshold: str
    passed: bool


@dataclass
class Verdict:
    scenario: str
    claims: list
    provenance: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "claims": [{"tag": c.tag, "measured": c.measured,
                        "threshold": c.threshold, "passed": bool(c.passed)}
                       for c in self.claims],
            "provenance": self.provenance,
        }


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


_DEFAULT_PERT = {"epsilon": 0.01, "a": 0.5, "b": 1.0}


def _pert_profile(cfg):
    return make_perturbed_sphere(PerturbationSpec(
        epsilon=cfg.get("epsilon", 0.01), a=cfg.get("a", 0.5),
        b=cfg.get("b", 1.0)))


# ---------------------------------------------------------------------------
# scenario implementations


def sphere_sharpness(cfg: dict) -> list:
    lam_max = cfg.get("lambda_max", 200.0)
    spec = sphere_spectrum(2, lam_max + 1.0)
    grid = counting_grid(spec, 20.0, lam_max)
    fit = fit_remainder(counting(spec, grid), "standard", (20.0, lam_max))
    return [
        Claim("sharp-remainder-constant", fit.constant,
              "sup |E|/lam in [0.5, 4]", 0.5 <= fit.constant <= 4.0),
        Claim("sharp-remainder-trend", fit.trend,
              "dyadic trend in [0.8, 1.25]", 0.8 <= fit.trend <= 1.25),
    ]


def product_log_gain(cfg: dict) -> list:
    lam_max = cfg.get("lambda_max", 150.0)
    s2 = sphere_spectrum(2, lam_max)
    s1 = sphere_spectrum(1, lam_max)
    spec = product_spectrum(s2, s1, lam_max)
    grid = counting_grid(spec, 50.0, lam_max, n_base=600)
    series = counting(spec, grid)
    c_half = fit_remainder(series, "log", (50.0, lam_max / 2.0)).constant
    c_full = fit_remainder(series, "log", (50.0, lam_max)).constant
    change = abs(c_full / c_half - 1.0)
    return [
        Claim("log-gain-constant-stability", change,
              "sup |E| log(lam)/lam^2 changes < 10% when the window "
              "doubles", change < 0.10),
    ]


def torus_remainder(cfg: dict) -> list:
    lam_max = cfg.get("lambda_max", 500.0)
    spec = torus_spectrum((2 * math.pi, 2 * math.pi), lam_max)
    grid = counting_grid(spec, 20.0, lam_max, n_base=800)
    series = counting(spec, grid)
    fit = fit_remainder(series, "power", (20.0, lam_max))
    # windowed envelope of |E| log(lam)/lam over four dyadic windows
    q = np.abs(series.E) * np.log(series.lambdas) / series.lambdas
    edges = np.geomspace(20.0, lam_max, 5)
    env = [float(np.max(q[(series.lambdas >= a) & (series.lambdas <= b)]))
           for a, b in zip(edges[:-1], edges[1:])]
    slope = np.polyfit(np.log(0.5 * (edges[:-1] + edges[1:])),
                       np.log(env), 1)[0]
    return [
        Claim("gauss-circle-exponent", fit.gamma,
              "envelope-fitted gamma <= 0.75", fit.gamma <= 0.75),
        Claim("log-weighted-remainder-decreasing", float(slope),
              "|E| log(lam)/lam envelope decreasing (slope < 0, last < "
              "first)", slope < 0 and env[-1] < env[0]),
    ]


def clairaut_crosscheck(cfg: dict) -> list:
    profile = _pert_profile({**_DEFAULT_PERT, **cfg})
    s_values = np.linspace(0.15, 1.5, cfg.get("n_points", 20))
    orb = rotation_number(s_values, profile)
    worst = 0.0
    for s_plus, theta, tau in zip(s_values, orb.Theta0, orb.return_time):
        theta_ode, t_ode = rotation_number_ode(float(s_plus), profile)
        worst = max(worst, abs(theta - theta_ode), abs(tau - t_ode))
    T = 20.0
    drift = 0.0
    for s0, psi in ((0.2, 0.9), (-0.5, 2.1), (0.8, 0.4)):
        tr = integrate_geodesic(unit_phase_point(profile, s0, 0.0, psi),
                                T, profile)
        rep = tr.conservation_report()
        drift = max(drift, rep["clairaut_drift"] / (1.0 + T),
                    rep["unit_speed_drift"] / (1.0 + T))
    return [
        Claim("rotation-number-cross-validation", worst,
              "|Theta0(quad) - Theta0(ode)| < 1e-6 at 20 points",
              worst < 1e-6),
        Claim("clairaut-conservation", drift,
              "conserved-quantity drift < 1e-8 per unit time",
              drift < 1e-8),
    ]


def perturbation_derivative(cfg: dict) -> list:
    spec = PerturbationSpec(**{**_DEFAULT_PERT, **{k: cfg[k] for k in cfg
                                                   if k in _DEFAULT_PERT}})
    h = 1e-4
    plus = make_perturbed_sphere(PerturbationSpec(h, spec.a, spec.b))
    minus = make_perturbed_sphere(PerturbationSpec(-h, spec.a, spec.b))
    grid = np.linspace(spec.b, HALF_PI - 0.05, 10)
    D = np.array([d_rotation_number_in_epsilon(spec, float(s_plus))
                  for s_plus in grid])
    fd = (d_rotation_number(grid, plus, "formula")
          - d_rotation_number(grid, minus, "formula")) / (2 * h)
    worst_rel = float(np.max(np.abs(D - fd) / np.abs(fd)))
    min_val = float(np.min(D))
    return [
        Claim("mixed-derivative-agreement", worst_rel,
              "formula vs central eps-difference rel <= 1e-3",
              worst_rel <= 1e-3),
        Claim("mixed-derivative-positive", min_val,
              "strictly positive on [b, pi/2 - 0.05]", min_val > 0),
    ]


def band_classification(cfg: dict) -> list:
    spec = {**_DEFAULT_PERT, **cfg}
    profile = _pert_profile(spec)
    grid = np.linspace(0.05, HALF_PI - 0.05, cfg.get("n_grid", 50))
    out = classify_tori(profile, grid, q_max=50, rational_tol=1e-9,
                        deriv_floor=1e-6)
    below_ok = all(c.status == "periodic" and (c.p, c.q) == (1, 1)
                   for c in out if c.s_plus < spec["a"])
    above_ok = all(c.status == "aperiodic"
                   for c in out if c.s_plus >= spec["b"])
    n_below = sum(1 for c in out if c.s_plus < spec["a"])
    n_above = sum(1 for c in out if c.s_plus >= spec["b"])
    return [
        Claim("spherical-strip-periodic", float(n_below),
              "all grid points below a classify periodic (1,1)", below_ok),
        Claim("outer-band-aperiodic", float(n_above),
              "all grid points at or above b classify aperiodic", above_ok),
    ]


def pendulum_rotation(cfg: dict) -> list:
    E = cfg.get("energy", 4.0)
    profile = make_pendulum_profile(E)
    lo, hi = 0.05, HALF_PI - 0.05
    mins = []
    for n in (cfg.get("n_grid", 40), 2 * cfg.get("n_grid", 40)):
        grid = np.linspace(lo, hi, n)
        mins.append(float(np.min(np.abs(d_rotation_number(
            grid, profile, "finite_difference")))))
    stable = abs(mins[0] - mins[1]) <= 0.10 * max(mins)
    # square-root scale near the singular torus (offsets from the maximum)
    us = np.geomspace(1e-4, 1e-2, 10)
    ratio_min = float(np.min(rotation_number(profile.s_max + us,
                                             profile).Theta0 / np.sqrt(us)))
    return [
        Claim("pendulum-derivative-floor", mins[1],
              "min |dTheta0/ds| > 0, stable within 10% under grid "
              "doubling", mins[0] > 0 and mins[1] > 0 and stable),
        Claim("pendulum-sqrt-lower-bound", ratio_min,
              "Theta0/sqrt(offset) bounded below by a positive constant",
              ratio_min > 0),
    ]


def radial_solver_oracle(cfg: dict) -> list:
    lam_max = math.sqrt(14 * 15) + 0.2
    spec = surface_spectrum(make_round_sphere(), lam_max,
                            with_eigenfunctions=False)
    worst_rel = 0.0
    complete = True
    per_mode = {}
    for lam, tags in zip(spec.lambdas, spec.mode_tags):
        for (m, k) in tags:
            per_mode.setdefault(m, []).append(lam)
    for m in range(6):
        lams = sorted(per_mode[m])[:10]
        if len(lams) < 10:
            complete = False
            continue
        for k, lam in enumerate(lams):
            l = m + k
            worst_rel = max(worst_rel,
                            abs(lam ** 2 - l * (l + 1)) / (l * (l + 1))
                            if l > 0 else abs(lam ** 2))
    closed = sphere_spectrum(2, lam_max)
    count_exact = spec.total == closed.total
    return [
        Claim("legendre-eigenvalues", worst_rel,
              "first 10 eigenvalues per mode m <= 5 match l(l+1) to rel "
              "1e-6", complete and worst_rel <= 1e-6),
        Claim("winding-completeness", float(spec.total),
              "winding count equals the closed-form count exactly",
              count_exact),
    ]


def measure_oracle(cfg: dict) -> list:
    samples = cfg.get("samples", 100_000)
    reps = cfg.get("repetitions", 100)
    torus = flat_torus((2 * math.pi, 2 * math.pi))
    U = CosphereSet(torus, kind="full")
    flow = TorusFlow(torus.periods)
    thresh = 2 * 0.01
    exact_frac = flow.direction_fraction(flow.lattice(11.0), 1.0, 10.0,
                                         thresh, math.pi / 2)
    total = U.total_measure()
    exact = exact_frac * total
    good = 0
    worst_dev = 0.0
    for rep in range(reps):
        states = U.sample(samples, seed=1000 + rep)
        hits, _ = flow.return_hits(states, 1.0, 10.0, thresh)
        value = float(np.mean(hits)) * total
        hw = MeasureEstimate.hoeffding(samples, total)
        dev = abs(value - exact) / hw
        worst_dev = max(worst_dev, dev)
        if dev <= 3.0:
            good += 1
    return [
        Claim("hoeffding-coverage", float(good),
              f"value within 3 half-widths of the lattice oracle in >= 99 "
              f"of {reps} seeded repetitions", good >= 99),
        Claim("worst-deviation", worst_dev,
              "largest |value - exact| in half-width units (reported)",
              True),
    ]


def nonperiodic_trend(cfg: dict) -> list:
    profile = _pert_profile({**_DEFAULT_PERT, **cfg})
    m = surface_of_revolution(profile)
    band = (cfg.get("s0", 1.05), cfg.get("s1", 1.45))
    U = CosphereSet(m, kind="band", s0=band[0], s1=band[1])
    samples = cfg.get("samples", 20_000)
    products = []
    for R in (0.05, 0.02, 0.01, 0.005):
        T = R ** (-1.0 / 3.0)
        est = near_periodic_measure(U, 1.0, T, R, samples=samples, seed=37)
        products.append(est.value * T)
    lo, hi = min(products), max(products)
    bounded = hi <= 1e-9 or hi <= 2.0 * lo
    return [
        Claim("nonperiodic-product-bounded", hi,
              "mu(B(P^R, R)) * T(R) with T = R^(-1/3) varies by < 2x "
              "across R in {0.05, 0.02, 0.01, 0.005}", bounded),
    ]


def localized_weyl_contrast(cfg: dict) -> list:
    profile = _pert_profile({**_DEFAULT_PERT, **cfg})
    lam_max = cfg.get("lambda_max", 60.0)
    spec = surface_spectrum(profile, lam_max)
    grid = counting_grid(spec, 20.0, lam_max - 0.5, n_base=300)
    green = localized_counting(spec, (1.05, 1.45), grid)
    orange = localized_counting(spec, (-0.4, 0.4), grid)
    fit_green = fit_remainder(green, "log", (20.0, lam_max - 0.5))
    fit_orange = fit_remainder(orange, "log", (20.0, lam_max - 0.5))
    fit_orange_std = fit_remainder(orange, "standard", (20.0, lam_max - 0.5))
    ratio = fit_green.constant / fit_orange.constant
    return [
        Claim("aperiodic-band-gain", ratio,
              "log-weighted remainder constant at least 2x smaller on the "
              "aperiodic band", ratio <= 0.5),
        Claim("strip-standard-remainder", fit_orange_std.constant,
              "plain |E_W|/lam constant bounded (<= 10)",
              fit_orange_std.constant <= 10.0),
    ]


def kuznecov_structure(cfg: dict) -> list:
    profile = make_round_sphere()
    spec = surface_spectrum(profile, 12.0)
    worst_circle = float(np.max(np.abs(
        circle_integral_quadrature(spec.basis, 0.3)[spec.basis.m != 0])))
    man = surface_of_revolution(profile)
    x = ("point", 0.4, 1.1)
    lams = np.array([3.0, 4.0, 5.0])
    ks = kuznecov(spec, x, x, lams, t0=1.0, tail_tol=0.02)
    worst_pt = max(abs(ks.values[i]
                       - projector_kernel(man, (0.4, 1.1), (0.4, 1.1),
                                          float(lam), spec=spec).Pi)
                   for i, lam in enumerate(lams))
    # smoothed comparison on the flat torus point
    lam_hi = cfg.get("lambda_max", 500.0)
    kernel = build_smoothing_kernel(1.0)
    tor = torus_spectrum((2 * math.pi, 2 * math.pi),
                         lam_hi + kernel.tail_cut_for(1e-9) + 2.0)
    lam_grid = np.geomspace(50.0, lam_hi, 40)
    sm = smoothed_series(tor, lam_grid, kernel)
    E_t0 = (tor.count(lam_grid) - sm) / tor.volume
    q = np.abs(E_t0) * np.log(lam_grid) / lam_grid
    edges = np.geomspace(50.0, lam_hi, 5)
    env = [float(np.max(q[(lam_grid >= a) & (lam_grid <= b)]))
           for a, b in zip(edges[:-1], edges[1:])]
    slope = float(np.polyfit(np.log(0.5 * (edges[:-1] + edges[1:])),
                             np.log(env), 1)[0])
    return [
        Claim("circle-integrals-vanish", worst_circle,
              "m != 0 latitude integrals below 1e-10", worst_circle < 1e-10),
        Claim("point-kuznecov-kernel-consistency", worst_pt,
              "point Kuznecov equals the diagonal kernel to 1e-8",
              worst_pt < 1e-8),
        Claim("smoothed-comparison-decreasing", slope,
              "|E^{t0}| log(lam)/lam decreasing over [50, 500]",
              slope < 0 and env[-1] < env[0]),
    ]


def smoothing_consistency(cfg: dict) -> list:
    kernel = build_smoothing_kernel(1.0)
    rng = np.random.default_rng(cfg.get("seed", 12))
    specs = [
        sphere_spectrum(2, 520.0),
        torus_spectrum((2 * math.pi, 2 * math.pi), 530.0),
        product_spectrum(sphere_spectrum(2, 460.0), sphere_spectrum(1, 460.0),
                         460.0),
    ]
    tail_cut = kernel.tail_cut_for(kernel.tail_tol)
    worst_ratio = 0.0
    allocation = cfg.get("points_per_spectrum", (7, 7, 6))
    for spec, n_points in zip(specs, allocation):
        lams = rng.uniform(20.0, spec.lambda_max - tail_cut - 1.0, n_points)
        sm = smoothed_series(spec, lams, kernel)
        W = float(spec.count(min(spec.lambda_max,
                                 lams.max() + kernel.s_table[-1])))
        bound = kernel.consistency_bound(W)
        for i, lam in enumerate(lams):
            direct = smoothed_series_direct(spec, float(lam), kernel)
            worst_ratio = max(worst_ratio, abs(sm[i] - direct) / bound)
    return [
        Claim("table-vs-direct-convolution", worst_ratio,
              "table smoothing within the reported truncation bound of "
              "direct convolution (ratio <= 1) at random grid points",
              worst_ratio <= 1.0),
    ]


SCENARIOS = {
    "sphere-sharpness": sphere_sharpness,
    "product-log-gain": product_log_gain,
    "torus-remainder": torus_remainder,
    "clairaut-crosscheck": clairaut_crosscheck,
    "perturbation-derivative": perturbation_derivative,
    "band-classification": band_classification,
    "pendulum-rotation": pendulum_rotation,
    "radial-solver-oracle": radial_solver_oracle,
    "measure-oracle": measure_oracle,
    "nonperiodic-trend": nonperiodic_trend,
    "localized-weyl-contrast": localized_weyl_contrast,
    "kuznecov-structure": kuznecov_structure,
    "smoothing-consistency": smoothing_consistency,
}


def list_scenarios() -> list:
    return sorted(SCENARIOS)


def run_scenario(name: str, cfg: dict = None) -> Verdict:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; see list_scenarios()")
    cfg = dict(cfg or {})
    start = time.time()
    claims = SCENARIOS[name](cfg)
    verdict = Verdict(name, claims,
                      provenance={"config_hash": config_hash(cfg),
                                  "version": __version__},
                      elapsed=time.time() - start)
    return verdict
