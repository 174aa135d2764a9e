"""Prepackaged verification scenarios with machine-checkable verdicts.

Each scenario pins its tolerances and produces a Verdict whose claims are
individually labeled; the CLI exposes them under ``scenario <name>`` and
the acceptance suite executes all of them.  A scenario's parameters are
its keyword-only arguments, with their defaults; a config binds to that
signature, so a key the scenario does not declare is an error.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .covers import CosphereSet, MeasureEstimate, near_periodic_measure
from .errors import ConfigError, bind, json_object
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
                   localized_counting, projector_kernels, smoothed_series,
                   smoothed_series_direct)


def experiment_task(*, task=None) -> dict:
    """The scenario parameters of an experiment config, ``{"task": {...}}``:
    the config binds to this signature, so any other block is an error."""
    return json_object({} if task is None else task, "task")


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


# ---------------------------------------------------------------------------
# scenario implementations


def sphere_sharpness(*, lambda_max=200.0) -> list:
    spec = sphere_spectrum(2, lambda_max + 1.0)
    grid = counting_grid(spec, 20.0, lambda_max)
    fit = fit_remainder(counting(spec, grid), "standard", (20.0, lambda_max))
    return [
        Claim("sharp-remainder-constant", fit.constant,
              "sup |E|/lam in [0.5, 4]", 0.5 <= fit.constant <= 4.0),
        Claim("sharp-remainder-trend", fit.trend,
              "dyadic trend in [0.8, 1.25]", 0.8 <= fit.trend <= 1.25),
    ]


def product_log_gain(*, lambda_max=150.0) -> list:
    s2 = sphere_spectrum(2, lambda_max)
    s1 = sphere_spectrum(1, lambda_max)
    spec = product_spectrum(s2, s1, lambda_max)
    grid = counting_grid(spec, 50.0, lambda_max, n_base=600)
    series = counting(spec, grid)
    c_half = fit_remainder(series, "log", (50.0, lambda_max / 2.0)).constant
    c_full = fit_remainder(series, "log", (50.0, lambda_max)).constant
    change = abs(c_full / c_half - 1.0)
    return [
        Claim("log-gain-constant-stability", change,
              "sup |E| log(lam)/lam^2 changes < 10% when the window "
              "doubles", change < 0.10),
    ]


def torus_remainder(*, lambda_max=500.0) -> list:
    spec = torus_spectrum((2 * math.pi, 2 * math.pi), lambda_max)
    grid = counting_grid(spec, 20.0, lambda_max, n_base=800)
    series = counting(spec, grid)
    fit = fit_remainder(series, "power", (20.0, lambda_max))
    slope, decreasing = _log_weighted_envelope(series.lambdas, series.E,
                                               20.0, lambda_max)
    return [
        Claim("gauss-circle-exponent", fit.gamma,
              "envelope-fitted gamma <= 0.75", fit.gamma <= 0.75),
        Claim("log-weighted-remainder-decreasing", slope,
              "|E| log(lam)/lam envelope decreasing (slope < 0, last < "
              "first)", decreasing),
    ]


def _log_weighted_envelope(lam, E, lo, hi):
    """(slope, decreasing) of the envelope of |E| log(lam)/lam over the four
    dyadic windows of [lo, hi]: the slope of its log against the log of the
    window midpoints, and whether the slope is negative and the last window
    lies below the first."""
    q = np.abs(E) * np.log(lam) / lam
    edges = np.geomspace(lo, hi, 5)
    env = [float(np.max(q[(lam >= a) & (lam <= b)]))
           for a, b in zip(edges[:-1], edges[1:])]
    slope = float(np.polyfit(np.log(0.5 * (edges[:-1] + edges[1:])),
                             np.log(env), 1)[0])
    return slope, slope < 0 and env[-1] < env[0]


def clairaut_crosscheck(*, epsilon=0.01, a=0.5, b=1.0, n_points=20) -> list:
    profile = make_perturbed_sphere(PerturbationSpec(epsilon, a, b))
    s_values = np.linspace(0.15, 1.5, n_points)
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


def perturbation_derivative(*, a=0.5, b=1.0) -> list:
    # the derivative in epsilon is taken at epsilon = 0
    h = 1e-4
    spec = PerturbationSpec(h, a, b)
    plus = make_perturbed_sphere(spec)
    minus = make_perturbed_sphere(PerturbationSpec(-h, a, b))
    grid = np.linspace(b, HALF_PI - 0.05, 10)
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


def band_classification(*, epsilon=0.01, a=0.5, b=1.0, n_grid=50) -> list:
    profile = make_perturbed_sphere(PerturbationSpec(epsilon, a, b))
    grid = np.linspace(0.05, HALF_PI - 0.05, n_grid)
    out = classify_tori(profile, grid, q_max=50, rational_tol=1e-9,
                        deriv_floor=1e-6)
    below_ok = all(c.status == "periodic" and (c.p, c.q) == (1, 1)
                   for c in out if c.s_plus < a)
    above_ok = all(c.status == "aperiodic" for c in out if c.s_plus >= b)
    n_below = sum(1 for c in out if c.s_plus < a)
    n_above = sum(1 for c in out if c.s_plus >= b)
    return [
        Claim("spherical-strip-periodic", float(n_below),
              "all grid points below a classify periodic (1,1)", below_ok),
        Claim("outer-band-aperiodic", float(n_above),
              "all grid points at or above b classify aperiodic", above_ok),
    ]


def pendulum_rotation(*, energy=4.0, n_grid=40) -> list:
    profile = make_pendulum_profile(energy)
    lo, hi = 0.05, HALF_PI - 0.05
    mins = []
    for n in (n_grid, 2 * n_grid):
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


def radial_solver_oracle() -> list:
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


def measure_oracle(*, samples=100_000, repetitions=100, seed=1000) -> list:
    torus = flat_torus((2 * math.pi, 2 * math.pi))
    U = CosphereSet(torus, kind="full")
    flow = TorusFlow(torus.periods)
    thresh = 2 * 0.01
    exact_frac = flow.direction_fraction([(0.0, 0.0)], 1.0, 10.0, thresh)
    total = U.total_measure()
    exact = exact_frac * total
    good = 0
    worst_dev = 0.0
    for rep in range(repetitions):
        states = U.sample(samples, seed=seed + rep)
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
              f"of {repetitions} seeded repetitions", good >= 99),
        Claim("worst-deviation", worst_dev,
              "largest |value - exact| in half-width units (reported)",
              True),
    ]


def nonperiodic_trend(*, epsilon=0.01, a=0.5, b=1.0, s0=1.05, s1=1.45,
                      samples=20_000, seed=37) -> list:
    m = surface_of_revolution(make_perturbed_sphere(
        PerturbationSpec(epsilon, a, b)))
    U = CosphereSet(m, kind="band", s0=s0, s1=s1)
    products = []
    for R in (0.05, 0.02, 0.01, 0.005):
        T = R ** (-1.0 / 3.0)
        est = near_periodic_measure(U, 1.0, T, R, samples=samples, seed=seed)
        products.append(est.value * T)
    lo, hi = min(products), max(products)
    bounded = hi <= 1e-9 or hi <= 2.0 * lo
    return [
        Claim("nonperiodic-product-bounded", hi,
              "mu(B(P^R, R)) * T(R) with T = R^(-1/3) varies by < 2x "
              "across R in {0.05, 0.02, 0.01, 0.005}", bounded),
    ]


def localized_weyl_contrast(*, epsilon=0.01, a=0.5, b=1.0,
                            lambda_max=60.0) -> list:
    profile = make_perturbed_sphere(PerturbationSpec(epsilon, a, b))
    spec = surface_spectrum(profile, lambda_max)
    grid = counting_grid(spec, 20.0, lambda_max - 0.5, n_base=300)
    green = localized_counting(spec, (1.05, 1.45), grid)
    orange = localized_counting(spec, (-0.4, 0.4), grid)
    fit_green = fit_remainder(green, "log", (20.0, lambda_max - 0.5))
    fit_orange = fit_remainder(orange, "log", (20.0, lambda_max - 0.5))
    fit_orange_std = fit_remainder(orange, "standard",
                                   (20.0, lambda_max - 0.5))
    ratio = fit_green.constant / fit_orange.constant
    return [
        Claim("aperiodic-band-gain", ratio,
              "log-weighted remainder constant at least 2x smaller on the "
              "aperiodic band", ratio <= 0.5),
        Claim("strip-standard-remainder", fit_orange_std.constant,
              "plain |E_W|/lam constant bounded (<= 10)",
              fit_orange_std.constant <= 10.0),
    ]


def kuznecov_structure(*, lambda_max=500.0) -> list:
    profile = make_round_sphere()
    spec = surface_spectrum(profile, 12.0)
    worst_circle = float(np.max(np.abs(
        circle_integral_quadrature(spec.basis, 0.3)[spec.basis.m != 0])))
    man = surface_of_revolution(profile)
    x = ("point", 0.4, 1.1)
    lams = np.array([3.0, 4.0, 5.0])
    ks = kuznecov(spec, x, x, lams, t0=1.0, tail_tol=0.02)
    worst_pt = max(abs(value - kv.Pi) for value, kv in zip(
        ks.values, projector_kernels(man, (0.4, 1.1), (0.4, 1.1),
                                     lams.tolist(), spec=spec)))
    # smoothed comparison on the flat torus point
    kernel = build_smoothing_kernel(1.0)
    tor = torus_spectrum((2 * math.pi, 2 * math.pi),
                         lambda_max + kernel.tail_cut_for(1e-9) + 2.0)
    lam_grid = np.geomspace(50.0, lambda_max, 40)
    sm = smoothed_series(tor, lam_grid, kernel)
    E_t0 = (tor.count(lam_grid) - sm) / tor.volume
    slope, decreasing = _log_weighted_envelope(lam_grid, E_t0, 50.0,
                                               lambda_max)
    return [
        Claim("circle-integrals-vanish", worst_circle,
              "m != 0 latitude integrals below 1e-10", worst_circle < 1e-10),
        Claim("point-kuznecov-kernel-consistency", worst_pt,
              "point Kuznecov equals the diagonal kernel to 1e-8",
              worst_pt < 1e-8),
        Claim("smoothed-comparison-decreasing", slope,
              "|E^{t0}| log(lam)/lam decreasing over [50, 500]",
              decreasing),
    ]


def smoothing_consistency(*, seed=12, points_per_spectrum=(7, 7, 6)) -> list:
    kernel = build_smoothing_kernel(1.0)
    rng = np.random.default_rng(seed)
    specs = [
        sphere_spectrum(2, 520.0),
        torus_spectrum((2 * math.pi, 2 * math.pi), 530.0),
        product_spectrum(sphere_spectrum(2, 460.0), sphere_spectrum(1, 460.0),
                         460.0),
    ]
    tail_cut = kernel.tail_cut_for(kernel.tail_tol)
    worst_ratio = 0.0
    for spec, n_points in zip(specs, points_per_spectrum):
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


def battery_configs(task: dict) -> dict:
    """Per scenario, the keys of ``task`` it declares (``scenario all``),
    bound to its signature; a key that no scenario declares, or a value of
    the wrong type, raises ConfigError before any runs."""
    params = {name: inspect.signature(fn).parameters
              for name, fn in sorted(SCENARIOS.items())}
    unknown = set(task).difference(*params.values())
    if unknown:
        raise ConfigError(f"no scenario takes the parameters "
                          f"{sorted(unknown)}")
    return {name: bind(SCENARIOS[name],
                       {k: v for k, v in task.items() if k in declared},
                       f"scenario {name!r}")
            for name, declared in params.items()}


def run_scenario(name: str, cfg: dict = None) -> Verdict:
    """Run one scenario with ``cfg`` bound to its keyword parameters."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; see list_scenarios()")
    fn = SCENARIOS[name]
    cfg = bind(fn, {} if cfg is None else cfg, f"scenario {name!r}")
    start = time.time()
    claims = fn(**cfg)
    verdict = Verdict(name, claims,
                      provenance={"config_hash": config_hash(cfg),
                                  "version": __version__},
                      elapsed=time.time() - start)
    return verdict
