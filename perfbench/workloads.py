"""The benchmark's workloads, written against weyllab's public API.

Each workload has four parts:

* ``inputs(seed)`` draws the inputs from ``--seed`` and builds the
  profiles (and, where the pipeline smooths, the kernel table).  This is
  set-up work and counts towards ``setup_s``.
* ``run(inputs)`` is one pipeline, the timed region behind ``wall_s``.
* ``check(inputs, outputs)`` verifies the outputs against pinned
  thresholds or independent oracles, after the timed region.
* ``fingerprint(outputs)`` lists the deterministic outputs that must
  repeat exactly from one repetition to the next.

Calls go through module attributes (``spectra.surface_spectrum``, not a
name imported from it), so the traced worker's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from weyllab import covers, geoflow, manifolds, spectra, weyl


@dataclass
class Check:
    name: str
    passed: bool
    value: float          # the diagnostic printed next to the verdict
    limit: str


@dataclass
class Workload:
    inputs: Callable
    run: Callable
    check: Callable
    fingerprint: Callable


def _perturbed_profile(rng):
    """(epsilon, a, b) near (0.01, 0.5, 1.0), each band on its own side."""
    eps = 0.01 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
    a = 0.5 + 0.02 * rng.uniform(-1.0, 1.0)
    b = 1.0 + 0.02 * rng.uniform(-1.0, 1.0)
    return manifolds.make_perturbed_sphere(
        manifolds.PerturbationSpec(eps, a, b))


SQUARE = (2.0 * math.pi, 2.0 * math.pi)


# ---------------------------------------------------------------------------
# localized Weyl contrast: the headline spectral pipeline


LW_LAMBDA_MAX = 12.0
LW_WINDOW = (10.0, 11.5)       # fit_remainder needs lam >= 10
LW_BAND = (1.05, 1.45)         # aperiodic band, beyond the bump
LW_STRIP = (-0.4, 0.4)         # periodic strip, below the bump


def lw_inputs(rng):
    return {"profile": _perturbed_profile(rng)}


def lw_run(inp):
    spec = spectra.surface_spectrum(inp["profile"], LW_LAMBDA_MAX)
    grid = weyl.counting_grid(spec, LW_WINDOW[0], LW_WINDOW[1], n_base=300)
    band = weyl.localized_counting(spec, LW_BAND, grid)
    strip = weyl.localized_counting(spec, LW_STRIP, grid)
    return {"eigenvalues": spec.total,
            "band_log": weyl.fit_remainder(band, "log", LW_WINDOW),
            "strip_log": weyl.fit_remainder(strip, "log", LW_WINDOW),
            "strip_std": weyl.fit_remainder(strip, "standard", LW_WINDOW)}


def lw_check(inp, out):
    ratio = out["band_log"].constant / out["strip_log"].constant
    strip = out["strip_std"].constant
    return [Check("contrast-ratio", ratio <= 0.5, ratio, "<= 0.5"),
            Check("strip-standard-constant", strip <= 10.0, strip, "<= 10")]


def lw_fingerprint(out):
    return (out["eigenvalues"], out["band_log"].constant,
            out["strip_log"].constant, out["strip_std"].constant)


# ---------------------------------------------------------------------------
# closed-form oracles: the radial grid without eigenfunctions, and the
# only real table smoothing


CF_LAMBDA_MAX = 12.0           # the same radial grid as LW_LAMBDA_MAX
CF_SMOOTH_HI = 200.0
CF_SMOOTH_POINTS = 100
CF_DIRECT_POINTS = 3
CF_PRODUCT_LAMBDA = 60.0


def cf_inputs(rng):
    grid = np.sort(rng.uniform(20.0, CF_SMOOTH_HI, CF_SMOOTH_POINTS))
    return {"round": manifolds.make_round_sphere(),
            "kernel": weyl.build_smoothing_kernel(1.0),
            "grid": grid,
            "direct_at": rng.choice(len(grid), CF_DIRECT_POINTS,
                                    replace=False),
            "count_at": rng.uniform(1.0, CF_PRODUCT_LAMBDA, 8)}


def cf_run(inp):
    kernel = inp["kernel"]
    radial = spectra.surface_spectrum(inp["round"], CF_LAMBDA_MAX,
                                      with_eigenfunctions=False)
    sphere = spectra.sphere_spectrum(2, CF_LAMBDA_MAX)
    # the torus spectrum reaches past the grid by the kernel tail
    torus = spectra.torus_spectrum(
        SQUARE, CF_SMOOTH_HI + kernel.tail_cut_for(kernel.tail_tol) + 2.0)
    smooth = weyl.smoothed_series(torus, inp["grid"], kernel)
    series = weyl.counting(torus, weyl.counting_grid(torus, 20.0,
                                                     CF_SMOOTH_HI,
                                                     n_base=800))
    fit = weyl.fit_remainder(series, "power", (20.0, CF_SMOOTH_HI))
    circle = spectra.sphere_spectrum(1, CF_PRODUCT_LAMBDA)
    product = spectra.product_spectrum(circle, circle, CF_PRODUCT_LAMBDA)
    square = spectra.torus_spectrum(SQUARE, CF_PRODUCT_LAMBDA)
    return {"radial": radial, "sphere": sphere, "torus": torus,
            "smooth": smooth, "fit": fit, "product": product,
            "square": square}


def _legendre_error(radial) -> float:
    """Largest relative lambda^2 error against l(l+1), l = m + k."""
    worst = 0.0
    for lam, tags in zip(radial.lambdas, radial.mode_tags):
        for m, k in tags:
            l2 = (m + k) * (m + k + 1)
            err = abs(lam * lam - l2)
            worst = max(worst, err / l2 if l2 else err)
    return worst


def cf_check(inp, out):
    radial, sphere, torus = out["radial"], out["sphere"], out["torus"]
    kernel, grid = inp["kernel"], inp["grid"]
    lam_err = _legendre_error(radial)
    W = float(torus.count(min(torus.lambda_max,
                              grid.max() + kernel.s_table[-1])))
    bound = kernel.consistency_bound(W)
    table_ratio = max(
        abs(out["smooth"][i]
            - weyl.smoothed_series_direct(torus, float(grid[i]), kernel))
        / bound for i in inp["direct_at"])
    gamma = out["fit"].gamma
    at = inp["count_at"]
    product_gap = int(np.max(np.abs(out["product"].count(at)
                                    - out["square"].count(at))))
    return [
        Check("radial-count", radial.total == sphere.total,
              float(radial.total), f"== closed form {sphere.total}"),
        Check("radial-lambda2-error", lam_err <= 1e-6, lam_err, "<= 1e-6"),
        Check("table-vs-direct", table_ratio <= 1.0, table_ratio,
              "<= 1 (consistency_bound)"),
        Check("torus-gamma", gamma <= 0.75, gamma, "<= 0.75"),
        Check("product-vs-lattice", product_gap == 0, float(product_gap),
              "== 0 (S^1 x S^1 against the square torus)"),
    ]


def cf_fingerprint(out):
    return (out["radial"].total, tuple(out["radial"].lambdas),
            float(np.sum(out["smooth"])), out["fit"].gamma,
            out["product"].total, out["square"].total)


# ---------------------------------------------------------------------------
# near-periodic: the dynamics half, no spectra


NP_PROFILE = manifolds.PerturbationSpec(0.01, 0.5, 1.0)
NP_BAND = (1.05, 1.45)
NP_RADII = (0.05, 0.02, 0.01, 0.005)
NP_SAMPLES = 1000
# The band estimates keep the packaged nonperiodic-trend seed and profile:
# their refine_min candidates swing from 6 to 21 per run across Halton
# seeds (12 to 17 under a 5 % profile jitter), which would make wall_s
# a measure of the draw instead of the code.
NP_BAND_SEED = 37
NP_TORUS_SAMPLES = 20_000
NP_TORUS_R = 0.01


def np_inputs(seed):
    rng = np.random.default_rng(seed)
    profile = manifolds.make_perturbed_sphere(NP_PROFILE)
    shift = rng.uniform(-0.01, 0.01)
    torus = manifolds.flat_torus(SQUARE)
    return {"profile": profile,
            "grid": np.linspace(0.05, manifolds.HALF_PI - 0.05, 50) + shift,
            "band": covers.CosphereSet(
                manifolds.surface_of_revolution(profile), kind="band",
                s0=NP_BAND[0], s1=NP_BAND[1]),
            "torus": covers.CosphereSet(torus, kind="full"),
            "torus_seed": int(rng.integers(2 ** 31))}


def np_run(inp):
    tori = geoflow.classify_tori(inp["profile"], inp["grid"], q_max=50,
                                 rational_tol=1e-9, deriv_floor=1e-6)
    band = [covers.near_periodic_measure(inp["band"], 1.0, R ** (-1.0 / 3.0),
                                         R, samples=NP_SAMPLES,
                                         seed=NP_BAND_SEED)
            for R in NP_RADII]
    torus = covers.near_periodic_measure(inp["torus"], 1.0, 10.0, NP_TORUS_R,
                                         samples=NP_TORUS_SAMPLES,
                                         seed=inp["torus_seed"])
    return {"tori": tori, "band": band, "torus": torus}


def np_check(inp, out):
    a, b = NP_PROFILE.a, NP_PROFILE.b
    tori = out["tori"]
    below = [t for t in tori if t.s_plus < a]
    above = [t for t in tori if t.s_plus >= b]
    below_ok = all(t.status == "periodic" and (t.p, t.q) == (1, 1)
                   for t in below)
    above_ok = all(t.status == "aperiodic" for t in above)
    in_range = all(0.0 <= e.value <= e.total
                   for e in out["band"] + [out["torus"]])
    band_max = max(e.value for e in out["band"])
    torus = out["torus"]
    deviation = abs(torus.value - torus.brute_force) / torus.half_width
    return [
        Check("strip-periodic-1-1", below_ok, float(len(below)),
              "all grid points below a"),
        Check("band-aperiodic", above_ok, float(len(above)),
              "all grid points at or above b"),
        Check("estimates-in-range", in_range, band_max,
              "every estimate in [0, total]; value: largest band estimate"),
        Check("torus-vs-lattice", deviation <= 3.0, deviation,
              "<= 3 Hoeffding half-widths"),
    ]


def np_fingerprint(out):
    return (tuple((t.status, t.p, t.q) for t in out["tori"]),
            tuple(e.value for e in out["band"]), out["torus"].value)


# ---------------------------------------------------------------------------
# spectral: both spectral pipelines in one repetition.  They run on the same
# radial grid, one with eigenfunctions and one without, so the per-layer
# trace shows a grid change that helps eigenvalues but costs the
# eigenfunction build.  One workload instead of two leaves room in the
# benchmark's time budget for longer, steadier runs.


def spectral_inputs(seed):
    lw_rng, cf_rng = (np.random.default_rng(s)
                      for s in np.random.SeedSequence(seed).spawn(2))
    return {**lw_inputs(lw_rng), **cf_inputs(cf_rng)}


def spectral_run(inp):
    return {**lw_run(inp), **cf_run(inp)}


def spectral_check(inp, out):
    return lw_check(inp, out) + cf_check(inp, out)


def spectral_fingerprint(out):
    return lw_fingerprint(out) + cf_fingerprint(out)


WORKLOADS = {
    "spectral": Workload(spectral_inputs, spectral_run, spectral_check,
                         spectral_fingerprint),
    "near-periodic": Workload(np_inputs, np_run, np_check, np_fingerprint),
}
