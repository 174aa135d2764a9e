"""One benchmark process: set up, repeat one workload's pipeline, check.

``run.py`` starts this script; it is not meant to be called by hand.  The
process prints one JSON object as its last line of output.  With
``--setup-only`` it stops once set-up is done.  With ``--trace-file`` it
wraps weyllab's public functions before the workload's inputs are built,
so set-up spans are recorded too; without it no wrapper is installed.

Set-up runs from process start to ready, so the imports below count
towards ``setup_s``.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy
import scipy
import scipy.interpolate  # the eigenfunction build would import it lazily
import weyllab

import tracing
import workloads
from workloads import Check


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace_file:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload]
    inp = wl.inputs(args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "weyllab": os.path.dirname(weyllab.__file__)}
    if not args.setup_only:
        result.update(_measure(wl, inp, args, tracer))
        result["env"] = _environment(args)
    print(json.dumps(result))


def _measure(wl, inp, args, tracer) -> dict:
    walls, fingerprints, first = [], [], None
    error = None
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_run(f"rep{len(walls)}")
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                out = tracer.span("pipeline", wl.run, inp)
        except Exception:      # a failing call is a failed check, not a crash
            error = traceback.format_exc()
            walls.append(time.perf_counter() - t0)
            break
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        fingerprints.append(wl.fingerprint(out))
        if first is None:
            first = out
        if len(walls) >= args.min_reps and \
                (t1 - start) + (t1 - t0) > args.seconds:
            break
    # the checks below allocate memory of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- untimed: checks on the first repetition's outputs; the later
    # repetitions must reproduce them exactly
    t_check = time.perf_counter()
    if error is not None:
        checks = [Check("pipeline-call", False, float("nan"), "no raise")]
    else:
        checks = wl.check(inp, first)
        same = sum(fp == fingerprints[0] for fp in fingerprints)
        checks.append(Check("outputs-repeat", same == len(fingerprints),
                            float(same), f"== {len(fingerprints)} reps"))
    result = {"walls": walls, "error": error,
              "fingerprint": hashlib.sha256(
                  repr(fingerprints[:1]).encode()).hexdigest(),
              "check_s": time.perf_counter() - t_check,
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        layers, trace_checks = _layers(tracer, len(walls))
        checks += trace_checks
        result["layers"] = layers
        _write_trace(args.trace_file, tracer, walls)
    result["checks"] = [{"name": c.name, "passed": bool(c.passed),
                         "value": float(c.value), "limit": c.limit}
                        for c in checks]
    return result


def _layers(tracer, reps: int):
    """Per-repetition busy/self seconds and counts, median over reps."""
    self_s = tracer.self_times()
    busy = {f"rep{i}": Counter() for i in range(reps)}
    own = {f"rep{i}": Counter() for i in range(reps)}
    setup_busy = Counter()
    roots = {}
    for s in tracer.spans:
        if s.run == "setup":
            setup_busy[s.name] += s.duration
        elif s.run in busy:
            busy[s.run][s.name] += s.duration
            own[s.run][s.name] += self_s[s.span_id]
            if s.parent is None:
                roots[s.run] = s
    runs = sorted(busy)
    counts = [tracer.counts.get(r, Counter()) for r in runs]

    def med(values):
        return statistics.median(values) if values else 0.0

    layers = {"weyl.build_smoothing_kernel.s":
              setup_busy["weyl.build_smoothing_kernel"]}
    for name in ("spectra.surface_spectrum.no_eigenfunctions",
                 "spectra.closed_form",
                 "spectra.ModeEigenfunction.band_weight",
                 "weyl.localized_counting", "weyl.smoothed_series",
                 "weyl.counting", "weyl.counting_grid", "weyl.fit_remainder",
                 "geoflow.classify_tori", "quadrature.tanh_sinh",
                 "covers.near_periodic_measure", "covers.CosphereSet.sample",
                 "flows.RevolutionFlow.scan_min",
                 "flows.RevolutionFlow.refine_min",
                 "flows.TorusFlow.self_return_min"):
        layers[f"{name}.s"] = med([busy[r][name] for r in runs])
    for name in ("weyl.localized_counting", "geoflow.classify_tori",
                 "covers.near_periodic_measure"):
        layers[f"{name}.self_s"] = med([own[r][name] for r in runs])
    layers["spectra.surface_spectrum.s"] = med(
        [busy[r]["spectra.surface_spectrum"]
         + busy[r]["spectra.surface_spectrum.no_eigenfunctions"]
         for r in runs])
    for key in ("spectra.surface_spectrum.eigenvalues",
                "spectra.ModeEigenfunction.band_weight.calls",
                "weyl.smoothed_series.pairs", "quadrature.tanh_sinh.calls",
                "flows.RevolutionFlow.scan_min.sample_steps",
                "flows.RevolutionFlow.refine_min.calls",
                "covers.refine.candidates", "covers.refine.hits"):
        layers[key] = med([c[key] for c in counts])
    cand = layers["covers.refine.candidates"]
    layers["covers.refine.hit_ratio"] = \
        layers["covers.refine.hits"] / cand if cand else 0.0
    layers["trace.wall_s"] = med([roots[r].duration for r in runs])
    layers["trace.remainder_s"] = med([own[r]["pipeline"] for r in runs])

    # self times of every span in a repetition add up to its root span
    gap = max(abs(sum(own[r].values()) - roots[r].duration) for r in runs)
    same = sum(c == counts[0] for c in counts)
    return layers, [
        Check("self-times-sum-to-wall", gap <= 1e-9, gap, "<= 1e-9 s"),
        Check("counts-repeat", same == len(counts), float(same),
              f"== {len(counts)} reps"),
    ]


def _write_trace(path, tracer, walls) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"walls": walls,
                   "counts": {r: dict(c) for r, c in tracer.counts.items()},
                   "spans": tracer.to_json()}, fh)


def _blas_threads():
    """Threads the bundled OpenBLAS runs with, or None if not found."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def _environment(args) -> dict:
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": commit,
            "workload": args.workload, "seed": args.seed}


if __name__ == "__main__":
    main()
