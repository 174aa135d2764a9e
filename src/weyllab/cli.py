"""Command-line orchestration: subcommands, reproducible seeds, artifacts.

Outputs are CSV for series and JSON for verdicts, every file carrying a
header block with the configuration hash and package version; writes are
atomic (temp file + rename).  Exit codes: 0 all claims pass, 2 a claim
failed, 3 configuration error (a malformed or unsupported configuration,
or an argument outside the domain of its computation), 4 numerical-stage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, WeylLabError, bind
from .covers import (CosphereSet, build_good_cover, looping_pair_measure,
                     near_periodic_measure, recurrence_measure)
from .geoflow import classify_tori, d_rotation_number, rotation_number
from .manifolds import manifold_from_config
from .scenarios import (battery_configs, config_hash, experiment_task,
                        list_scenarios, run_scenario)
from .spectra import spectrum_for_manifold
from .weyl import (build_smoothing_kernel, counting, counting_grid,
                   fit_remainder, kuznecov, localized_counting,
                   projector_kernels, smoothed_series,
                   smoothed_series_direct)

DEFAULT_OUT_ENV = "WEYLLAB_OUT_DIR"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".weyllab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(cfg: dict) -> str:
    return (f"# weyllab {__version__}\n"
            f"# config-hash {config_hash(cfg)}\n")


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path: str, cfg: dict, columns, rows) -> None:
    lines = [_header(cfg).rstrip("\n"), ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, cfg: dict, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("provenance", {})
    payload["provenance"].update({"config_hash": config_hash(cfg),
                                  "version": __version__})
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}")


def _load_manifold(args):
    cfg = _read_json(args.manifold, "manifold config")
    return manifold_from_config(cfg), cfg


def _parse_grid(spec: str):
    try:
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError:
        raise ConfigError(f"grid spec {spec!r} must be start:stop:count")


def _out_path(args, default_name: str) -> str:
    out_dir = args.out_dir or os.environ.get(DEFAULT_OUT_ENV, ".")
    return os.path.join(out_dir, default_name)


def _require_seed(args):
    if args.ci and args.seed is None:
        raise ConfigError("--seed is mandatory in CI mode")
    return args.seed if args.seed is not None else 0


def _resolution_from_flag(spec: str):
    """The horizon T(R) of ``log:C`` (C log(1/R)), ``power:P`` (R^-P) or
    ``const:T``, a function from float to float."""
    kind, _, value = spec.partition(":")
    if kind == "log":
        c = float(value or 0.1)
        return lambda R: c * np.log(1.0 / R)
    if kind == "power":
        p = float(value or 1.0 / 3.0)
        return lambda R: np.power(R, -p)
    if kind == "const":
        T = float(value or 10.0)
        return lambda R: T
    raise ConfigError(f"unknown resolution function {spec!r}; use "
                      "log:C | power:P | const:T")


def _check_positive(args) -> None:
    """DomainError for a cutoff, radius or count flag that is not positive."""
    for name in ("lambda_max", "radii", "r", "R", "n_lambda"):
        values = getattr(args, name, None)
        if values is not None and not np.all(np.asarray(values) > 0):
            raise DomainError(f"--{name.replace('_', '-')} must be positive, "
                              f"got {values}")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_spectrum(args) -> int:
    manifold, cfg = _load_manifold(args)
    spec = spectrum_for_manifold(manifold, args.lambda_max,
                                 with_eigenfunctions=False)
    rows = []
    for lam, mult, idx in zip(spec.lambdas, spec.mults,
                              range(len(spec.lambdas))):
        tags = spec.mode_tags[idx] if spec.mode_tags else []
        m = tags[0][0] if tags else ""
        k = tags[0][1] if tags else ""
        rows.append((float(lam), int(mult), m, k))
    if args.format == "json":
        payload = {"lambda_max": spec.lambda_max,
                   "entries": [{"lambda": r[0], "multiplicity": r[1]}
                               for r in rows]}
        _write_json(_out_path(args, "spectrum.json"), cfg, payload)
    else:
        _write_csv(_out_path(args, "spectrum.csv"), cfg,
                   ("lambda", "multiplicity", "m", "k"), rows)
    return 0


def cmd_count(args) -> int:
    manifold, cfg = _load_manifold(args)
    spec = spectrum_for_manifold(manifold, args.lambda_max,
                                 with_eigenfunctions=False)
    grid = counting_grid(spec, args.window[0], args.window[1])
    series = counting(spec, grid)
    _write_csv(_out_path(args, "count.csv"), cfg,
               ("lambda", "N", "main", "E"),
               zip(series.lambdas, series.N, series.main, series.E))
    return 0


def cmd_localized_count(args) -> int:
    manifold, cfg = _load_manifold(args)
    spec = spectrum_for_manifold(manifold, args.lambda_max)
    grid = counting_grid(spec, args.window[0], args.window[1])
    series = localized_counting(spec, (args.band[0], args.band[1]), grid)
    _write_csv(_out_path(args, "localized-count.csv"), cfg,
               ("lambda", "N", "main", "E"),
               zip(series.lambdas, series.N, series.main, series.E))
    return 0


def cmd_kernel(args) -> int:
    manifold, cfg = _load_manifold(args)
    if max(args.window) > args.lambda_max:
        raise DomainError("--window reaches past --lambda-max")
    spec = (spectrum_for_manifold(manifold, args.lambda_max)
            if manifold.kind == "surface_of_revolution" else None)
    lams = np.linspace(args.window[0], args.window[1], args.n_lambda)
    rows = [(kv.lam, kv.Pi, kv.comparison, kv.E0) for kv in projector_kernels(
        manifold, tuple(args.x), tuple(args.y), lams.tolist(), spec=spec)]
    _write_csv(_out_path(args, "kernel.csv"), cfg,
               ("lambda", "Pi", "comparison", "E0"), rows)
    return 0


def cmd_kuznecov(args) -> int:
    manifold, cfg = _load_manifold(args)
    spec = spectrum_for_manifold(manifold, args.lambda_max)
    H1 = ("point", args.x[0], args.x[1]) if args.circle1 is None \
        else ("circle", args.circle1)
    H2 = ("point", args.y[0], args.y[1]) if args.circle2 is None \
        else ("circle", args.circle2)
    lams = np.linspace(args.window[0], args.window[1], args.n_lambda)
    ks = kuznecov(spec, H1, H2, lams, t0=args.t0, tail_tol=args.tail_tol)
    _write_csv(_out_path(args, "kuznecov.csv"), cfg,
               ("lambda", "value", "smoothed", "E_t0"),
               zip(ks.lambdas, ks.values, ks.smoothed, ks.E_t0))
    return 0


def cmd_remainder_fit(args) -> int:
    manifold, cfg = _load_manifold(args)
    spec = spectrum_for_manifold(manifold, args.lambda_max,
                                 with_eigenfunctions=False)
    grid = counting_grid(spec, args.window[0], args.window[1])
    series = counting(spec, grid)
    fit = fit_remainder(series, args.model, tuple(args.window))
    payload = {"model": fit.model, "constant": fit.constant,
               "gamma": fit.gamma, "trend": fit.trend,
               "window": list(fit.window)}
    _write_json(_out_path(args, "remainder-fit.json"), cfg, payload)
    print(f"remainder-fit {args.model}: constant={fit.constant:.6g} "
          f"gamma={fit.gamma} trend={fit.trend:.4f}")
    return 0


def cmd_smooth_compare(args) -> int:
    manifold, cfg = _load_manifold(args)
    spec = spectrum_for_manifold(manifold, args.lambda_max,
                                 with_eigenfunctions=False)
    kernel = build_smoothing_kernel(args.sigma)
    rng = np.random.default_rng(_require_seed(args))
    lams = rng.uniform(args.window[0], args.window[1], args.n_lambda)
    table = smoothed_series(spec, lams, kernel)
    rows = []
    for i, lam in enumerate(lams):
        direct = smoothed_series_direct(spec, float(lam), kernel)
        rows.append((float(lam), float(table[i]), direct,
                     float(abs(table[i] - direct))))
    _write_csv(_out_path(args, "smooth-compare.csv"), cfg,
               ("lambda", "table", "direct", "difference"), rows)
    return 0


def _profile_for(manifold):
    if manifold.profile is None:
        raise ConfigError("rotation numbers need a surface profile")
    return manifold.profile


def cmd_rotation_number(args) -> int:
    manifold, cfg = _load_manifold(args)
    profile = _profile_for(manifold)
    grid = _parse_grid(args.grid)
    orb = rotation_number(grid, profile)
    d = d_rotation_number(grid, profile, "finite_difference")
    rows = [row + ("", "", "") for row in zip(
        grid, orb.c, orb.Theta0, d, orb.return_time)]
    _write_csv(_out_path(args, "rotation-number.csv"), cfg,
               ("s_plus", "c", "Theta0", "dTheta0", "return_time",
                "status", "p", "q"), rows)
    return 0


def cmd_classify(args) -> int:
    manifold, cfg = _load_manifold(args)
    profile = _profile_for(manifold)
    out = classify_tori(profile, _parse_grid(args.grid), q_max=args.qmax,
                        rational_tol=args.rational_tol,
                        deriv_floor=args.deriv_floor)
    rows = [(c.s_plus, float(profile.alpha(c.s_plus)), c.Theta0, c.dTheta0,
             c.return_time, c.status, c.p if c.p is not None else "",
             c.q if c.q is not None else "") for c in out]
    _write_csv(_out_path(args, "classify.csv"), cfg,
               ("s_plus", "c", "Theta0", "dTheta0", "return_time",
                "status", "p", "q"), rows)
    return 0


def cmd_nonperiodic_measure(args) -> int:
    manifold, cfg = _load_manifold(args)
    seed = _require_seed(args)
    if args.band is not None:
        U = CosphereSet(manifold, kind="band", s0=args.band[0],
                        s1=args.band[1])
    else:
        U = CosphereSet(manifold, kind="full")
    T_func = _resolution_from_flag(args.resolution)
    rows = []
    for R in args.radii:
        T = float(T_func(R))
        est = near_periodic_measure(U, args.t0, T, R, samples=args.samples,
                                    seed=seed)
        rows.append((R, T, est.value, est.half_width,
                     est.brute_force if est.brute_force is not None else "",
                     est.value * T))
    _write_csv(_out_path(args, "nonperiodic-measure.csv"), cfg,
               ("R", "T", "estimate", "half_width", "brute_force",
                "product_with_T"), rows)
    return 0


def cmd_nonloop_measure(args) -> int:
    manifold, cfg = _load_manifold(args)
    seed = _require_seed(args)
    rows = []
    for R in args.radii:
        e1, e2, prod = looping_pair_measure(manifold, tuple(args.x),
                                            tuple(args.y), args.t0, args.T,
                                            R, samples=args.samples,
                                            seed=seed)
        rows.append((R, args.T, e1.value, e1.half_width,
                     e1.brute_force if e1.brute_force is not None else "",
                     prod))
    _write_csv(_out_path(args, "nonloop-measure.csv"), cfg,
               ("R", "T", "estimate", "half_width", "brute_force",
                "product_with_T"), rows)
    return 0


def cmd_recurrence_check(args) -> int:
    manifold, cfg = _load_manifold(args)
    seed = _require_seed(args)
    verdict = recurrence_measure(
        manifold, tuple(args.x), R0=args.R0,
        t_func=lambda eps: args.t_of_eps / max(eps, 1e-9),
        T_func=_resolution_from_flag(args.resolution), r=args.r, R=args.R,
        eps_list=tuple(args.eps), samples=args.samples, seed=seed)
    payload = {"passes": verdict.passes, "scale_R0": verdict.scale_R0,
               "probes": verdict.probes, "failures": verdict.failures,
               "details": verdict.details}
    _write_json(_out_path(args, "recurrence.json"), cfg, payload)
    print(f"recurrence-check: {'pass' if verdict.passes else 'FAIL'} "
          f"({len(verdict.failures)} failing pairs)")
    return 0 if verdict.passes else 2


def cmd_cover_audit(args) -> int:
    manifold, cfg = _load_manifold(args)
    cover = build_good_cover(manifold, tau=args.tau, r=args.r)
    coverage = cover.audit_coverage(args.probes, seed=_require_seed(args))
    margin = cover.audit_disjointness()
    payload = {"tubes": len(cover.params), "families": cover.D,
               "disjointness_margin": margin, "coverage": coverage}
    _write_json(_out_path(args, "cover-audit.json"), cfg, payload)
    ok = coverage["pass"] and margin >= 0
    print(f"cover-audit: {len(cover.params)} tubes, {cover.D} families, "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_scenario(args) -> int:
    if args.name == "list":
        for name in list_scenarios():
            print(name)
        return 0
    raw = _read_json(args.config, "experiment config") if args.config else {}
    task = experiment_task(**bind(experiment_task, raw, "experiment config"))
    if args.seed is not None:       # --seed is the task's seed parameter
        if task.setdefault("seed", args.seed) != args.seed:
            raise ConfigError(f"task seed {task['seed']!r} differs from "
                              f"--seed {args.seed}")
    configs = (battery_configs(task) if args.name == "all"
               else {args.name: task})
    worst = 0
    for name, cfg in configs.items():
        verdict = run_scenario(name, cfg)
        _write_json(_out_path(args, f"verdict-{name}.json"), task,
                    verdict.to_json())
        for claim in verdict.claims:
            status = "pass" if claim.passed else "FAIL"
            print(f"[{status}] {name} :: {claim.tag} = "
                  f"{claim.measured:.6g} ({claim.threshold})")
        if not verdict.passed:
            worst = 2
    return worst


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="weyllab", description=__doc__)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the sampling subcommands, and the seed "
                        "parameter of the scenarios that declare one")
    p.add_argument("--ci", action="store_true",
                   help="CI mode: a seed becomes mandatory")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=fn)
        return sp

    sp = add("spectrum", cmd_spectrum)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, fn in (("count", cmd_count),
                     ("remainder-fit", cmd_remainder_fit)):
        sp = add(name, fn)
        sp.add_argument("--manifold", required=True)
        sp.add_argument("--lambda-max", type=float, required=True)
        sp.add_argument("--window", type=float, nargs=2, default=(20.0, 100.0))
        if name == "remainder-fit":
            sp.add_argument("--model", choices=("standard", "log", "power"),
                            default="standard")

    sp = add("localized-count", cmd_localized_count)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--window", type=float, nargs=2, default=(20.0, 50.0))
    sp.add_argument("--band", type=float, nargs=2, required=True)

    sp = add("kernel", cmd_kernel)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--window", type=float, nargs=2, default=(10.0, 50.0))
    sp.add_argument("--n-lambda", type=int, default=20)
    sp.add_argument("--x", type=float, nargs=2, required=True)
    sp.add_argument("--y", type=float, nargs=2, required=True)

    sp = add("kuznecov", cmd_kuznecov)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--window", type=float, nargs=2, default=(2.0, 5.0))
    sp.add_argument("--n-lambda", type=int, default=20)
    sp.add_argument("--x", type=float, nargs=2, default=(0.4, 1.1))
    sp.add_argument("--y", type=float, nargs=2, default=(0.4, 1.1))
    sp.add_argument("--circle1", type=float, default=None)
    sp.add_argument("--circle2", type=float, default=None)
    sp.add_argument("--t0", type=float, default=1.0)
    sp.add_argument("--tail-tol", type=float, default=1e-4)

    sp = add("smooth-compare", cmd_smooth_compare)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--window", type=float, nargs=2, default=(20.0, 60.0))
    sp.add_argument("--n-lambda", type=int, default=10)
    sp.add_argument("--sigma", type=float, default=1.0)

    for name, fn in (("rotation-number", cmd_rotation_number),
                     ("classify", cmd_classify)):
        sp = add(name, fn)
        sp.add_argument("--profile", dest="manifold", required=True,
                        help="manifold config (surface of revolution)")
        sp.add_argument("--grid", required=True,
                        help="start:stop:count of right turning points")
        if name == "classify":
            sp.add_argument("--qmax", type=int, default=50)
            sp.add_argument("--rational-tol", type=float, default=1e-9)
            sp.add_argument("--deriv-floor", type=float, default=1e-6)

    sp = add("nonperiodic-measure", cmd_nonperiodic_measure)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--t0", type=float, default=1.0)
    sp.add_argument("--radii", type=float, nargs="+",
                    default=(0.05, 0.02, 0.01))
    sp.add_argument("--resolution", default="power:0.3333333333333333",
                    help="T(R): log:C | power:P | const:T")
    sp.add_argument("--band", type=float, nargs=2, default=None)
    sp.add_argument("--samples", type=int, default=100_000)

    sp = add("nonloop-measure", cmd_nonloop_measure)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--x", type=float, nargs=2, required=True)
    sp.add_argument("--y", type=float, nargs=2, required=True)
    sp.add_argument("--t0", type=float, default=1.0)
    sp.add_argument("--T", type=float, default=10.0)
    sp.add_argument("--radii", type=float, nargs="+", default=(0.01,))
    sp.add_argument("--samples", type=int, default=20_000)

    sp = add("recurrence-check", cmd_recurrence_check)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--x", type=float, nargs=2, required=True)
    sp.add_argument("--R0", type=float, default=0.2)
    sp.add_argument("--r", type=float, default=0.05)
    sp.add_argument("--R", type=float, default=0.05)
    sp.add_argument("--eps", type=float, nargs="+", default=(0.5,))
    sp.add_argument("--t-of-eps", type=float, default=1.0)
    sp.add_argument("--resolution", default="log:5.0")
    sp.add_argument("--samples", type=int, default=4000)

    sp = add("cover-audit", cmd_cover_audit)
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--tau", type=float, default=0.1)
    sp.add_argument("--r", type=float, default=0.01)
    sp.add_argument("--probes", type=int, default=10_000)

    sp = add("scenario", cmd_scenario,
             help="run a verification scenario ('list' to enumerate, "
                  "'all' for the full battery)")
    sp.add_argument("name")
    sp.add_argument("--config", default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_positive(args)
        return args.handler(args)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except WeylLabError as exc:
        print(f"numerical-stage error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
