"""weyllab benchmark: time to a verified result on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectral --seed 1 \
        --seconds 55 --trace 0

Workloads, named in ``BENCHMARK.json`` with the reason each exists:
``spectral`` and ``near-periodic`` (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with no wrapper installed:

* ``wall_s``: median over repetitions of one pipeline, from its first
  call into weyllab to its outputs in hand (checks are not timed);
* ``setup_s``: median over three fresh processes of the time from
  process start to ready: imports, profiles and, where the pipeline
  smooths, the smoothing kernel table;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` runs one untraced and one traced process for half the time
each and reports the per-layer metrics: busy and self seconds per
pipeline, counts of the work each layer did, and ``trace.overhead_s``,
the traced minus the untraced ``wall_s``.  The spans are written to
``perfbench/out/``.

Each process is a single Python process generating the whole load; the
BLAS libraries are capped at ``nproc`` threads through the environment.
Every check runs after the timed region; a pipeline call that raises is a
failed check.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3        # fresh processes timed for setup_s, incl. the main
DEADLINE_S = 170.0       # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(args, extra, deadline, env):
    """Start one worker, wait for it, return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err}")
    result = json.loads(out.strip().splitlines()[-1])
    src = os.path.join(ROOT, "src", "weyllab")
    if os.path.realpath(result["weyllab"]) != os.path.realpath(src):
        raise BenchError(f"imported weyllab from {result['weyllab']}, "
                         f"not from {src}")
    return result


def _worker_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = nproc
    env.pop("PYTHONPATH", None)
    return env


def run(args, spec) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = _worker_env()
    if args.trace:
        trace_file = os.path.join(HERE, "out", f"trace-{args.workload}-"
                                  f"seed{args.seed}.json")
        half = f"{args.seconds / 2.0}"
        plain = _spawn(args, ["--seconds", half, "--min-reps", "2"],
                       deadline, env)
        traced = _spawn(args, ["--seconds", half, "--min-reps", "2",
                               "--trace-file", trace_file],
                        deadline, env)
        workers = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (statistics.median(traced["walls"])
                                      - statistics.median(plain["walls"]))
    else:
        setups = [_spawn(args, ["--setup-only"], deadline, env)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = _spawn(args, ["--seconds", str(args.seconds),
                             "--min-reps", "3"], deadline, env)
        setups.append(main["setup_s"])
        workers = [main]
        values = {"wall_s": statistics.median(main["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    checks = [c for w in workers for c in w["checks"]]
    if args.trace:
        # the wrappers must not change what the pipeline computes
        same = plain["fingerprint"] == traced["fingerprint"]
        checks.append({"name": "traced-outputs-match", "passed": same,
                       "value": float(same), "limit": "== untraced"})
    failed = sum(not c["passed"] for c in checks)
    for w in workers:
        print(f"# env {json.dumps(w['env'], sort_keys=True)}")
        print(f"# repetitions {len(w['walls'])}: "
              + " ".join(f"{t:.3f}" for t in w["walls"])
              + f" s; checks {w['check_s']:.3f} s")
        if w["error"]:
            print(w["error"].rstrip())
    for c in checks:
        verdict = "PASS" if c["passed"] else "FAIL"
        print(f"# {verdict} {c['name']}: {c['value']:.6g} ({c['limit']})")
    print(f"# failed_ratio {failed}/{len(checks)}")
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed, "metrics": metrics}


def main() -> int:
    # BENCHMARK.json names the workloads and metrics; this script emits
    # exactly those
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated benchmark still stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "weyllab",
                                       "__init__.py")):
        print(f"error: no weyllab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
