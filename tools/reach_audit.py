"""List the weyllab functions that no subcommand, scenario or benchmark
workload reaches.

Run from the root of a source checkout:

    PYTHONPATH=src:perfbench python tools/reach_audit.py

A ``sys.setprofile`` hook records every weyllab code object that is called
while the 14 subcommands run in 26 invocations (``scenario all`` the last)
and then both benchmark workloads run at seed 1 (inputs, run and checks),
all in one process.  It prints each function, method and lambda defined in
``src/weyllab/`` that was never called, as ``module:line qualname``, and
stops if an invocation exits with a configuration or numerical error.
Comprehensions and module bodies are not listed.  Outputs go to a
temporary directory.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
import sys
import tempfile
import types

import weyllab
from weyllab import cli, covers, errors, flows, geoflow, manifolds, \
    quadrature, scenarios, spectra, weyl
import workloads

MODULES = (cli, covers, errors, flows, geoflow, manifolds, quadrature,
           scenarios, spectra, weyl)

MANIFOLDS = {
    "torus": {"kind": "flat_torus", "periods": [2 * math.pi, 2 * math.pi]},
    "sphere": {"kind": "round_sphere", "n": 2},
    "pert": {"kind": "perturbed_sphere", "epsilon": 0.01, "a": 0.5, "b": 1.0},
    "pendulum": {"kind": "pendulum", "E": 4.0},
    "round": {"kind": "surface_of_revolution"},
    "product": {"kind": "product", "factors": [
        {"kind": "round_sphere", "n": 2},
        {"kind": "flat_torus", "periods": [2 * math.pi]}]},
}

INVOCATIONS = [
    ["spectrum", "--manifold", "torus", "--lambda-max", "50"],
    ["spectrum", "--manifold", "pert", "--lambda-max", "8",
     "--format", "json"],
    ["spectrum", "--manifold", "product", "--lambda-max", "10"],
    ["count", "--manifold", "torus", "--lambda-max", "100"],
    ["remainder-fit", "--manifold", "torus", "--lambda-max", "500",
     "--window", "20", "500", "--model", "power"],
    ["remainder-fit", "--manifold", "sphere", "--lambda-max", "100"],
    ["localized-count", "--manifold", "pert", "--lambda-max", "12",
     "--window", "10", "11.5", "--band", "1.05", "1.45"],
    ["kernel", "--manifold", "pert", "--lambda-max", "12", "--window",
     "5", "10", "--n-lambda", "3", "--x", "0.3", "1.0", "--y", "0.5", "1.0"],
    ["kernel", "--manifold", "torus", "--lambda-max", "50", "--n-lambda",
     "3", "--x", "0", "0", "--y", "1.0", "1.273"],
    ["kernel", "--manifold", "sphere", "--lambda-max", "50", "--n-lambda",
     "3", "--x", "0.3", "1.0", "--y", "0.5", "1.0"],
    ["kuznecov", "--manifold", "pert", "--lambda-max", "12",
     "--tail-tol", "0.02"],
    ["smooth-compare", "--manifold", "torus", "--lambda-max", "460",
     "--window", "20", "35", "--n-lambda", "3"],
    ["rotation-number", "--profile", "pendulum", "--grid", "0.1:1.5:10"],
    ["classify", "--profile", "pert", "--grid", "0.05:1.52:20"],
    ["nonperiodic-measure", "--manifold", "torus", "--radii", "0.02",
     "--resolution", "const:10", "--samples", "2000"],
    ["nonperiodic-measure", "--manifold", "sphere", "--radii", "0.05",
     "--samples", "2000"],
    ["nonperiodic-measure", "--manifold", "pert", "--band", "1.05", "1.45",
     "--radii", "0.05", "--resolution", "const:6.5", "--samples", "1000"],
    ["nonloop-measure", "--manifold", "torus", "--x", "0.3", "0.4",
     "--y", "1.0", "1.273", "--samples", "2000"],
    ["nonloop-measure", "--manifold", "sphere", "--x", "0.3", "0.2",
     "--y", "-0.5", "1.0", "--samples", "2000"],
    ["nonloop-measure", "--manifold", "pert", "--x", "0.3", "0.2",
     "--y", "-0.5", "1.0", "--samples", "2000"],
    ["recurrence-check", "--manifold", "torus", "--x", "0.3", "0.4"],
    ["recurrence-check", "--manifold", "sphere", "--x", "0.3", "0.2"],
    ["recurrence-check", "--manifold", "round", "--x", "0.3", "0.2"],
    ["cover-audit", "--manifold", "torus"],
    ["scenario", "list"],
    ["scenario", "all"],
]


def defined(module):
    """Every function code object of the module, nested ones included (a
    class body is not a function: it runs once, at import)."""
    stack = [module.__loader__.get_code(module.__name__)]
    out = []
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_flags & inspect.CO_NEWLOCALS and (
                        not const.co_name.startswith("<")
                        or const.co_name == "<lambda>"):
                    out.append(const)
    return out


def main() -> None:
    src = os.path.dirname(weyllab.__file__)
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno,
                      frame.f_code.co_qualname))

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, cfg in MANIFOLDS.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(cfg, fh)
        sys.setprofile(hook)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in INVOCATIONS:
                argv = [paths.get(a, a) for a in argv]
                rc = cli.main(["--out-dir", tmp, "--seed", "1"] + argv
                              if argv[0] != "scenario" else
                              ["--out-dir", tmp] + argv)
                if rc not in (0, 2):       # 2: a claim failed, as expected
                    sys.exit(f"{' '.join(argv)} exited {rc}")
            for workload in workloads.WORKLOADS.values():
                inp = workload.inputs(1)
                workload.check(inp, workload.run(inp))
        sys.setprofile(None)

    for module in MODULES:
        for code in sorted(defined(module), key=lambda c: c.co_firstlineno):
            key = (code.co_filename, code.co_firstlineno, code.co_qualname)
            if key not in seen:
                print(f"{module.__name__}:{code.co_firstlineno} "
                      f"{code.co_qualname}")


if __name__ == "__main__":
    main()
