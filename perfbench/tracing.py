"""Spans and counters recorded around weyllab's public functions.

The worker calls :func:`install` only in a traced process, before it
builds the workload's inputs, so a timed process never runs a wrapper.
Spans are kept in memory and written out once, when the worker ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder with per-run counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.run = "setup"
        self._stack: list[int] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def begin_run(self, run: str) -> None:
        self.run = run
        self.counts.setdefault(run, Counter())

    def count(self, key: str, amount=1) -> None:
        self.counts.setdefault(self.run, Counter())[key] += amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; the span nests."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, self.run, parent, start, end))
            self.count(f"{name}.calls")

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``name`` is the span name, or a function of the bound arguments
        that returns it.  ``after(bound_arguments, result)`` runs outside
        the span, so its bookkeeping is not charged to the wrapped layer.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        sig = inspect.signature(orig)
        binds = callable(name) or after is not None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if binds:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span_name = name(bound.arguments) if callable(name) else name
            result = self.span(span_name, orig, *args, **kwargs)
            if after is not None:
                after(bound.arguments, result)
            return result

        setattr(owner, attr, wrapper)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        out = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def to_json(self) -> list[dict]:
        return [{"id": s.span_id, "name": s.name, "run": s.run,
                 "parent": s.parent, "start": s.start, "end": s.end}
                for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods the workloads reach."""
    from weyllab import covers, flows, geoflow, spectra, weyl

    def eigenvalues(args, spec):
        tracer.count("spectra.surface_spectrum.eigenvalues", spec.total)

    def pairs(args, out):
        tracer.count("weyl.smoothed_series.pairs",
                     len(args["lambdas"]) * len(args["spec"].lambdas))

    def sample_steps(args, out):
        n = len(args["states"])
        steps = int(math.ceil(args["T"] / args["h_scan"]))
        tracer.count("flows.RevolutionFlow.scan_min.sample_steps", n * steps)

    # refine_min results keyed by the span they ran under, which is the
    # enclosing near_periodic_measure call
    refined: dict[int, list[float]] = {}

    def refine_result(args, value):
        refined.setdefault(tracer.spans[-1].parent, []).append(value)

    def candidates(args, est):
        # near_periodic_measure refines each candidate forward, then
        # mirrored; a candidate hits when either side returns within 2R
        vals = refined.pop(tracer.spans[-1].span_id, [])
        both = list(zip(vals[0::2], vals[1::2]))
        thresh = 2.0 * args["R"]
        tracer.count("covers.refine.candidates", len(both))
        tracer.count("covers.refine.hits",
                     sum(1 for f, b in both if min(f, b) < thresh))

    for fn in ("sphere_spectrum", "torus_spectrum", "product_spectrum"):
        tracer.wrap(spectra, fn, "spectra.closed_form")
    # an eigenvalue-only solve gets its own span, so the eigenfunction
    # build shows as the difference between the two kinds of call
    tracer.wrap(spectra, "surface_spectrum",
                lambda args: "spectra.surface_spectrum"
                + ("" if args["with_eigenfunctions"] else ".no_eigenfunctions"),
                after=eigenvalues)
    tracer.wrap(spectra.ModeEigenfunction, "band_weight",
                "spectra.ModeEigenfunction.band_weight")
    for fn in ("build_smoothing_kernel", "counting", "counting_grid",
               "localized_counting", "fit_remainder"):
        tracer.wrap(weyl, fn, f"weyl.{fn}")
    tracer.wrap(weyl, "smoothed_series", "weyl.smoothed_series",
                after=pairs)
    tracer.wrap(geoflow, "classify_tori", "geoflow.classify_tori")
    # tanh_sinh is timed at the names geoflow and covers import it under
    tracer.wrap(geoflow, "tanh_sinh", "quadrature.tanh_sinh")
    tracer.wrap(covers, "tanh_sinh", "quadrature.tanh_sinh")
    tracer.wrap(covers.CosphereSet, "sample", "covers.CosphereSet.sample")
    tracer.wrap(flows.RevolutionFlow, "scan_min",
                "flows.RevolutionFlow.scan_min", after=sample_steps)
    tracer.wrap(flows.RevolutionFlow, "refine_min",
                "flows.RevolutionFlow.refine_min", after=refine_result)
    tracer.wrap(flows.TorusFlow, "self_return_min",
                "flows.TorusFlow.self_return_min")
    tracer.wrap(covers, "near_periodic_measure",
                "covers.near_periodic_measure", after=candidates)
