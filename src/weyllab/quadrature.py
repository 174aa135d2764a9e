"""Tanh-sinh (double-exponential) quadrature for endpoint-singular integrands.

The Clairaut integrals carry inverse-square-root singularities at turning
points; the double-exponential transform converges spectrally on those
without per-profile substitutions.  Distances to the interval endpoints are
propagated in exact arithmetic (1 - tanh underflows long before the rule's
weights become negligible), so integrands can resolve singular factors far
below machine epsilon from the endpoint.  The levels nest (Takahasi and
Mori, 1974): each halving of the mesh reuses every node already evaluated.
The cumulative Simpson rule integrates smooth tables (the smoothing kernel,
the pendulum's arc length) node by node.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

_HALF_PI = math.pi / 2.0

# Truncation of the double-exponential sum; the discarded tail for an
# inverse-square-root endpoint singularity is ~exp(-(pi/2) sinh(T)) ~ 2e-19.
_T_MAX = 4.0


_FIRST_LEVEL = 2


def _nodes(level: int):
    """Nodes of the rule on [-1, 1] at mesh 2^-level, in order.

    Returns ``(x, u, w)`` where ``u`` is the distance of each node to its
    nearest endpoint (1 - |x|), computed stably.
    """
    h = 0.5 ** level
    k = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
    t = k * h
    z = _HALF_PI * np.sinh(t)
    x = np.tanh(z)
    # 1 - |x| = 2 exp(-2|z|) / (1 + exp(-2|z|)), exact far below eps
    e = np.exp(-2.0 * np.abs(z))
    u = 2.0 * e / (1.0 + e)
    w = h * _HALF_PI * np.cosh(t) / np.cosh(z) ** 2
    return x, u, w


def tanh_sinh(f, a: float, b: float, rel_tol: float = 1e-10,
              abs_floor: float = 1e-300, max_level: int = 11,
              endpoint_distances: bool = False):
    """Integrate ``f`` over ``(a, b)`` with an adaptive-level tanh-sinh rule.

    ``f`` must accept numpy arrays and may be integrably singular at either
    endpoint; it is never evaluated at the endpoints themselves.  With
    ``endpoint_distances=True`` the integrand is called as ``f(w, d_lo,
    d_hi)`` where ``d_lo = w - a`` and ``d_hi = b - w`` are exact even when
    ``w`` itself rounds to an endpoint.  The levels nest as in
    :func:`tanh_sinh_rows`.

    Returns ``(value, err_estimate)``; raises :class:`QuadratureFailure`
    when level refinement stalls, reporting the achieved error.
    """
    if not (b > a):
        if b == a:
            return 0.0, 0.0
        raise QuadratureFailure(f"empty interval ({a}, {b})")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    kept = None
    last_err = math.inf
    for level in range(_FIRST_LEVEL, max_level + 1):
        x, u, w = _nodes(level)
        pos = x >= 0
        d_hi = np.where(pos, half * u, half * (2.0 - u))
        d_lo = np.where(pos, half * (2.0 - u), half * u)
        # Chart coordinate consistent with the exact distances.
        xw = np.where(pos, b - d_hi, a + d_lo)
        vals = np.zeros(len(x))
        new = np.ones(len(x), dtype=bool)
        if kept is not None:
            vals[0::2], new[0::2] = kept, False
        if endpoint_distances:
            vals[new] = f(xw[new], d_lo[new], d_hi[new])
            total = half * float(np.sum(vals * w))
        else:
            # Without distance tracking, nodes closer to an endpoint than
            # one ulp collide with it; drop them (their weights are far
            # below the accuracy of this calling convention).
            interior = (xw > a) & (xw < b)
            vals[new & interior] = f(xw[new & interior])
            total = half * float(np.sum(vals[interior] * w[interior]))
        if kept is not None:
            last_err = abs(total - prev)
            scale = max(abs(total), abs_floor)
            if last_err <= rel_tol * scale:
                return total, last_err
        prev, kept = total, vals
    raise QuadratureFailure(
        f"tanh-sinh stalled at level {max_level}: achieved error "
        f"{last_err:.3e} (target rel {rel_tol:.1e})", achieved=last_err)


_ROWS_CHUNK = 2 ** 16      # (row, node) pairs per integrand evaluation


def tanh_sinh_rows(f, a, b, rel_tol: float = 1e-10, max_level: int = 11):
    """Integrate k rows at once, row i over (a[i], b[i]), by one tanh-sinh rule.

    ``f(rows, w, d_lo, d_hi)`` evaluates the integrands of the rows with
    indices ``rows`` at the nodes ``w``, one row of nodes per index, with
    the exact endpoint distances of ``tanh_sinh(..., endpoint_distances=
    True)``.  Every row refines its level until two successive levels agree
    to ``rel_tol`` relative to its value, and then retires.

    The nodes of each level are the even-numbered nodes of the next, so
    above the first level ``f`` is evaluated only at the odd-numbered ones
    and the values at the others are kept.  Each level still sums all its
    nodes in order, so every total equals, bit for bit, the rule evaluated
    afresh at that level (mathematically total_{k+1} = total_k / 2 + half
    * sum(f w) over the new nodes).

    Returns ``(values, errs)`` with the last level difference as the error
    estimate.  It never raises: a row that has not converged at
    ``max_level``, or whose interval is reversed, gets ``err = inf`` for the
    caller to leave undecided; an empty interval integrates to 0 exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    values = np.where(b > a, np.nan, 0.0)
    errs = np.where(b >= a, 0.0, np.inf)
    active = np.nonzero(b > a)[0]
    kept = None                     # f at the active rows' nodes so far
    for level in range(_FIRST_LEVEL, max_level + 1):
        if not len(active):
            break
        x, u, w = _nodes(level)
        fv = np.empty((len(active), len(x)))
        new = slice(None)
        if kept is not None:
            fv[:, 0::2] = kept
            new = slice(1, None, 2)
        x, u = x[new], u[new]
        pos = x >= 0
        step = max(1, _ROWS_CHUNK // len(x))
        for start in range(0, len(active), step):
            rows = active[start:start + step]
            hr = half[rows, None]
            d_hi = np.where(pos, hr * u, hr * (2.0 - u))
            d_lo = np.where(pos, hr * (2.0 - u), hr * u)
            xw = np.where(pos, b[rows, None] - d_hi, a[rows, None] + d_lo)
            fv[start:start + step, new] = f(rows, xw, d_lo, d_hi)
        total = half[active] * np.sum(fv * w, axis=1)
        diff = np.abs(total - values[active])
        done = diff <= rel_tol * np.maximum(np.abs(total), 1e-300)
        values[active] = total
        errs[active[done]] = diff[done]
        active, kept = active[~done], fv[~done]
    errs[active] = np.inf
    return values, errs


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_i} y at every node, by Simpson's rule on unequal steps.

    The integral over each step is that of the parabola through its two
    nodes and one neighbour (Cartwright's unequal-interval rule): the next
    node for the even steps, the previous node for the odd ones and the
    last.  These are scipy's ``cumulative_simpson(y, x=x, initial=0.0)``
    half-rules, interleaved and summed with the same float operations, so
    the result is the same to the bit.  Needs at least 3 nodes.
    """

    def forward(f, h):
        # the step h[:-1] of each node triple, with the next step h[1:]
        x21, x32 = h[:-1], h[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * f[:-2]
                          + (3 + x21x21_x31x32 + x21_x31) * f[1:-1]
                          - x21x21_x31x32 * f[2:])

    dx = np.diff(x)
    backward = forward(y[::-1], dx[::-1])[::-1]
    steps = np.empty(len(dx))
    steps[:-1:2] = forward(y, dx)[::2]
    steps[1::2] = backward[::2]
    steps[-1] = backward[-1]
    return np.concatenate([[0.0], np.cumsum(steps)])
