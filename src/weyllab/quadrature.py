"""Tanh-sinh (double-exponential) quadrature for endpoint-singular integrands.

The Clairaut integrals carry inverse-square-root singularities at turning
points; the double-exponential transform converges spectrally on those
without per-profile substitutions.  There is one rule, :func:`tanh_sinh_rows`,
which integrates many rows at once; :func:`tanh_sinh` is its one-row form.
Distances to the interval endpoints are propagated in exact arithmetic
(1 - tanh underflows long before the rule's weights become negligible), so
integrands can resolve singular factors far below machine epsilon from the
endpoint.  The levels nest (Takahasi and Mori, 1974): each halving of the
mesh reuses every node already evaluated.  The cumulative Simpson rule
integrates smooth tables (the smoothing kernel, the pendulum's arc length)
node by node.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

_HALF_PI = math.pi / 2.0

# Truncation of the double-exponential sum; the discarded tail for an
# inverse-square-root endpoint singularity is ~exp(-(pi/2) sinh(T)) ~ 2e-19.
_T_MAX = 4.0

# the coarsest and finest meshes, 2^-_FIRST_LEVEL and 2^-_MAX_LEVEL
_FIRST_LEVEL = 2
_MAX_LEVEL = 11


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


_ROWS_CHUNK = 2 ** 16      # (row, node) pairs per integrand evaluation


def tanh_sinh_rows(f, a, b, rel_tol: float = 1e-10):
    """Integrate k rows at once, row i over (a[i], b[i]), by one tanh-sinh rule.

    ``f(rows, w, d_lo, d_hi)`` evaluates the integrands of the rows with
    indices ``rows`` at the nodes ``w``, one row of nodes per index, with
    the endpoint distances ``d_lo = w - a`` and ``d_hi = b - w``, exact even
    where ``w`` itself rounds to an endpoint.  Every row refines its level
    until two successive levels agree to ``rel_tol`` relative to its value,
    and then retires.

    The nodes of each level are the even-numbered nodes of the next, so
    above the first level ``f`` is evaluated only at the odd-numbered ones
    and the values at the others are kept.  Each level still sums all its
    nodes in order, so every total equals, bit for bit, the rule evaluated
    afresh at that level (mathematically total_{k+1} = total_k / 2 + half
    * sum(f w) over the new nodes).

    Returns ``(values, errs)`` with the last level difference as the error
    estimate.  It never raises: a row that has not converged at
    ``_MAX_LEVEL``, or whose interval is reversed, gets ``err = inf`` for the
    caller to leave undecided; an empty interval integrates to 0 exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    values = np.where(b > a, np.nan, 0.0)
    errs = np.where(b >= a, 0.0, np.inf)
    active = np.nonzero(b > a)[0]
    kept = None                     # f at the active rows' nodes so far
    for level in range(_FIRST_LEVEL, _MAX_LEVEL + 1):
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


def tanh_sinh(f, a: float, b: float, rel_tol: float = 1e-10):
    """Integrate ``f`` over ``(a, b)``: one row of :func:`tanh_sinh_rows`.

    ``f(w)`` evaluates the integrand at a 1-d array of nodes ``w``.  A node
    within half an ulp of a nonzero endpoint rounds onto it, so an integrand
    singular at such an endpoint needs the exact distances of
    :func:`tanh_sinh_rows`; one singular at 0 is resolved.  Returns ``(value,
    err_estimate)``, and ``(0.0, 0.0)`` on an empty interval; raises
    :class:`QuadratureFailure` on a reversed interval or when the row does
    not converge.
    """
    (value,), (err,) = tanh_sinh_rows(lambda rows, w, d_lo, d_hi: f(w[0]),
                                      [a], [b], rel_tol)
    if err == math.inf:
        raise QuadratureFailure(f"tanh-sinh on ({a}, {b}): reversed, or "
                                f"short of rel_tol {rel_tol:.1e} at level "
                                f"{_MAX_LEVEL}")
    return float(value), float(err)


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
