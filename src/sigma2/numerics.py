"""Shared numerical utilities: tolerances, differentiation, finiteness.

Everything here is deliberately dependency-light (numpy only).  The
tolerances are fixed module constants, not settings: the sigma-function is
given in closed form, so a tolerance only rejects poles.  Every integral the
package needs has a closed form too; the quadrature that checks them is a
test oracle (tests/oracles.py).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import NumericalFailure

# pole-exclusion radius, relative to the period scale
POLE_TOL = 1e-8


@functools.lru_cache(maxsize=16)
def _ring(nodes, nmax):
    """Unit ring nodes e^(2 pi i k/nodes) and the trapezoidal weights
    n! e^(-2 pi i n k/nodes)/nodes, shape (nodes, nmax + 1).  Cached, as
    building them costs about as much as a 4-node ring's own arithmetic;
    read-only, as every call with the same sizes shares them."""
    unit = np.exp(2j * np.pi / nodes * np.arange(nodes))
    fact = [math.factorial(n) for n in range(nmax + 1)]
    weights = unit.conj()[:, None] ** np.arange(nmax + 1) * fact / nodes
    unit.setflags(write=False)
    weights.setflags(write=False)
    return unit, weights


def cauchy_derivatives(f, z0, nmax, radius, nodes):
    """[f(z0), f'(z0), ..., f^(nmax)(z0)] by trapezoidal Cauchy integrals.

    ``f`` is called once, on the ndarray of ring nodes z0 + radius e^(2 pi i
    k/nodes), and returns an array whose first axis runs over those nodes;
    further axes pass through to the result, so a nested call gives mixed
    partials from one 2-D evaluation.  Spectrally accurate for f analytic on
    the closed disk: no step tuning beyond the radius.
    """
    unit, weights = _ring(nodes, nmax)
    vals = np.asarray(f(z0 + radius * unit), dtype=complex)
    out = (weights.T @ vals.reshape(nodes, -1)).reshape((nmax + 1,) + vals.shape[1:])
    return (out.T * [radius ** -n for n in range(nmax + 1)]).T


def shc(c, z):
    """sinh(c z)/c, even in c and finite at c = 0; elementwise, c and z broadcast.

    With w = c z, an element with |w| >= 1e-4 is sinh(w)/c; any other (c = 0
    among them, and a NaN w) is the series z (1 + w^2/6 + w^4/120).  Each
    element is computed by its own branch only, and nothing is divided by
    the c of a series element, so c = 0 raises no warning.
    """
    w = c * z
    if not isinstance(w, np.ndarray):
        return z * (1.0 + w * w / 6.0 + w ** 4 / 120.0) if abs(w) < 1e-4 else np.sinh(w) / c
    big = abs(w) >= 1e-4
    out = np.sinh(w)
    np.divide(out, c, out=out, where=big)
    small = ~big
    ws = w[small]
    out[small] = np.broadcast_to(z, w.shape)[small] * (1.0 + ws * ws / 6.0 + ws ** 4 / 120.0)
    return out


def continuous_log(g, rows):
    """Continued log increments log g(1) - log g(0) along t in [0, 1], one
    per row: the ndarray of ``rows`` (a count) increments.

    g(t, idx), nonvanishing on the segment, is called on the ndarray of
    nodes t and the ndarray idx of the rows still open, and returns a 2-D
    array, row idx[j]'s values in row j.  Step count doubles from 16 until
    every increment of a row turns by less than pi/2, which pins that row's
    branch (at most 4096 steps); the winding is part of the answer, no
    principal-value reduction is applied.  A row's value depends on its own
    values only, and a resolved row is not evaluated again.
    """
    out = np.zeros(rows, dtype=complex)
    todo = np.arange(rows)
    steps = 16
    while steps <= 4096:
        vals = np.asarray(g(np.linspace(0.0, 1.0, steps + 1), todo), dtype=complex)
        if not vals.all():
            raise NumericalFailure("continuous_log hit a zero of the function")
        ratios = vals[:, 1:] / vals[:, :-1]
        done = np.all(np.abs(np.angle(ratios)) < 1.5, axis=1)
        out[todo[done]] = np.sum(np.log(ratios[done]), axis=1)
        todo = todo[~done]
        if not todo.size:
            return out
        steps *= 2
    raise NumericalFailure("continuous_log could not resolve the branch")


def peak(values):
    """max(values), the first of equal values, except that a NaN among them
    is the result: max keeps whichever of two values that do not compare
    came first, so a NaN residual would read as the values around it."""
    top = None
    for v in values:
        if v != v:
            return v
        if top is None or v > top:
            top = v
    return top


def all_finite(v):
    """True when the scalar or every entry of the ndarray v is finite."""
    if isinstance(v, np.ndarray):
        return bool(np.isfinite(v).all())
    return cmath.isfinite(v)


def any_true(mask):
    """Whether a scalar comparison holds, or any entry of an array one does
    (np.any on a Python bool costs microseconds)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def complex_args(*values):
    """The values as complex scalars, or, when any of them is an ndarray,
    as complex ndarrays broadcast to one shape."""
    if any(isinstance(v, np.ndarray) for v in values):
        return np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in values))
    return [complex(v) for v in values]


def require_finite(name, *values):
    """Reject NaN/Inf at API boundaries."""
    for v in values:
        if not all_finite(v):
            raise ValueError(f"{name}: non-finite value {v!r}")
