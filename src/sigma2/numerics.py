"""Shared numerical utilities: configuration, differencing, quadrature, clustering.

Everything here is deliberately dependency-light (numpy only) and works on
complex scalars; the rest of the package treats these as the one place where
step sizes and tolerances live.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class NumericsConfig:
    """Knobs for differencing, quadrature and root clustering.

    fd_step      base step for central differences in the u-variables
    fd_order     Richardson extrapolation levels (1..4)
    quad_nodes   Gauss-Legendre nodes per panel
    tol          default verification tolerance
    cluster_tol  pole-exclusion radius and floor for root clustering
    """

    fd_step: float = 1e-4
    fd_order: int = 3
    quad_nodes: int = 64
    tol: float = 1e-10
    cluster_tol: float = 1e-8

    def __post_init__(self):
        if not (self.fd_step > 0 and self.quad_nodes > 0 and self.tol > 0
                and self.cluster_tol > 0):
            raise ValueError("NumericsConfig fields must be positive")
        if not 1 <= self.fd_order <= 4:
            raise ValueError("fd_order must lie in [1, 4]")


DEFAULT_CONFIG = NumericsConfig()

# central stencils for d^n/dt^n at t=0, as (offsets, weights, h-power)
_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5), 1),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0), 2),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5), 3),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0), 4),
}


def derivative(f, z0, n=1, h=1e-4, levels=3, direction=1.0):
    """n-th derivative of an analytic f at z0 by central differences.

    Differencing runs along the complex ``direction`` with Richardson
    extrapolation (``levels`` halvings, error O(h^(2*levels))).
    """
    offs, wts, pw = _STENCILS[n]
    d = direction / abs(direction)

    def stencil(step):
        acc = 0.0 + 0.0j
        for o, w in zip(offs, wts):
            acc += w * (f(z0 + o * step * d) if o else f(z0))
        return acc / step**pw * d**(-n)

    rows = [stencil(h / 2**i) for i in range(levels)]
    for j in range(1, levels):
        fac = 4.0**j
        rows = [(fac * rows[i + 1] - rows[i]) / (fac - 1.0)
                for i in range(len(rows) - 1)]
    return rows[0]


def mixed_second(f, x0, y0, h=1e-4, levels=2, hy=None):
    """d^2 f / dx dy for analytic f(x, y) via nested central differences."""
    hy = h if hy is None else hy

    def dx(y):
        return derivative(lambda x: f(x, y), x0, 1, h, levels)
    return derivative(dx, y0, 1, hy, levels)


def cauchy_derivatives(f, z0, nmax, radius=0.2, nodes=64):
    """[f(z0), f'(z0), ..., f^(nmax)(z0)] by trapezoidal Cauchy integrals.

    Spectrally accurate for f analytic on the closed disk of the given
    radius; the workhorse oracle for high-order derivatives where stencil
    differencing hits its roundoff floor.
    """
    z0 = complex(z0)
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * angles)
    vals = np.array([f(z0 + w) for w in ring], dtype=complex)
    out = []
    fact = 1.0
    for n in range(nmax + 1):
        if n > 0:
            fact *= n
        out.append(fact * np.mean(vals * ring ** (-n)))
    return out


def _gl_panel(f, a, b, nodes, weights):
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights))


def quadrature_path(f, path, cfg: NumericsConfig | None = None):
    """Integrate f along the polyline ``path`` of complex nodes.

    Composite adaptive Gauss-Legendre; raises NumericalFailure (with the error
    estimate attached) if panel bisection stalls above cfg.tol.  The caller
    must route the path around poles and branch points.
    """
    cfg = cfg or DEFAULT_CONFIG
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two nodes")
    nodes, weights = np.polynomial.legendre.leggauss(cfg.quad_nodes)

    def adapt(a, b, whole, depth):
        m = (a + b) / 2.0
        left = _gl_panel(f, a, m, nodes, weights)
        right = _gl_panel(f, m, b, nodes, weights)
        err = abs(left + right - whole)
        if err <= cfg.tol * max(1.0, abs(left + right)) or depth >= 12:
            if depth >= 12 and err > 10 * cfg.tol * max(1.0, abs(left + right)):
                raise NumericalFailure("quadrature panel did not converge",
                                       estimate=err)
            return left + right
        return adapt(a, m, left, depth + 1) + adapt(m, b, right, depth + 1)

    total = 0.0 + 0.0j
    for a, b in zip(path[:-1], path[1:]):
        total += adapt(a, b, _gl_panel(f, a, b, nodes, weights), 0)
    return total


def continuous_log(g, t_end=1.0, steps=16, max_steps=4096):
    """Continued log increment log g(t_end) - log g(0) along t in [0, t_end].

    ``g`` must be nonvanishing on the segment.  Step count doubles until every
    increment turns by less than pi/2, which pins the branch; the winding is
    part of the answer, no principal-value reduction is applied.
    """
    while steps <= max_steps:
        ts = np.linspace(0.0, t_end, steps + 1)
        vals = [complex(g(t)) for t in ts]
        if any(v == 0 for v in vals):
            raise NumericalFailure("continuous_log hit a zero of the function")
        ratios = [vals[i + 1] / vals[i] for i in range(steps)]
        if all(abs(np.angle(r)) < 1.5 for r in ratios):
            return sum(np.log(r) for r in ratios)
        steps *= 2
    raise NumericalFailure("continuous_log could not resolve the branch")


def cluster_points(points, radius):
    """Greedy single-linkage clustering of complex points.

    Returns a list of (center, members) with centers ordered by (Re, Im).
    """
    pts = [complex(p) for p in points]
    used = [False] * len(pts)
    clusters = []
    for i in range(len(pts)):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for k in range(len(pts)):
                if not used[k] and abs(pts[k] - pts[j]) <= radius:
                    used[k] = True
                    group.append(k)
                    frontier.append(k)
        members = [pts[j] for j in group]
        clusters.append((sum(members) / len(members), members))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


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
