"""Reference implementations the tests compare the package against.

The package evaluates every integral it needs in closed form; adaptive
quadrature along explicit paths is the independent route those closed forms
are checked with.
"""

import numpy as np

from sigma2.errors import NumericalFailure

# Gauss-Legendre nodes and weights per panel, and the relative panel tolerance
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_QUAD_TOL = 1e-10


def _gl_panel(f, a, b):
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * sum(w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def quadrature_path(f, path):
    """Integrate f along the polyline ``path`` of complex nodes.

    Composite adaptive Gauss-Legendre; raises NumericalFailure (with the error
    estimate attached) if panel bisection stalls above the panel tolerance.
    The caller must route the path around poles and branch points.
    """
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two nodes")

    def adapt(a, b, whole, depth):
        m = (a + b) / 2.0
        left = _gl_panel(f, a, m)
        right = _gl_panel(f, m, b)
        err = abs(left + right - whole)
        if err <= _QUAD_TOL * max(1.0, abs(left + right)) or depth >= 12:
            if depth >= 12 and err > 10 * _QUAD_TOL * max(1.0, abs(left + right)):
                exc = NumericalFailure("quadrature panel did not converge")
                exc.estimate = err
                raise exc
            return left + right
        return adapt(a, m, left, depth + 1) + adapt(m, b, right, depth + 1)

    total = 0.0 + 0.0j
    for a, b in zip(path[:-1], path[1:]):
        total += adapt(a, b, _gl_panel(f, a, b), 0)
    return total


def roundoff_tie_pair(a, b):
    """The period-basis rule that breaks the ties of a tied lattice by
    roundoff: Gauss reduction, the shortest vector first with Re >= 0 (an
    Im >= 0 tie-break), then Re(omegaP/omega) rounded away.  Off the
    fundamental-domain boundaries it picks the basis elliptic._canonical_pair
    picks, which the tests check."""
    a, b = complex(a), complex(b)
    for _ in range(256):
        if abs(a) > abs(b):
            a, b = b, a
        k = round((b * a.conjugate()).real / abs(a) ** 2)
        if k == 0:
            break
        b -= k * a
    s = abs(a)
    if a.real < -1e-12 * s or (abs(a.real) <= 1e-12 * s and a.imag < 0):
        a = -a
    if (b / a).imag < 0:
        b = -b
    b -= round((b / a).real) * a
    return a, b


def cluster_points(points, radius):
    """Greedy single-linkage clustering of complex points: the reference
    that strata._clusters, classify's one clustering routine, must match
    (same partition, bit-identical centers).

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
