"""Reference implementations the tests compare the package against.

The package evaluates every integral it needs in closed form; adaptive
quadrature along explicit paths is the independent route those closed forms
are checked with.  The paper's hand-restricted heat operators Q0..Q6 are the
independent route for heat's q0..q6.
"""

import numpy as np

from sigma2 import heat
from sigma2 import sigma as sg
from sigma2.errors import NumericalFailure
from sigma2.numerics import cauchy_derivatives

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


def restricted_q(ctx, u3, U1):
    """The paper's operators Q0, Q2, Q4, Q6 applied to sigma2 at (u3, U1):
    {name: (value, scale)}, the complex sum of each operator's terms and the
    largest |term|.

    They act on Z(u3, U1, a2, gamma4, gamma6), sigma2 in the shifted
    coordinates, as restricted by hand from the genus-2 operators:

        Q0 = -U1 d_U1 - 3 u3 d_u3 + 2 a2 d_a2 + L0 + 3
        Q2 = -1/2 d_U1^2 - (a2/3)(U1 + 3 a2 u3) d_U1 - (U1 + 5 a2 u3) d_u3
             + (2/15)(6 g4 + 25 a2^2) d_a2 + L2
             + (1/10)(3 g4 - 5 a2^2)(U1 + 2 a2 u3) U1
             + (1/30)(90 a2 g6 + 12 g4^2 - 16 a2^2 g4 - 15 a2^4) u3^2 + 4 a2
        Q4 = (d_U1 + 2 a2 U1 + (g4 + 28/3 a2^2) u3) D
             - (6/5) d * d_a2 (d *)
             - (1/5)(U1^2 + 12 a2 U1 u3 + 3 (g4 + 7 a2^2) u3^2) d^2
        Q6 = D^2 - d^2,   D = d_u3 + a2^2 U1 + (g4 + 7/3 a2^2) a2 u3

    with d = wp'(alpha)/2, d^2 = g6 + (5/3) a2 g4 + ((5/3) a2)^3 and the
    curve-modulus fields L0 = 4 g4 d_g4 + 6 g6 d_g6,
    L2 = 6 g6 d_g4 - (4/3) g4^2 d_g6.  Q4 divides by wp'(alpha), so the
    context must be away from a branch point.  Derivatives are the rings
    heat uses, the moduli rings at fixed (u3, U1).
    """
    u3, U1 = complex(u3), complex(U1)
    a2 = ctx.a2
    g4, g6 = ctx.gamma.gamma4, ctx.gamma.gamma6
    ws = ctx.weight_scale()
    zd = cauchy_derivatives(
        lambda x3: cauchy_derivatives(lambda x1: sg.sigma2_u(ctx, x3, x1[:, None]),
                                      U1, 2, 1e-2 / ws, 16).T,
        u3, 2, 1e-2 / ws ** 3, 16)
    z0, z1, z11 = zd[0]
    z3, z31, z33 = zd[1, 0], zd[1, 1], zd[2, 0]

    def z_moduli(a, c4, c6):
        return sg.sigma2_u(sg.context_lambda1(a, (c4, c6)), u3, U1)

    za2 = heat._moduli_derivative(
        lambda t: sg.sigma2_u(sg._lambda1_on_curve(ctx.ectx, t), u3, U1), a2)
    zg4 = heat._moduli_derivative(lambda t: z_moduli(a2, t, g6), g4)
    zg6 = heat._moduli_derivative(lambda t: z_moduli(a2, g4, t), g6)
    l0z = 4 * g4 * zg4 + 6 * g6 * zg6
    l2z = 6 * g6 * zg4 - (4.0 / 3.0) * g4 ** 2 * zg6

    d2 = g6 + (5.0 / 3.0) * a2 * g4 + (125.0 / 27.0) * a2 ** 3
    d = ctx.wpp_alpha / 2.0
    d_prime = ((5.0 / 3.0) * g4 + (125.0 / 9.0) * a2 ** 2) / (2.0 * d)
    a_coef = a2 ** 2 * U1 + (g4 + (7.0 / 3.0) * a2 ** 2) * a2 * u3
    a3_coef = (g4 + (7.0 / 3.0) * a2 ** 2) * a2
    b_coef = 2 * a2 * U1 + (g4 + (28.0 / 3.0) * a2 ** 2) * u3
    c_coef = U1 ** 2 + 12 * a2 * U1 * u3 + 3 * (g4 + 7 * a2 ** 2) * u3 ** 2
    terms = {
        "Q0": [-U1 * z1, -3 * u3 * z3, 2 * a2 * za2, l0z, 3 * z0],
        "Q2": [
            -0.5 * z11,
            -(a2 / 3.0) * (U1 + 3 * a2 * u3) * z1,
            -(U1 + 5 * a2 * u3) * z3,
            (2.0 / 15.0) * (6 * g4 + 25 * a2 ** 2) * za2,
            l2z,
            0.1 * (3 * g4 - 5 * a2 ** 2) * (U1 + 2 * a2 * u3) * U1 * z0,
            (1.0 / 30.0) * (90 * a2 * g6 + 12 * g4 ** 2 - 16 * a2 ** 2 * g4
                            - 15 * a2 ** 4) * u3 ** 2 * z0,
            4 * a2 * z0,
        ],
        "Q4": [
            z31, a2 ** 2 * z0, a_coef * z1, b_coef * z3, a_coef * b_coef * z0,
            -(6.0 / 5.0) * d * (d_prime * z0 + d * za2),
            -(1.0 / 5.0) * c_coef * d2 * z0,
        ],
        "Q6": [z33, 2 * a_coef * z3, (a_coef ** 2 + a3_coef) * z0, -d2 * z0],
    }
    return {name: (complex(sum(ts)), max(abs(t) for t in ts))
            for name, ts in terms.items()}
