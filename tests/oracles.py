"""Reference implementations the tests compare the package against.

The package evaluates every integral it needs in closed form; adaptive
quadrature along explicit paths is the independent route those closed forms
are checked with.  The paper's hand-restricted heat operators Q0..Q6 are the
independent route for heat's q0..q6.  The scalar-call samplers are the
reference streams of verify's block-drawing ones.  `shc_both_branches`,
`continuous_log_1d` and `sigma_ratio_log_scalar` are the bit-level
references of `numerics.shc`, `numerics.continuous_log` and
`elliptic.sigma_ratio_log`: each is the second route the package once kept
beside its one path.  `lambda1_upsilon` and `branch_point_threshold` are
the second computations of a Lambda1 fact the package once made: classify's
chart membership and context_lambda1's branch-point regime.
"""

import numpy as np

from sigma2 import elliptic as el
from sigma2 import heat
from sigma2 import sigma as sg
from sigma2 import verify as vf
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


def shc_both_branches(c, z):
    """sinh(c z)/c as numerics.shc computed it before it took each element
    by one branch: the series on every element, then sinh(w)/c written over
    those with |w| >= 1e-4."""
    w = c * z
    series = z * (1.0 + w * w / 6.0 + w ** 4 / 120.0)
    if not isinstance(w, np.ndarray):
        return series if abs(w) < 1e-4 else np.sinh(w) / c
    big = abs(w) >= 1e-4
    series[big] = np.sinh(w[big]) / np.broadcast_to(c, w.shape)[big]
    return series


def continuous_log_1d(f):
    """numerics.continuous_log as it was for one function f(t) on the 1-D
    ndarray of nodes: the same step doubling and branch test, one path."""
    steps = 16
    while steps <= 4096:
        vals = np.asarray(f(np.linspace(0.0, 1.0, steps + 1)), dtype=complex)
        if not vals.all():
            raise NumericalFailure("continuous_log hit a zero of the function")
        ratios = vals[1:] / vals[:-1]
        if np.all(np.abs(np.angle(ratios)) < 1.5):
            return np.sum(np.log(ratios))
        steps *= 2
    raise NumericalFailure("continuous_log could not resolve the branch")


def sigma_ratio_log_scalar(ctx, alpha, xi):
    """elliptic.sigma_ratio_log as it was for a scalar xi: 0j at xi = 0,
    else the 1-D continued log of the quotients along the one path."""
    xi = complex(xi)
    if xi == 0:
        return 0.0j
    return continuous_log_1d(lambda t: el._sigma_quotient(ctx, alpha, alpha, xi, t))


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


def lambda1_upsilon(vals, a2, g4, g6):
    """The four defining polynomials of the double-point locus at the point
    vals (l4, l6, l8, l10): zero exactly when the quintic equals
    (x - a2)^2 (x^3 + 2 a2 x^2 + mu4 x + mu6) with mu4, mu6 expressed
    through gamma.  Each entry is l_i minus the Lambda1 chart's l_i at
    (a2, gamma) in another order of operations, so max |upsilon_i| is
    classify's round trip times (1 + max |l_i|) up to rounding: the second
    membership residual classify once reported."""
    third = 1.0 / 3.0
    mu4 = g4 + 4 * third * a2**2
    mu6 = g6 + 2 * third * a2 * g4 + 8 * third**3 * a2**3
    l4, l6, l8, l10 = vals
    return (l4 - (mu4 - 3 * a2**2),
            l6 - (mu6 - 2 * a2 * mu4 + 2 * a2**3),
            l8 - (-2 * a2 * mu6 + a2**2 * mu4),
            l10 - a2**2 * mu6)


def branch_point_threshold(ctx):
    """(branch_point, branch_index) of a Lambda1 context by the rule
    context_lambda1 once applied: the branch regime where
    |wp'(alpha)|^3 < 1e-24 (|g4|^1.5 + |g6| + 1e-300), and there the index
    of the half period nearest alpha.  The package sets both from
    invert_wp's snap of alpha to a half period."""
    g4, g6 = ctx.gamma.gamma4, ctx.gamma.gamma6
    branch = abs(ctx.wpp_alpha) ** 3 < 1e-24 * (abs(g4) ** 1.5 + abs(g6) + 1e-300)
    if not branch:
        return False, None
    hp = ctx.ectx.half_periods
    return True, 1 + int(np.argmin([abs(ctx.alpha - h) for h in hp]))


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


# verify's samplers as one rng call per double: each attempt's draws, in
# order, as scalar rng.uniform and rng.normal calls

def cunit_scalar(rng):
    return complex(rng.normal(), rng.normal()) / np.sqrt(2.0)


def cdisc_scalar(rng, r=1.0):
    return r * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def random_gamma_scalar(rng, rmax=1.0):
    def accept(g4, g6):
        dl = el.delta_gamma(g4, g6)
        return (g4, g6) if abs(dl) >= 0.05 * (abs(g4) ** 3 + abs(g6) ** 2) else None
    return vf._one("random_gamma",
                   lambda: (cdisc_scalar(rng, rmax) * rng.uniform(0.3, 1.0),
                            cdisc_scalar(rng, rmax) * rng.uniform(0.3, 1.0)), accept)


def random_lambda1_context_scalar(rng):
    def accept(g4, g6, a2):
        scale = (abs(g4) ** 1.5 + abs(g6) + abs(a2) ** 3) + 1e-12
        ctx = sg.context_lambda1(a2, (g4, g6))
        thin = ctx.branch_point or abs(ctx.wpp_alpha) < 0.25 * scale ** 0.5
        return None if thin else ctx
    return vf._one("random_lambda1_context", lambda: (
        *random_gamma_scalar(rng), cdisc_scalar(rng) * rng.uniform(0.2, 1.0)), accept)


def lattice_pair_scalar(rng, ec):
    return tuple(rng.uniform(-0.35, 0.35) * ec.omega
                 + rng.uniform(-0.35, 0.35) * ec.omegaP for _ in range(2))
