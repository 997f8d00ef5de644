"""Annihilator checks: the restricted heat operators applied to sigma2.

The degenerate sigma-function is the unique solution of four linear PDEs in a
non-holonomic frame.  On the one-double-point stratum they reduce to operators
Q0, Q2, Q4, Q6 acting on Z(u3, U1, a2, gamma4, gamma6):

    Q0 = -U1 d_U1 - 3 u3 d_u3 + 2 a2 d_a2 + L0 + 3
    Q2 = -1/2 d_U1^2 - (a2/3)(U1 + 3 a2 u3) d_U1 - (U1 + 5 a2 u3) d_u3
         + (2/15)(6 g4 + 25 a2^2) d_a2 + L2
         + (1/10)(3 g4 - 5 a2^2)(U1 + 2 a2 u3) U1
         + (1/30)(90 a2 g6 + 12 g4^2 - 16 a2^2 g4 - 15 a2^4) u3^2 + 4 a2
    Q4 = (d_U1 + 2 a2 U1 + (g4 + 28/3 a2^2) u3) D
         - (6/5) d * d_a2 (d *)
         - (1/5)(U1^2 + 12 a2 U1 u3 + 3 (g4 + 7 a2^2) u3^2) d^2
    Q6 = D^2 - d^2,   D = d_u3 + a2^2 U1 + (g4 + 7/3 a2^2) a2 u3

with d^2 = g6 + (5/3) a2 g4 + ((5/3) a2)^3 and the curve-modulus fields
L0 = 4 g4 d_g4 + 6 g6 d_g6, L2 = 6 g6 d_g4 - (4/3) g4^2 d_g6.

They restrict the unrestricted genus-2 operators (fields l0, l2, l4_field,
l6_field: the rows of strata.vmatrix)

    q0 = -u1 d_u1 - 3 u3 d_u3 + 3 + l0
    q2 = -1/2 d_u1^2 + 4/5 l4 u3 d_u1 - u1 d_u3 + 3/10 l4 u1^2
         - 1/10 (15 l8 - 4 l4^2) u3^2 + l2
    q4 = -d_u1 d_u3 + 6/5 l6 u3 d_u1 - l4 u3 d_u3 + 1/5 l6 u1^2
         - l8 u1 u3 - 1/10 (30 l10 - 6 l6 l4) u3^2 + l4 + l4_field
    q6 = -1/2 d_u3^2 + 3/5 l8 u3 d_u1 + 1/10 l8 u1^2 - 2 l10 u1 u3
         + 3/10 l8 l4 u3^2 + 1/2 l6 + l6_field

as Q0 = q0, Q2 = q2 + 4/3 a2 q0, Q4 = -(q4 + 2 a2 q2 + 3 a2^2 q0) and
Q6 = -2(q6 + a2 q4 + a2^2 q2 + a2^3 q0); only the restricted forms are
evaluated, as there is no nondegenerate sigma here.

Derivatives are trapezoidal Cauchy integrals (numerics.cauchy_derivatives):
the u-derivatives come from one sigma2 evaluation on a product ring in
(u3, U1), the moduli derivatives from 4-node rings that rebuild the
degenerate context at each node (the elliptic context too on the gamma
rings; the a2 ring keeps the curve), so the implicit dependence of alpha on
the moduli is differentiated along.  Residuals are normalized by the largest
single term in each operator's expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sigma as sg
from .errors import NotOnStratum
from .numerics import cauchy_derivatives

__all__ = ["HeatResidualReport", "q_residuals"]

@dataclass
class HeatResidualReport:
    point: dict
    residuals: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        return max(self.residuals.values())


def _moduli_derivative(func, t):
    """d func/dt by a 4-node ring of radius 1e-3 (1 + |t|), one call per node."""
    return cauchy_derivatives(lambda ts: [func(x) for x in ts.tolist()],
                              t, 1, 1e-3 * (1.0 + abs(t)), 4)[1]


def q_residuals(ctx: sg.DegenSigmaContext, u3, U1) -> HeatResidualReport:
    """Normalized residuals of Q0, Q2, Q4, Q6 applied to sigma2 at one point."""
    if ctx.kind != "lambda1":
        raise NotOnStratum("heat residuals are defined on the Lambda1 stratum")
    u3, U1 = complex(u3), complex(U1)
    a2 = ctx.a2
    g4, g6 = ctx.gamma.gamma4, ctx.gamma.gamma6
    # ring radii follow the weight grading so rescaled contexts differentiate
    # at the same relative resolution
    ws = ctx.weight_scale()
    zmax = 0.0

    def z_grid(x3, x1):
        nonlocal zmax
        z = sg.sigma2_u(ctx, x3, x1)
        zmax = float(np.abs(z).max())
        return z

    # one sigma2_u call on the 16 x 16 product ring: zd[j, k] = d_u3^j d_U1^k Z
    zd = cauchy_derivatives(
        lambda x3: cauchy_derivatives(lambda x1: z_grid(x3, x1[:, None]),
                                      U1, 2, 1e-2 / ws, 16).T,
        u3, 2, 1e-2 / ws ** 3, 16)
    z0, z1, z11 = zd[0]
    z3, z31, z33 = zd[1, 0], zd[1, 1], zd[2, 0]

    def z_moduli(a, c4, c6):
        return sg.sigma2_u(sg.context_lambda1(a, (c4, c6)), u3, U1)

    # the a2 ring keeps the curve, so its nodes share the context's ectx
    za2 = _moduli_derivative(
        lambda t: sg.sigma2_u(sg._lambda1_on_curve(ctx.ectx, t), u3, U1), a2)
    zg4 = _moduli_derivative(lambda t: z_moduli(a2, t, g6), g4)
    zg6 = _moduli_derivative(lambda t: z_moduli(a2, g4, t), g6)
    l0z = 4 * g4 * zg4 + 6 * g6 * zg6
    l2z = 6 * g6 * zg4 - (4.0 / 3.0) * g4 ** 2 * zg6

    d2 = g6 + (5.0 / 3.0) * a2 * g4 + (125.0 / 27.0) * a2 ** 3
    d = ctx.wpp_alpha / 2.0
    d_prime = ((5.0 / 3.0) * g4 + (125.0 / 9.0) * a2 ** 2) / (2.0 * d)

    def assemble(terms):
        # floor the scale at the largest |Z| on the u-ring, which the ring's
        # rounding error scales with: at special points (the origin) every
        # true term can vanish, leaving only that rounding in the numerator
        scale = max(max(abs(t) for t in terms), zmax, 1e-300)
        return abs(sum(terms)) / scale, scale

    a_coef = a2 ** 2 * U1 + (g4 + (7.0 / 3.0) * a2 ** 2) * a2 * u3
    a3_coef = (g4 + (7.0 / 3.0) * a2 ** 2) * a2
    r6, s6 = assemble([z33, 2 * a_coef * z3, (a_coef ** 2 + a3_coef) * z0,
                       -d2 * z0])

    b_coef = 2 * a2 * U1 + (g4 + (28.0 / 3.0) * a2 ** 2) * u3
    c_coef = U1 ** 2 + 12 * a2 * U1 * u3 + 3 * (g4 + 7 * a2 ** 2) * u3 ** 2
    r4, s4 = assemble([
        z31, a2 ** 2 * z0, a_coef * z1, b_coef * z3, a_coef * b_coef * z0,
        -(6.0 / 5.0) * d * (d_prime * z0 + d * za2),
        -(1.0 / 5.0) * c_coef * d2 * z0,
    ])

    r0, s0 = assemble([-U1 * z1, -3 * u3 * z3, 2 * a2 * za2, l0z, 3 * z0])

    r2, s2 = assemble([
        -0.5 * z11,
        -(a2 / 3.0) * (U1 + 3 * a2 * u3) * z1,
        -(U1 + 5 * a2 * u3) * z3,
        (2.0 / 15.0) * (6 * g4 + 25 * a2 ** 2) * za2,
        l2z,
        0.1 * (3 * g4 - 5 * a2 ** 2) * (U1 + 2 * a2 * u3) * U1 * z0,
        (1.0 / 30.0) * (90 * a2 * g6 + 12 * g4 ** 2 - 16 * a2 ** 2 * g4
                        - 15 * a2 ** 4) * u3 ** 2 * z0,
        4 * a2 * z0,
    ])

    return HeatResidualReport(
        point={"u3": u3, "U1": U1, "a2": a2, "gamma4": g4, "gamma6": g6},
        residuals={"Q0": r0, "Q2": r2, "Q4": r4, "Q6": r6},
        scales={"Q0": s0, "Q2": s2, "Q4": s4, "Q6": s6})

