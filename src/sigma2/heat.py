"""Annihilator checks: the genus-2 heat operators applied to sigma2.

The degenerate sigma-function solves the linear PDE system of the genus-2
sigma-function: four operators in a non-holonomic frame, acting on
F(u3, u1, lambda),

    q0 = -u1 d_u1 - 3 u3 d_u3 + 3 + l0
    q2 = -1/2 d_u1^2 + 4/5 l4 u3 d_u1 - u1 d_u3 + 3/10 l4 u1^2
         - 1/10 (15 l8 - 4 l4^2) u3^2 + l2
    q4 = -d_u1 d_u3 + 6/5 l6 u3 d_u1 - l4 u3 d_u3 + 1/5 l6 u1^2
         - l8 u1 u3 - 1/10 (30 l10 - 6 l6 l4) u3^2 + l4 + l4_field
    q6 = -1/2 d_u3^2 + 3/5 l8 u3 d_u1 + 1/10 l8 u1^2 - 2 l10 u1 u3
         + 3/10 l8 l4 u3^2 + 1/2 l6 + l6_field

with l0, l2, l4_field, l6_field the frame fields, the rows of
strata.vmatrix.  These are the operators evaluated, on the Lambda1 stratum.
Their u-parts are the term table _u_terms.  The fields are tangent to the
stratum, so each is pulled back to the chart (a2, gamma4, gamma6) by a
least-squares solve against the chart Jacobian, and applied to the chart
gradient of sigma2 at fixed (u3, u1); the same moduli rings give both.

Restricted by hand to the chart, in U1 = u1 - (3/5) wp(alpha) u3, they
combine into the paper's operators Q0 = q0, Q2 = q2 + 4/3 a2 q0,
Q4 = -(q4 + 2 a2 q2 + 3 a2^2 q0) and Q6 = -2(q6 + a2 q4 + a2^2 q2 + a2^3 q0).
Those forms are not evaluated here: the tests check this route against them
(tests/oracles.py) and prove the relations symbolically.

Derivatives are trapezoidal Cauchy integrals (numerics.cauchy_derivatives):
the u-derivatives come from one sigma2 evaluation on a product ring in
(u3, u1), the moduli derivatives from 4-node rings that rebuild the
degenerate context at each node (the elliptic context too on the gamma
rings; the a2 ring keeps the curve), so the implicit dependence of alpha on
the moduli is differentiated along.  Residuals are normalized by the largest
single term in each operator's expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sigma as sg
from . import strata as st
from .errors import NotOnStratum
from .numerics import cauchy_derivatives, peak

__all__ = ["HeatResidualReport", "q_residuals"]

@dataclass
class HeatResidualReport:
    point: dict
    residuals: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        return peak(self.residuals.values())


def _moduli_derivative(func, t):
    """d func/dt by a 4-node ring of radius 1e-3 (1 + |t|), one call per node."""
    return cauchy_derivatives(lambda ts: [func(x) for x in ts.tolist()],
                              t, 1, 1e-3 * (1.0 + abs(t)), 4)[1]


def _u_terms(l4, l6, l8, l10, u3, u1, z):
    """The u-parts of q0, q2, q4, q6 applied to F, term by term, with
    z[j][i] = d_u3^j d_u1^i F.  Plain arithmetic, so sympy reads it too."""
    f, f1, f11 = z[0][:3]
    f3, f31, f33 = z[1][0], z[1][1], z[2][0]
    return (
        (-u1 * f1, -3 * u3 * f3, 3 * f),
        (-f11 / 2, 4 * l4 * u3 * f1 / 5, -u1 * f3, 3 * l4 * u1**2 * f / 10,
         -(15 * l8 - 4 * l4**2) * u3**2 * f / 10),
        (-f31, 6 * l6 * u3 * f1 / 5, -l4 * u3 * f3, l6 * u1**2 * f / 5,
         -l8 * u1 * u3 * f, -(30 * l10 - 6 * l6 * l4) * u3**2 * f / 10, l4 * f),
        (-f33 / 2, 3 * l8 * u3 * f1 / 5, l8 * u1**2 * f / 10,
         -2 * l10 * u1 * u3 * f, 3 * l8 * l4 * u3**2 * f / 10, l6 * f / 2),
    )


def _q_terms(ctx: sg.DegenSigmaContext, u3, U1):
    """The terms of q0, q2, q4, q6 applied to sigma2 at (u3, U1), a list
    per operator, and the largest |sigma2| on the u-ring."""
    if ctx.kind != "lambda1":
        raise NotOnStratum("heat residuals are defined on the Lambda1 stratum")
    u3 = complex(u3)
    u1 = complex(U1) + ctx.shift() * u3
    a2, g4, g6 = ctx.a2, ctx.gamma.gamma4, ctx.gamma.gamma6
    # ring radii follow the weight grading so rescaled contexts differentiate
    # at the same relative resolution
    ws = ctx.weight_scale()
    zmax = 0.0

    def z_grid(x3, x1):
        nonlocal zmax
        z = sg.sigma2(ctx, x3, x1)
        zmax = float(np.abs(z).max())
        return z

    # one sigma2 call on the 16 x 16 product ring: zd[j, i] = d_u3^j d_u1^i F
    zd = cauchy_derivatives(
        lambda x3: cauchy_derivatives(lambda x1: z_grid(x3, x1[:, None]),
                                      u1, 2, 1e-2 / ws, 16).T,
        u3, 2, 1e-2 / ws ** 3, 16)

    def node(c):
        return [sg.sigma2(c, u3, u1), *c.lam.astuple()]

    # d/d(a2, g4, g6) of F at fixed (u3, u1) and of the chart point lambda,
    # from the same rings; the a2 ring keeps the curve, so its nodes share
    # the context's ectx
    grad, *jac = np.array([
        _moduli_derivative(lambda t: node(sg._lambda1_on_curve(ctx.ectx, t)), a2),
        _moduli_derivative(lambda t: node(sg.context_lambda1(a2, (t, g6))), g4),
        _moduli_derivative(lambda t: node(sg.context_lambda1(a2, (g4, t))), g6),
    ]).T
    # column k: the frame field l_2k, row k of the frame over _FRAME_DEN[k],
    # pulled back to the chart.  The rings give the Jacobian to ~1e-12, so
    # smaller singular values are noise: at a branch-point context the chart
    # is no immersion, and the fields' part along its kernel, which F does
    # not see, is left out
    lam = ctx.lam.astuple()
    frame = np.array(st._frame(*lam)[0]) / np.array(st._FRAME_DEN)[:, None]
    fields = np.linalg.lstsq(jac, frame.T, rcond=1e-10)[0]
    return ([[*terms, *(fields[:, k] * grad).tolist()]
             for k, terms in enumerate(_u_terms(*lam, u3, u1, zd.tolist()))],
            zmax)


def q_residuals(ctx: sg.DegenSigmaContext, u3, U1) -> HeatResidualReport:
    """Normalized residuals of q0, q2, q4, q6 applied to sigma2 at one point."""
    terms, zmax = _q_terms(ctx, u3, U1)
    rep = HeatResidualReport(point={
        "u3": complex(u3), "U1": complex(U1), "a2": ctx.a2,
        "gamma4": ctx.gamma.gamma4, "gamma6": ctx.gamma.gamma6})
    for name, op in zip(("q0", "q2", "q4", "q6"), terms):
        # floor the scale at the largest |F| on the u-ring, which the ring's
        # rounding error scales with: at special points (the origin) every
        # true term can vanish, leaving only that rounding in the numerator
        rep.scales[name] = max(max(abs(t) for t in op), zmax, 1e-300)
        rep.residuals[name] = abs(sum(op)) / rep.scales[name]
    return rep
