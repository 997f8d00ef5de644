"""Generalized Jacobi inversion on an elliptic curve with a marked point.

The problem pairs the holomorphic integral with a third-kind one:

    int_inf^{P1} dX/(-2Y) + int_inf^{P2} dX/(-2Y)          = U1,
    int_inf^{P1} dX/(-2Y(X-A)) + int_inf^{P2} dX/(-2Y(X-A)) = U3,

with A = wp(alpha), both integrals based at the branch point at infinity
(xi = 0 in the uniformizer).  In the variable (X, Y) = (wp(xi), -wp'(xi)/2)
the forward map has the closed form

    xi1 + xi2 = U1,
    sigma(a-xi1) sigma(a-xi2) / (sigma(a+xi1) sigma(a+xi2))
        = exp(-2 zeta(a) U1 + wp'(a) U3),

and the inverse is rational in S (see sigma.s_function): X1 + X2 = S^2 - wp(U1)
with matching products and Y-values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import elliptic as el
from . import sigma as sg
from .errors import (BranchPointCase, NotBranchPoint, NotOnStratum,
                     SingularConfiguration)

__all__ = [
    "InversionResult", "solve_inversion", "forward_integrals",
    "branch_point_inversion", "solve_inversion_rational",
    "rational_pair_product",
]


@dataclass(frozen=True)
class InversionResult:
    e1: complex                 # X1 + X2
    e2: complex                 # X1 * X2
    X1: complex
    X2: complex
    Y1: complex
    Y2: complex
    xi1: complex
    xi2: complex
    residuals: dict = field(default_factory=dict)


def _require_generic_l1(ctx):
    if ctx.kind != "lambda1":
        raise NotOnStratum("inversion needs a Lambda1 context")
    if ctx.branch_point:
        raise BranchPointCase("wp'(alpha) = 0: use branch_point_inversion")


def forward_integrals(ctx: sg.DegenSigmaContext, xi1, xi2):
    """(U1, U3) for the point pair (wp(xi1), ...), (wp(xi2), ...).

    U3 uses the closed form (2 zeta(a) U1 + log-ratio)/wp'(a) with the sigma
    ratio logs tracked continuously from xi = 0, which puts the value on the
    same sheet as straight-path quadrature.
    """
    _require_generic_l1(ctx)
    xi1, xi2 = complex(xi1), complex(xi2)
    u1 = xi1 + xi2
    log1, log2 = el.sigma_ratio_log(ctx.ectx, ctx.alpha, np.array([xi1, xi2]))
    u3 = (2.0 * ctx.zeta_alpha * u1 + log1 + log2) / ctx.wpp_alpha
    return complex(u1), complex(u3)


def solve_inversion(ctx: sg.DegenSigmaContext, U1, U3) -> InversionResult:
    """Closed-form solution of the inversion problem at transformed (U1, U3)."""
    _require_generic_l1(ctx)
    ec = ctx.ectx
    a, ap = ctx.wp_alpha, ctx.wpp_alpha
    s, e1, e2, pu, ppu = sg._s_point(ctx, complex(U3), complex(U1))
    dp = pu - a
    disc = np.sqrt(e1 * e1 - 4.0 * e2)
    x1, x2 = (e1 + disc) / 2.0, (e1 - disc) / 2.0
    # by real part, then imaginary part; real parts within rounding count as
    # equal, so a real curve's conjugate pair comes out in one fixed order
    if abs(x1.real - x2.real) <= 1e-12 * (1 + abs(x1) + abs(x2)):
        swap = x2.imag < x1.imag
    else:
        swap = x2.real < x1.real
    if swap:
        x1, x2 = x2, x1

    def y_of(x):
        # odd powers of S carry the opposite sign to the even ones: the
        # defining relation Y_k = -(X_k de1 - de2)/(2(X_k - A)) pins them,
        # in agreement with quadrature and with wp' at the recovered xi
        return ((x - pu) / (x - a) * s ** 3 + ppu / (x - a) * s ** 2
                - (2 * pu + a + (ppu ** 2 - ap ** 2) / (4 * (x - a) * dp)) * s
                + 0.5 * ppu)

    y1, y2 = y_of(x1), y_of(x2)
    g4, g6 = ec.gamma4, ec.gamma6
    memb = max(abs(y1 ** 2 - (x1 ** 3 + g4 * x1 + g6)),
               abs(y2 ** 2 - (x2 ** 3 + g4 * x2 + g6)))
    xi1 = _xi_from_point(ec, x1, y1)
    xi2 = _xi_from_point(ec, x2, y2)
    return InversionResult(e1=complex(e1), e2=complex(e2),
                           X1=complex(x1), X2=complex(x2),
                           Y1=complex(y1), Y2=complex(y2),
                           xi1=xi1, xi2=xi2,
                           residuals={"curve_membership": memb})


def _xi_from_point(ec, x, y):
    """Uniformizer with wp(xi) = x and Y = -wp'(xi)/2 matching y."""
    xi, (_, _, d) = el.invert_wp(ec, x)
    # the cell is symmetric, so -xi is the other branch's cell point
    return -xi if abs(d + 2 * y) > abs(d - 2 * y) else xi


def branch_point_inversion(ctx: sg.DegenSigmaContext, U1) -> InversionResult:
    """Explicit solution when A = wp(alpha) is a branch point (wp'(alpha)=0).

    One point freezes at the branch point (e_i, 0); the other moves as
    (wp(U1 + w_i), -wp'(U1 + w_i)/2) for the matching half period w_i.
    """
    if ctx.kind != "lambda1":
        raise NotOnStratum("inversion needs a Lambda1 context")
    if not ctx.branch_point:
        raise NotBranchPoint("wp'(alpha) does not vanish here")
    U1 = complex(U1)
    ec = ctx.ectx
    i = ctx.branch_index
    wi = ec.half_periods[i - 1]
    x1, y1 = ec.roots[i - 1], 0.0j
    _, x2, wpp2 = el.weierstrass(ec, U1 + wi)
    y2 = -0.5 * wpp2
    g4, g6 = ec.gamma4, ec.gamma6
    memb = abs(y2 ** 2 - (x2 ** 3 + g4 * x2 + g6))
    return InversionResult(e1=x1 + x2, e2=x1 * x2, X1=complex(x1), X2=complex(x2),
                           Y1=y1, Y2=complex(y2), xi1=wi, xi2=U1 + wi,
                           residuals={"curve_membership": memb})


# ---------------------------------------------------------------------------
# rational limit (gamma = 0): sigma(x) = x, zeta(x) = 1/x, wp(x) = x^-2

def solve_inversion_rational(alpha, U1, U3):
    """Symmetric functions (xi1+xi2, xi1*xi2, X1+X2, X1*X2) at gamma = 0.

    Same S-route formulas with the rational-limit primitives; no elliptic
    context is involved.
    """
    alpha, U1, U3 = complex(alpha), complex(U1), complex(U3)
    pa, ppa = alpha ** -2, -2.0 * alpha ** -3
    pu, ppu = U1 ** -2, -2.0 * U1 ** -3
    pfun = ((alpha + U1) / (alpha - U1)
            * np.exp(ppa * U3 - 2.0 * U1 / alpha))
    if abs(pfun - 1.0) < 1e-12 * (1 + abs(pfun)):
        raise SingularConfiguration("P ~ 1 in the rational limit")
    _, e1, e2 = sg._s_route(pu, ppu, pa, ppa, pfun)
    return {"sum_X": complex(e1), "prod_X": complex(e2), "sum_xi": complex(U1)}


def rational_pair_product(alpha, U1, U3):
    """Closed form xi1*xi2 = -alpha^2 + alpha*U1/tanh(U3/alpha^3 + U1/alpha)."""
    alpha, U1, U3 = complex(alpha), complex(U1), complex(U3)
    th = np.tanh(U3 / alpha ** 3 + U1 / alpha)
    if th == 0:
        raise SingularConfiguration("tanh vanishes: product diverges")
    return complex(-alpha ** 2 + alpha * U1 / th)
