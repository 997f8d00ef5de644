"""Rank-3 period lattices, Abel integrals and three-periodic functions.

On the one-double-point stratum (with wp'(alpha) != 0) the basis of four
integrals I1..I4 produces six finite period vectors T1, T2, T3 (first-kind
rows) and H1, H2, H3 (second-kind rows); the fourth pair is infinite because
the vanishing cycle of the contracted branch pair carries the puncture.  The
2x3 matrices satisfy a degenerate counterpart of the Legendre identity, sigma2
transforms by exponential factors under u -> u + T_k, and the quotient
generator P(u3, u1) is honestly three-periodic.

Component convention: T rows are ordered (u3-component, u1-component), i.e.
(I1, I2) increments, and H rows are (I3, I4) increments; this ordering is what
the degenerate Legendre identity validates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elliptic as el
from . import sigma as sg
from .errors import SingularConfiguration
from .numerics import continuous_log, peak
from .strata import G2Params, discriminant

__all__ = [
    "AbelIntegralValues", "PeriodLattice", "abel_integrals", "period_matrices",
    "quasi_periodicity_residual", "p_periodicity_residual",
    "functional_equation_check", "reconstruct_lambda", "LEGENDRE_PATTERN",
]

# (T|H)^t J (T|H) = 2 pi i * LEGENDRE_PATTERN, J = codiag(1, 1, -1, -1); the
# codiag orientation (which corner the listing starts from) is fixed by
# requiring this identity to hold -- the rank-4 Legendre identity is invariant
# under J -> -J, so only the degenerate display pins it down
LEGENDRE_PATTERN = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=complex)
_J4 = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
               dtype=complex)
_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True)
class AbelIntegralValues:
    I1: complex
    I2: complex
    I3: complex
    I4: complex


@dataclass(frozen=True)
class PeriodLattice:
    T: np.ndarray                  # 2x3, columns T1, T2, T3
    H: np.ndarray                  # 2x3, columns H1, H2, H3
    K1: np.ndarray
    K2: np.ndarray
    K3: np.ndarray
    legendre_residual: float
    alpha: complex

    def column(self, k: int):
        """(T_k, H_k) as a pair of 2-vectors, k in 1..3."""
        return self.T[:, k - 1], self.H[:, k - 1]


def _require_rank3(ctx: sg.DegenSigmaContext):
    if ctx.kind != "lambda1":
        raise SingularConfiguration("period lattice needs a Lambda1 context")
    if ctx.branch_point:
        raise SingularConfiguration(
            "wp'(alpha) = 0: the lattice rank drops below 3")


def _abel_map(ctx, xi, lg, zeta, half_wpp):
    """(I1, I2, I3, I4) from xi, log(sigma(alpha-xi)/sigma(alpha+xi)), zeta(xi)
    and -wp'(xi)/2; the map is linear, so it takes increments to increments."""
    a, g4 = ctx.wp_alpha, ctx.ectx.gamma4
    i1 = (2.0 * ctx.zeta_alpha * xi + lg) / ctx.wpp_alpha
    i2 = xi + 0.6 * a * i1
    i3 = zeta - 0.24 * a * a * i1 - 0.2 * a * i2
    i4 = (half_wpp - 0.6 * a * (g4 + 0.48 * a * a) * i1
          - 0.36 * a * a * i2 - 0.6 * a * i3)
    return i1, i2, i3, i4


def abel_integrals(ctx: sg.DegenSigmaContext, xi) -> AbelIntegralValues:
    """Closed forms of the four Abel integrals at the uniformizer xi.

    I1 and I2 are first kind, I3 and I4 second kind (I3 has the zeta pole at
    xi = 0); the log branch is continuous from xi = 0.
    """
    _require_rank3(ctx)
    xi = complex(xi)
    ec = ctx.ectx
    lg = el.sigma_ratio_log(ec, ctx.alpha, xi)
    zeta, _, wpp = el.weierstrass(ec, xi)
    vals = _abel_map(ctx, xi, lg, zeta, -0.5 * wpp)
    return AbelIntegralValues(*(complex(v) for v in vals))


def period_increment(ctx: sg.DegenSigmaContext, xi, m: int, n: int):
    """(Delta I1..I4) continued analytically along the segment [xi, xi+per]
    for the lattice period per = m omega + n omegaP.

    This is the finite period vector attached to the cycle the segment
    represents; the multivalued log is tracked along the segment itself, so
    the homology class (hence possible T1 offsets relative to the closed-form
    columns) is fixed by the path, not by a branch cut.
    """
    _require_rank3(ctx)
    xi = complex(xi)
    ec = ctx.ectx
    per = m * ec.omega + n * ec.omegaP
    dlog = continuous_log(lambda t, idx: el._sigma_quotient(
        ec, ctx.alpha - xi, ctx.alpha + xi, per, t)[None], 1)[0]
    # the elliptic parts are exact: zeta picks up m*eta + n*eta' and wp' is
    # periodic; forming the raw differences instead would amplify roundoff
    # by wp'' when xi sits near a pole
    return np.array(_abel_map(ctx, per, dlog, m * ec.eta + n * ec.etaP, 0.0j),
                    dtype=complex)


def period_matrices(ctx: sg.DegenSigmaContext) -> PeriodLattice:
    """The finite periods (T_k; H_k) and their consistency residual."""
    _require_rank3(ctx)
    ec = ctx.ectx
    a, ap = ctx.wp_alpha, ctx.wpp_alpha
    za = ctx.zeta_alpha
    alpha = ctx.alpha
    g4 = ec.gamma4
    om, omp = ec.omega, ec.omegaP
    eta, etap = ec.eta, ec.etaP
    # the -i pi/alpha entry of the base matrix cancels against the alpha
    # factors of K1's second column, so T1 is alpha-free as it must be
    k1 = np.array([[2 * za / ap, -2 * alpha / ap],
                   [1 + 1.2 * a * za / ap, -1.2 * a * alpha / ap]])
    k2 = np.array([[-0.36 * a * a, 0], [0, -(g4 + 0.48 * a * a)]])
    k3 = np.array([[-0.2 * a, 1.0], [g4 + 0.24 * a * a, -0.6 * a]])
    base = np.array([[0, om, omp], [-1j * np.pi / alpha, eta, etap]])
    base0 = np.array([[0, om, omp], [0, eta, etap]])
    T = k1 @ base
    H = k2 @ T + k3 @ base0
    M = np.vstack([T, H])
    resid = M.T @ _J4 @ M - 2j * np.pi * LEGENDRE_PATTERN
    scale = max(1.0, float(np.max(np.abs(M))) ** 2)
    return PeriodLattice(T=T, H=H, K1=k1, K2=k2, K3=k3,
                         legendre_residual=float(np.max(np.abs(resid))) / scale,
                         alpha=alpha)


def quasi_periodicity_residual(ctx: sg.DegenSigmaContext, u, k: int,
                               lattice: PeriodLattice,
                               direction: int = +1) -> float:
    """Defect of sigma2(u +/- T_k)/sigma2(u) = -exp{+/- H_k^t S (u +/- T_k/2)}.

    u is the pair (u3, u1); S is the index-swap matrix pairing the H rows
    (I3, I4) against (u1, u3).  Insensitive to the `normalized` scaling of
    sigma2 since only ratios enter.
    """
    tk, hk = lattice.column(k)
    u = np.asarray(u, dtype=complex)
    s = direction
    z0 = sg.sigma2(ctx, u[0], u[1])
    if z0 == 0:
        raise SingularConfiguration("u lies on the sigma2 divisor")
    z1 = sg.sigma2(ctx, u[0] + s * tk[0], u[1] + s * tk[1])
    ratio = z1 / z0
    target = -np.exp(s * (hk @ _SWAP @ (u + s * tk / 2.0)))
    return abs(ratio - target) / max(1.0, abs(target))


def p_periodicity_residual(ctx: sg.DegenSigmaContext, u, k: int,
                           lattice: PeriodLattice) -> float:
    tk, _ = lattice.column(k)
    u = np.asarray(u, dtype=complex)
    p0 = sg.p_function(ctx, u[0], u[1])
    p1 = sg.p_function(ctx, u[0] + tk[0], u[1] + tk[1])
    return abs(p1 - p0) / max(1.0, abs(p0))


def functional_equation_check(ctx: sg.DegenSigmaContext, c, z1, z2) -> dict:
    """Functional equations of f(z1, z2) built from the generator.

    f(z1, z2) = P(z1/(2 wp'(a)), c z2 + (3/5) wp(a) z1/(2 wp'(a))) satisfies

        f(z1, z2) f(z1, -z2) = exp(z1),
        f(z1, z2) f(-z1, -z2) = 1,

    both independent of c != 0.  The doubled wp'(alpha) in the first slot is
    forced by the first equation (the undoubled reading gives exp(2 z1)); the
    sign-parity variant f(z1,z2) = -f(-z1,-z2) is incompatible with the
    product equation for any function and is reported as data only.
    """
    c, z1, z2 = complex(c), complex(z1), complex(z2)
    if c == 0:
        raise ValueError("c must be nonzero")
    ap = ctx.wpp_alpha
    sh = ctx.shift()

    def f(x1, x2):
        u3 = x1 / (2.0 * ap)
        u1 = c * x2 + sh * u3
        return sg.p_function(ctx, u3, u1)

    fpp = f(z1, z2)
    fpm = f(z1, -z2)
    fmm = f(-z1, -z2)
    return {
        "product_residual": abs(fpp * fpm - np.exp(z1)) / abs(np.exp(z1)),
        "reciprocal_residual": abs(fpp * fmm - 1.0),
        "printed_parity_residual": abs(fpp + fmm),
    }


def reconstruct_lambda(ctx: sg.DegenSigmaContext, U1, U3) -> dict:
    """Rebuild (lambda, gamma) from the log-derivative basis at one point.

    lambda comes from the standard genus-2 expressions in the u-basis
    log-derivatives; gamma from the rational quotients in wp(U1), wp(alpha).
    The result is U1-independent, which is the computable content of the
    generator-completeness statement.
    """
    _require_rank3(ctx)
    U1 = complex(U1)
    der, pu, ppu = sg._log_derivatives(ctx, U3, U1)
    b = sg.derivatives_u_basis(der, ctx.wp_alpha)
    p11, p13 = b["p11"], b["p13"]
    p111, p113 = b["p111"], b["p113"]
    p1111, p1113 = b["p1111"], b["p1113"]
    l4 = 0.5 * p1111 - 3 * p11 ** 2 - 2 * p13
    l6 = (0.5 * p1113 - 0.5 * p1111 * p11 + 0.25 * p111 ** 2
          + 2 * p11 ** 3 - 2 * p13 * p11)
    l8 = (-0.5 * p1113 * p11 - 0.5 * p1111 * p13 + 0.5 * p113 * p111
          + p13 ** 2 + 4 * p11 ** 2 * p13)
    l10 = -0.5 * p1113 * p13 + 0.25 * p113 ** 2 + 2 * p13 ** 2 * p11
    lam = G2Params(l4, l6, l8, l10)
    a, ap = ctx.wp_alpha, ctx.wpp_alpha
    dpu = pu - a
    if abs(dpu) < 1e-10 * (1 + abs(pu)):
        raise SingularConfiguration("wp(U1) = wp(alpha): gamma quotients degenerate")
    fu = ppu ** 2 - 4 * pu ** 3
    fa = ap ** 2 - 4 * a ** 3
    g4 = (fu - fa) / (4.0 * dpu)
    g6 = -(a * fu - pu * fa) / (4.0 * dpu)
    ref = ctx.lam.astuple()
    err = peak(abs(x - y) for x, y in zip(lam.astuple(), ref))
    err /= 1.0 + max(abs(complex(x)) for x in ref)
    return {"lam": lam, "gamma4": complex(g4), "gamma6": complex(g6),
            "lambda_residual": err,
            "delta_residual": abs(discriminant(lam))
            / (1.0 + max(abs(complex(x)) for x in ref)) ** 4}

