"""Degenerate genus-2 sigma-function on the singular strata.

On the one-double-point stratum the function is an aggregate of genus-1
Weierstrass functions: with wp(alpha) = (5/3) a2 and W = u1 - (3/5) wp(alpha) u3,

    Z = exp(-(3/5) wp(a) [ (g4/2 + (3/25) wp(a)^2) u3^2
                           + (2/5) wp(a) u1 u3 + u1^2 / 6 ])
        / (wp'(a) sigma(a))
        * ( sigma(a + W) exp( wp'(a) u3 / 2 - zeta(a) W)
          - sigma(a - W) exp(-wp'(a) u3 / 2 + zeta(a) W) ).

When wp'(alpha) = 0 (the double point sits over a branch point) the 0/0 limit
is taken through a sigma-with-characteristic; on the two-double-point stratum
the function degenerates further to cosh/sinh combinations.  All three forms
are entire in (u3, u1) and homogeneous of Sato weight -3.

Evaluation is exposed both in the curve coordinates (u3, u1) and in the shifted
coordinates (u3, U1), which is what every derived formula downstream uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elliptic as el
from .elliptic import EllipticCurveParams
from .errors import (BranchPointCase, NotOnStratum, PoleAtArgument,
                     SingularConfiguration)
from .numerics import (NumericsConfig, DEFAULT_CONFIG, any_true, complex_args,
                       derivative, require_finite)
from .strata import (G2Params, StratumClassification, classify,
                     lambda_from_lambda1, lambda_from_lambda0)

__all__ = [
    "DegenSigmaContext", "SigmaDerivatives", "make_degen_context",
    "context_lambda1", "context_lambda0", "sigma2", "sigma2_u",
    "sigma2_baker_form", "p_function", "p_function_u", "s_function",
    "log_derivatives",
]


@dataclass(frozen=True)
class DegenSigmaContext:
    """Cached data for evaluating the degenerate sigma-function.

    kind is "lambda1" or "lambda0".  For lambda1 the elliptic context and the
    Abel preimage alpha (with wp(alpha) = (5/3) a2, wp'(alpha) = 2 d) are
    cached together with the function values at alpha; branch_point marks the
    wp'(alpha) ~ 0 regime.  norm_c is the u3-linear Taylor coefficient used by
    the ``normalized`` evaluation flag.
    """

    kind: str
    lam: G2Params
    cfg: NumericsConfig
    a2: complex
    b2: complex | None = None
    ectx: el.EllipticContext | None = None
    alpha: complex | None = None
    d: complex | None = None
    wp_alpha: complex | None = None
    wpp_alpha: complex | None = None
    zeta_alpha: complex | None = None
    sigma_alpha: complex | None = None
    branch_point: bool = False
    branch_index: int | None = None
    sqrt_2a3b: complex | None = None
    sqrt_3a2b: complex | None = None
    norm_c: complex = 1.0 + 0j

    @property
    def gamma(self):
        return self.ectx.params if self.ectx is not None else None

    def shift(self):
        """(3/5) wp(alpha) for lambda1, i.e. the U1 = u1 - shift*u3 offset."""
        if self.kind != "lambda1":
            raise NotOnStratum("U-coordinates are defined on the Lambda1 stratum")
        return 0.6 * self.wp_alpha


def context_lambda1(a2, gamma, cfg: NumericsConfig | None = None) -> DegenSigmaContext:
    """Degenerate-sigma context from the one-double-point chart (a2, gamma)."""
    cfg = cfg or DEFAULT_CONFIG
    if not isinstance(gamma, EllipticCurveParams):
        gamma = EllipticCurveParams(*gamma)
    a2 = complex(a2)
    require_finite("context_lambda1", a2)
    ectx = el.make_context(gamma, cfg)
    lam = lambda_from_lambda1(a2, gamma)
    alpha = el.invert_wp(ectx, 5.0 * a2 / 3.0)
    wpa = el.wp(ectx, alpha)
    wppa = el.wp_prime(ectx, alpha)
    g4, g6 = gamma.gamma4, gamma.gamma6
    # The branch-point evaluation is the exact wp'(alpha) -> 0 limit, with
    # O(wp') truncation away from it, while the generic bracket loses
    # eps/|wp'| digits to cancellation; 1e-24 puts the switch at the
    # crossover |wp'| ~ 1e-8 (weight-normalized) instead of tol = 1e-10,
    # which would hand the branch form an O(1e-4) error band.
    branch = abs(wppa) ** 3 < 1e-24 * (abs(g4) ** 1.5 + abs(g6) + 1e-300)
    bidx = None
    if branch:
        hp = ectx.half_periods
        bidx = 1 + int(np.argmin([abs(alpha - h) for h in hp]))
    ctx = DegenSigmaContext(
        kind="lambda1", lam=lam, cfg=cfg, a2=a2, ectx=ectx, alpha=alpha,
        d=wppa / 2.0, wp_alpha=wpa, wpp_alpha=wppa,
        zeta_alpha=el.zeta_w(ectx, alpha), sigma_alpha=el.sigma_w(ectx, alpha),
        branch_point=branch, branch_index=bidx)
    return _with_norm(ctx)


def context_lambda0(a2, b2, cfg: NumericsConfig | None = None) -> DegenSigmaContext:
    """Degenerate-sigma context from the two-double-point chart (a2, b2)."""
    cfg = cfg or DEFAULT_CONFIG
    a2, b2 = complex(a2), complex(b2)
    require_finite("context_lambda0", a2, b2)
    ctx = DegenSigmaContext(
        kind="lambda0", lam=lambda_from_lambda0(a2, b2), cfg=cfg, a2=a2, b2=b2,
        sqrt_2a3b=complex(np.sqrt(2 * a2 + 3 * b2)),
        sqrt_3a2b=complex(np.sqrt(3 * a2 + 2 * b2)))
    return _with_norm(ctx)


def _with_norm(ctx: DegenSigmaContext) -> DegenSigmaContext:
    """Fill norm_c with the u3-linear Taylor coefficient of the raw formula."""
    scale = 1.0 + abs(ctx.a2) ** 0.5
    if ctx.b2 is not None:
        scale = max(scale, 1.0 + abs(ctx.b2) ** 0.5)
    h = 1e-3 / scale ** 3
    c = derivative(lambda t: _sigma2_raw(ctx, t, 0.0j), 0.0j, 1, h, 3)
    return _replace(ctx, norm_c=complex(c))


def _replace(ctx: DegenSigmaContext, **kw) -> DegenSigmaContext:
    from dataclasses import replace
    return replace(ctx, **kw)


def make_degen_context(cls, cfg: NumericsConfig | None = None) -> DegenSigmaContext:
    """Context from a classification result (or from a raw parameter point)."""
    if isinstance(cls, G2Params) or (isinstance(cls, tuple) and len(cls) == 4):
        cls = classify(cls if isinstance(cls, G2Params) else G2Params(*cls), cfg)
    if not isinstance(cls, StratumClassification):
        raise TypeError("make_degen_context expects a classification or lambda point")
    if cls.stratum == "Lambda2":
        raise NotOnStratum("the parameter point is nondegenerate (Lambda2)")
    if cls.stratum == "Lambda1":
        return context_lambda1(cls.a2, cls.gamma, cfg)
    return context_lambda0(cls.a2, cls.b2, cfg)


# ---------------------------------------------------------------------------
# evaluation

def _prefactor_l1(ctx, u3, u1):
    wpa = ctx.wp_alpha
    g4 = ctx.ectx.gamma4
    q = (0.5 * g4 + 0.12 * wpa ** 2) * u3 ** 2 + 0.4 * wpa * u1 * u3 + u1 ** 2 / 6.0
    return np.exp(-0.6 * wpa * q)


def _sigma2_raw_l1(ctx, u3, u1):
    ec = ctx.ectx
    w = u1 - ctx.shift() * u3
    pref = _prefactor_l1(ctx, u3, u1)
    if ctx.branch_point:
        # wp'(alpha) -> 0 limit of the generic bracket.  alpha is a half
        # period; besides the u3 * sigma_char(W, i) part the 0/0 limit keeps
        # a zeroth-order term from the odd half of the bracket:
        #   pref * sigma_i(W) * (u3 + 2 (zeta(a+W) - eta_i + e_i W)/wp''(a)).
        # Dropping it breaks both moduli-continuity and the Q4 annihilator.
        e_i = ctx.wp_alpha
        eta_i = ctx.zeta_alpha
        wpp2 = 6 * e_i ** 2 + 2 * ec.gamma4        # wp''(alpha) != 0 here
        lin = u3 + 2 * (e_i * w - eta_i) / wpp2
        return (pref * np.exp(-eta_i * w) / ctx.sigma_alpha
                * (el.sigma_w(ec, ctx.alpha + w) * lin
                   + 2 * el.sigma_w_prime(ec, ctx.alpha + w) / wpp2))
    za, wppa = ctx.zeta_alpha, ctx.wpp_alpha
    bracket = (el.sigma_w(ec, ctx.alpha + w) * np.exp(0.5 * wppa * u3 - za * w)
               - el.sigma_w(ec, ctx.alpha - w) * np.exp(-0.5 * wppa * u3 + za * w))
    return pref * bracket / (wppa * ctx.sigma_alpha)


def _shc(c, z):
    """sinh(c z)/c, even in c and finite at c = 0; elementwise on arrays."""
    w = c * z
    series = z * (1.0 + w * w / 6.0 + w ** 4 / 120.0)
    if not isinstance(w, np.ndarray):
        return series if abs(w) < 1e-4 else np.sinh(w) / c
    big = abs(w) >= 1e-4
    series[big] = np.sinh(w[big]) / c
    return series


def _sigma2_raw_l0_direct(a2, b2, p, q, u3, u1):
    pref = np.exp(0.5 * (3 * a2 * b2 * (a2 + b2) * u3 ** 2
                         + 2 * a2 * b2 * u1 * u3 - (a2 + b2) * u1 ** 2))
    v = u1 - a2 * u3
    w = u1 - b2 * u3
    bracket = (np.cosh(p * v) * _shc(q, w) - np.cosh(q * w) * _shc(p, v))
    return pref * bracket / (4.0 * (a2 - b2))


def _sigma2_raw_l0(ctx, u3, u1):
    a2, b2 = ctx.a2, ctx.b2
    gap = abs(a2 - b2)
    scale = 1.0 + abs(a2) + abs(b2)
    if gap >= 1e-5 * scale:
        return _sigma2_raw_l0_direct(a2, b2, ctx.sqrt_2a3b, ctx.sqrt_3a2b, u3, u1)
    # a2 ~ b2 is a removable 0/0: ring-average in the analytic variable b2
    h = 1e-2 * scale
    acc = 0.0j
    for k in range(4):
        b = b2 + h * 1j ** k
        acc += _sigma2_raw_l0_direct(a2, b, np.sqrt(2 * a2 + 3 * b),
                                     np.sqrt(3 * a2 + 2 * b), u3, u1)
    return acc / 4.0


def _sigma2_raw(ctx, u3, u1):
    if ctx.kind == "lambda1":
        return _sigma2_raw_l1(ctx, u3, u1)
    return _sigma2_raw_l0(ctx, u3, u1)


def _result(val):
    """A complex ndarray as it is, anything else as a Python complex."""
    return val if isinstance(val, np.ndarray) else complex(val)


def sigma2(ctx: DegenSigmaContext, u3, u1, normalized: bool = False):
    """Degenerate genus-2 sigma at (u3, u1); entire, no poles.

    ``normalized`` rescales by the cached constant so the Taylor leading part
    is exactly u3 - u1^3/3 (the closed forms on the two strata differ from that
    normalization by stratum-dependent constants).  Scalars give a complex;
    ndarrays, broadcast together, give a complex ndarray in one evaluation.
    """
    u3, u1 = complex_args(u3, u1)
    require_finite("sigma2", u3, u1)
    val = _sigma2_raw(ctx, u3, u1)
    return _result(val / ctx.norm_c if normalized else val)


def sigma2_u(ctx: DegenSigmaContext, u3, U1, normalized: bool = False):
    """sigma2 in shifted coordinates: u1 = U1 + (3/5) wp(alpha) u3."""
    return sigma2(ctx, u3, U1 + ctx.shift() * u3, normalized)


def sigma2_baker_form(ctx: DegenSigmaContext, u3, u1) -> complex:
    """Equivalent product form through the elliptic Baker function.

    Phi(u, a) = sigma(a - u) / (sigma(a) sigma(u)) * exp(zeta(a) u); the
    product has removable singularities where sigma(W) = 0, which are refused
    rather than evaluated.
    """
    if ctx.kind != "lambda1":
        raise NotOnStratum("the Baker form lives on the Lambda1 stratum")
    if ctx.branch_point:
        raise BranchPointCase("Baker form needs wp'(alpha) != 0")
    ec = ctx.ectx
    w = complex(u1) - ctx.shift() * complex(u3)
    sig_w = el.sigma_w(ec, w)
    if abs(sig_w) < ctx.cfg.cluster_tol * ec.scale():
        raise PoleAtArgument("W lies on the divisor of the Baker factors")

    def phi(u):
        return (el.sigma_w(ec, ctx.alpha - u) * np.exp(ctx.zeta_alpha * u)
                / (ctx.sigma_alpha * el.sigma_w(ec, u)))

    pref = _prefactor_l1(ctx, complex(u3), complex(u1))
    wppa = ctx.wpp_alpha
    return complex(-pref * sig_w / wppa
                   * (phi(-w) * np.exp(0.5 * wppa * u3)
                      + phi(w) * np.exp(-0.5 * wppa * u3)))


def _generator(ctx: DegenSigmaContext, U3, U1):
    """(sigma(a+U1), P) for p_function_u and s_function; raises where
    sigma(a-U1) ~ 0."""
    if ctx.kind != "lambda1":
        raise NotOnStratum("p_function lives on the Lambda1 stratum")
    ec = ctx.ectx
    U3, U1 = complex_args(U3, U1)
    den = el.sigma_w(ec, ctx.alpha - U1)
    if any_true(abs(den) < ctx.cfg.cluster_tol * ec.scale()):
        raise PoleAtArgument("U1 hits alpha modulo the lattice")
    num = el.sigma_w(ec, ctx.alpha + U1)
    return num, num / den * np.exp(ctx.wpp_alpha * U3 - 2 * ctx.zeta_alpha * U1)


def p_function_u(ctx: DegenSigmaContext, U3, U1):
    """Transcendental generator sigma(a+U1)/sigma(a-U1) e^{wp'(a)U3 - 2 zeta(a)U1}.

    Elementwise on ndarrays, like s_function.
    """
    return _result(_generator(ctx, U3, U1)[1])


def p_function(ctx: DegenSigmaContext, u3, u1) -> complex:
    """Same generator in curve coordinates (three-periodic in (u3, u1))."""
    sh = ctx.shift()
    return p_function_u(ctx, complex(u3), complex(u1) - sh * complex(u3))


def s_function(ctx: DegenSigmaContext, U3, U1):
    """S = (wp'(U1) - wp'(a) (P+1)/(P-1)) / (2 (wp(U1) - wp(a))).

    At U1 = -a modulo the lattice P = 0 and wp(U1) = wp(a), so S is 0/0
    there (a removable point) and PoleAtArgument is raised, as at U1 = a.
    """
    num, pval = _generator(ctx, U3, U1)
    ec = ctx.ectx
    if any_true(abs(num) < ctx.cfg.cluster_tol * ec.scale()):
        raise PoleAtArgument("U1 hits -alpha modulo the lattice: S is 0/0 there")
    if any_true(abs(pval - 1.0) < 1e-8 * (1.0 + abs(pval))):
        raise SingularConfiguration("P ~ 1: the configuration sits on the sigma divisor")
    pu, ppu = el.wp(ec, U1), el.wp_prime(ec, U1)
    wpa, wppa = ctx.wp_alpha, ctx.wpp_alpha
    return _result((ppu - wppa * (pval + 1.0) / (pval - 1.0)) / (2.0 * (pu - wpa)))


@dataclass(frozen=True)
class SigmaDerivatives:
    """Logarithmic derivatives of sigma2 in the (U3, U1) coordinates.

    Index 1 is U1, index 3 is U3 (so P13 = -d^2 log Z / dU1 dU3 etc.).
    """

    P11: complex
    P13: complex
    P111: complex
    P113: complex
    P1111: complex
    P1113: complex


def log_derivatives(ctx: DegenSigmaContext, U3, U1) -> SigmaDerivatives:
    """Closed forms for the second/third/fourth log-derivatives of sigma2.

    P11 and P13 come from the inversion-problem symmetric functions
    (X1+X2 = P11 + (4/5)A, X1 X2 = -P13 + A P11 + (4/25)A^2); the higher ones
    follow by the exact derivative identities of the generator,

        dP/dU1 = -P wp'(a)/(wp(U1)-wp(a)),     dP/dU3 = wp'(a) P,

    which close on rational functions of (S, wp(U1), wp'(U1), wp(a), wp'(a)).
    """
    if ctx.kind != "lambda1":
        raise NotOnStratum("log_derivatives lives on the Lambda1 stratum")
    if ctx.branch_point:
        raise BranchPointCase("wp'(alpha) = 0: use branch_point_inversion")
    U3, U1 = complex(U3), complex(U1)
    ec = ctx.ectx
    a = ctx.wp_alpha
    ap = ctx.wpp_alpha
    g4 = ec.gamma4
    pu = el.wp(ec, U1)
    ppu = el.wp_prime(ec, U1)
    s = s_function(ctx, U3, U1)
    dp = pu - a
    ppr = 6 * pu ** 2 + 2 * g4        # wp''(U1)
    pppr = 12 * pu * ppu              # wp'''(U1)
    e1 = s * s - pu
    e2 = (pu * s * s - ppu * s - a * (pu + a)
          + (ppu ** 2 - ap ** 2) / (4.0 * dp))
    p11 = e1 - 0.8 * a
    p13 = a * p11 + 0.16 * a * a - e2
    # dS/dU1, dS/dU3 and their U1-derivatives
    sp = -s * s + ppr / (2 * dp) - (ppu ** 2 - ap ** 2) / (4 * dp ** 2)
    w = ppu - 2 * dp * s
    sd = (w * w - ap ** 2) / (4 * dp)
    spp = (-2 * s * sp + pppr / (2 * dp) - ppr * ppu / (2 * dp ** 2)
           - ppu * ppr / (2 * dp ** 2)
           + (ppu ** 2 - ap ** 2) * ppu / (2 * dp ** 3))
    dw = ppr - 2 * ppu * s - 2 * dp * sp
    dsd = w * dw / (2 * dp) - (w * w - ap ** 2) * ppu / (4 * dp ** 2)
    p111 = 2 * s * sp - ppu
    p113 = 2 * s * sd
    p1111 = 2 * sp * sp + 2 * s * spp - ppr
    p1113 = 2 * sp * sd + 2 * s * dsd
    return SigmaDerivatives(P11=complex(p11), P13=complex(p13),
                            P111=complex(p111), P113=complex(p113),
                            P1111=complex(p1111), P1113=complex(p1113))


def derivatives_u_basis(der: SigmaDerivatives, wp_alpha):
    """Convert (U3, U1) log-derivatives to the curve-coordinate basis.

    d/du3 = d/dU3 - (3/5) wp(alpha) d/dU1, so each mixed index picks up a
    -(3/5) wp(alpha) multiple of the pure-U1 derivative of one lower 3-count.
    """
    c = 0.6 * wp_alpha
    return {
        "p11": der.P11,
        "p13": der.P13 - c * der.P11,
        "p111": der.P111,
        "p113": der.P113 - c * der.P111,
        "p1111": der.P1111,
        "p1113": der.P1113 - c * der.P1111,
    }
