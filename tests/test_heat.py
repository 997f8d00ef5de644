import pytest

from sigma2 import elliptic as el
from sigma2 import heat
from sigma2 import sigma as sg
from sigma2.errors import NotOnStratum


def test_annihilation_generic(ctx_generic):
    rep = heat.q_residuals(ctx_generic, 0.11 - 0.04j, 0.09 + 0.06j)
    assert rep.max_residual < 1e-5
    assert set(rep.residuals) == {"Q0", "Q2", "Q4", "Q6"}
    assert all(s > 0 for s in rep.scales.values())


def test_annihilation_origin_sample(ctx_generic):
    rep = heat.q_residuals(ctx_generic, 0.0, 0.0)
    assert rep.max_residual < 1e-5


def test_annihilation_branch_point_context():
    bctx = sg.context_lambda1(0.6, (0.5, -1.5))   # 5 a2/3 hits a cubic root
    assert bctx.branch_point
    rep = heat.q_residuals(bctx, 0.13, 0.17)
    assert rep.max_residual < 1e-5


def test_residuals_refused_off_lambda1(ctx_two_points):
    with pytest.raises(NotOnStratum):
        heat.q_residuals(ctx_two_points, 0.1, 0.2)


def test_residuals_invariant_under_constant_rescale(ctx_generic, monkeypatch):
    base = heat.q_residuals(ctx_generic, 0.07, 0.12)
    original = sg.sigma2_u

    def scaled(ctx, u3, U1, normalized=False):
        return 7.0 * original(ctx, u3, U1, normalized)

    monkeypatch.setattr(heat.sg, "sigma2_u", scaled)
    rescaled = heat.q_residuals(ctx_generic, 0.07, 0.12)
    for k in base.residuals:
        assert abs(base.residuals[k] - rescaled.residuals[k]) < 1e-7


# ---------------------------------------------------------------------------
# moduli-field actions on the genus-1 functions at fixed alpha: the identities
# the solution construction relies on, differentiated by the same 4-node
# moduli rings as q_residuals

def _alpha_values(ectx, alpha):
    """[sigma, zeta, wp, wp'] at alpha and their d/d g4, d/d g6 gradients at
    fixed alpha; each ring node rebuilds its context once for all four."""
    def at(ec):
        return [el.sigma_w(ec, alpha), *el.weierstrass(ec, alpha)]

    g4, g6 = ectx.gamma4, ectx.gamma6
    d4 = heat._moduli_derivative(lambda t: at(el.make_context((t, g6))), g4)
    d6 = heat._moduli_derivative(lambda t: at(el.make_context((g4, t))), g6)
    return at(ectx), d4, d6


def _defects(action, targets):
    """|action - target| / max(1, |target|, |action|) per named function."""
    return {name: abs(a - t) / max(1.0, abs(t), abs(a))
            for a, (name, t) in zip(action, targets.items())}


def l2_action_residuals(ectx, alpha):
    """Residuals of the L2-action identities on sigma, zeta, wp, wp' at alpha.

    L2 = 6 g6 d_g4 - (4/3) g4^2 d_g6 acts at fixed alpha; the right-hand
    sides are the closed forms the solution construction relies on.
    """
    alpha = complex(alpha)
    g4, g6 = ectx.gamma4, ectx.gamma6
    (sig, zet, p, pp), d4, d6 = _alpha_values(ectx, alpha)
    targets = {
        "sigma": sig * (-g4 * alpha ** 2 / 6.0 + zet ** 2 / 2.0 - p / 2.0),
        "zeta": -g4 * alpha / 3.0 - zet * p - pp / 2.0,
        "wp": (4.0 / 3.0) * g4 + 2 * p ** 2 + zet * pp,
        "wp_prime": zet * (6 * p ** 2 + 2 * g4) + 3 * p * pp,
    }
    return _defects(6 * g6 * d4 - (4.0 / 3.0) * g4 ** 2 * d6, targets)


def l0_action_residuals(ectx, alpha):
    """Euler-homogeneity residuals: L0 F = (weight F) + alpha-transport term."""
    alpha = complex(alpha)
    g4, g6 = ectx.gamma4, ectx.gamma6
    (sig, zet, p, pp), d4, d6 = _alpha_values(ectx, alpha)
    wpp2 = 6 * p ** 2 + 2 * g4
    targets = {
        "sigma": -sig + alpha * zet * sig,
        "zeta": zet - alpha * p,
        "wp": 2 * p + alpha * pp,
        "wp_prime": 3 * pp + alpha * wpp2,
    }
    return _defects(4 * g4 * d4 + 6 * g6 * d6, targets)


def test_l2_action_identities(ec_generic, rng):
    for _ in range(5):
        alpha = (rng.uniform(0.1, 0.4) * ec_generic.omega
                 + rng.uniform(0.1, 0.4) * ec_generic.omegaP)
        out = l2_action_residuals(ec_generic, alpha)
        assert max(out.values()) < 1e-5


def test_l2_action_at_half_period(ec_generic):
    # wp'(alpha) = 0 there, so the L2 action on wp drops its zeta term
    alpha = ec_generic.omega / 2
    out = l2_action_residuals(ec_generic, alpha)
    assert out["wp"] < 1e-5
    g4 = ec_generic.gamma4
    p = el.wp(ec_generic, alpha)
    target = (4.0 / 3.0) * g4 + 2 * p ** 2
    full = target + el.zeta_w(ec_generic, alpha) * el.wp_prime(ec_generic, alpha)
    assert abs(full - target) < 1e-12 * (1 + abs(target))


def test_l0_euler_identities(ec_generic):
    alpha = 0.27 * ec_generic.omega + 0.31 * ec_generic.omegaP
    out = l0_action_residuals(ec_generic, alpha)
    assert max(out.values()) < 1e-5


# ---------------------------------------------------------------------------
# symbolic cross-derivation: the restricted operators are exactly the stated
# combinations of the unrestricted ones pushed onto the stratum chart

def test_operator_restriction_symbolic():
    spp = pytest.importorskip("sympy")
    R = spp.Rational
    u3, u1, U1, a2, g4, g6 = spp.symbols('u3 u1 U1 a2 g4 g6')
    Z = spp.Function('Z')

    l4 = g4 - R(5, 3) * a2 ** 2
    l6 = g6 - R(4, 3) * a2 * g4 - R(10, 27) * a2 ** 3
    l8 = -2 * a2 * g6 - R(1, 3) * a2 ** 2 * g4 + R(20, 27) * a2 ** 4
    l10 = a2 ** 2 * g6 + R(2, 3) * a2 ** 3 * g4 + R(8, 27) * a2 ** 5

    F = Z(u3, u1 - a2 * u3, a2, g4, g6)

    def l0t(e):
        return (2 * a2 * spp.diff(e, a2) + 4 * g4 * spp.diff(e, g4)
                + 6 * g6 * spp.diff(e, g6))

    def l2t(e):
        return (R(2, 15) * (6 * g4 + 5 * a2 ** 2) * spp.diff(e, a2)
                + R(2, 3) * (9 * g6 - 8 * a2 * g4) * spp.diff(e, g4)
                - R(4, 3) * (g4 ** 2 + 6 * a2 * g6) * spp.diff(e, g6))

    def l4t(e):
        return (R(2, 45) * (27 * g6 + 9 * a2 * g4 - 40 * a2 ** 3) * spp.diff(e, a2)
                - R(4, 3) * a2 * (9 * g6 + a2 * g4) * spp.diff(e, g4)
                - R(2, 3) * a2 * (3 * a2 * g6 - 4 * g4 ** 2) * spp.diff(e, g6))

    def l6t(e):
        return -a2 ** 3 * l0t(e) - a2 ** 2 * l2t(e) - a2 * l4t(e)

    q0 = -u1 * spp.diff(F, u1) - 3 * u3 * spp.diff(F, u3) + 3 * F + l0t(F)
    q2 = (-R(1, 2) * spp.diff(F, u1, 2) + R(4, 5) * l4 * u3 * spp.diff(F, u1)
          - u1 * spp.diff(F, u3) + R(3, 10) * l4 * u1 ** 2 * F
          - R(1, 10) * (15 * l8 - 4 * l4 ** 2) * u3 ** 2 * F + l2t(F))
    q4 = (-spp.diff(F, u1, u3) + R(6, 5) * l6 * u3 * spp.diff(F, u1)
          - l4 * u3 * spp.diff(F, u3) + R(1, 5) * l6 * u1 ** 2 * F
          - l8 * u1 * u3 * F - R(1, 10) * (30 * l10 - 6 * l6 * l4) * u3 ** 2 * F
          + l4 * F + l4t(F))
    q6 = (-R(1, 2) * spp.diff(F, u3, 2) + R(3, 5) * l8 * u3 * spp.diff(F, u1)
          + R(1, 10) * l8 * u1 ** 2 * F - 2 * l10 * u1 * u3 * F
          + R(3, 10) * l8 * l4 * u3 ** 2 * F + R(1, 2) * l6 * F + l6t(F))

    G = Z(u3, U1, a2, g4, g6)
    L0 = 4 * g4 * spp.diff(G, g4) + 6 * g6 * spp.diff(G, g6)
    L2 = 6 * g6 * spp.diff(G, g4) - R(4, 3) * g4 ** 2 * spp.diff(G, g6)
    d2 = g6 + R(5, 3) * a2 * g4 + R(125, 27) * a2 ** 3

    Q0 = (-U1 * spp.diff(G, U1) - 3 * u3 * spp.diff(G, u3)
          + 2 * a2 * spp.diff(G, a2) + L0 + 3 * G)
    Q2 = (-R(1, 2) * spp.diff(G, U1, 2)
          - R(1, 3) * a2 * (U1 + 3 * a2 * u3) * spp.diff(G, U1)
          - (U1 + 5 * a2 * u3) * spp.diff(G, u3)
          + R(2, 15) * (6 * g4 + 25 * a2 ** 2) * spp.diff(G, a2) + L2
          + R(1, 10) * (3 * g4 - 5 * a2 ** 2) * (U1 + 2 * a2 * u3) * U1 * G
          + R(1, 30) * (90 * a2 * g6 + 12 * g4 ** 2 - 16 * a2 ** 2 * g4
                        - 15 * a2 ** 4) * u3 ** 2 * G
          + 4 * a2 * G)
    A = a2 ** 2 * U1 + (g4 + R(7, 3) * a2 ** 2) * a2 * u3
    DG = spp.diff(G, u3) + A * G
    Q6 = spp.diff(DG, u3) + A * DG - d2 * G
    B = 2 * a2 * U1 + (g4 + R(28, 3) * a2 ** 2) * u3
    C = U1 ** 2 + 12 * a2 * U1 * u3 + 3 * (g4 + 7 * a2 ** 2) * u3 ** 2
    Q4 = (spp.diff(DG, U1) + B * DG
          - R(6, 5) * (R(1, 2) * spp.diff(d2, a2) * G + d2 * spp.diff(G, a2))
          - R(1, 5) * C * d2 * G)

    sub = {u1: U1 + a2 * u3}
    checks = {
        "Q0": Q0 - q0.subs(sub),
        "Q2": Q2 - (q2 + R(4, 3) * a2 * q0).subs(sub),
        "Q4": Q4 - (-(q4 + 2 * a2 * q2 + 3 * a2 ** 2 * q0)).subs(sub),
        "Q6": Q6 - (-2 * (q6 + a2 * q4 + a2 ** 2 * q2 + a2 ** 3 * q0)).subs(sub),
    }
    for name, expr in checks.items():
        assert spp.simplify(expr.doit()) == 0, name


_BASE_MODULI = (0.2 + 0.1j, 0.4 - 0.2j, 0.5 + 0.3j)


def _rescaled_context(t):
    a2, g4, g6 = _BASE_MODULI
    return sg.context_lambda1(t ** 2 * a2, (t ** 4 * g4, t ** 6 * g6))


def test_residuals_reach_ring_accuracy(ctx_generic):
    # spectrally accurate Cauchy rings: far below the 1e-5 acceptance gate
    # at the generic, branch-point and weight-rescaled fixture points
    u3, U1 = 0.11 - 0.04j, 0.09 + 0.06j
    bctx = sg.context_lambda1(0.6, (0.5, -1.5))
    for ctx, point in ((ctx_generic, (u3, U1)), (bctx, (0.13, 0.17)),
                       (_rescaled_context(5.0), (u3 / 125.0, U1 / 5.0))):
        assert heat.q_residuals(ctx, *point).max_residual < 1e-9


def test_residuals_scale_covariant():
    u3, U1 = 0.11 - 0.04j, 0.09 + 0.06j
    for t in (5.0, 0.2):
        ctx = _rescaled_context(t)
        rep = heat.q_residuals(ctx, u3 / t ** 3, U1 / t)
        assert rep.max_residual < 1e-5
