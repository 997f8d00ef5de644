from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_h

from sigma2 import elliptic as el
from sigma2 import sigma as sg
from sigma2 import strata as st
from sigma2.errors import BranchPointCase, NotOnStratum, PoleAtArgument
from sigma2.verify import p_route_derivatives


def test_context_from_classification():
    ctx = sg.make_degen_context(st.G2Params(0, 1, 0, 0))
    assert ctx.kind == "lambda1"
    assert abs(ctx.a2) < 1e-10 and abs(ctx.wp_alpha) < 1e-9
    ctx0 = sg.make_degen_context(st.G2Params(-3, 2, 0, 0))
    assert ctx0.kind == "lambda0"
    assert abs(ctx0.sqrt_2a3b ** 2 - (2 * ctx0.a2 + 3 * ctx0.b2)) < 1e-12
    with pytest.raises(NotOnStratum):
        sg.make_degen_context(st.G2Params(-5, 0, 4, 0))


def test_context_invariants(ctx_generic):
    ctx = ctx_generic
    assert abs(ctx.wp_alpha - 5 * ctx.a2 / 3) < 1e-10
    d2 = (ctx.ectx.gamma6 + 5 * ctx.a2 * ctx.ectx.gamma4 / 3
          + (5 * ctx.a2 / 3) ** 3)
    assert abs(ctx.d ** 2 - d2) < 1e-10 * (1 + abs(d2))
    assert abs(ctx.wpp_alpha - 2 * ctx.d) < 1e-12


def test_taylor_leading_parts(ctx_generic):
    t = 1e-4
    lam6 = ctx_generic.lam.lambda6
    assert abs(sg.sigma2(ctx_generic, t, 0.0) / t - 1.0) < 10 * abs(lam6) * t ** 2
    # the cubic term needs a larger sample to rise above bracket cancellation
    t = 1e-2
    assert abs(sg.sigma2(ctx_generic, 0.0, t) / (-t ** 3 / 3) - 1.0) < 1e-3


def test_lambda0_value_is_printed_combination(ctx_two_points):
    ctx = ctx_two_points
    a2, b2 = ctx.a2, ctx.b2
    u3, u1 = 0.1, 0.2
    p = np.sqrt(2 * a2 + 3 * b2)
    q = np.sqrt(3 * a2 + 2 * b2)
    pref = np.exp(0.5 * (3 * a2 * b2 * (a2 + b2) * u3 ** 2
                         + 2 * a2 * b2 * u1 * u3 - (a2 + b2) * u1 ** 2))
    v, w = u1 - a2 * u3, u1 - b2 * u3
    bracket = (np.cosh(p * v) * np.sinh(q * w) / q
               - np.cosh(q * w) * np.sinh(p * v) / p)
    want = pref * bracket / (4 * (a2 - b2))
    assert abs(sg.sigma2(ctx, u3, u1) - want) < 1e-14 * (1 + abs(want))


def test_lambda0_normalization_constant(ctx_two_points):
    # the hyperbolic closed form carries a stratum constant: the u3-linear
    # Taylor coefficient is 1/4, fixed numerically at context creation
    assert abs(ctx_two_points.norm_c - 0.25) < 1e-9
    t = 1e-3
    assert abs(sg.sigma2(ctx_two_points, t, 0.0, normalized=True) / t - 1.0) < 1e-5


def test_lambda0_equal_double_points_removable():
    ctx = sg.context_lambda0(0.5, 0.5)          # quadruple root chart point
    val = sg.sigma2(ctx, 0.1, 0.2)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    # compare with a nearby split pair
    ctx_eps = sg.context_lambda0(0.5, 0.5 + 1e-7)
    assert abs(val - sg.sigma2(ctx_eps, 0.1, 0.2)) < 1e-5 * (1 + abs(val))


def test_entirety_grid(ctx_generic, ctx_two_points):
    scale = ctx_generic.ectx.scale()
    for ctx in (ctx_generic, ctx_two_points):
        for u3 in np.linspace(-1.1 * scale, 1.1 * scale, 50):
            for u1 in np.linspace(-1.1 * scale, 1.1 * scale, 50):
                v = sg.sigma2(ctx, u3, u1)
                assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_sato_weight_homogeneity(ctx_generic):
    t = 2.0
    a2, g = ctx_generic.a2, ctx_generic.gamma
    scaled = sg.context_lambda1(t ** 2 * a2,
                                (t ** 4 * g.gamma4, t ** 6 * g.gamma6))
    for u3, u1 in ((0.13 - 0.05j, 0.21 + 0.08j), (0.4, -0.3j)):
        lhs = sg.sigma2(scaled, u3 / t ** 3, u1 / t)
        rhs = sg.sigma2(ctx_generic, u3, u1) / t ** 3
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def _alpha_flipped(ctx):
    return replace(ctx, alpha=-ctx.alpha, wpp_alpha=-ctx.wpp_alpha,
                   d=-ctx.d, zeta_alpha=-ctx.zeta_alpha,
                   sigma_alpha=-ctx.sigma_alpha)


def test_alpha_sign_invariance(ctx_generic):
    flipped = _alpha_flipped(ctx_generic)
    for u3, u1 in ((0.13 - 0.05j, 0.21 + 0.08j), (-0.2, 0.4j)):
        a = sg.sigma2(ctx_generic, u3, u1)
        b = sg.sigma2(flipped, u3, u1)
        assert abs(a - b) < 1e-10 * (1 + abs(a))
        sa = sg.s_function(ctx_generic, u3, u1)
        sb = sg.s_function(flipped, u3, u1)
        assert abs(sa - sb) < 1e-9 * (1 + abs(sa))


def test_baker_form_agreement(ctx_generic, rng):
    for _ in range(100):
        u3 = complex(rng.normal(), rng.normal()) * 0.3
        u1 = complex(rng.normal(), rng.normal()) * 0.3
        try:
            bf = sg.sigma2_baker_form(ctx_generic, u3, u1)
        except PoleAtArgument:
            continue
        direct = sg.sigma2(ctx_generic, u3, u1)
        assert abs(bf - direct) < 1e-10 * (1 + abs(direct))


def test_baker_form_zero_at_origin(ctx_generic):
    with pytest.raises(PoleAtArgument):
        sg.sigma2_baker_form(ctx_generic, 0.0, 0.0)  # W = 0 is on the divisor
    assert sg.sigma2(ctx_generic, 0.0, 0.0) == 0.0


def test_branch_point_context_and_continuity():
    # gamma = (1, 0): the root 0 is a branch point; a2 = 0 puts 5a2/3 there
    bctx = sg.context_lambda1(0.0, (1.0, 0.0))
    assert bctx.branch_point
    v = sg.sigma2(bctx, 0.2, 0.3)
    assert np.isfinite(v.real)
    # approach along gamma6 -> 0: the generic formula converges to the branch
    # value at the O(wp'^2) rate (the bracket is even under reflection of
    # alpha about the half period)
    diffs = []
    for eps in (1e-3, 1e-5, 1e-7):
        ctx = sg.context_lambda1(0.0, (1.0, eps))
        assert not ctx.branch_point
        diffs.append(abs(sg.sigma2(ctx, 0.2, 0.3) - v))
    assert diffs[0] < 1e-4 and diffs[1] < 1e-6 and diffs[2] < 1e-8


def test_branch_point_formula_is_characteristic_plus_derivative():
    # the wp'(alpha) -> 0 limit of the generic bracket: the sigma-char part
    # times u3 plus the zeroth-order remainder of the odd half
    bctx = sg.context_lambda1(0.0, (1.0, 0.0))
    i = bctx.branch_index
    u3, u1 = 0.2, 0.3
    w = u1 - bctx.shift() * u3
    e_i = bctx.wp_alpha
    g4 = bctx.ectx.gamma4
    eta_i = bctx.zeta_alpha
    wpp2 = 6 * e_i ** 2 + 2 * g4
    pref = np.exp(-0.6 * e_i * ((0.5 * g4 + 0.12 * e_i ** 2) * u3 ** 2
                                + 0.4 * e_i * u1 * u3 + u1 ** 2 / 6))
    schar = el.sigma_char(bctx.ectx, w, i)
    schar_d = (np.exp(-eta_i * w) / bctx.sigma_alpha
               * (el.sigma_w_prime(bctx.ectx, w + bctx.alpha)
                  - eta_i * el.sigma_w(bctx.ectx, w + bctx.alpha)))
    want = pref * (schar * (u3 + 2 * e_i * w / wpp2) + 2 * schar_d / wpp2)
    assert abs(sg.sigma2(bctx, u3, u1) - want) < 1e-12 * (1 + abs(want))


def test_stratum_forms_ratio_constant_towards_shared_boundary():
    # gamma -> (-3 t^2, 2 t^3) sends the one-double-point chart into the
    # closure of the two-double-point one; the two closed forms differ by a
    # u-independent constant along the way
    t = 0.8
    a2 = 0.3
    eps = 1e-7
    ctx1 = sg.context_lambda1(a2, (-3 * t ** 2 + eps, 2 * t ** 3))
    b2 = t - 2 * a2 / 3
    ctx0 = sg.context_lambda0(a2, b2)
    pts = [(0.11, 0.23), (0.31, -0.14), (-0.25, 0.17)]
    ratios = [sg.sigma2(ctx1, u3, u1) / sg.sigma2(ctx0, u3, u1)
              for u3, u1 in pts]
    for r in ratios[1:]:
        assert abs(r - ratios[0]) < 1e-4 * abs(ratios[0])


def test_p_function_basics(ctx_generic):
    assert abs(sg.p_function(ctx_generic, 0.0, 0.0) - 1.0) < 1e-12
    for u3, u1 in ((0.21 - 0.04j, 0.12 + 0.3j), (0.05, -0.4)):
        p = sg.p_function(ctx_generic, u3, u1)
        q = sg.p_function(ctx_generic, -u3, -u1)
        assert abs(p * q - 1.0) < 1e-10


def test_p_function_pole_guard(ctx_generic):
    with pytest.raises(PoleAtArgument):
        sg.p_function_u(ctx_generic, 0.0, ctx_generic.alpha)


def test_s_function_refuses_removable_point(ctx_generic):
    # U1 = -alpha modulo the lattice: P = 0 and wp(U1) = wp(alpha), S is 0/0
    u1 = ctx_generic.ectx.omegaP - ctx_generic.alpha
    with pytest.raises(PoleAtArgument):
        sg.s_function(ctx_generic, 0.05 + 0.02j, u1)
    with pytest.raises(PoleAtArgument):
        sg.s_function(ctx_generic, 0.05 + 0.02j, np.array([0.17 + 0.09j, u1]))


def test_p_function_matches_bracket_ratio(ctx_generic):
    # the generator is the ratio of the two exponential halves of the
    # sigma2 bracket
    ctx = ctx_generic
    ec = ctx.ectx
    u3, U1 = 0.17 - 0.08j, 0.23 + 0.11j
    za, wppa = ctx.zeta_alpha, ctx.wpp_alpha
    term_p = el.sigma_w(ec, ctx.alpha + U1) * np.exp(0.5 * wppa * u3 - za * U1)
    term_m = el.sigma_w(ec, ctx.alpha - U1) * np.exp(-0.5 * wppa * u3 + za * U1)
    assert abs(sg.p_function_u(ctx, u3, U1) - term_p / term_m) < 1e-12 * abs(term_p / term_m)


def test_log_derivatives_match_independent_route(ctx_generic):
    for U3, U1 in ((0.009 + 0.04j, 0.31 - 0.12j), (0.12, 0.27 + 0.2j)):
        der = sg.log_derivatives(ctx_generic, U3, U1)
        oracle = p_route_derivatives(ctx_generic, U3, U1)
        for name in ("P11", "P13", "P111", "P113", "P1111", "P1113"):
            cf = getattr(der, name)
            assert abs(cf - oracle[name]) < 1e-9 * (1 + abs(cf)), name


def test_log_derivatives_match_stencil_differencing(ctx_generic, rng):
    from sigma2.numerics import derivative, mixed_second
    for _ in range(5):
        U3 = complex(rng.normal(), rng.normal()) * 0.1
        U1 = 0.3 + complex(rng.normal(), rng.normal()) * 0.1
        der = sg.log_derivatives(ctx_generic, U3, U1)

        def logz(u3, u1):
            return np.log(sg.sigma2_u(ctx_generic, u3, u1))

        fd11 = -derivative(lambda t: logz(U3, t), U1, 2, 4e-3, 3)
        fd13 = -mixed_second(logz, U3, U1, 2e-3, 2)
        assert abs(fd11 - der.P11) < 1e-5 * (1 + abs(der.P11))
        assert abs(fd13 - der.P13) < 1e-5 * (1 + abs(der.P13))


def test_log_derivatives_rejected_on_branch_point():
    bctx = sg.context_lambda1(0.0, (1.0, 0.0))
    with pytest.raises(BranchPointCase):
        sg.log_derivatives(bctx, 0.1, 0.2)


def test_normalized_flag_scales_value(ctx_two_points):
    u3, u1 = 0.07, -0.12
    raw = sg.sigma2(ctx_two_points, u3, u1)
    nrm = sg.sigma2(ctx_two_points, u3, u1, normalized=True)
    assert abs(raw / nrm - ctx_two_points.norm_c) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st_h.floats(-0.4, 0.4), st_h.floats(-0.4, 0.4))
def test_property_sigma2_finite(x, y):
    v = sg.sigma2(_PROP_CTX, complex(x, y / 2), complex(y, x / 3))
    assert np.isfinite(v.real) and np.isfinite(v.imag)


_PROP_CTX = sg.context_lambda1(0.15 - 0.2j, (0.5 + 0.1j, -0.3 + 0.45j))


_BRANCH_CTX = sg.context_lambda1(0.0, (1.0, 0.0))
_NEAR_L0_CTX = sg.context_lambda0(0.7 - 0.2j, 0.7 - 0.2j + 1e-7)
_coord = st_h.complex_numbers(max_magnitude=2.0, allow_nan=False)


@settings(max_examples=15, deadline=None)
@given(st_h.lists(st_h.tuples(_coord, _coord), min_size=1, max_size=12),
       st_h.booleans())
def test_sigma2_array_matches_scalar(ctx_generic, ctx_two_points, pts, normalized):
    """sigma2 on ndarrays gives the scalar values, relative to max(|value|, 1).

    The a2 ~ b2 ring average divides each of its values by |a2 - b| ~ 1e-2
    (1 + |a2| + |b2|), which scales rounding up by ~100, hence 1e-12 there.
    """
    u3, u1 = (np.array(c) for c in zip(*pts))
    for ctx, tol in ((ctx_generic, 1e-14), (_BRANCH_CTX, 1e-14),
                     (ctx_two_points, 1e-14), (_NEAR_L0_CTX, 1e-12)):
        got = sg.sigma2(ctx, u3, u1, normalized=normalized)
        want = np.array([sg.sigma2(ctx, a, b, normalized=normalized)
                         for a, b in zip(u3, u1)])
        assert got.shape == u3.shape
        assert np.all(np.abs(got - want) <= tol * np.maximum(np.abs(want), 1.0))
