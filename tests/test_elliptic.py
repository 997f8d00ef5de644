import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sigma2 import elliptic as el
from sigma2.errors import DegenerateCurve, NumericalFailure, PoleAtArgument
from sigma2.numerics import derivative, quadrature_path


def _sorted(zs):
    return sorted(zs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_roots_match_cubic_gamma_01():
    ctx = el.make_context((0.0, 1.0))
    # 4t^3 - g2 t - g3 with (g2, g3) = (0, -4): t^3 = -1
    want = _sorted([-1.0 + 0j, 0.5 + np.sqrt(3) / 2 * 1j, 0.5 - np.sqrt(3) / 2 * 1j])
    got = _sorted(ctx.roots)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_roots_match_cubic_gamma_10():
    ctx = el.make_context((1.0, 0.0))
    want = _sorted([0.0 + 0j, 1j, -1j])
    got = _sorted(ctx.roots)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
    # the root 0 is a branch point: wp' vanishes at its half-period preimage
    alpha = el.invert_wp(ctx, 0.0)
    assert abs(el.wp_prime(ctx, alpha)) < 1e-10


@pytest.mark.parametrize("a", [1.0, 0.5 - 0.3j])
def test_degenerate_curve_rejected(a):
    with pytest.raises(DegenerateCurve):
        el.make_context((-3 * a ** 2, 2 * a ** 3))


def test_context_invariants(ec_generic):
    ctx = ec_generic
    assert ctx.g2 == -4 * ctx.gamma4 and ctx.g3 == -4 * ctx.gamma6
    assert (ctx.omegaP / ctx.omega).imag > 0
    assert abs(ctx.eta * ctx.omegaP - ctx.etaP * ctx.omega - 2j * np.pi) < 1e-10
    for e, hp in zip(ctx.roots, ctx.half_periods):
        assert abs(el.wp(ctx, hp) - e) < 1e-9


def test_differential_equation_residual(ec_generic, rng):
    ctx = ec_generic
    for _ in range(100):
        u = (rng.uniform(-0.45, 0.45) * ctx.omega
             + rng.uniform(-0.45, 0.45) * ctx.omegaP)
        if abs(u) < 1e-3:
            continue
        p, pp = el.wp(ctx, u), el.wp_prime(ctx, u)
        res = pp ** 2 - (4 * p ** 3 + 4 * ctx.gamma4 * p + 4 * ctx.gamma6)
        assert abs(res) < 1e-10 * (1 + abs(p)) ** 3


def test_wp_laurent_series():
    ctx = el.make_context((0.0, 1.0))
    u = 0.1
    series = 1 / u ** 2 + (ctx.g3 / 28) * u ** 4
    assert abs(el.wp(ctx, u) - series) < 1e-8


def test_sigma_zeta_wp_consistency(ec_generic):
    ctx = ec_generic
    u = 0.31 * ctx.omega + 0.13 * ctx.omegaP
    zfd = derivative(lambda t: el.sigma_w(ctx, t), u, 1, 1e-4, 3) / el.sigma_w(ctx, u)
    assert abs(zfd - el.zeta_w(ctx, u)) < 1e-9 * (1 + abs(zfd))
    pfd = -derivative(lambda t: el.zeta_w(ctx, t), u, 1, 1e-4, 3)
    assert abs(pfd - el.wp(ctx, u)) < 1e-8 * (1 + abs(pfd))


def test_sigma_quasi_periodicity(ec_generic):
    ctx = ec_generic
    u = 0.17 * ctx.omega - 0.23 * ctx.omegaP
    lhs = el.sigma_w(ctx, u + ctx.omega)
    rhs = -el.sigma_w(ctx, u) * np.exp(ctx.eta * (u + ctx.omega / 2))
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.45, 0.45), st.floats(-0.45, 0.45))
def test_sigma_odd(x, y):
    ctx = _ODD_CTX
    u = x * ctx.omega + y * ctx.omegaP
    assert abs(el.sigma_w(ctx, -u) + el.sigma_w(ctx, u)) < 1e-12 * (1 + abs(el.sigma_w(ctx, u)))


_ODD_CTX = el.make_context((0.3 + 0.4j, -0.2 + 0.6j))


def test_pole_guard(ec_generic):
    with pytest.raises(PoleAtArgument):
        el.wp(ec_generic, 1e-12)
    with pytest.raises(PoleAtArgument):
        el.zeta_w(ec_generic, ec_generic.omega + 1e-13)
    # sigma is entire: no guard
    assert el.sigma_w(ec_generic, 0.0) == 0.0
    # the guard applies elementwise to arrays
    with pytest.raises(PoleAtArgument):
        el.wp(ec_generic, np.array([0.3 + 0.1j, ec_generic.omega]))


@pytest.mark.parametrize("periods", [20, 30])
def test_far_argument_raises_instead_of_nan(ec_generic, periods):
    # the quasi-periodicity factor leaves the double range out there
    u = 0.3 + 0.1j + periods * ec_generic.omegaP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (el.sigma_w, el.sigma_w_prime):
            for arg in (u, np.array([0.2, u])):
                with pytest.raises(NumericalFailure):
                    f(ec_generic, arg)


@pytest.mark.parametrize("which", ["omega", "omegaP", "sum"])
def test_wp_periodicity_drift_is_linear(ec_generic, which):
    # the float reduction of z + n p loses about one ulp of n p, so the
    # relative drift grows at most linearly in the number of periods
    ec = ec_generic
    p = {"omega": ec.omega, "omegaP": ec.omegaP, "sum": ec.omega + ec.omegaP}[which]
    z = 0.3 + 0.1j
    w0 = el.wp(ec, z)
    for n in (10 ** k for k in range(7)):
        assert abs(el.wp(ec, z + n * p) - w0) <= 5e-14 * n * abs(w0)


# generic, hexagonal (largest nome of a reduced basis) and square lattices
_ARRAY_CTX = [el.make_context(g) for g in
              ((0.4 - 0.2j, 0.5 + 0.3j), (0.0, 1.0), (-1.0, 0.0))]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(range(len(_ARRAY_CTX))),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=16))
def test_array_matches_scalar(k, xy):
    """One broadcast over an ndarray gives the scalar (cmath) values to 1e-14.

    Errors are relative to the value, floored at 1.  sigma' = fac * (sigma0' +
    eta_l sigma0) cancels near its zeros, so it is also measured against the
    term eta_l sigma(u) of the shift u0 -> u0 + l.
    """
    ec = _ARRAY_CTX[k]
    u = np.array([x * ec.omega + y * ec.omegaP for x, y in xy])
    u = u[np.abs(el._reduce(ec, u)[0]) > 1e-3 * ec.scale()]
    assume(u.size)
    _, m, n = el._reduce(ec, u)
    eta_l = np.abs(m * ec.eta + n * ec.etaP)
    for f in (el.sigma_w, el.sigma_w_prime, el.zeta_w, el.wp, el.wp_prime):
        got = f(ec, u)
        want = np.array([f(ec, z) for z in u])
        scale = np.maximum(np.abs(want), 1.0)
        if f is el.sigma_w_prime:
            scale = np.maximum(scale, eta_l * np.abs(el.sigma_w(ec, u)))
        assert got.shape == u.shape
        assert np.all(np.abs(got - want) <= 1e-14 * scale), f.__name__


def test_invert_wp_half_period(ec_generic):
    ctx = ec_generic
    assert abs(el.invert_wp(ctx, ctx.roots[0]) - ctx.omega / 2) < 1e-12


def test_invert_wp_round_trip(ec_generic, rng):
    ctx = ec_generic
    for _ in range(50):
        x = complex(rng.normal(), rng.normal()) * 2.0
        alpha = el.invert_wp(ctx, x)
        assert abs(el.wp(ctx, alpha) - x) < 1e-10 * (1 + abs(x))
        target = -2 * el.curve_y(ctx, x)
        assert abs(el.wp_prime(ctx, alpha) - target) < 1e-8 * (1 + abs(target))


def test_invert_wp_sign_flag(ec_generic):
    x = 1.3 - 0.7j
    a_plus = el.invert_wp(ec_generic, x, sign=+1)
    a_minus = el.invert_wp(ec_generic, x, sign=-1)
    assert abs(el.wp_prime(ec_generic, a_plus) + el.wp_prime(ec_generic, a_minus)) < 1e-8


def test_sigma_char_basics(ec_generic):
    ctx = ec_generic
    for i in (1, 2, 3):
        assert abs(el.sigma_char(ctx, 0.0, i) - 1.0) < 1e-12
        u = 0.19 - 0.23j
        even_gap = el.sigma_char(ctx, u, i) - el.sigma_char(ctx, -u, i)
        assert abs(even_gap) < 1e-10 * (1 + abs(el.sigma_char(ctx, u, i)))


def test_sigma_char_composition():
    ctx = el.make_context((1.0, 0.0))
    # index of the real half period
    i = 1 + int(np.argmin([abs(h.imag) for h in ctx.half_periods]))
    wi = ctx.half_periods[i - 1]
    etai = el.zeta_w(ctx, wi)
    u = 0.3
    want = np.exp(-u * etai) * el.sigma_w(ctx, u + wi) / el.sigma_w(ctx, wi)
    assert abs(el.sigma_char(ctx, u, i) - want) < 1e-12


def test_trig_limit_normalization():
    assert el.sigma_trig_limit(1.3, 0.0) == 0.0
    u = 1e-5
    assert abs(el.sigma_trig_limit(0.8, u) / u - 1.0) < 1e-9


def test_trig_limit_against_near_degenerate_context():
    a = 1.0
    eps = 1e-6
    ctx = el.make_context((-3 * a ** 2 + eps, 2 * a ** 3))
    for u in (0.3, 0.71 - 0.2j, -0.5 + 0.4j):
        got = el.sigma_w(ctx, u)
        want = el.sigma_trig_limit(a, u)
        assert abs(got - want) < 1e-4 * (1 + abs(want))


def test_zeta_residue_loop(ec_generic):
    ctx = ec_generic
    r = 0.25 * min(abs(ctx.omega), abs(ctx.omegaP))
    loop = [r, r * 1j, -r, -r * 1j, r]
    val = quadrature_path(lambda u: el.zeta_w(ctx, u), loop)
    assert abs(val - 2j * np.pi) < 1e-9


def test_partial_fraction_identity_sign(ec_generic):
    # wp'(a)/(wp(a) - wp(x)) = zeta(a+x) + zeta(a-x) - 2 zeta(a): the sign is
    # pinned here because downstream Abel-integral exponents depend on it
    ctx = ec_generic
    a = 0.21 * ctx.omega + 0.31 * ctx.omegaP
    x = 0.11 * ctx.omega - 0.07 * ctx.omegaP
    lhs = el.wp_prime(ctx, a) / (el.wp(ctx, a) - el.wp(ctx, x))
    rhs = el.zeta_w(ctx, a + x) + el.zeta_w(ctx, a - x) - 2 * el.zeta_w(ctx, a)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_third_kind_quadrature_matches_closed_form(ec_generic):
    ctx = ec_generic
    alpha = 0.21 * ctx.omega + 0.31 * ctx.omegaP
    a_val = el.wp(ctx, alpha)
    xi = 0.3 - 0.22j
    quad = quadrature_path(lambda v: 1.0 / (el.wp(ctx, v) - a_val),
                           [1e-300j, xi])
    closed = ((2 * el.zeta_w(ctx, alpha) * xi
               + el.sigma_ratio_log(ctx, alpha, xi))
              / el.wp_prime(ctx, alpha))
    assert abs(quad - closed) < 1e-10 * (1 + abs(closed))


def test_context_determinism():
    a = el.make_context((0.4 - 0.2j, 0.5 + 0.3j))
    b = el.make_context((0.4 - 0.2j, 0.5 + 0.3j))
    assert a.omega == b.omega and a.omegaP == b.omegaP and a.eta == b.eta
