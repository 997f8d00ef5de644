"""Evaluation counts: one (zeta, wp, wp') kernel evaluation per point on the
inversion path; one Newton run in invert_wp with one theta pass per step
(wp and wp' at an iterate share it), whose converged values are returned
without a further pass when the converged iterate needs no lattice shift;
no sigma evaluation of potential_u's own; one closed-form evaluation for
all nodes of a removable-point ring; and the Abel integrals once per Bloch
residual."""

import numpy as np
import pytest

from sigma2 import elliptic as el
from sigma2 import inversion as inv
from sigma2 import lattice as lt
from sigma2 import sigma as sg
from sigma2 import spectral as sp
from sigma2.errors import NumericalFailure


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Reduced argument of every (zeta, wp, wp') kernel evaluation, in order."""
    calls = []
    kernel = el._weierstrass

    def counted(ctx, u0, m, n, xp):
        calls.append(u0)
        return kernel(ctx, u0, m, n, xp)

    monkeypatch.setattr(el, "_weierstrass", counted)
    return calls


def _at(calls, ec, u):
    """Number of kernel evaluations whose argument is u modulo the lattice."""
    u0 = el._reduce(ec, complex(u))[0]
    return sum(1 for v in calls if not isinstance(v, np.ndarray) and v == u0)


@pytest.fixture()
def public_calls(monkeypatch):
    """Names of the public wp / wp' / weierstrass calls, in order."""
    calls = []
    for name in ("wp", "wp_prime", "weierstrass"):
        def counted(ctx, u, _fn=getattr(el, name), _name=name):
            calls.append(_name)
            return _fn(ctx, u)
        monkeypatch.setattr(el, name, counted)
    return calls


@pytest.mark.parametrize("fn", [
    lambda ctx, u1, u3: inv.solve_inversion(ctx, u1, u3),
    lambda ctx, u1, u3: sg.log_derivatives(ctx, u3, u1),
    lambda ctx, u1, u3: lt.reconstruct_lambda(ctx, u1, u3),
], ids=["solve_inversion", "log_derivatives", "reconstruct_lambda"])
def test_wp_and_wp_prime_once_at_u1(ctx_generic, kernel_calls, fn):
    u1, u3 = 0.31 - 0.12j, 0.009 + 0.04j
    fn(ctx_generic, u1, u3)
    assert _at(kernel_calls, ctx_generic.ectx, u1) == 1


def test_solve_inversion_evaluates_each_point_once_past_newton(ctx_generic, kernel_calls):
    # U1 once, then per xi one Newton step, converged in the cell, whose
    # values are returned; xi2 keeps the principal branch, xi1 flips to it
    # inside invert_wp by symmetry, with no evaluation at the flipped point
    res = inv.solve_inversion(ctx_generic, 0.31 - 0.12j, 0.009 + 0.04j)
    assert len(kernel_calls) == 3
    assert _at(kernel_calls, ctx_generic.ectx, res.xi2) == 1
    assert _at(kernel_calls, ctx_generic.ectx, res.xi1) == 0


def test_potential_array_evaluates_wp_once(ctx_gap, kernel_calls):
    om = sp.real_rectangle_periods(ctx_gap.ectx)[0]
    kernel_calls.clear()
    sp.potential_u(ctx_gap, 0.1j, om * np.linspace(0.1, 0.9, 9))
    assert len(kernel_calls) == 1 and isinstance(kernel_calls[0], np.ndarray)


def test_potential_array_evaluates_sigma_only_in_the_generator(ctx_gap, monkeypatch):
    # sigma(alpha - U1) and sigma(alpha + U1) for P; the divisor mask
    # measures distance to the lattice instead
    om = sp.real_rectangle_periods(ctx_gap.ectx)[0]
    calls = []

    def counted(ctx, u):
        calls.append(u)
        return sigma_w(ctx, u)

    sigma_w = el.sigma_w
    monkeypatch.setattr(el, "sigma_w", counted)
    sp.potential_u(ctx_gap, 0.1j, om * np.linspace(0.1, 0.9, 9))
    assert len(calls) == 2


@pytest.mark.parametrize("u3, u1", [
    (0.1 + 0.05j, -0.2 + 0.1j),
    (np.linspace(-0.5, 0.5, 7), np.linspace(0.4, -0.3, 7)),
], ids=["scalar", "array"])
def test_near_diagonal_sigma2_evaluates_the_closed_form_once(monkeypatch, u3, u1):
    # a2 ~ b2: every node of the ring in b2 goes through one array call
    calls = []

    def counted(*args):
        calls.append(args)
        return direct(*args)

    direct = sg._sigma2_raw_l0_direct
    monkeypatch.setattr(sg, "_sigma2_raw_l0_direct", counted)
    sg.sigma2(sg.context_lambda0(0.3 + 0.2j, 0.3000001 + 0.2j), u3, u1)
    assert len(calls) == 1


def test_on_pole_potential_evaluates_s_once(ctx_generic, monkeypatch):
    # U1 = alpha: the 16 ring nodes go through one _s_point call
    calls = []

    def counted(*args):
        calls.append(args)
        return s_point(*args)

    s_point = sg._s_point
    monkeypatch.setattr(sg, "_s_point", counted)
    sp.potential_u(ctx_generic, 0.05 + 0.02j, ctx_generic.alpha)
    assert len(calls) == 1


def test_context_lambda1_one_kernel_evaluation_at_alpha(kernel_calls):
    # alpha is evaluated once, by Newton's converged step inside invert_wp,
    # and the context keeps those values instead of evaluating again
    ctx = sg.context_lambda1(0.2 + 0.1j, (0.4 - 0.2j, 0.5 + 0.3j))
    assert _at(kernel_calls, ctx.ectx, ctx.alpha) == 1


def test_context_lambda1_generic_one_kernel_evaluation_at_alpha(ctx_generic, kernel_calls):
    ctx = sg.context_lambda1(ctx_generic.a2, ctx_generic.gamma)
    assert _at(kernel_calls, ctx.ectx, ctx.alpha) == 1


def test_abel_integrals_one_kernel_evaluation_at_xi(ctx_generic, kernel_calls):
    xi = 0.21 + 0.04j
    lt.abel_integrals(ctx_generic, xi)
    assert _at(kernel_calls, ctx_generic.ectx, xi) == 1


def test_invert_wp_stops_evaluating_wp_at_convergence(ec_generic, public_calls, kernel_calls):
    # the converged iterate's wp is the last wp call, and its theta pass
    # serves the weierstrass call that picks the branch and is returned (the
    # iterate lies in the cell; this point keeps the principal branch)
    alpha, vals = el.invert_wp(ec_generic, 0.3 + 0.1j)
    assert public_calls == ["wp", "weierstrass"]
    assert kernel_calls == [alpha]
    assert vals == el.weierstrass(ec_generic, complex(alpha.real, alpha.imag))


def test_invert_wp_one_theta_pass_per_newton_step(public_calls, kernel_calls, monkeypatch):
    # Carlson's start, moved 1e-9 off the preimage, is one step off here: wp
    # and wp' at each iterate share one theta pass; the converged iterate
    # needs a lattice shift, so the reduced point takes one more
    carlson_rf = el._carlson_rf
    monkeypatch.setattr(el, "_carlson_rf", lambda *args: carlson_rf(*args) + 1e-9)
    ec = el.make_context((1, 1))
    public_calls.clear()
    kernel_calls.clear()
    alpha, _ = el.invert_wp(ec, -2.0)
    assert public_calls == ["wp", "wp_prime", "wp", "weierstrass"]
    assert len(kernel_calls) == 3 and kernel_calls[-1] == alpha


def test_same_argument_object_shares_one_theta_pass(ec_generic, kernel_calls):
    # zeta, wp, wp' and the triple at one complex object come from one pass;
    # another kernel in between, another context, or an equal but new object
    # is evaluated afresh
    u = 0.31 - 0.12j
    vals = el.weierstrass(ec_generic, u)
    assert (el.zeta_w(ec_generic, u), el.wp(ec_generic, u),
            el.wp_prime(ec_generic, u)) == vals
    assert len(kernel_calls) == 1
    assert el.sigma_w(ec_generic, u) == el.sigma_w(ec_generic, complex(u.real, u.imag))
    assert el.weierstrass(ec_generic, u) == vals
    assert el.wp(el.make_context((1, 1)), u) != vals[1]
    assert el.weierstrass(ec_generic, complex(u.real, u.imag)) == vals
    assert len(kernel_calls) == 4


def test_a_refused_evaluation_is_not_kept(ec_generic):
    u = complex(1e5, 0)
    for _ in range(2):
        with pytest.raises(NumericalFailure):
            el.sigma_w(ec_generic, u)


def test_invert_wp_makes_one_newton_run(ec_generic, monkeypatch):
    # wp held off the target: Newton takes small steps and never converges
    x = 0.3 + 0.1j
    calls = []
    kernel = el._weierstrass

    def stuck(ctx, u0, m, n, xp):
        calls.append(u0)
        zeta, _, pp = kernel(ctx, u0, m, n, xp)
        return zeta, x + 1e-6, pp

    monkeypatch.setattr(el, "_weierstrass", stuck)
    with pytest.raises(NumericalFailure):
        el.invert_wp(ec_generic, x)
    assert len(calls) == 60


def test_bloch_residual_evaluates_abel_integrals_once(ctx_generic, monkeypatch):
    L = lt.period_matrices(ctx_generic)
    calls = []

    def counted(ctx, xi):
        calls.append(xi)
        return abel(ctx, xi)

    abel = lt.abel_integrals
    monkeypatch.setattr(lt, "abel_integrals", counted)
    res = sp.bloch_residual(ctx_generic, 0.27 + 0.13j, (0.05 + 0.02j, 0.1 - 0.03j), 2, L)
    assert res < 1e-6
    assert len(calls) == 1


@pytest.fixture()
def sigma_calls(monkeypatch):
    """Argument shapes of every public sigma_w call, in order."""
    shapes = []

    def counted(ctx, u, _fn=el.sigma_w):
        shapes.append(np.shape(u))
        return _fn(ctx, u)

    monkeypatch.setattr(el, "sigma_w", counted)
    return shapes


def test_forward_integrals_one_sigma_call_at_16_steps(ctx_generic, sigma_calls):
    # sigma(alpha -+ t xi) for xi1 and xi2 together, each path resolved at 16 steps
    inv.forward_integrals(ctx_generic, 0.3 + 0.1j, -0.25 + 0.2j)
    assert sigma_calls == [(4, 17)]


def test_period_increment_one_sigma_call_per_pass(ctx_generic, sigma_calls):
    lt.period_increment(ctx_generic, 0.21 + 0.04j, 1, 0)
    assert sigma_calls == [(34,)]


def test_q_residuals_builds_eight_elliptic_contexts(ctx_generic, monkeypatch):
    # the 4-node rings in gamma4 and gamma6 build one each; the a2 ring
    # keeps the curve, and with it the context's ectx
    from sigma2 import heat
    built = []

    def counted(params, _fn=el.make_context):
        built.append(params)
        return _fn(params)

    monkeypatch.setattr(el, "make_context", counted)
    heat.q_residuals(ctx_generic, 0.1 + 0.05j, -0.2 + 0.1j)
    assert len(built) == 8


def test_bloch_row_evaluates_abel_integrals_once(ctx_generic, monkeypatch):
    # the verify row's three residuals share the Abel integrals, the momenta
    # and sigma2 at u and at I - u, and equal bloch_residual's to the bit
    L = lt.period_matrices(ctx_generic)
    xi0, u = 0.27 + 0.13j, (0.05 + 0.02j, 0.1 - 0.03j)
    want = [sp.bloch_residual(ctx_generic, xi0, u, k, L) for k in (1, 2, 3)]
    calls, sigma2 = [], []

    def counted(ctx, xi):
        calls.append(xi)
        return abel(ctx, xi)

    def counted_sigma2(ctx, u3, u1, _fn=sg.sigma2):
        sigma2.append((u3, u1))
        return _fn(ctx, u3, u1)

    abel = lt.abel_integrals
    monkeypatch.setattr(lt, "abel_integrals", counted)
    monkeypatch.setattr(sg, "sigma2", counted_sigma2)
    assert sp._bloch_residuals(ctx_generic, xi0, u, (1, 2, 3), L) == want
    assert len(calls) == 1 and len(sigma2) == 2 + 2 * 3
