"""Evaluation counts: one (zeta, wp, wp') kernel evaluation per point on the
inversion path, one Newton run in invert_wp whose converged point is
evaluated once, no sigma evaluation of potential_u's own, and the Abel
integrals once per Bloch residual."""

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
    # U1 once, then per xi Newton's converged wp and the branch's values;
    # xi2 keeps the principal branch, xi1 flips to it inside invert_wp by
    # symmetry, with no evaluation at the flipped point
    res = inv.solve_inversion(ctx_generic, 0.31 - 0.12j, 0.009 + 0.04j)
    assert len(kernel_calls) == 5
    assert _at(kernel_calls, ctx_generic.ectx, res.xi2) == 2
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


def test_context_lambda1_one_kernel_evaluation_at_alpha(kernel_calls, monkeypatch):
    # past Newton's wp calls, alpha is evaluated once, inside invert_wp, and
    # the context keeps those values instead of evaluating again
    newton_wp = el.wp

    def wp(ctx, u):
        val = newton_wp(ctx, u)
        kernel_calls.clear()
        return val

    monkeypatch.setattr(el, "wp", wp)
    ctx = sg.context_lambda1(0.2 + 0.1j, (0.4 - 0.2j, 0.5 + 0.3j))
    assert _at(kernel_calls, ctx.ectx, ctx.alpha) == 1


def test_context_lambda1_two_kernel_evaluations_at_alpha(ctx_generic, kernel_calls):
    ctx = sg.context_lambda1(ctx_generic.a2, ctx_generic.gamma)
    assert _at(kernel_calls, ctx.ectx, ctx.alpha) == 2


def test_abel_integrals_one_kernel_evaluation_at_xi(ctx_generic, kernel_calls):
    xi = 0.21 + 0.04j
    lt.abel_integrals(ctx_generic, xi)
    assert _at(kernel_calls, ctx_generic.ectx, xi) == 1


def test_invert_wp_stops_evaluating_wp_at_convergence(ec_generic, public_calls):
    # Newton alternates wp and wp'; the converged iterate's wp is the last
    # wp call, followed only by the one evaluation that picks the branch and
    # is returned (this point keeps the principal branch without a flip)
    el.invert_wp(ec_generic, 0.3 + 0.1j)
    steps = (len(public_calls) - 2) // 2
    assert public_calls == ["wp", "wp_prime"] * steps + ["wp", "weierstrass"]


def test_invert_wp_makes_one_newton_run(ec_generic, monkeypatch):
    # wp held off the target: Newton takes small steps and never converges
    x = 0.3 + 0.1j
    calls = []

    def stuck(ctx, u):
        calls.append(u)
        return x + 1e-6

    monkeypatch.setattr(el, "wp", stuck)
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
