"""Evaluation counts on the inversion path: each Weierstrass value is
computed once per call, and the Abel integrals once per Bloch residual."""

from collections import Counter

import numpy as np
import pytest

from sigma2 import elliptic as el
from sigma2 import inversion as inv
from sigma2 import lattice as lt
from sigma2 import sigma as sg
from sigma2 import spectral as sp


@pytest.fixture()
def kernel_calls(monkeypatch):
    """(kernel, reduced argument) of every wp / wp' evaluation, in order."""
    calls = []
    for name in ("_wp", "_wp_prime"):
        def counted(ctx, u0, m, n, xp, _kernel=getattr(el, name), _name=name[1:]):
            calls.append((_name, u0))
            return _kernel(ctx, u0, m, n, xp)
        monkeypatch.setattr(el, name, counted)
    return calls


def _at(calls, ec, u):
    """Kernel counts among the calls whose argument is u modulo the lattice."""
    u0 = el._reduce(ec, complex(u))[0]
    return Counter(name for name, v in calls
                   if not isinstance(v, np.ndarray) and v == u0)


@pytest.mark.parametrize("fn", [
    lambda ctx, u1, u3: inv.solve_inversion(ctx, u1, u3),
    lambda ctx, u1, u3: sg.log_derivatives(ctx, u3, u1),
], ids=["solve_inversion", "log_derivatives"])
def test_wp_and_wp_prime_once_at_u1(ctx_generic, kernel_calls, fn):
    u1, u3 = 0.31 - 0.12j, 0.009 + 0.04j
    fn(ctx_generic, u1, u3)
    assert _at(kernel_calls, ctx_generic.ectx, u1) == {"wp": 1, "wp_prime": 1}


def test_potential_array_evaluates_wp_once(ctx_gap, kernel_calls):
    om = sp.real_rectangle_periods(ctx_gap.ectx)[0]
    kernel_calls.clear()
    sp.potential_u(ctx_gap, 0.1j, om * np.linspace(0.1, 0.9, 9))
    assert Counter(name for name, _ in kernel_calls) == {"wp": 1, "wp_prime": 1}


def test_invert_wp_stops_evaluating_wp_at_convergence(ec_generic, kernel_calls):
    # Newton alternates wp and wp'; the converged iterate's wp is the last
    # wp call, followed only by the one wp' that picks the branch
    el.invert_wp(ec_generic, 0.3 + 0.1j)
    names = [name for name, _ in kernel_calls]
    assert len(names) >= 2
    assert names == ["wp", "wp_prime"] * (len(names) // 2)


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
