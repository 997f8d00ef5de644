"""The theta1 kernel: accuracy against mpmath at 30 digits, and its cost of
one sine per point, plus one cosine when derivatives are asked for."""

import cmath
import dataclasses
from collections import Counter

import mpmath
import numpy as np
import pytest

from sigma2 import elliptic as el

CURVES = {
    "hexagonal": (0, 1),
    "square": (-1, 0),
    "generic": (0.4 - 0.2j, 0.5 + 0.3j),
    "rectangular": (-0.6197928127351504, 0.034997528884858686),
    "near_degenerate": (-3.0, 2.0 + 1e-6),
}
_GRID = (-0.5, -0.31, -0.12, 0.07, 0.26, 0.45, 0.5)


def _cell_points(ctx):
    """Fixed points of the reduced cell, its edges included."""
    return [x * ctx.omega + y * ctx.omegaP for x in _GRID for y in _GRID]


def _term_scale(ctx, v, k):
    """sum_n |c_n| |f(m v)| m^k, f = sin for even k and cos for odd k: the
    size of the terms the k-th derivative sums."""
    f = cmath.sin if k % 2 == 0 else cmath.cos
    return sum(abs(2 * ctx.nome ** ((n + 0.5) ** 2)) * abs(f((2 * n + 1) * v))
               * (2 * n + 1) ** k for n in range(12))


@pytest.mark.parametrize("gamma", CURVES.values(), ids=CURVES.keys())
def test_theta_matches_mpmath_on_the_cell(gamma):
    # the error relative to the term scale; the term-by-term sin/cos series
    # that the recurrence replaced reached 1.3e-15 (scalar) and 1.4e-15
    # (array) at these points, and the bound is under twice that
    ctx = el.make_context(gamma)
    pts = _cell_points(ctx)
    arr = el._theta(ctx, np.array(pts), np)
    q = mpmath.mpc(ctx.nome)
    worst = 0.0
    for i, u in enumerate(pts):
        scalar = el._theta(ctx, complex(u), cmath)
        v = cmath.pi * u / ctx.omega
        for k in range(4):
            with mpmath.workdps(30):
                vm = mpmath.pi * mpmath.mpc(u) / mpmath.mpc(ctx.omega)
                ref = complex(mpmath.jtheta(1, vm, q, k))
            scale = _term_scale(ctx, v, k)
            worst = max(worst, abs(scalar[k] - ref) / scale, abs(arr[k][i] - ref) / scale)
    assert worst <= 2.5e-15


@pytest.mark.parametrize("gamma", CURVES.values(), ids=CURVES.keys())
def test_theta_keeps_relative_accuracy_near_zero(gamma):
    ctx = el.make_context(gamma)
    q = mpmath.mpc(ctx.nome)
    worst = 0.0
    for e in range(-12, -1):
        for d in (1, 1j, (0.6 + 0.8j), (-0.8 + 0.6j)):
            u = 10.0 ** e * d * ctx.omega / cmath.pi
            for t in (el._theta(ctx, u, cmath, derivs=False),
                      el._theta(ctx, np.array([u]), np, derivs=False)[0]):
                with mpmath.workdps(30):
                    v = mpmath.pi * mpmath.mpc(u) / mpmath.mpc(ctx.omega)
                    rel = mpmath.mpc(t) / mpmath.jtheta(1, v, q) - 1
                worst = max(worst, abs(complex(rel)))
    assert worst <= 1e-15


class _Counting:
    """An xp module whose every function call is counted by name."""

    def __init__(self, xp):
        self.xp, self.calls = xp, Counter()

    def __getattr__(self, name):
        fn = getattr(self.xp, name)

        def counted(*args):
            self.calls[name] += 1
            return fn(*args)
        return counted


@pytest.mark.parametrize("derivs", [False, True])
def test_theta_costs_one_sine_and_one_cosine(derivs):
    # at every term count: one sin, and one cos only with derivatives; the
    # truncated table's sums equal its terms summed one by one
    ctx = el.make_context(CURVES["hexagonal"])
    u = 0.23 * ctx.omega + 0.17 * ctx.omegaP
    grid = np.array([u, -0.4 * ctx.omega + 0.3 * ctx.omegaP])
    for terms in range(1, len(ctx._theta) + 1):
        cut = dataclasses.replace(ctx, _theta=ctx._theta[-terms:])
        rows = cut._theta[::-1]                 # term n = 0 first
        for arg, xp in ((u, cmath), (grid, np)):
            counting = _Counting(xp)
            got = el._theta(cut, arg, counting, derivs)
            assert counting.calls == Counter({"sin": 1, "cos": 1} if derivs else {"sin": 1})
            v = np.pi * arg / ctx.omega
            funcs = (np.sin, np.cos, np.sin, np.cos)[:4 if derivs else 1]
            want = [sum(row[k] * f((2 * n + 1) * v) for n, row in enumerate(rows))
                    for k, f in enumerate(funcs)]
            got = got if derivs else (got,)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-15 * (1 + np.max(np.abs(w)))
