import numpy as np
import pytest

from sigma2 import elliptic as el
from sigma2 import lattice as lt
from sigma2 import sigma as sg
from sigma2.errors import SingularConfiguration

from oracles import quadrature_path


@pytest.fixture(scope="module")
def lat(ctx_generic):
    return lt.period_matrices(ctx_generic)


def test_abel_integrals_at_origin(ctx_generic):
    from sigma2.errors import PoleAtArgument
    # the origin itself is a pole of I3 (the zeta term)
    with pytest.raises(PoleAtArgument):
        lt.abel_integrals(ctx_generic, 0.0)
    small = lt.abel_integrals(ctx_generic, 1e-4)
    assert abs(small.I1) < 1e-3 and abs(small.I2) < 1e-3
    assert abs(small.I3 * 1e-4 - 1.0) < 1e-3


def test_abel_integral_linkage(ctx_generic, rng):
    a = ctx_generic.wp_alpha
    for _ in range(10):
        xi = complex(rng.normal(), rng.normal()) * 0.3
        vals = lt.abel_integrals(ctx_generic, xi)
        assert abs(vals.I2 - (xi + 0.6 * a * vals.I1)) < 1e-13 * (1 + abs(vals.I2))


def test_abel_integral_i1_quadrature(ctx_generic):
    xi = 0.27 - 0.19j
    vals = lt.abel_integrals(ctx_generic, xi)
    a = ctx_generic.wp_alpha
    quad = quadrature_path(lambda v: 1.0 / (el.wp(ctx_generic.ectx, v) - a),
                           [1e-300j, xi])
    assert abs(vals.I1 - quad) < 1e-9 * (1 + abs(quad))


def test_t1_closed_form(ctx_generic, lat):
    ap = ctx_generic.wpp_alpha
    a = ctx_generic.wp_alpha
    want = np.array([2j * np.pi / ap, 1.2j * np.pi * a / ap])
    assert np.max(np.abs(lat.T[:, 0] - want)) < 1e-12 * (1 + abs(ap))


def test_degenerate_legendre_identity(lat):
    assert lat.legendre_residual < 1e-8


def test_period_increments_match_columns_mod_t1(ctx_generic, lat):
    t1 = np.concatenate([lat.T[:, 0], lat.H[:, 0]])
    for k, mn in ((2, (1, 0)), (3, (0, 1))):
        col = np.concatenate([lat.T[:, k - 1], lat.H[:, k - 1]])
        incs = []
        for xi in (0.21 + 0.04j, -0.13 + 0.3j, 0.05 - 0.18j):
            inc = lt.period_increment(ctx_generic, xi, *mn)
            m = round(((inc - col)[0] / t1[0]).real)
            assert np.max(np.abs(inc - col - m * t1)) < 1e-9
            incs.append(inc - m * t1)
        spread = max(np.max(np.abs(a - incs[0])) for a in incs[1:])
        assert spread < 1e-9


def test_lattice_blocked_at_branch_point():
    bctx = sg.context_lambda1(0.6, (0.5, -1.5))
    with pytest.raises(SingularConfiguration):
        lt.period_matrices(bctx)


def test_quasi_periodicity_both_directions(ctx_generic, lat, rng):
    for _ in range(5):
        u = np.array([complex(rng.normal(), rng.normal()) * 0.25,
                      complex(rng.normal(), rng.normal()) * 0.25])
        for k in (1, 2, 3):
            assert lt.quasi_periodicity_residual(ctx_generic, u, k, lat) < 1e-8
            assert lt.quasi_periodicity_residual(ctx_generic, u, k, lat,
                                                 direction=-1) < 1e-8


def test_quasi_periodicity_normalization_invariant(ctx_generic, lat, monkeypatch):
    u = np.array([0.07 - 0.03j, 0.12 + 0.08j])
    base = [lt.quasi_periodicity_residual(ctx_generic, u, k, lat) for k in (1, 2, 3)]
    original = sg.sigma2

    def scaled(ctx, u3, u1, normalized=False):
        return original(ctx, u3, u1, normalized) * 3.7

    monkeypatch.setattr(lt.sg, "sigma2", scaled)
    after = [lt.quasi_periodicity_residual(ctx_generic, u, k, lat) for k in (1, 2, 3)]
    for a, b in zip(base, after):
        assert abs(a - b) < 1e-10


def test_three_periodicity(ctx_generic, lat, rng):
    assert abs(sg.p_function(ctx_generic, 0.0, 0.0) - 1.0) < 1e-12
    for _ in range(5):
        u = np.array([complex(rng.normal(), rng.normal()) * 0.25,
                      complex(rng.normal(), rng.normal()) * 0.25])
        for k in (1, 2, 3):
            assert lt.p_periodicity_residual(ctx_generic, u, k, lat) < 1e-8


def test_p_parity(ctx_generic):
    u3, u1 = 0.21 - 0.04j, 0.12 + 0.3j
    prod = (sg.p_function(ctx_generic, u3, u1)
            * sg.p_function(ctx_generic, -u3, -u1))
    assert abs(prod - 1.0) < 1e-10


def test_functional_equations(ctx_generic, rng):
    for _ in range(5):
        c = complex(rng.normal(), rng.normal()) + 1.5
        z1 = complex(rng.normal(), rng.normal()) * 0.5
        z2 = complex(rng.normal(), rng.normal()) * 0.4
        out = lt.functional_equation_check(ctx_generic, c, z1, z2)
        assert out["product_residual"] < 1e-9
        assert out["reciprocal_residual"] < 1e-9
        # the sign-parity form does not hold for any function satisfying the
        # product equation; it is recorded, not asserted small
        assert out["printed_parity_residual"] > 0


def test_functional_equation_z2_zero(ctx_generic):
    # f(z1, 0)^2 = e^{z1}
    ap = ctx_generic.wpp_alpha
    z1 = 0.37 - 0.21j
    f = sg.p_function(ctx_generic, z1 / (2 * ap),
                      ctx_generic.shift() * z1 / (2 * ap))
    assert abs(f * f - np.exp(z1)) < 1e-10 * abs(np.exp(z1))


def test_functional_equation_c_independence(ctx_generic):
    z1, z2 = 0.4 + 0.3j, -0.25 + 0.15j
    outs = [lt.functional_equation_check(ctx_generic, c, z1, z2)
            for c in (0.7 - 0.2j, 1.9, 0.4j)]
    for o in outs:
        assert o["product_residual"] < 1e-9
        assert o["reciprocal_residual"] < 1e-9


def test_reconstruct_lambda_u1_independent(ctx_generic):
    recs = [lt.reconstruct_lambda(ctx_generic, u1, 0.17 + 0.11j)
            for u1 in (0.31 - 0.12j, 0.11 + 0.21j, -0.27 + 0.06j)]
    for r in recs:
        assert r["lambda_residual"] < 1e-6
        assert r["delta_residual"] < 1e-6
    lam0 = recs[0]["lam"].astuple()
    for r in recs[1:]:
        gap = max(abs(a - b) for a, b in zip(r["lam"].astuple(), lam0))
        assert gap < 1e-6 * (1 + max(abs(x) for x in lam0))


def test_reconstruct_gamma(ctx_generic):
    for u1 in (0.31 - 0.12j, 0.11 + 0.21j):
        r = lt.reconstruct_lambda(ctx_generic, u1, 0.17 + 0.11j)
        assert abs(r["gamma4"] - ctx_generic.gamma.gamma4) < 1e-9
        assert abs(r["gamma6"] - ctx_generic.gamma.gamma6) < 1e-9


def test_rank_report():
    # rank 3 (simple discriminant zero) and rank 2 on the one-double-point
    # stratum are told apart by wp'(alpha)
    from sigma2.strata import G2Params, classify
    lam = G2Params(0, 1, 0, 0)
    ctx = sg.make_degen_context(lam)
    assert classify(lam).rank == 3 and not ctx.branch_point
    assert abs(ctx.wpp_alpha) > 0.1
    lam = G2Params(1, 0, 0, 0)
    assert classify(lam).rank == 2 and sg.make_degen_context(lam).branch_point
    cls = classify(G2Params(0, 0, 0, 0))
    assert cls.rank == 0 and cls.stratum == "Lambda0"
