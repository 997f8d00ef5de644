import numpy as np
import pytest

from sigma2 import elliptic as el
from sigma2 import inversion as inv
from sigma2 import lattice as lt
from sigma2 import sigma as sg
from sigma2 import spectral as sp
from sigma2.errors import NotRealAlpha, NotRealLattice, SingularConfiguration


def test_eigen_equation(ctx_generic, rng):
    for _ in range(5):
        b1 = 0.3 + complex(rng.normal(), rng.normal()) * 0.15
        u3 = complex(rng.normal(), rng.normal()) * 0.15
        u1 = 0.25 + complex(rng.normal(), rng.normal()) * 0.15
        assert sp.eigen_residual(ctx_generic, b1, u3, u1) < 1e-6


def test_two_independent_solutions(ctx_generic):
    b1, u3 = 0.23 - 0.31j, 0.05 + 0.02j
    w_at = [sp.wronskian(ctx_generic, b1, u3, u1)
            for u1 in (0.17 + 0.09j, 0.38 - 0.02j, -0.22 + 0.14j)]
    assert abs(w_at[0]) > 1e-6      # genuinely independent pair
    for w in w_at[1:]:
        assert abs(w - w_at[0]) < 1e-6 * abs(w_at[0])


def test_psi_finite_at_origin(ctx_generic):
    val = sp.baker_psi(ctx_generic, 0.23 - 0.31j, 0.05, 0.0)
    assert np.isfinite(val.real) and abs(val) > 0


def test_potential_matches_log_derivative_route(ctx_generic):
    u3, u1 = 0.05 + 0.02j, 0.17 + 0.09j
    der = sg.log_derivatives(ctx_generic, u3, u1)
    a = ctx_generic.wp_alpha
    want = 2 * der.P11 - 0.4 * a
    assert abs(sp.potential_u(ctx_generic, u3, u1) - want) < 1e-12 * (1 + abs(want))


def test_potential_matches_inversion_sum(ctx_generic):
    u3, u1 = 0.05 + 0.02j, 0.17 + 0.09j
    res = inv.solve_inversion(ctx_generic, u1, u3)
    want = 2 * (res.X1 + res.X2 - ctx_generic.wp_alpha)
    assert abs(sp.potential_u(ctx_generic, u3, u1) - want) < 1e-9 * (1 + abs(want))


def test_potential_regular_on_wp_pole(ctx_generic):
    val = sp.potential_u(ctx_generic, 0.05 + 0.02j, 0.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    # in an array the ring-averaged samples (lattice points, U1 = alpha) are
    # picked by a mask and match the scalar calls
    ec = ctx_generic.ectx
    u1 = np.array([0.0, 0.17 + 0.09j, ec.omega, ctx_generic.alpha, -0.3 + 0.2j])
    ring = np.array([True, False, True, True, False])
    got = sp.potential_u(ctx_generic, 0.05 + 0.02j, u1)
    want = np.array([sp.potential_u(ctx_generic, 0.05 + 0.02j, z) for z in u1])
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert np.all(err[~ring] < 1e-14)
    # the ring sums four values ~1/h^2 (h = 1e-3 scale) to an O(1) one
    assert np.all(err[ring] < 1e-9)


def test_potential_removable_at_minus_alpha(ctx_generic):
    # S is 0/0 at U1 = -alpha modulo the lattice; the potential is regular
    # there and both paths ring-average the point
    u3, u1 = 0.05 + 0.02j, ctx_generic.ectx.omegaP - ctx_generic.alpha
    near = sp.potential_u(ctx_generic, u3, u1 + 1e-6)
    scalar = sp.potential_u(ctx_generic, u3, u1)
    array = sp.potential_u(ctx_generic, u3, np.array([0.17 + 0.09j, u1]))[1]
    for val in (scalar, array):
        assert abs(val - near) < 1e-6 * (1 + abs(near))


def test_potential_array_refuses_sigma2_divisor(ctx_generic):
    # U3 with P(U3, U1) = 1 puts the sample on the sigma2 divisor
    ctx, u1 = ctx_generic, 0.17 + 0.09j
    ec = ctx.ectx
    log_ratio = np.log(el.sigma_w(ec, ctx.alpha + u1) / el.sigma_w(ec, ctx.alpha - u1))
    u3 = (2 * ctx.zeta_alpha * u1 - log_ratio) / ctx.wpp_alpha
    with pytest.raises(SingularConfiguration):
        sp.potential_u(ctx, np.array([0.05, u3]), u1)


def test_potential_small_gamma_tends_rational(ctx_generic):
    eps = 1e-7
    ctx = sg.context_lambda1(0.45, (eps, eps / 3))
    alpha = ctx.alpha
    u3, u1 = 0.05, 0.21
    pa, ppa = alpha ** -2, -2 * alpha ** -3
    pfun = (alpha + u1) / (alpha - u1) * np.exp(ppa * u3 - 2 * u1 / alpha)
    s = (-2 * u1 ** -3 - ppa * (pfun + 1) / (pfun - 1)) / (2 * (u1 ** -2 - pa))
    want = 2 * s * s - 2 * u1 ** -2 - 2 * pa
    got = sp.potential_u(ctx, u3, u1)
    assert abs(got - want) < 1e-4 * (1 + abs(want))


def test_potential_sato_weight(ctx_generic):
    t = 2.0
    a2, g = ctx_generic.a2, ctx_generic.gamma
    scaled = sg.context_lambda1(t ** 2 * a2, (t ** 4 * g.gamma4, t ** 6 * g.gamma6))
    u3, u1 = 0.05 + 0.02j, 0.17 + 0.09j
    lhs = sp.potential_u(scaled, u3 / t ** 3, u1 / t)
    # the potential carries the x-coordinate grading: factor t^2
    rhs = t ** 2 * sp.potential_u(ctx_generic, u3, u1)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_kdv_residual(ctx_generic, rng):
    for _ in range(5):
        u3 = complex(rng.normal(), rng.normal()) * 0.1
        u1 = 0.25 + complex(rng.normal(), rng.normal()) * 0.1
        assert sp.kdv_residual(ctx_generic, u3, u1) < 1e-5


def test_kdv_alpha_flip_invariance(ctx_generic):
    from dataclasses import replace
    flipped = replace(ctx_generic, alpha=-ctx_generic.alpha,
                      wpp_alpha=-ctx_generic.wpp_alpha, d=-ctx_generic.d,
                      zeta_alpha=-ctx_generic.zeta_alpha,
                      sigma_alpha=-ctx_generic.sigma_alpha)
    u3, u1 = 0.04 - 0.03j, 0.22 + 0.11j
    a = sp.kdv_residual(ctx_generic, u3, u1)
    b = sp.kdv_residual(flipped, u3, u1)
    assert abs(a - b) < 1e-7


def test_kdv_u3_profile_recorded(ctx_generic):
    vals = [sp.kdv_residual(ctx_generic, u3, 0.25 + 0.1j)
            for u3 in (0.02, 0.05 + 0.03j, -0.04j)]
    assert all(v < 1e-5 for v in vals)


# --- real families ----------------------------------------------------------

def test_real_rectangle_periods(ctx_gap):
    om, omp, eta, etap = sp.real_rectangle_periods(ctx_gap.ectx)
    assert abs(om.imag) < 1e-12 and om.real > 0
    assert abs(omp.real) < 1e-12 and omp.imag > 0
    assert abs(eta.imag) < 1e-10
    assert abs(etap.real) < 1e-10


def test_real_rectangle_rejects_generic(ec_generic):
    with pytest.raises(NotRealLattice):
        sp.real_rectangle_periods(ec_generic)


def test_real_families_in_gap(ctx_gap):
    grid = np.linspace(0.03, 0.97, 21)
    for fam in ("V1", "V2"):
        for phi in (0.25, 0.4):
            s = sp.real_family(ctx_gap, fam, phi, grid)
            assert s.max_imag < 1e-8
    spec = s.spectrum
    assert spec["band1"][0] <= spec["band1"][1] <= spec["band2_lo"]
    # the double point sits in a gap of the band spectrum
    assert spec["band1"][1] < spec["point"] < spec["band2_lo"]


def test_real_family_endpoint_phases_in_band():
    # with wp(alpha) inside a band only phi in {0, 1/2} stay real
    ec = el.make_context((-1.2, 0.1))
    roots = sorted(r.real for r in ec.roots)
    ctx = sg.context_lambda1(0.3 * (roots[0] + roots[1]), (-1.2, 0.1))
    assert (ctx.wpp_alpha ** 2).real > 0
    grid = np.linspace(0.03, 0.97, 11)
    s = sp.real_family(ctx, "V1", 0.0, grid)
    assert s.max_imag < 1e-8
    with pytest.raises(NotRealAlpha):
        sp.real_family(ctx, "V1", 0.25, grid)


def test_real_family_boundedness_recorded(ctx_gap):
    grid = np.linspace(0.02, 0.98, 41)
    s = sp.real_family(ctx_gap, "V2", 0.3, grid)
    assert np.isfinite(np.max(np.abs(s.values.real)))


def test_real_family_rejects_complex_alpha(ctx_generic):
    with pytest.raises((NotRealAlpha, NotRealLattice)):
        sp.real_family(ctx_generic, "V1", 0.25, np.linspace(0.1, 0.9, 5))


# --- Bloch multipliers ------------------------------------------------------

def test_quasi_momenta_equal_for_k23(ctx_generic):
    m1, m2, m3 = sp.quasi_momenta(ctx_generic, 0.27 + 0.13j)
    assert np.allclose(m2, m3)
    assert not np.allclose(m1, m2)


def test_k1_invertible(ctx_generic):
    L = lt.period_matrices(ctx_generic)
    det = np.linalg.det(L.K1)
    want = 2 * ctx_generic.alpha / ctx_generic.wpp_alpha
    assert abs(det - want) < 1e-10 * (1 + abs(want))
    assert abs(det) > 1e-8


def test_bloch_property(ctx_generic, rng):
    L = lt.period_matrices(ctx_generic)
    for _ in range(3):
        xi0 = 0.3 + complex(rng.normal(), rng.normal()) * 0.1
        u = np.array([complex(rng.normal(), rng.normal()) * 0.2,
                      complex(rng.normal(), rng.normal()) * 0.2])
        for k in (1, 2, 3):
            assert sp.bloch_residual(ctx_generic, xi0, u, k, L) < 1e-6


def test_baker_phi_value(ctx_generic):
    v = sp.baker_phi(ctx_generic, 0.04 - 0.01j, 0.07 + 0.02j, 0.31 + 0.12j)
    assert np.isfinite(v.real) and abs(v) > 0


def test_spectral_residuals_scale_covariant():
    base = (0.2 + 0.1j, 0.4 - 0.2j, 0.5 + 0.3j)
    for t in (5.0, 0.2):
        ctx = sg.context_lambda1(t ** 2 * base[0],
                                 (t ** 4 * base[1], t ** 6 * base[2]))
        assert sp.eigen_residual(ctx, (0.23 - 0.31j) / t, (0.05 + 0.02j) / t ** 3,
                                 (0.17 + 0.09j) / t) < 1e-6
        assert sp.kdv_residual(ctx, (0.05 + 0.02j) / t ** 3,
                               (0.17 + 0.09j) / t) < 1e-5
