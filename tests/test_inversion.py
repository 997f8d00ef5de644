import json
import math

import numpy as np
import pytest

from sigma2 import cli
from sigma2 import elliptic as el
from sigma2 import inversion as inv
from sigma2 import sigma as sg
from sigma2.errors import BranchPointCase, NotBranchPoint

from oracles import quadrature_path


def _cell(ec, z):
    z0, _, _ = el._reduce(ec, z)
    return z0


def third_kind_integral_quadrature(ctx, xi):
    """Quadrature oracle for int_0^xi dv/(wp(v) - wp(alpha))."""
    a = ctx.wp_alpha
    return quadrature_path(lambda v: 1.0 / (el.wp(ctx.ectx, v) - a),
                           [1e-300j, complex(xi)])


def solve_bethe(ctx, beta, kappa):
    """The two kappa-dependent roots xi of the two-site sigma-quotient equation

        exp(kappa) = sigma(xi-a) sigma(xi+b) / (sigma(xi+a) sigma(xi-2a+b)),

    with a the context's Abel preimage: the inversion problem at
    (U1, U3) = (a - b, (kappa + 2 zeta(a) U1)/wp'(a)).  The kappa-independent
    extra root (wp(a-b), -wp'(a-b)) of the rationalized form is not returned.
    """
    u1 = ctx.alpha - beta
    res = inv.solve_inversion(ctx, u1, (kappa + 2 * ctx.zeta_alpha * u1)
                              / ctx.wpp_alpha)
    return res.xi1, res.xi2


def bethe_residual(ec, alpha, beta, kappa, xi):
    """Relative defect of the sigma-quotient equation at xi."""
    num = el.sigma_w(ec, xi - alpha) * el.sigma_w(ec, xi + beta)
    den = el.sigma_w(ec, xi + alpha) * el.sigma_w(ec, xi - 2 * alpha + beta)
    lhs = np.exp(kappa)
    return abs(lhs - num / den) / abs(lhs)


def bethe_linear_form(ec, alpha, beta, kappa, wp_xi, wpp_xi):
    """The A*wp'(xi) + B*wp(xi) + C form of the rationalized Bethe equation.

    Vanishes at both kappa-dependent solutions and at the kappa-independent
    extra root (wp(xi), wp'(xi)) = (wp(alpha-beta), -wp'(alpha-beta)).
    """
    alpha, beta = complex(alpha), complex(beta)
    two_ab = 2 * alpha - beta
    pa, ppa = el.wp(ec, alpha), el.wp_prime(ec, alpha)
    pb, ppb = el.wp(ec, beta), el.wp_prime(ec, beta)
    pc, ppc = el.wp(ec, two_ab), el.wp_prime(ec, two_ab)

    def det3(r1, r2, r3):
        return (r1[0] * (r2[1] * r3[2] - r3[1] * r2[2])
                - r1[1] * (r2[0] * r3[2] - r3[0] * r2[2])
                + r1[2] * (r2[0] * r3[1] - r3[0] * r2[1]))

    top = (wpp_xi, wp_xi, 1.0)
    det1 = det3(top, (ppa, pa, 1.0), (-ppb, pb, 1.0))
    det2 = det3(top, (-ppa, pa, 1.0), (ppc, pc, 1.0))
    cfac = (el.sigma_w(ec, beta) / el.sigma_w(ec, two_ab)
            * (pa - pc) / (pa - pb))
    return np.exp(kappa) * det2 - cfac * det1


def test_forward_integrals_symmetric_pair(ctx_generic):
    u1, u3 = inv.forward_integrals(ctx_generic, 0.3 + 0.1j, -(0.3 + 0.1j))
    assert abs(u1) < 1e-14 and abs(u3) < 1e-12


def test_forward_integrals_match_quadrature(ctx_generic, rng):
    ec = ctx_generic.ectx
    for _ in range(20):
        xi1 = rng.uniform(-0.3, 0.3) * ec.omega + rng.uniform(-0.3, 0.3) * ec.omegaP
        xi2 = rng.uniform(-0.3, 0.3) * ec.omega + rng.uniform(-0.3, 0.3) * ec.omegaP
        u1, u3 = inv.forward_integrals(ctx_generic, xi1, xi2)
        quad = (third_kind_integral_quadrature(ctx_generic, xi1)
                + third_kind_integral_quadrature(ctx_generic, xi2))
        assert abs(u3 - quad) < 1e-8 * (1 + abs(u3))
        assert abs(u1 - (xi1 + xi2)) < 1e-14 * (1 + abs(u1))


def test_forward_integrals_doubled_point(ctx_generic):
    xi = 0.21 - 0.13j
    _, u3 = inv.forward_integrals(ctx_generic, xi, xi)
    single = third_kind_integral_quadrature(ctx_generic, xi)
    assert abs(u3 - 2 * single) < 1e-8 * (1 + abs(u3))


def test_round_trip_recovers_points(ctx_generic, rng):
    ec = ctx_generic.ectx
    for _ in range(25):
        xi1 = rng.uniform(-0.35, 0.35) * ec.omega + rng.uniform(-0.35, 0.35) * ec.omegaP
        xi2 = rng.uniform(-0.35, 0.35) * ec.omega + rng.uniform(-0.35, 0.35) * ec.omegaP
        u1, u3 = inv.forward_integrals(ctx_generic, xi1, xi2)
        res = inv.solve_inversion(ctx_generic, u1, u3)
        want = sorted([el.wp(ec, xi1), el.wp(ec, xi2)],
                      key=lambda z: (z.real, z.imag))
        got = sorted([res.X1, res.X2], key=lambda z: (z.real, z.imag))
        scale = 1 + max(abs(w) for w in want)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8 * scale
        # the uniformizers come back too, modulo the lattice
        wantxi = sorted([_cell(ec, xi1), _cell(ec, xi2)],
                        key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        gotxi = sorted([res.xi1, res.xi2],
                       key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert max(abs(a - b) for a, b in zip(gotxi, wantxi)) < 1e-7 * (1 + abs(xi1))


def test_solution_on_curve_and_y_convention(ctx_generic):
    res = inv.solve_inversion(ctx_generic, 0.31 - 0.12j, 0.009 + 0.04j)
    g4, g6 = ctx_generic.gamma.gamma4, ctx_generic.gamma.gamma6
    for x, y, xi in ((res.X1, res.Y1, res.xi1), (res.X2, res.Y2, res.xi2)):
        assert abs(y ** 2 - (x ** 3 + g4 * x + g6)) < 1e-8 * (1 + abs(x)) ** 3
        assert abs(y + 0.5 * el.wp_prime(ctx_generic.ectx, xi)) < 1e-7 * (1 + abs(y))


def test_y_values_match_quotient_route(ctx_generic):
    u1c, u3c = 0.31 - 0.12j, 0.009 + 0.04j
    res = inv.solve_inversion(ctx_generic, u1c, u3c)
    der = sg.log_derivatives(ctx_generic, u3c, u1c)
    a = ctx_generic.wp_alpha
    for x, y in ((res.X1, res.Y1), (res.X2, res.Y2)):
        yq = -0.5 * der.P111 - der.P113 / (2 * (x - a))
        assert abs(yq - y) < 1e-8 * (1 + abs(y))


def test_symmetric_functions_match_p_route(ctx_generic):
    u1c, u3c = 0.31 - 0.12j, 0.04j
    res = inv.solve_inversion(ctx_generic, u1c, u3c)
    der = sg.log_derivatives(ctx_generic, u3c, u1c)
    a = ctx_generic.wp_alpha
    assert abs((res.X1 + res.X2) - (der.P11 + 0.8 * a)) < 1e-9 * (1 + abs(res.X1))
    prod = -der.P13 + a * der.P11 + 0.16 * a * a
    assert abs(res.X1 * res.X2 - prod) < 1e-9 * (1 + abs(prod))


# --- branch point -----------------------------------------------------------

def test_branch_point_inversion():
    bctx = sg.context_lambda1(0.6, (0.5, -1.5))
    assert bctx.branch_point
    with pytest.raises(BranchPointCase):
        inv.solve_inversion(bctx, 0.1, 0.1)
    ec = bctx.ectx
    i = bctx.branch_index
    res0 = inv.branch_point_inversion(bctx, 0.0)
    assert abs(res0.X2 - ec.roots[i - 1]) < 1e-10
    res = inv.branch_point_inversion(bctx, 0.37 - 0.21j)
    g4, g6 = ec.gamma4, ec.gamma6
    assert abs(res.Y1) == 0.0
    assert abs(res.Y2 ** 2 - (res.X2 ** 3 + g4 * res.X2 + g6)) < 1e-9 * (1 + abs(res.X2)) ** 3


def test_branch_point_raises_on_generic(ctx_generic):
    with pytest.raises(NotBranchPoint):
        inv.branch_point_inversion(ctx_generic, 0.1)


def test_generic_solution_converges_towards_branch_point():
    # at fixed (U1, U3) the generic solution has a finite limit as
    # wp'(alpha) -> 0 (P -> 1 and the S quotient is an honest 0/0); the
    # frozen branch-point pair instead lives on the constraint set where U3
    # is no longer free, so only convergence is asserted here
    u1c = 0.37
    sets = []
    for de in (1e-6, 1e-8):
        ctx = sg.context_lambda1(0.6, (0.5, -1.5 + de))
        res = inv.solve_inversion(ctx, u1c, 0.0)
        sets.append([res.X1, res.X2])
    scale = 1 + max(abs(x) for x in sets[0])
    for a in sets[0]:
        assert min(abs(a - b) for b in sets[1]) < 1e-5 * scale


def test_branch_point_pair_solves_the_constrained_problem():
    # xi1 freezes at the half period, xi2 = U1 + w_i: the first integral
    # equation holds modulo lattice periods by construction
    bctx = sg.context_lambda1(0.6, (0.5, -1.5))
    res = inv.branch_point_inversion(bctx, 0.37 - 0.21j)
    ec = bctx.ectx
    left = _cell(ec, res.xi1 + res.xi2)
    right = _cell(ec, complex(0.37, -0.21))
    assert abs(left - right) < 1e-10


# --- Bethe-type equation ----------------------------------------------------

def test_bethe_round_trip(ctx_generic):
    alpha = ctx_generic.alpha
    ec = ctx_generic.ectx
    xi1, xi2 = 0.27 + 0.05j, -0.14 + 0.19j
    u1, u3 = inv.forward_integrals(ctx_generic, xi1, xi2)
    beta = alpha - u1
    kappa = -2 * ctx_generic.zeta_alpha * u1 + ctx_generic.wpp_alpha * u3
    r1, r2 = solve_bethe(ctx_generic, beta, kappa)
    want = sorted([_cell(ec, xi1), _cell(ec, xi2)],
                  key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    got = sorted([r1, r2], key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-7


def test_bethe_solutions_satisfy_equation(ctx_generic):
    alpha = ctx_generic.alpha
    beta = alpha - (0.31 - 0.12j)
    kappa = 0.22 + 0.15j
    r1, r2 = solve_bethe(ctx_generic, beta, kappa)
    for xi in (r1, r2):
        assert bethe_residual(ctx_generic.ectx, alpha, beta, kappa, xi) < 1e-8


def test_bethe_linear_form_and_extra_root(ctx_generic):
    ec = ctx_generic.ectx
    alpha = ctx_generic.alpha
    beta = alpha - (0.31 - 0.12j)
    kappa = 0.22 + 0.15j
    r1, r2 = solve_bethe(ctx_generic, beta, kappa)
    for xi in (r1, r2):
        v = bethe_linear_form(ec, alpha, beta, kappa,
                              el.wp(ec, xi), el.wp_prime(ec, xi))
        assert abs(v) < 1e-7 * (1 + abs(np.exp(kappa)))
    # the extra root is kappa-independent: same (wp, wp') kills the form
    # for arbitrary kappa
    x_extra = el.wp(ec, alpha - beta)
    y_extra = -el.wp_prime(ec, alpha - beta)
    for kap in (kappa, kappa + 1.3, -0.7j):
        v = bethe_linear_form(ec, alpha, beta, kap, x_extra, y_extra)
        assert abs(v) < 1e-8 * (1 + abs(np.exp(kap)))


# --- rational limit ---------------------------------------------------------

def test_rational_limit_closed_form(rng):
    for _ in range(20):
        alpha = complex(rng.normal(), rng.normal()) + 1.5
        u1c = complex(rng.normal(), rng.normal()) * 0.4
        u3c = complex(rng.normal(), rng.normal()) * 0.25
        r = inv.solve_inversion_rational(alpha, u1c, u3c)
        prod = inv.rational_pair_product(alpha, u1c, u3c)
        scale = 1 + abs(r["prod_X"])
        assert abs(r["prod_X"] - prod ** -2) < 1e-10 * scale
        # sum of X = (xi1^2 + xi2^2)/(xi1 xi2)^2 via the symmetric functions
        want_sum = (u1c ** 2 - 2 * prod) / prod ** 2
        assert abs(r["sum_X"] - want_sum) < 1e-10 * (1 + abs(want_sum))


def test_small_gamma_tends_to_rational_limit():
    eps = 1e-7
    ctx = sg.context_lambda1(0.45, (eps, eps / 3))
    alpha = ctx.alpha
    u1c, u3c = 0.21, 0.05
    res = inv.solve_inversion(ctx, u1c, u3c)
    rat = inv.solve_inversion_rational(alpha, u1c, u3c)
    assert abs((res.X1 + res.X2) - rat["sum_X"]) < 1e-4 * (1 + abs(rat["sum_X"]))
    assert abs(res.X1 * res.X2 - rat["prod_X"]) < 1e-4 * (1 + abs(rat["prod_X"]))


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@pytest.mark.parametrize("nudge", [
    {}, {"u1": 1}, {"u1": -2}, {"u3": 3}, {"u3": -1},
    {"g4": 1}, {"g4": -3}, {"g6": 2}, {"g6": -1}, {"a2": 1}, {"a2": -2},
])
def test_real_curve_conjugate_pair_keeps_its_order(capsys, nudge):
    """On a real curve X1, X2 are a conjugate pair whose real parts differ
    by rounding only; nudging the inputs (hence the periods) by a few ulp
    must not swap them: the lower half-plane point comes first."""
    args = {"a2": 0.3, "g4": 0.4, "g6": 0.5, "u1": 0.31, "u3": -0.12}
    args = {k: _ulps(v, nudge.get(k, 0)) for k, v in args.items()}
    code = cli.main(["invert", "--a2", repr(args["a2"]),
                     "--gamma", f"{args['g4']!r},{args['g6']!r}",
                     "--U", f"{args['u1']!r},{args['u3']!r}"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 0
    (x1r, x1i), (x2r, x2i) = rec["X"]
    assert abs(x1r - x2r) < 1e-12 * (1 + abs(x1r)) and abs(x1i + x2i) < 1e-12
    assert x1i < 0 < x2i
    # Y and xi follow their points: the pair is conjugate entry by entry
    for key in ("Y", "xi"):
        (ar, ai), (br, bi) = rec[key]
        assert abs(ar - br) < 1e-9 and abs(ai + bi) < 1e-9
