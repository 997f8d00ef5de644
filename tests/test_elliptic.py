import cmath
import itertools
import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sigma2 import elliptic as el
from sigma2.errors import DegenerateCurve, NumericalFailure, PoleAtArgument
from sigma2.numerics import POLE_TOL, cauchy_derivatives

from oracles import quadrature_path, roundoff_tie_pair, sigma_ratio_log_scalar


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
    alpha, _ = el.invert_wp(ctx, 0.0)
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
    sig, dsig = cauchy_derivatives(lambda t: el.sigma_w(ctx, t), u, 1, 0.05, 16)
    assert abs(dsig / sig - el.zeta_w(ctx, u)) < 1e-9 * (1 + abs(dsig / sig))
    dzeta = cauchy_derivatives(lambda t: el.zeta_w(ctx, t), u, 1, 0.05, 16)[1]
    assert abs(-dzeta - el.wp(ctx, u)) < 1e-8 * (1 + abs(dzeta))


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


def test_weierstrass_is_zeta_wp_wp_prime(ec_generic):
    # one theta evaluation gives the three single-value functions exactly
    fns = (el.zeta_w, el.wp, el.wp_prime)
    u = 0.3 + 0.1j + 2 * ec_generic.omegaP
    assert el.weierstrass(ec_generic, u) == tuple(f(ec_generic, u) for f in fns)
    arr = np.array([u, -0.2 + 0.35j])
    for got, f in zip(el.weierstrass(ec_generic, arr), fns):
        np.testing.assert_array_equal(got, f(ec_generic, arr))


def test_overflow_check_covers_every_element(ec_generic, monkeypatch):
    # wp' past the double range fails zeta_w too: the values share a kernel
    def kernel(ctx, u0, m, n, xp):
        inf = np.full(np.shape(u0), np.inf + 0j) if xp is np else complex("inf")
        return u0, u0, inf

    monkeypatch.setattr(el, "_weierstrass", kernel)
    for arg in (0.3 + 0.1j, np.array([0.3 + 0.1j])):
        with pytest.raises(NumericalFailure):
            el.zeta_w(ec_generic, arg)


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
    alpha, vals = el.invert_wp(ctx, ctx.roots[0])
    assert abs(alpha - ctx.omega / 2) < 1e-12
    assert vals == el.weierstrass(ctx, alpha)


def test_invert_wp_round_trip(ec_generic, rng):
    ctx = ec_generic
    for _ in range(50):
        x = complex(rng.normal(), rng.normal()) * 2.0
        alpha, vals = el.invert_wp(ctx, x)
        # the returned values are one kernel evaluation at the returned point
        assert vals == el.weierstrass(ctx, alpha)
        assert abs(vals[1] - x) < 1e-10 * (1 + abs(x))
        target = -2 * np.sqrt(x ** 3 + ctx.gamma4 * x + ctx.gamma6)
        assert abs(vals[2] - target) < 1e-8 * (1 + abs(target))


def _bits(vals):
    """The exact bits of a tuple of complex values (-0.0 differs from 0.0)."""
    return [float.hex(x) for z in vals for x in (z.real, z.imag)]


# generic, hexagonal and square lattices (the last two with extra symmetries)
@pytest.mark.parametrize("gamma", [(0.4 - 0.2j, 0.5 + 0.3j), (0, 1), (-1, 0)],
                         ids=["generic", "hexagonal", "square"])
def test_invert_wp_flip_is_the_kernel_at_the_negated_point(gamma, rng, monkeypatch):
    # invert_wp's branch flip returns (-zeta, wp, -wp') from the values at
    # the converged point instead of evaluating again at its negation, which
    # relies on the kernel being exactly odd (zeta, wp') and even (wp) inside
    # the cell; on its edges and at exact zeros it evaluates again
    ctx = el.make_context(gamma)
    for _ in range(60):
        a = el._reduce(ctx, rng.uniform(-0.5, 0.5) * ctx.omega
                       + rng.uniform(-0.5, 0.5) * ctx.omegaP)[0]
        zeta, p, pp = el.weierstrass(ctx, a)
        assert _bits(el.weierstrass(ctx, el._reduce(ctx, -a)[0])) == \
            _bits((-zeta, p, -pp))
    args = []
    kernel = el._weierstrass

    def recorded(ctx, u0, m, n, xp):
        args.append(u0)
        return kernel(ctx, u0, m, n, xp)

    monkeypatch.setattr(el, "_weierstrass", recorded)
    flips = 0
    for k in range(40):
        # real x puts alpha on a symmetry line or the cell edge of the square
        # and hexagonal lattices, where parts of the values are exact zeros
        x = complex(rng.normal(), rng.normal() * (k % 2)) * 2.0
        alpha, vals = el.invert_wp(ctx, x)
        flips += alpha != args[-1]      # the last evaluation is Newton's point
        assert _bits(vals) == _bits(el.weierstrass(ctx, alpha))
    assert 0 < flips < 40


def test_invert_wp_flip_keeps_the_sign_of_an_exact_zero():
    # the square lattice: the flipped alpha lies on the imaginary axis, where
    # the kernel gives zeta an exact +0.0 real part that negating its value
    # at -alpha would turn into -0.0
    ctx = el.make_context((-1, 0))
    alpha, vals = el.invert_wp(ctx, -2.0)
    zeta, p, pp = el.weierstrass(ctx, -alpha)
    assert _bits(vals) != _bits((-zeta, p, -pp))
    assert vals[0].real == 0
    assert _bits(vals) == _bits(el.weierstrass(ctx, alpha))


def test_invert_wp_on_the_cut_is_exact():
    # targets whose Carlson arguments lie on the negative-real cut (below e3
    # and between the roots of real curves) are inverted to a few ulp: alpha
    # is not moved off the cut, so wp(alpha) keeps no imaginary part
    for gamma in [(-0.6197928127351504, 0.034997528884858686), (-1.2, 0.1), (-1, 0),
                  (-1, 0.3)]:
        ctx = el.make_context(gamma)
        e3, e2, e1 = sorted(r.real for r in ctx.roots)
        for x in [e3 - 1.0, e3 - 0.1, (e3 + e2) / 2, e2 + 0.25 * (e1 - e2),
                  (e2 + e1) / 2, e2 + 0.9 * (e1 - e2)]:
            _, (_, p, _) = el.invert_wp(ctx, x)
            assert abs(p - x) <= 8 * 2.0 ** -52 * (1 + abs(x))


def test_invert_wp_matches_the_mpmath_preimage():
    # the held-out V2 potential's alpha: x - e1 < 0 lies on the cut, and the
    # preimage is Carlson's R_F at 30 digits, up to sign and the lattice
    g4, g6 = -0.6197928127351504, 0.034997528884858686
    ctx = el.make_context((g4, g6))
    x = 5.0 * 0.1777926351387632 / 3.0
    alpha, (_, p, _) = el.invert_wp(ctx, x)
    with mpmath.workdps(30):
        roots = mpmath.polyroots([1, 0, g4, g6], maxsteps=100, extraprec=60)
        ref = complex(mpmath.elliprf(*(mpmath.mpc(x - e, 0) for e in roots)))
    dist = min(abs(s * alpha - ref - m * ctx.omega - n * ctx.omegaP)
               for s in (1, -1) for m in (-1, 0, 1) for n in (-1, 0, 1))
    assert dist <= 4 * 2.0 ** -52 * abs(ref)
    assert abs(p.imag) <= 2.0 ** -52 * abs(x)


def _seeded_curves(rng):
    """(gamma4, gamma6) of a generic complex curve, a real curve with three
    real roots (rectangular lattice) and a real curve with a complex pair of
    roots (rhombic lattice)."""
    def from_roots(e1, e2, e3):
        return e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3
    generic = (complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
    e1 = rng.uniform(0.4, 1.0)
    e2 = e1 * rng.uniform(-0.4, 0.8)
    c = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.2, 1.0))
    rhombic = [z.real for z in from_roots(-2 * c.real, c, c.conjugate())]
    return [generic, from_roots(e1, e2, -(e1 + e2)), rhombic]


def test_invert_wp_returns_the_kernel_at_its_point(monkeypatch):
    # invert_wp returns its last Newton step's values when the converged
    # iterate needs no lattice shift, evaluates the reduced point again when
    # it does, and may then flip to -alpha; every way, the values are those
    # of weierstrass at the returned point, bit for bit
    reductions = []
    reduce = el._reduce

    def recorded(ctx, u):
        out = reduce(ctx, u)
        reductions.append((u, out))
        return out

    monkeypatch.setattr(el, "_reduce", recorded)
    rng = np.random.default_rng(2022)
    seen = Counter()
    for gamma in _seeded_curves(rng):
        ec = el.make_context(gamma)
        for k in range(40):
            x = complex(rng.normal(), rng.normal() * (k % 3 != 0)) * 2.0
            reductions.clear()
            alpha, vals = el.invert_wp(ec, x)
            # the converged iterate is reduced twice in a row: by its Newton
            # step and by invert_wp
            a, m, n = next(out for (u0, _), (u, out) in zip(reductions, reductions[1:])
                           if u == u0)
            seen["shift" if m or n else "cell", "flip" if alpha != a else "keep"] += 1
            # a new object with alpha's bits, so the evaluation is made afresh
            fresh = complex(alpha.real, alpha.imag)
            assert _bits(vals) == _bits(el.weierstrass(ec, fresh))
    assert seen["cell", "keep"] and seen["cell", "flip"], seen
    assert seen["shift", "keep"] and seen["shift", "flip"], seen


def test_threads_sharing_a_context_get_their_own_values(ec_generic, monkeypatch):
    # each thread evaluates its own points on one context, with a short
    # switch interval and a kernel cheap enough that the kept evaluation is
    # replaced every few microseconds; it must never hand a thread another
    # point's values
    import sys
    import threading

    def kernel(ctx, u0, m, n, xp):
        return u0, u0 + m, u0 + n

    monkeypatch.setattr(el, "_weierstrass", kernel)
    rng = np.random.default_rng(5)
    rows = [[complex(*rng.uniform(-1, 1, 2)) for _ in range(1000)] for _ in range(4)]
    bad = []

    def work(row):
        for u in row:
            want = kernel(ec_generic, *el._reduce(ec_generic, u), None)
            got = (el.zeta_w(ec_generic, u), el.wp(ec_generic, u),
                   el.wp_prime(ec_generic, u))
            if got != want or el.weierstrass(ec_generic, u) != want:
                bad.append(u)

    threads = [threading.Thread(target=work, args=(row,)) for row in rows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_lattice_constants_match_fresh_formulas():
    # make_context stores the reduction determinant, the pole radius and the
    # half periods; each must be the formula it replaces, exactly
    rng = np.random.default_rng(7)
    for gamma in _seeded_curves(rng):
        ec = el.make_context(gamma)
        om, omp = ec.omega, ec.omegaP
        det = (om.conjugate() * omp).imag
        radius = POLE_TOL * ec.scale()
        assert ec.half_periods == (om / 2, (om + omp) / 2, omp / 2)
        assert (ec._det, ec._pole_r) == (det, radius)
        lattice = np.add.outer(np.arange(-2, 3) * om, np.arange(-2, 3) * omp).ravel()
        near = lattice + radius * rng.choice([0.5, 2.0], lattice.size) * np.exp(
            2j * np.pi * rng.uniform(size=lattice.size))
        u = np.concatenate([near, rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)])
        x = (u.conjugate() * omp).imag / det
        y = (om.conjugate() * u).imag / det
        m, n = np.rint(x).astype(np.int64), np.rint(y).astype(np.int64)
        want = u - m * om - n * omp
        got, gm, gn = el._reduce(ec, u)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(gm, m) and np.array_equal(gn, n)
        mask = el.on_lattice(ec, u)
        assert np.array_equal(mask, np.abs(want) < radius)
        assert 0 < mask.sum() < u.size
        for z in u.tolist():
            xs = (z.conjugate() * omp).imag / det
            ys = (om.conjugate() * z).imag / det
            ms, ns = round(xs), round(ys)
            w = z - ms * om - ns * omp
            got = el._reduce(ec, z)
            assert got[1:] == (ms, ns) and _bits(got[:1]) == _bits([w])
            assert el.on_lattice(ec, z) == (abs(w) < radius)


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


# tied lattices: rhombic on |tau| = 1, hexagonal, two squares, and a flat
# rhombic lattice whose reduced tau sits on Re tau = +-1/2
_TIED = [(0.4, 0.5), (0.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (-0.1, 1.0)]


def _same_basis(p, q, tol=1e-13):
    return all(abs(x - y) <= tol * abs(x) for x, y in zip(p, q))


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3])
def test_rhombic_basis_is_scale_covariant(s):
    ctx = el.make_context((0.4 * s ** 4, 0.5 * s ** 6))
    assert _same_basis((ctx.omega * s, ctx.omegaP * s),
                       (2.2024164351322364 + 1.447107179691528j,
                        -2.2024164351322364 + 1.447107179691529j))


@pytest.mark.parametrize("gamma", _TIED)
def test_tied_basis_survives_ulp_changes(gamma):
    """Any basis of the lattice, each period moved by +-4 ulp in both parts,
    gives the context's basis back."""
    ctx = el.make_context(gamma)
    a, b = ctx.omega, ctx.omegaP

    def nudge(z, sr, si):
        return complex(z.real + 4 * sr * math.ulp(z.real), z.imag + 4 * si * math.ulp(z.imag))

    for p, q in ((a, b), (b, -a), (a + b, -a), (-a, -b), (a, b + a), (a - b, b)):
        for signs in itertools.product((-1, 1), repeat=4):
            got = el._canonical_pair(nudge(p, *signs[:2]), nudge(q, *signs[2:]))
            assert _same_basis(got, (a, b)), (p, q, signs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_TIED), st.floats(1e-3, 1e3))
def test_tied_basis_under_weight_rescaling(gamma, s):
    """(gamma4 s^4, gamma6 s^6) has periods omega/s and roots e s^2, in the
    same order: the labels e1, e2, e3 and the half periods are covariant."""
    g4, g6 = gamma
    one, ctx = el.make_context(gamma), el.make_context((g4 * s ** 4, g6 * s ** 6))
    assert _same_basis((ctx.omega * s, ctx.omegaP * s), (one.omega, one.omegaP))
    assert all(abs(e / s ** 2 - e1) <= 1e-12 for e, e1 in zip(ctx.roots, one.roots))


def _raw_periods(gamma):
    g4, g6 = gamma
    return el._lattice_from_roots(el._cubic_roots(g4, g6))


def test_untied_lattices_keep_their_basis():
    """Off the fundamental-domain boundaries the tie rule picks the basis the
    roundoff rule picks, on 200 complex and 200 rectangular curves."""
    rng = np.random.default_rng(20261018)
    curves = [tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(2)) for _ in range(200)]
    while len(curves) < 400:        # three real roots: a rectangular lattice
        g4, g6 = -rng.uniform(0.05, 2), rng.uniform(-1, 1)
        if 4 * g4 ** 3 + 27 * g6 ** 2 < -1e-3:
            curves.append((g4, g6))
    for gamma in curves:
        raw = _raw_periods(gamma)
        a, b = roundoff_tie_pair(*raw)
        tau = b / a
        assert abs(abs(tau) - 1) > 1e-9 and abs(abs(tau.real) - 0.5) > 1e-9
        assert el._canonical_pair(*raw) == (a, b), gamma


def _rf_triples(rng, n):
    """Random complex triples with magnitudes 1e-3..1e3, the (0, 1 - m, 1)
    and (0, m, 1) forms of the period integrals, and invert_wp's arguments
    nudged off the negative real axis."""
    def z(k):
        return 10 ** rng.uniform(-3, 3, k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))

    def nudged(k):
        a = -(10 ** rng.uniform(-3, 3, k))
        return a + 1e-13j * np.maximum(np.abs(a), 1.0)

    out = [tuple(t) for t in np.column_stack([z(n), z(n), z(n)])]
    out += [(0, 1 - m, 1) for m in z(n // 4)] + [(0, m, 1) for m in z(n // 4)]
    out += [(a, b, c) for a, b, c in np.column_stack([nudged(n // 4), z(n // 4), nudged(n // 4)])]
    out += [(a, b, c) for a, b, c in np.column_stack(
        [nudged(n // 4), 10 ** rng.uniform(-3, 3, n // 4), z(n // 4)])]
    return [tuple(complex(v) for v in t) for t in out]


def test_carlson_rf_against_mpmath():
    rng = np.random.default_rng(19)
    worst = 0.0
    with mpmath.workdps(30):
        for x, y, z in _rf_triples(rng, 1000):
            want = complex(mpmath.elliprf(x, y, z))
            worst = max(worst, abs(el._carlson_rf(x, y, z) - want) / abs(want))
    assert worst <= 2e-15


def _cubic_error(g4, g6):
    """Largest distance from a root of X^3 + g4 X + g6 to its computed match,
    over rscale = max(1, |roots|) times the root's condition number
    max(1, rscale^2 / |prod of its distances to the other roots|)."""
    with mpmath.workdps(40):
        want = [complex(r) for r in mpmath.polyroots(
            [1, 0, mpmath.mpc(g4), mpmath.mpc(g6)], maxsteps=100, extraprec=60)]
    got = el._cubic_roots(complex(g4), complex(g6))
    rscale = max(1.0, max(abs(r) for r in want))
    worst = 0.0
    for i, w in enumerate(want):
        gap = abs((w - want[i - 1]) * (w - want[i - 2]))
        cond = max(1.0, rscale * rscale / gap)
        j = min(range(len(got)), key=lambda k: abs(got[k] - w))
        worst = max(worst, abs(got.pop(j) - w) / (rscale * cond))
    return worst


def _random_curves(rng, kind, n):
    def disk(k):
        return rng.uniform(0, 1, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))

    if kind == "complex":
        return list(zip(disk(n), disk(n)))
    if kind == "rectangular":           # three real roots e1 + e2 + e3 = 0
        e1, e2 = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)
        return [(a * b - (a + b) ** 2, a * b * (a + b)) for a, b in zip(e1, e2)]
    if kind == "rhombic":               # one real root: |tau| = 1 or Re tau = -1/2
        g4, g6 = rng.uniform(-2, 2, 4 * n), rng.uniform(-2, 2, 4 * n)
        return [c for c in zip(g4, g6) if el.delta_gamma(*c) > 0][:n]
    if kind == "hexagonal":
        return [(0.0, g6) for g6 in disk(n)] + [(0.0, g6) for g6 in rng.uniform(-2, 2, n)]
    if kind == "lemniscatic":           # a zero root
        return [(g4, 0.0) for g4 in disk(n)] + [(g4, 0.0) for g4 in rng.uniform(-2, 2, n)]
    # |Delta| just above the DegenerateCurve cut 1e-12 (|g4|^3 + |g6|^2)
    out = []
    for a, turn in zip(disk(n) + 0.1, rng.uniform(0, 1, n)):
        g4, g6 = -3 * a * a, 2 * a ** 3
        scale = abs(g4) ** 3 + abs(g6) ** 2
        g6 += 2e-12 * scale / (54 * abs(g6)) * np.exp(2j * np.pi * turn)
        assert 1e-12 * scale < abs(el.delta_gamma(g4, g6)) < 1e-11 * scale
        out.append((g4, g6))
    return out


_CURVE_KINDS = ["complex", "rectangular", "rhombic", "hexagonal", "lemniscatic", "near_cut"]


@pytest.mark.parametrize("kind", _CURVE_KINDS)
def test_cubic_roots_against_mpmath(kind):
    """Cardano plus two Newton steps is within 4e-15 rscale of each root
    times its condition number; that number is 1 away from the cut, and near
    the cut (roots ~1e-6 rscale apart) no double-precision evaluation of the
    cubic does better, np.roots included."""
    rng = np.random.default_rng(_CURVE_KINDS.index(kind))
    worst = max(_cubic_error(g4, g6) for g4, g6 in _random_curves(rng, kind, 100))
    assert worst <= 4e-15


def test_sigma_ratio_log_array_is_the_scalar_calls(ctx_generic, monkeypatch):
    # an ndarray of xi and each scalar xi give the values of the 1-D scalar
    # route (tests/oracles.py) to the bit, a xi of 0 gives 0; each step
    # count's quotients come from one sigma_w call, and a path resolved at
    # fewer steps is not evaluated again
    ec, alpha = ctx_generic.ectx, ctx_generic.alpha
    xi = np.array([0.3 + 0.1j, 0.0, 1.4 * ec.omega + 0.3 * ec.omegaP, -0.2 + 0.25j,
                   2.2 * ec.omegaP + 0.4 * ec.omega])
    want = [sigma_ratio_log_scalar(ec, alpha, x) for x in xi.tolist()]
    scalar = [el.sigma_ratio_log(ec, alpha, x) for x in xi.tolist()]
    assert all(isinstance(v, complex) for v in scalar)
    assert np.array(scalar).tobytes() == np.array(want).tobytes()
    sizes = []

    def counted(ctx, u, _fn=el.sigma_w):
        sizes.append(u.shape)
        return _fn(ctx, u)

    monkeypatch.setattr(el, "sigma_w", counted)
    got = el.sigma_ratio_log(ec, alpha, xi)
    assert got.shape == xi.shape and got[1] == 0
    assert got.tobytes() == np.array(want).tobytes()
    # xi[2] needs 64 steps and xi[4] 32
    assert sizes == [(8, 17), (4, 33), (2, 65)]


def _shift_factor(ctx, u0, m, n, xp):
    """elliptic._lattice_factor as it was before its array branch skipped an
    unshifted array: the shift arithmetic runs on every entry."""
    if xp is cmath and not (m or n):
        return 1.0, 0.0
    lam = m * ctx.omega + n * ctx.omegaP
    etal = m * ctx.eta + n * ctx.etaP
    sign = 1 - 2 * ((m + n + m * n) % 2)
    return sign * xp.exp(etal * (u0 + lam / 2)), etal


@pytest.mark.parametrize("gamma", [(1.0, 0.0), (-1.0, 0.0), (-1.2, 0.1),
                                   (0.4 - 0.2j, 0.5 + 0.3j)],
                         ids=["square", "real-rectangular", "gap", "generic"])
@pytest.mark.parametrize("fn", [el.sigma_w, el.sigma_w_prime],
                         ids=["sigma_w", "sigma_w_prime"])
def test_unshifted_array_skips_the_shift_to_the_bit(monkeypatch, gamma, fn):
    # on real lattices and real or imaginary arguments the values have exact
    # zero parts, so a lost signed zero would show
    ec = el.make_context(gamma)
    s = np.linspace(-0.45, 0.45, 11)
    zeros = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for u in (s * ec.omega, s * ec.omegaP, s + 0j, 1j * s, np.array(zeros)):
        assert not el._reduce(ec, u)[1].any() and not el._reduce(ec, u)[2].any()
        got = fn(ec, u)
        with monkeypatch.context() as mp:
            mp.setattr(el, "_lattice_factor", _shift_factor)
            want = fn(ec, u)
        assert got.tobytes() == want.tobytes()
