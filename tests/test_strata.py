from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st_h

from sigma2 import strata as st
from sigma2.errors import DegenerateCurve, NotOnStratum
from sigma2.numerics import DEFAULT_CONFIG, cluster_points, derivative
from sigma2.verify import _cunit, random_gamma


# --- polynomial values ------------------------------------------------------

def test_discriminant_values():
    assert st.discriminant(st.G2Params(0, 0, 0, 0)) == 0
    assert st.discriminant(st.G2Params(0, 0, 0, 1)) == 3125
    assert st.discriminant(st.G2Params(0, 1, 0, 0)) == 0  # x^5 + x^2


def test_gamma_vec_values():
    assert st.gamma_vec(st.G2Params(0, 0, 0, 0)) == (0, 0, 0, 0)
    assert st.gamma_vec(st.G2Params(0, 1, 0, 0)) == (0, 27, 0, 135)
    assert st.gamma_vec(st.G2Params(1, 0, 0, 0))[0] == -4


def test_discriminant_is_quintic_discriminant():
    lam = st.G2Params(F(3, 7), F(-2, 5), F(1, 3), F(4, 9))
    assert st.discriminant_resultant_oracle(lam) == st.discriminant(lam)


# --- chart maps -------------------------------------------------------------

def test_lambda_from_lambda1_examples():
    assert st.lambda_from_lambda1(F(0), (F(0), F(1))).astuple() == (0, 1, 0, 0)
    assert st.lambda_from_lambda1(F(0), (F(1), F(0))).astuple() == (1, 0, 0, 0)
    with pytest.raises(DegenerateCurve):
        st.lambda_from_lambda1(F(1), (F(-3), F(2)))


def test_lambda1_chart_lies_in_discriminant_variety():
    lam = st.lambda_from_lambda1(F(2, 3), (F(1, 2), F(-3, 4)))
    assert st.discriminant(lam) == 0


def test_lambda_from_A_consistency(rng):
    for _ in range(10):
        a = complex(rng.normal(), rng.normal())
        g = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        lam_a = st.lambda_from_A(a, g)
        lam_1 = st.lambda_from_lambda1(0.6 * a, g)
        err = max(abs(x - y) for x, y in zip(lam_a.astuple(), lam_1.astuple()))
        assert err < 1e-12 * (1 + max(abs(x) for x in lam_a.astuple()))
    assert st.lambda_from_A(0.0, (0.0, 1.0)).astuple() == (0, 1, 0, 0)


def test_lambda_from_lambda0_examples():
    assert st.lambda_from_lambda0(1, 0).astuple() == (-3, 2, 0, 0)
    assert st.lambda_from_lambda0(0, 0).astuple() == (0, 0, 0, 0)
    a = F(3, 5)
    lam = st.lambda_from_lambda0(a, a)
    assert lam.astuple() == (-10 * a ** 2, 20 * a ** 3, -15 * a ** 4, 4 * a ** 5)


def test_lambda0_chart_kills_gamma_vec():
    lam = st.lambda_from_lambda0(F(5, 7), F(-2, 3))
    assert st.gamma_vec(lam) == (0, 0, 0, 0)


# --- classification ---------------------------------------------------------

RANK_CASES = [
    ((0, 0, 0, 0), "Lambda0", (5,), 0),
    ((0, 1, 0, 0), "Lambda1", (2, 1, 1, 1), 3),
    ((1, 0, 0, 0), "Lambda1", (3, 1, 1), 2),
    ((-3, 2, 0, 0), "Lambda0", (2, 2, 1), 2),
    ((-10, 20, -15, 4), "Lambda0", (4, 1), 1),
    ((-5, 0, 4, 0), "Lambda2", (1, 1, 1, 1, 1), 4),
]


@pytest.mark.parametrize("lam,stratum,part,rank", RANK_CASES)
def test_classify_representatives(lam, stratum, part, rank):
    cls = st.classify(st.G2Params(*lam))
    assert (cls.stratum, cls.partition, cls.rank) == (stratum, part, rank)


def test_classify_lambda1_recovery_values():
    cls = st.classify(st.G2Params(0, 1, 0, 0))
    assert abs(cls.a2) < 1e-12
    assert abs(cls.gamma.gamma4) < 1e-12 and abs(cls.gamma.gamma6 - 1) < 1e-12


def test_classify_lambda0_pair_ordering():
    # (a2, b2) comes back ordered lexicographically by (Re, Im)
    cls = st.classify(st.G2Params(-3, 2, 0, 0))
    assert abs(cls.a2 - 0) < 1e-10 and abs(cls.b2 - 1) < 1e-10


def test_recover_round_trips(rng):
    for _ in range(100):
        a2 = complex(rng.normal(), rng.normal())
        g4 = complex(rng.normal(), rng.normal())
        g6 = complex(rng.normal(), rng.normal())
        from sigma2.elliptic import delta_gamma
        if abs(delta_gamma(g4, g6)) < 0.05 * (abs(g4) ** 3 + abs(g6) ** 2):
            continue
        lam = st.lambda_from_lambda1(a2, (g4, g6))
        ra, rg = st.recover_lambda1(lam)
        scale = 1 + abs(a2) + abs(g4) + abs(g6)
        assert abs(ra - a2) / scale < 1e-9
        assert abs(rg.gamma4 - g4) / scale < 1e-9
        assert abs(rg.gamma6 - g6) / scale < 1e-9
    for _ in range(100):
        a2 = complex(rng.normal(), rng.normal())
        b2 = complex(rng.normal(), rng.normal())
        lam = st.lambda_from_lambda0(a2, b2)
        ra, rb = st.recover_lambda0(lam)
        want = sorted([a2, b2], key=lambda z: (z.real, z.imag))
        scale = 1 + abs(a2) + abs(b2)
        assert abs(ra - want[0]) / scale < 1e-9
        assert abs(rb - want[1]) / scale < 1e-9


def test_recover_raises_off_stratum():
    with pytest.raises(NotOnStratum):
        st.recover_lambda1(st.G2Params(-5, 0, 4, 0))
    with pytest.raises(NotOnStratum):
        st.recover_lambda0(st.G2Params(0, 1, 0, 0))


@settings(max_examples=20, deadline=None)
@given(st_h.floats(0.5, 2.0))
def test_classify_weight_rescaling_invariance(t):
    lam = st.G2Params(0.3 - 0.2j, 0.5 + 0.1j, 0j, 0j)
    base = st.classify(st.lambda_from_lambda1(0.4, (0.7, 0.3)))
    scaled = st.classify(st.lambda_from_lambda1(0.4, (0.7, 0.3)).rescaled(t))
    assert scaled.stratum == base.stratum
    assert scaled.partition == base.partition
    # recovered parameters rescale with their Sato weights
    assert abs(scaled.a2 - t ** 2 * base.a2) < 1e-8 * (1 + t ** 2)



# --- classify against the numpy polynomial path -------------------------------

def _np_polish(ds, m, z):
    g, dg = ds[m - 1], ds[m]
    for _ in range(40):
        f, d = np.polyval(g, z), np.polyval(dg, z)
        if d == 0:
            break
        step = f / d
        z = z - step
        if abs(step) < 1e-15 * (1 + abs(z)):
            break
    return z


def _reference_classify(lam):
    """(stratum, partition, a2, b2, gamma) with np.roots for the roots,
    np.polyval Newton for the polish and the Fraction weight scale."""
    s = max(float(abs(v) ** F(1, w)) for v, w in zip(lam.astuple(), (4, 6, 8, 10)))
    if s == 0.0:
        return "Lambda0", (5,), 0j, 0j, None
    ln = st._normalized(lam, s)
    ds = [np.array([1, 0, *ln.astuple()], dtype=complex)]
    for _ in range(4):
        ds.append(np.polyder(ds[-1]))
    radius = max(DEFAULT_CONFIG.cluster_tol, st._CLUSTER_FLOOR)
    clusters = cluster_points(np.roots(ds[0]), radius)
    mults = tuple(sorted((len(m) for _, m in clusters), reverse=True))
    centers = [(complex(_np_polish(ds, len(m), c)), len(m)) for c, m in clusters]
    if mults == (1, 1, 1, 1, 1):
        return "Lambda2", mults, None, None, None
    if mults in ((2, 1, 1, 1), (3, 1, 1)):
        a2n = max(centers, key=lambda cm: cm[1])[0]
        a2, (g4, g6), _ = st._recover_lambda1_normalized(ln, a2n)
        return "Lambda1", mults, a2 * s**2, None, (g4 * s**4, g6 * s**6)
    a2, b2, _ = st._recover_lambda0_normalized(ln, centers, mults)
    return "Lambda0", mults, a2 * s**2, b2 * s**2, None


RANK_TABLE = [
    (-5, 0, 4, 0), st.lambda_from_lambda1(0.5, (1.0, 0.25)).astuple(),
    (1, 0, 0, 0), (-3, 2, 0, 0), st.lambda_from_lambda0(1.0, -2.0 / 3.0).astuple(),
    (-10, 20, -15, 4), (0, 0, 0, 0),
]


def test_classify_matches_numpy_polynomial_reference():
    rng = np.random.default_rng(11)
    lams = [st.G2Params(*t) for t in RANK_TABLE]
    for _ in range(150):
        lams.append(st.G2Params(*(_cunit(rng) for _ in range(4))))
        lams.append(st.lambda_from_lambda1(_cunit(rng), random_gamma(rng)))
        lams.append(st.lambda_from_lambda0(_cunit(rng), _cunit(rng)))
    for lam in lams:
        cls = st.classify(lam)
        stratum, part, a2, b2, gamma = _reference_classify(lam)
        assert (cls.stratum, cls.partition) == (stratum, part)
        got = [cls.a2, cls.b2]
        want = [a2, b2]
        if gamma is not None:
            got += [cls.gamma.gamma4, cls.gamma.gamma6]
            want += list(gamma)
        for x, y in zip(got, want):
            assert (x is None) == (y is None)
            if y is not None:
                assert abs(x - y) <= 1e-12 * (1 + abs(y))


def test_trailing_zero_roots_are_exact():
    assert st._quintic_roots([1, 0, 1, 0, 0, 0])[2:] == [0j, 0j, 0j]
    assert st.classify(st.G2Params(1, 0, 0, 0)).partition == (3, 1, 1)


def _from_roots(roots):
    return st.G2Params(*(complex(c) for c in np.poly(roots)[2:]))


_unit = st_h.floats(-1.0, 1.0)
_points = st_h.tuples(_unit, _unit).map(lambda xy: complex(*xy))
_scales = st_h.one_of(
    st_h.floats(1e-3, 1e3),
    st_h.floats(0.0, 2 * np.pi).map(lambda phi: complex(np.cos(phi), np.sin(phi))))


def _separated(roots, gap=0.2):
    return all(abs(x - y) >= gap for i, x in enumerate(roots) for y in roots[i + 1:])


def _rel_err(x, want, t_w):
    return abs(x / t_w - want) / (1 + abs(want))


@settings(max_examples=40, deadline=None)
@given(_points, _points, _points, _scales)
def test_classify_sato_covariance_lambda1(a2, r1, r2, t):
    r3 = -(2 * a2 + r1 + r2)
    assume(_separated([a2, r1, r2, r3]))
    lam = _from_roots([a2, a2, r1, r2, r3])
    base = st.classify(lam)
    scaled = st.classify(lam.rescaled(t))
    assert base.partition == scaled.partition == (2, 1, 1, 1)
    assert _rel_err(scaled.a2, base.a2, t**2) < 1e-12
    assert _rel_err(scaled.gamma.gamma4, base.gamma.gamma4, t**4) < 1e-12
    assert _rel_err(scaled.gamma.gamma6, base.gamma.gamma6, t**6) < 1e-12


@settings(max_examples=40, deadline=None)
@given(_points, _points, _scales)
def test_classify_sato_covariance_lambda0(a2, b2, t):
    c = -2 * (a2 + b2)
    assume(_separated([a2, b2, c]))
    lam = _from_roots([a2, a2, b2, b2, c])
    base = st.classify(lam)
    scaled = st.classify(lam.rescaled(t))
    assert base.partition == scaled.partition == (2, 2, 1)
    # the (Re, Im) order of the pair need not survive a complex rescaling
    got = (scaled.a2, scaled.b2)
    err = min(max(_rel_err(x, y, t**2) for x, y in zip(got, pair))
              for pair in ((base.a2, base.b2), (base.b2, base.a2)))
    assert err < 1e-12


# --- vector fields ----------------------------------------------------------

def test_vmatrix_det_antidiagonal():
    lam = st.G2Params(F(0), F(0), F(0), F(1))
    assert st.vmatrix_det(lam) == 10000
    assert st.vmatrix_det(lam) == F(16, 5) * st.discriminant(lam)


def test_vmatrix_zero():
    vf = st.vmatrix(st.G2Params(F(0), F(0), F(0), F(0)))
    assert all(all(x == 0 for x in row) for row in vf.V)


def test_det_v_identity_random_rationals(rng):
    for _ in range(25):
        lam = st.G2Params(*[F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                            for _ in range(4)])
        assert st.vmatrix_det(lam) == F(16, 5) * st.discriminant(lam)


def test_tangency_exact_rational():
    lam = st.G2Params(F(3, 7), F(-2, 5), F(1, 3), F(4, 9))
    res = st.tangency_residuals(lam)
    assert all(x == 0 for x in res["delta"])
    assert all(c == 0 for row in res["gamma"] for c in row)


def test_tangency_float_residuals(rng):
    worst = 0.0
    for _ in range(50):
        lam = st.G2Params(*[complex(rng.normal(), rng.normal()) for _ in range(4)])
        res = st.tangency_residuals(lam)
        scale = 1 + abs(st.discriminant(lam))
        worst = max(worst, max(abs(x) for x in res["delta"]) / scale)
    assert worst < 1e-9


# --- restricted frame fields -------------------------------------------------

def test_restricted_fields_lambda1_values():
    f = st.restricted_fields_lambda1(F(1), (F(1), F(1)))
    assert f["l0"] == (2, 4, 6)
    assert f["l6_decomposition"] == (-1, -1, -1)
    f0 = st.restricted_fields_lambda1(F(0), (F(1), F(1)))
    assert f0["l6_decomposition"] == (0, 0, 0)


def test_restricted_fields_lambda0_values():
    f = st.restricted_fields_lambda0(F(1), F(1))
    assert f["l0"] == (2, 2)
    z = st.restricted_fields_lambda0(F(0), F(0))
    assert z["l0"] == (0, 0) and z["l2"] == (0, 0)
    assert z["l4_decomposition"] == (0, 0) and z["l6_decomposition"] == (0, 0)


def _push_lambda1(a2, g4, g6, coeffs, h=1e-6):
    """Apply a chart field (coefficients on d_a2, d_g4, d_g6) to the chart map."""
    c_a, c_4, c_6 = coeffs

    def lam_of(t):
        return st.lambda_from_lambda1(a2 + t * c_a, (g4 + t * c_4, g6 + t * c_6))

    up, dn = lam_of(h), lam_of(-h)
    return [(u - d) / (2 * h) for u, d in zip(up.astuple(), dn.astuple())]


def test_pushforward_consistency_lambda1(rng):
    for _ in range(20):
        a2 = complex(rng.normal(), rng.normal()) * 0.7
        g4 = complex(rng.normal(), rng.normal()) * 0.7
        g6 = complex(rng.normal(), rng.normal()) * 0.7
        from sigma2.elliptic import delta_gamma
        if abs(delta_gamma(g4, g6)) < 0.05 * (abs(g4) ** 3 + abs(g6) ** 2):
            continue
        lam = st.lambda_from_lambda1(a2, (g4, g6))
        vf = st.vmatrix(lam)
        fields = st.restricted_fields_lambda1(a2, (g4, g6))
        for k, key in ((0, "l0"), (1, "l2"), (2, "l4")):
            got = _push_lambda1(a2, g4, g6, fields[key])
            want = vf.V[k]
            scale = 1 + max(abs(w) for w in want)
            assert max(abs(a - b) for a, b in zip(got, want)) / scale < 1e-7
        # the missing frame direction decomposes on the other three
        c0, c2, c4 = fields["l6_decomposition"]
        combo = [c0 * x + c2 * y + c4 * z for x, y, z in
                 zip(fields["l0"], fields["l2"], fields["l4"])]
        got = _push_lambda1(a2, g4, g6, combo)
        want = vf.V[3]
        scale = 1 + max(abs(w) for w in want)
        assert max(abs(a - b) for a, b in zip(got, want)) / scale < 1e-7


def _push_lambda0(a2, b2, coeffs, h=1e-6):
    c_a, c_b = coeffs

    def lam_of(t):
        return st.lambda_from_lambda0(a2 + t * c_a, b2 + t * c_b)

    up, dn = lam_of(h), lam_of(-h)
    return [(u - d) / (2 * h) for u, d in zip(up.astuple(), dn.astuple())]


def test_pushforward_consistency_lambda0(rng):
    for _ in range(20):
        a2 = complex(rng.normal(), rng.normal()) * 0.7
        b2 = complex(rng.normal(), rng.normal()) * 0.7
        lam = st.lambda_from_lambda0(a2, b2)
        vf = st.vmatrix(lam)
        fields = st.restricted_fields_lambda0(a2, b2)
        fl0, fl2 = fields["l0"], fields["l2"]
        combos = {
            0: fl0,
            1: fl2,
            2: [c * x + d * y for x, y, (c, d) in
                zip(fl0, fl2, [fields["l4_decomposition"]] * 2)],
            3: [c * x + d * y for x, y, (c, d) in
                zip(fl0, fl2, [fields["l6_decomposition"]] * 2)],
        }
        for k, coeffs in combos.items():
            got = _push_lambda0(a2, b2, coeffs)
            want = vf.V[k]
            scale = 1 + max(abs(w) for w in want)
            assert max(abs(a - b) for a, b in zip(got, want)) / scale < 1e-7


# --- discriminant gradient on the stratum ------------------------------------

def test_gradient_delta_closed_form(rng):
    for _ in range(5):
        a2 = complex(rng.normal(), rng.normal()) * 0.8
        g4 = complex(rng.normal(), rng.normal())
        g6 = complex(rng.normal(), rng.normal())
        from sigma2.elliptic import delta_gamma
        if abs(delta_gamma(g4, g6)) < 0.05 * (abs(g4) ** 3 + abs(g6) ** 2):
            continue
        chk = st.gradient_delta_check(a2, (g4, g6))
        assert chk["residual"] < 1e-9
        # direction: proportional to (a2^3, a2^2, a2, 1)
        g = chk["gradient"]
        if abs(g[3]) > 1e-8:
            ratios = [g[0] / g[3], g[1] / g[3], g[2] / g[3]]
            want = [a2 ** 3, a2 ** 2, a2]
            assert max(abs(r - w) for r, w in zip(ratios, want)) < 1e-6 * (1 + abs(a2) ** 3)


def test_gradient_vanishes_at_branch_point():
    chk = st.gradient_delta_check(0.0, (1.0, 0.0))
    assert max(abs(g) for g in chk["gradient"]) < 1e-10
    assert max(abs(g) for g in chk["closed_form"]) < 1e-10


def test_ambiguous_near_boundary():
    # two root pairs straddling the clustering radius: the partition and the
    # polynomial magnitudes disagree, which must surface, not silently pick
    d = 1.6e-3
    roots = [1.0, 1.0 + d, -0.5, -0.5 - d, 0.0]
    roots[-1] = -sum(roots[:-1])
    coeffs = np.poly(roots)
    lam = st.G2Params(*[complex(c) for c in coeffs[2:]])
    from sigma2.errors import AmbiguousClassification
    with pytest.raises(AmbiguousClassification):
        st.classify(lam)
