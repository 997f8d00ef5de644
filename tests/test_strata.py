import cmath
import re
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st_h

from sigma2 import strata as st
from sigma2.errors import (AmbiguousClassification, DegenerateCurve,
                           NumericalFailure, Sigma2Error)
from sigma2.verify import (_cunit, _ring_gradient, random_gamma, run_suite,
                           suite_algebra, suite_classify)

from oracles import cluster_points, lambda1_upsilon


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
        cls = st.classify(st.lambda_from_lambda1(a2, (g4, g6)))
        assert cls.stratum == "Lambda1"
        ra, rg = cls.a2, cls.gamma
        scale = 1 + abs(a2) + abs(g4) + abs(g6)
        assert abs(ra - a2) / scale < 1e-9
        assert abs(rg.gamma4 - g4) / scale < 1e-9
        assert abs(rg.gamma6 - g6) / scale < 1e-9
    for _ in range(100):
        a2 = complex(rng.normal(), rng.normal())
        b2 = complex(rng.normal(), rng.normal())
        cls = st.classify(st.lambda_from_lambda0(a2, b2))
        assert cls.stratum == "Lambda0"
        ra, rb = cls.a2, cls.b2
        want = sorted([a2, b2], key=lambda z: (z.real, z.imag))
        scale = 1 + abs(a2) + abs(b2)
        assert abs(ra - want[0]) / scale < 1e-9
        assert abs(rb - want[1]) / scale < 1e-9


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
    ds = [np.array([1, 0, *ln], dtype=complex)]
    for _ in range(4):
        ds.append(np.polyder(ds[-1]))
    clusters = cluster_points(np.roots(ds[0]), st._CLUSTER_FLOOR)
    mults = tuple(sorted((len(m) for _, m in clusters), reverse=True))
    centers = [(complex(_np_polish(ds, len(m), c)), len(m)) for c, m in clusters]
    if mults == (1, 1, 1, 1, 1):
        return "Lambda2", mults, None, None, None
    ln = [complex(v) for v in ln]
    if mults in ((2, 1, 1, 1), (3, 1, 1)):
        a2n = max(centers, key=lambda cm: cm[1])[0]
        a2, g4, g6, _, _ = st._lambda1_reading(ln, a2n)
        return "Lambda1", mults, a2 * s**2, None, (g4 * s**4, g6 * s**6)
    zs = [c for c, m in sorted(centers, key=lambda cm: -cm[1]) if m > 1]
    a2, b2, _ = st._lambda0_reading(ln, zs)
    return "Lambda0", mults, a2 * s**2, b2 * s**2, None


RANK_TABLE = [
    (-5, 0, 4, 0), st.lambda_from_lambda1(0.5, (1.0, 0.25)).astuple(),
    (1, 0, 0, 0), (-3, 2, 0, 0), st.lambda_from_lambda0(1.0, -2.0 / 3.0).astuple(),
    (-10, 20, -15, 4), (0, 0, 0, 0),
]
RANK_TABLE_POINTS = [st.G2Params(*t) for t in RANK_TABLE]
RANK_TABLE_PARTITIONS = [(1, 1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1), (2, 2, 1),
                         (3, 2), (4, 1), (5,)]


def test_classify_matches_numpy_polynomial_reference():
    rng = np.random.default_rng(11)
    lams = list(RANK_TABLE_POINTS)
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
    assert st._quintic_roots([[1, 0, 1, 0, 0, 0]])[0][2:] == [0j, 0j, 0j]
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


# --- the batched route --------------------------------------------------------

def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


_R = st._CLUSTER_FLOOR
_EPS = float(np.finfo(float).eps)
# a point at 0, anywhere, or a few radii from an earlier point (step 0: an
# exact duplicate); steps along one angle make single-linkage chains
_moves = st_h.one_of(
    st_h.just(0j), _points,
    st_h.tuples(st_h.integers(0, 3),
                st_h.sampled_from((0.0, 0.3, 0.7, 0.99, 1.01, 1.5, 4.0)),
                st_h.sampled_from((0.0, 0.5, 2.5, np.pi))))


@settings(max_examples=300, deadline=None)
@given(st_h.lists(_moves, min_size=5, max_size=5))
@example([0j, (0, 0.7, 0.0), (1, 0.7, 0.0), (0, 0.7, np.pi), 0.5 + 0.5j])  # a chain
@example([0j, 0j, (1, 0.0, 0.0), (0, 0.99, 2.5), (3, 0.99, 2.5)])
def test_clusters_match_greedy_reference(moves):
    roots = []
    for i, mv in enumerate(moves):
        if isinstance(mv, tuple):
            j, step, angle = mv
            mv = (roots[j % i] if i else 0j) + step * _R * cmath.rect(1.0, angle)
        roots.append(mv)
    want = sorted((_bits(c), len(m)) for c, m in cluster_points(roots, _R))
    got = sorted((_bits(c), m) for c, m in st._clusters(roots))
    assert got == want


def test_complexes_arithmetic_is_pythons():
    # _Complexes gives, bit for bit, what Python's complex arithmetic gives,
    # over 16 decades, on zeros of either sign and on ties |Re| = |Im|
    rng = np.random.default_rng(3)
    parts = rng.normal(size=(2, 2, 3000)) * 10.0 ** rng.integers(-8, 8, (2, 2, 3000))
    xs = [complex(a, b) for a, b in zip(*parts[0])]
    ys = [complex(a, b) for a, b in zip(*parts[1])]
    edge = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0]
    xs += [complex(a, b) for a in edge for b in edge]
    ys += [complex(a, b) for a in edge[::-1] for b in edge]
    ys = [y if y else 2.5 - 2.5j for y in ys]
    x, y = st._Complexes.of(xs), st._Complexes.of(ys)

    def same(got, want):
        return [_bits(z) for z in got.tolist()] == [_bits(z) for z in want]

    assert same(x + y, [a + b for a, b in zip(xs, ys)])
    assert same(x - y, [a - b for a, b in zip(xs, ys)])
    assert same(x * y, [a * b for a, b in zip(xs, ys)])
    assert same(x / y, [a / b for a, b in zip(xs, ys)])
    assert same(-x, [-a for a in xs])
    for n in range(1, 6):
        assert same(x**n, [a**n for a in xs])
    for c in (3, -2, 0.25, 1 / 3, 2 - 1j):
        assert same(c * x, [c * a for a in xs]) and same(x * c, [a * c for a in xs])
        assert same(x - c, [a - c for a in xs]) and same(x + c, [a + c for a in xs])
        assert same(x / c, [a / c for a in xs])
    assert abs(x).tolist() == [abs(a) for a in xs]
    assert (x == 0).tolist() == [a == 0 for a in xs]


def _mixed_points(rng, per_chart):
    pts = RANK_TABLE_POINTS + [_near_boundary_point(), st.G2Params(0, 0, 0, 0)]
    for _ in range(per_chart):
        pts.append(st.G2Params(*(_cunit(rng) for _ in range(4))))
        pts.append(st.lambda_from_lambda1(_cunit(rng), random_gamma(rng)))
        pts.append(st.lambda_from_lambda0(_cunit(rng), _cunit(rng)))
    return [pts[i] for i in rng.permutation(len(pts))]


def _roots(lam):
    """The roots of lam's normalized quintic, as classify computes them."""
    return st._quintic_roots([st._monic(st._setup(lam)[2])])[0]


def _closest_gap(lam):
    """The smallest distance between two roots of lam's normalized quintic,
    as classify computes those roots (None at the origin)."""
    if not st._setup(lam)[1]:
        return None
    roots = _roots(lam)
    return min(abs(x - y) for i, x in enumerate(roots) for y in roots[i + 1:])


def _floor_points():
    """Points whose closest root pair lies within 4 ulps of _CLUSTER_FLOOR,
    at or below it and above it, with every one found exactly at it:
    x (x^4 - x^2 + x/2 + l8), weight scale 1 (so normalization is exact),
    its small root at _CLUSTER_FLOOR for one l8, which is nudged an ulp at
    a time."""
    l8 = -(_R**4 - _R**2 + 0.5 * _R)
    lams = [st.G2Params(-1.0, 0.5, l8 + k * np.spacing(l8), 0.0)
            for k in range(-1500, 1501)]
    gaps = [min(abs(x - y) for i, x in enumerate(r) for y in r[i + 1:])
            for r in st._quintic_roots([st._monic(st._setup(lam)[2]) for lam in lams])]
    near = [(gap, lam) for gap, lam in zip(gaps, lams)
            if abs(gap - _R) <= 4 * np.spacing(_R)]
    below = [lam for gap, lam in near if gap < _R]
    above = [lam for gap, lam in near if gap > _R]
    assert below and above
    return [lam for gap, lam in near if gap == _R] + below[:4] + above[:4]


def _chain_point(pairs):
    """A point whose normalized roots are c + _R * o over the (c, o) pairs,
    shifted to sum to zero: roots normalize by s^2 (s the weight scale),
    so the offsets are scaled by it until it settles."""
    t = 1.0
    for _ in range(5):
        roots = np.array([c + _R * t * o for c, o in pairs])
        lam = _from_roots(roots - roots.mean())
        t = st._setup(lam)[1] ** 2
    return lam


_TURN = cmath.rect(1.0, 2.5)
# single-linkage chains (a member farther than the radius from another
# member of its cluster) of partitions (4, 1), (3, 1, 1) and (3, 2), and
# steps just past the radius
CHAIN_POINTS = [_chain_point(p) for p in (
    [(0, 0), (0, 0.7), (0, 1.4), (0, -0.7), (0.5 + 0.5j, 0)],
    [(0, 0), (0, 0.99 * _TURN), (0, 1.98 * _TURN), (0.5 + 0.5j, 0), (-0.6 + 0.2j, 0)],
    [(0, 0), (0, 0.7), (0, 1.4), (-0.6 + 0.2j, 0), (-0.6 + 0.2j, 0.99j)],
    [(0, 0), (0, 0.7), (0, 1.4), (0.5 + 0.5j, 0), (-0.6 + 0.2j, 0)],
    [(0, 0), (0, 1.01), (0, 2.02), (0.5 + 0.5j, 0), (-0.6 + 0.2j, 0)],
)]


def _edge_points(rng, per_chart):
    """_mixed_points plus the points at the cluster radius, the chains and
    each rank-table point at two more scales, shuffled into one batch."""
    pts = (_mixed_points(rng, per_chart) + _floor_points() + CHAIN_POINTS
           + [lam.rescaled(t) for lam in RANK_TABLE_POINTS for t in (0.5, 3.0)])
    return [pts[i] for i in rng.permutation(len(pts))]


def _monomial_mass(monos, ln):
    """sum |c| |monomial| at the normalized point ln: the scale of the
    rounding error of one evaluation of the polynomial there."""
    pw = st._powers([abs(complex(v)) for v in ln])
    return st._eval_monomials([(abs(c), p) for c, p in monos], pw)


def _masked(exc):
    """A refusal's message with the |Delta| and |Gamma| it quotes masked,
    as the batch's magnitudes differ from classify's by rounding."""
    msg = re.sub(r"(\|Delta\|=|\|Gamma\|=)\S+", r"\1#", str(exc))
    return re.sub(r"disagree \(.*\)", "disagree (#)", msg)


def _as_classify(lam, got):
    """Assert that got, classify_many's entry for lam, is what classify
    gives there: the same refusal, or the same stratum, partition, rank,
    point and chart values bit for bit (by repr, which keeps every bit and
    the signs of zeros) and the same round trips; numpy's complex arithmetic
    rounds differently from Python's, so the batched magnitudes may move by
    a few eps times the mass.  True when classify raises."""
    try:
        want = st.classify(lam)
    except Sigma2Error as exc:
        assert type(got) is type(exc)
        assert _masked(got) == _masked(exc)
        return True
    assert isinstance(got, st.StratumClassification)
    for key in ("stratum", "partition", "rank", "lam", "a2", "b2", "gamma"):
        assert repr(getattr(got, key)) == repr(getattr(want, key))
    assert got.residuals.keys() == want.residuals.keys()
    ln = st._setup(lam)[2]
    mass = {} if ln is None else {
        "delta_abs": _monomial_mass(st._DELTA_MONOMIALS, ln),
        "gamma_norm": max(_monomial_mass(m, ln) for m in st._GAMMA_MONOMIALS)}
    for key, value in want.residuals.items():
        if key in mass:
            assert abs(got.residuals[key] - value) <= 16 * _EPS * mass[key]
        else:
            assert got.residuals[key] == value
    return False


def test_classify_many_matches_classify():
    assert st.classify_many([]) == []
    pts = _edge_points(np.random.default_rng(19), 100)
    raised = sum(_as_classify(lam, got) for lam, got in zip(pts, st.classify_many(pts)))
    assert raised >= 1      # the near-boundary point
    # refusals from the chains, mixed with every stratum
    assert raised >= 5
    assert {cls.stratum for cls in st.classify_many(pts)
            if not isinstance(cls, Sigma2Error)} == {"Lambda2", "Lambda1", "Lambda0"}
    assert {cls.partition for cls in map(st.classify, RANK_TABLE_POINTS)} == set(
        st.RANK_BY_PARTITION)


def test_lambda1_round_trip_is_the_upsilon_residual(monkeypatch):
    """A Lambda1 result measures its chart membership once, by the round
    trip: times (1 + max |ln|) it is the largest of the four defining
    polynomials of the locus (oracles.lambda1_upsilon) at the normalized
    point ln and its reading, within 8 eps (1 + max |ln|), on classify and
    classify_many alike.  Seeded points on the stratum read O(eps), and
    points pushed 1e-10 .. 1e-7 off it in l8 or l10 read O(push)."""
    rng = np.random.default_rng(23)
    pts, pushes = [], []
    for _ in range(60):
        lam = st.lambda_from_lambda1(_cunit(rng), random_gamma(rng))
        s = st._setup(lam)[1]
        pts.append(lam)
        pushes.append(0.0)
        for push in (1e-10, 1e-9, 1e-8, 1e-7):
            k = int(rng.integers(2, 4))         # l8 or l10, weight 2k + 4
            vals = list(lam.astuple())
            vals[k] += push * s ** (2 * k + 4) * _cunit(rng)
            pts.append(st.G2Params(*vals))
            pushes.append(push)
    batch = st.classify_many(pts)
    readings = []
    reading = st._lambda1_reading

    def spy(ln, a2):
        out = reading(ln, a2)
        readings.append((ln, *out[:3]))
        return out

    monkeypatch.setattr(st, "_lambda1_reading", spy)
    read = set()
    for lam, push, got in zip(pts, pushes, batch):
        try:
            cls = st.classify(lam)
        except Sigma2Error:
            assert isinstance(got, Sigma2Error)
            continue
        assert cls.stratum == got.stratum == "Lambda1"
        ln, a2, g4, g6 = readings[-1]
        top = 1.0 + max(abs(v) for v in ln)
        ups = max(abs(u) for u in lambda1_upsilon(ln, a2, g4, g6))
        for res in (cls.residuals, got.residuals):
            assert res.keys() == {"delta_abs", "gamma_norm", "roundtrip"}
            assert abs(res["roundtrip"] * top - ups) <= 8 * _EPS * top
        assert ups <= 64 * _EPS if push == 0 else 1e-2 * push < ups < 10 * push
        read.add(push)
    assert read == {0.0, 1e-10, 1e-9, 1e-8, 1e-7}


def _in_triple(lam):
    """Whether the greedy reference puts three or more roots of lam's
    normalized quintic in one cluster (False at the origin)."""
    return bool(st._setup(lam)[1]) and max(
        len(m) for _, m in cluster_points(_roots(lam), _R)) >= 3


def test_classify_many_clusters_only_points_with_close_roots(monkeypatch):
    # only a point with a cluster of three or more roots is clustered, once;
    # a point whose close root pairs are disjoint reads its partition and
    # centers from the batch's root distances.  The rank table's (3, 1, 1),
    # (3, 2) and (4, 1) points at three scales and the single-linkage chains
    # (r1 ~ r2 ~ r3 with |r1 - r3| past the radius) take the clustering path;
    # the origin, the one (5,) point, is decided before it
    pts = _edge_points(np.random.default_rng(23), 30)
    seen = []
    clusters = st._clusters

    def counted(roots):
        seen.append(tuple(map(_bits, roots)))
        return clusters(roots)

    monkeypatch.setattr(st, "_clusters", counted)
    got = st.classify_many(pts)
    triple = [lam for lam in pts if _in_triple(lam)]
    assert sorted(seen) == sorted(tuple(map(_bits, _roots(lam))) for lam in triple)
    monkeypatch.undo()
    multiple = [lam.rescaled(t)
                for lam, part in zip(RANK_TABLE_POINTS, RANK_TABLE_PARTITIONS)
                if part in {(3, 1, 1), (3, 2), (4, 1)} for t in (0.5, 1.0, 3.0)]
    assert len(multiple) == 9 and all(lam in triple for lam in multiple)
    # the chains, each a cluster with two members farther apart than _R
    for lam in CHAIN_POINTS[:4]:
        assert lam in triple
        assert any(len(m) >= 3 and max(abs(x - y) for x in m for y in m) > _R
                   for _, m in cluster_points(_roots(lam), _R))
    pairs = [lam for lam in pts if st._setup(lam)[1] and not _in_triple(lam)
             and _closest_gap(lam) <= _R]
    assert len(pairs) > 20
    for lam, cls in zip(pts, got):
        if lam in triple or not st._setup(lam)[1]:
            _as_classify(lam, cls)


def _depressed(roots):
    """Monic quintic coefficients (x^4 term 0) with the given roots."""
    c = np.poly(roots)
    assert abs(c[1]) < 1e-12
    return [1.0 + 0j, 0j, *map(complex, c[2:])]


def _polish_pool():
    """(quintic, start) pairs for m = 2, in a fixed order: a triple root's
    Newton on p' runs to the 40-step cap; at z = 0 with l6 = 0, p''(z) is
    exactly 0 before the first step; the third entry's first step is
    exactly 1e-15 (1 + |z|), then one more step moves z by 1e-33.  The
    seeded entries alternate triple and double roots: the triples take 16
    steps or more (ten of them the cap), most doubles 3 or 4."""
    pool = [(_depressed([0.5, 0.5, 0.5, 0.5j, -1.5 - 0.5j]), 0.5 + 1e-4),
            ([1.0 + 0j, 0j, 1.0 + 0j, 0j, 0.5 + 0j, 0.2 + 0j], 0j),
            ([1.0 + 0j, 0j, 0j, 0.5 + 0j, 1e-33 + 0j, 0.3 + 0j], 1e-15 + 0j)]
    rng = np.random.default_rng(29)
    while len(pool) < 40:
        a, r = (complex(*rng.uniform(-1, 1, 2)) for _ in range(2))
        mult = 2 + len(pool) % 2
        rest = [a] * mult + [r] * (4 - mult)
        p = _depressed(rest + [-sum(rest)])
        pool.append((p, a + 1e-4 * complex(*rng.uniform(-1, 1, 2))))
    return pool


def test_polish_many_is_polish_root_per_entry(monkeypatch):
    # one batched loop gives every entry of a batch _polish_root's value
    # to the bit, at 1, 2, 16, 17 and 40 entries, with each of the pool's
    # three special entries in every size below 40
    pool = _polish_pool()
    horner = st._horner
    calls = []

    def counted(p, z):
        calls.append(1)
        return horner(p, z)

    monkeypatch.setattr(st, "_horner", counted)
    for (p, z), n in zip(pool, (2 * st._POLISH_STEPS, 2, 4)):    # two per step
        calls.clear()
        st._polish_root(st._poly_derivs(p), 2, z)
        assert len(calls) == n
    monkeypatch.undo()
    batches = [[pool[k]] + pool[3:n + 2] for n in (1, 2, 16, 17) for k in range(3)]
    for batch in batches + [pool]:
        coeffs = np.array([p for p, _ in batch])
        ds = st._poly_derivs([st._Complexes.of(c) for c in coeffs.T])
        got = st._polish_many(ds, 2, st._Complexes.of([z for _, z in batch]))
        want = [st._polish_root(st._poly_derivs(p), 2, z) for p, z in batch]
        assert list(map(_bits, got.tolist())) == list(map(_bits, want))


def _suite_classify_reference(rng, samples):
    """verify.suite_classify as a loop of one-point classify calls."""
    mis = 0
    worst_rt = 0.0
    for _ in range(samples):
        lam = st.G2Params(_cunit(rng), _cunit(rng), _cunit(rng), _cunit(rng))
        try:
            cls = st.classify(lam)
        except Sigma2Error:
            mis += 1
            continue
        if cls.stratum != "Lambda2":
            mis += 1
    for _ in range(samples):
        g4, g6 = random_gamma(rng)
        a2 = _cunit(rng)
        try:
            cls = st.classify(st.lambda_from_lambda1(a2, (g4, g6)))
        except Sigma2Error:
            mis += 1
            continue
        if cls.stratum != "Lambda1":
            mis += 1
            continue
        scale = 1.0 + abs(a2) + abs(g4) + abs(g6)
        worst_rt = max(worst_rt, abs(cls.a2 - a2) / scale,
                       abs(cls.gamma.gamma4 - g4) / scale,
                       abs(cls.gamma.gamma6 - g6) / scale)
    for _ in range(samples):
        a2, b2 = _cunit(rng), _cunit(rng)
        try:
            cls = st.classify(st.lambda_from_lambda0(a2, b2))
        except Sigma2Error:
            mis += 1
            continue
        if cls.stratum != "Lambda0":
            mis += 1
            continue
        want = sorted([a2, b2], key=lambda z: (z.real, z.imag))
        scale = 1.0 + abs(a2) + abs(b2)
        worst_rt = max(worst_rt, max(abs(x - y) for x, y in
                                     zip([cls.a2, cls.b2], want)) / scale)
    table_ok = all((cls.partition, cls.rank) == (part, st.RANK_BY_PARTITION[part])
                   for cls, part in zip(map(st.classify, RANK_TABLE_POINTS),
                                        RANK_TABLE_PARTITIONS))
    return {"misclassified": mis, "round_trip": worst_rt,
            "rank_table_ok": table_ok}


@pytest.mark.parametrize("seed,samples", [(1, 200), (42, 200), (4242, 200),
                                          (42, 1000)])
def test_suite_classify_equals_per_point_loop(seed, samples):
    got = suite_classify(np.random.default_rng(seed), samples)
    assert got == _suite_classify_reference(np.random.default_rng(seed), samples)
    if samples == 1000:
        # the default size at seed 42 meets the merged double roots of
        # ROADMAP item 1, and both routes report them alike
        assert got["round_trip"] > 1e-9


def test_suite_classify_counts_points_that_raise(monkeypatch):
    # a planted refusal on the chart points with Re lambda4 > 0 (the rank
    # table's real points pass): each is one misclassified sample, and the
    # batch still classifies the rest
    verdict = st._verdict

    def planted(lam, *args):
        if isinstance(lam.lambda4, complex) and lam.lambda4.real > 0:
            raise AmbiguousClassification("planted")
        return verdict(lam, *args)

    monkeypatch.setattr(st, "_verdict", planted)
    got = suite_classify(np.random.default_rng(1), 50)
    assert got == _suite_classify_reference(np.random.default_rng(1), 50)
    assert 30 < got["misclassified"] < 120


@pytest.mark.parametrize("lam", [(1e300, 0, 0, 0), (1e-300, 1e-300, 0, 0)],
                         ids=["huge", "tiny"])
def test_weight_scale_past_the_double_range_is_a_numerical_failure(lam):
    # s^4 .. s^10 of the weight scale overflow or underflow (ROADMAP item 9):
    # classify raises NumericalFailure, and classify_many returns it for
    # that point and classifies the rest of the batch as before
    with pytest.raises(NumericalFailure, match="^weight scale "):
        st.classify(st.G2Params(*lam))
    batch = [st.G2Params(0, 1, 0, 0), st.G2Params(*lam), st.G2Params(-5, 0, 4, 0)]
    got = st.classify_many(batch)
    assert isinstance(got[1], NumericalFailure)
    assert [got[0], got[2]] == st.classify_many([batch[0], batch[2]])


@pytest.mark.parametrize("chart,args", [
    (st.lambda_from_lambda1, (1e100, (1.0, 1.0))),      # a2**4 overflows
    (st.lambda_from_lambda0, (1e200, 1.0)),             # a2**2 overflows
    (st.lambda_from_lambda0, (1e100, 1e100)),           # a product reads inf
], ids=["lambda1-power", "lambda0-power", "lambda0-product"])
def test_chart_value_past_the_double_range_is_a_numerical_failure(chart, args):
    with pytest.raises(NumericalFailure, match="_chart: a value leaves the double range"):
        chart(*args)


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


def test_exact_on_int_points():
    """Int points give exact values, with no float on the way."""
    lam = st.G2Params(7, -13, 29, -31)
    res = st.discriminant_resultant_oracle(lam)
    assert res == 3861629721 and type(res) is int
    assert st.discriminant(lam) == res
    big = st.G2Params(10**6, -13 * 10**9, 29 * 10**12, -31 * 10**15)
    det = st.vmatrix_det(big)
    assert isinstance(det, (int, F))
    assert det == F(16, 5) * st.discriminant(big)


def test_bareiss_det_pivots_and_zero_columns():
    assert st._det([[0, 2, 1], [3, 1, 0], [1, 0, 4]]) == -25
    assert st._det([[0, 1], [0, 5]]) == 0
    assert st._det([[F(1, 2), 3], [1, F(1, 3)]]) == F(-17, 6)
    assert abs(st._det([[2j, 1.0], [1.0, 3.0]]) - (6j - 1)) < 1e-15


# the Sato weights of (l4, l6, l8, l10), of Gamma's four components and of
# the frame fields l_0, l_2, l_4, l_6
_W = (4, 6, 8, 10)
_GW = (16, 18, 20, 24)
_FW = (0, 2, 4, 6)


def _exact_route_points():
    rng = np.random.default_rng(2024)

    def frac():
        return F(int(rng.integers(-30, 31)), int(rng.integers(1, 12)))

    pts = [st.G2Params(*[frac() for _ in range(4)]) for _ in range(6)]
    pts += [st.G2Params(F(0), frac(), F(0), frac()),
            st.G2Params(frac(), F(0), frac(), F(0)),
            st.G2Params(F(0), F(0), F(0), F(0))]
    pts += [st.G2Params(*[F(int(rng.integers(-30, 31))) for _ in range(4)])
            for _ in range(3)]
    pts += [st.lambda_from_lambda1(frac(), (frac(), frac())) for _ in range(3)]
    pts += [st.lambda_from_lambda0(frac(), frac()) for _ in range(3)]
    return pts


@pytest.mark.parametrize("lam", _exact_route_points())
def test_integer_route_matches_fraction_route(lam):
    """At the integer twin every exact quantity is the Fraction value times
    D to half its weight."""
    ilam, d = st.integer_point(lam)
    assert all(type(v) is int for v in ilam.astuple())
    assert ilam.astuple() == tuple(d**(w // 2) * v
                                   for v, w in zip(lam.astuple(), _W))
    d = F(d)
    assert st.discriminant(ilam) == d**20 * st.discriminant(lam)
    assert st.gamma_vec(ilam) == tuple(d**(g // 2) * v for v, g
                                       in zip(st.gamma_vec(lam), _GW))
    assert st.vmatrix_det(ilam) == d**20 * st.vmatrix_det(lam)
    assert (st.discriminant_resultant_oracle(ilam)
            == d**20 * st.discriminant_resultant_oracle(lam))
    vi, vf = st.vmatrix(ilam), st.vmatrix(lam)
    for k, fw in enumerate(_FW):
        assert vi.V[k] == tuple(d**((fw + w) // 2) * x for x, w in zip(vf.V[k], _W))
        assert vi.phi[k] == d**(fw // 2) * vf.phi[k]
        for i, gi in enumerate(_GW):
            assert vi.psi[k][i] == tuple(d**((gi + fw - gj) // 2) * x
                                         for x, gj in zip(vf.psi[k][i], _GW))
    ti, tf = st.tangency_residuals(ilam), st.tangency_residuals(lam)
    assert ti["delta"] == tf["delta"] == (0, 0, 0, 0)
    assert ti["gamma"] == tf["gamma"] == ((0, 0, 0, 0),) * 4


@pytest.mark.parametrize("seed", [0, 1, 4242])
def test_exact_algebra_record(seed):
    details = run_suite("algebra", seed=seed).details
    assert details["failures"] == 0
    assert details["resultant_constant"] == "1"


def _plant_delta(monkeypatch):
    c, p = st._DELTA_MONOMIALS[5]
    monkeypatch.setattr(st, "_DELTA_MONOMIALS", st._DELTA_MONOMIALS[:5]
                        + ((c + 1, p),) + st._DELTA_MONOMIALS[6:])


def _plant_gamma(monkeypatch):
    (c, p), *rest = st._GAMMA_MONOMIALS[2]
    monkeypatch.setattr(st, "_GAMMA_MONOMIALS", st._GAMMA_MONOMIALS[:2]
                        + (((c + 1, p), *rest),) + st._GAMMA_MONOMIALS[3:])


def _plant_frame(where):
    """Change one constant of the frame table: V's -12 l4^2 in row 1, phi_2's
    60 l4, or psi_6's 16 l4 at (1, 2)."""
    def plant(monkeypatch):
        frame = st._frame

        def planted(l4, l6, l8, l10):
            V, phi, psi = frame(l4, l6, l8, l10)
            V, phi, psi = [list(r) for r in V], list(phi), [list(map(list, m)) for m in psi]
            if where == "V":
                V[1][1] += l4**2
            elif where == "phi":
                phi[2] += l4
            else:
                psi[3][1][2] += l4
            return V, phi, psi
        monkeypatch.setattr(st, "_frame", planted)
    return plant


@pytest.mark.parametrize("plant", [
    _plant_delta, _plant_gamma, _plant_frame("V"), _plant_frame("phi"),
    _plant_frame("psi")], ids=["delta", "gamma", "V", "phi", "psi"])
def test_planted_error_is_caught(monkeypatch, plant):
    """A wrong coefficient in any table the identities read makes the
    integer-route suite fail."""
    assert suite_algebra(np.random.default_rng(1), 20)["failures"] == 0
    plant(monkeypatch)
    assert suite_algebra(np.random.default_rng(1), 20)["failures"] > 0


# --- restricted frame fields -------------------------------------------------

def restricted_fields_lambda1(a2, gamma):
    """Frame fields on the one-double-point stratum in (a2, g4, g6) coordinates.

    Returns the coefficient triples of l~0, l~2, l~4 on (d_a2, d_g4, d_g6) and
    the decomposition coefficients of l_6 on (l~0, l~2, l~4).
    """
    g4, g6 = gamma
    l0 = (2 * a2, 4 * g4, 6 * g6)
    l2 = (F(2, 15) * (6 * g4 + 5 * a2**2),
          F(2, 3) * (9 * g6 - 8 * a2 * g4),
          -F(4, 3) * (g4**2 + 6 * a2 * g6))
    l4 = (F(2, 45) * (27 * g6 + 9 * a2 * g4 - 40 * a2**3),
          -F(4, 3) * a2 * (9 * g6 + a2 * g4),
          -F(2, 3) * a2 * (3 * a2 * g6 - 4 * g4**2))
    l6_coeffs = (-a2**3, -a2**2, -a2)
    return {"l0": l0, "l2": l2, "l4": l4, "l6_decomposition": l6_coeffs}


def restricted_fields_lambda0(a2, b2):
    """Frame fields on the two-double-point stratum in (a2, b2) coordinates."""
    l0 = (2 * a2, 2 * b2)
    l2 = (-F(2, 5) * (a2**2 + 8 * a2 * b2 + 6 * b2**2),
          -F(2, 5) * (6 * a2**2 + 8 * a2 * b2 + b2**2))
    l4_coeffs = (-(a2**2 + a2 * b2 + b2**2), -(a2 + b2))
    l6_coeffs = (a2 * b2 * (a2 + b2), a2 * b2)
    return {"l0": l0, "l2": l2, "l4_decomposition": l4_coeffs,
            "l6_decomposition": l6_coeffs}


def test_restricted_fields_lambda1_values():
    f = restricted_fields_lambda1(F(1), (F(1), F(1)))
    assert f["l0"] == (2, 4, 6)
    assert f["l6_decomposition"] == (-1, -1, -1)
    f0 = restricted_fields_lambda1(F(0), (F(1), F(1)))
    assert f0["l6_decomposition"] == (0, 0, 0)


def test_restricted_fields_lambda0_values():
    f = restricted_fields_lambda0(F(1), F(1))
    assert f["l0"] == (2, 2)
    z = restricted_fields_lambda0(F(0), F(0))
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
        fields = restricted_fields_lambda1(a2, (g4, g6))
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
        fields = restricted_fields_lambda0(a2, b2)
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


def test_ring_gradient_matches_symbolic(rng):
    # the verify gradient suite differentiates Delta by 8-node Cauchy rings;
    # Delta has degree <= 5 in each coordinate, so they are exact to rounding
    for _ in range(50):
        g4, g6 = random_gamma(rng)
        lam = st.lambda_from_lambda1(_cunit(rng), (g4, g6))
        want = [complex(g) for g in st.discriminant_gradient(lam)]
        got = _ring_gradient(lam)
        scale = max(1.0, max(abs(g) for g in want))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12 * scale


def test_gradient_vanishes_at_branch_point():
    chk = st.gradient_delta_check(0.0, (1.0, 0.0))
    assert max(abs(g) for g in chk["gradient"]) < 1e-10
    assert max(abs(g) for g in chk["closed_form"]) < 1e-10


def _near_boundary_point():
    """Two root pairs straddling the clustering radius."""
    d = 1.6e-3
    roots = [1.0, 1.0 + d, -0.5, -0.5 - d, 0.0]
    roots[-1] = -sum(roots[:-1])
    coeffs = np.poly(roots)
    return st.G2Params(*[complex(c) for c in coeffs[2:]])


def test_ambiguous_near_boundary():
    # the partition and the polynomial magnitudes disagree, which must
    # surface, not silently pick
    with pytest.raises(AmbiguousClassification):
        st.classify(_near_boundary_point())
