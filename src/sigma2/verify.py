"""Verification suites: every headline identity, runnable at desk scale.

Each suite draws deterministic samples from an rng and returns its worst
residuals.  `SUITES` gives each its record name, default size and bounds, and
`run_suite` applies the one pass rule; the CLI `verify` command (through
`run_suites`, which runs the suites in worker processes) and the acceptance
tests both call it, so there is exactly one definition of "passing".
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import elliptic as el
from . import heat
from . import inversion as inv
from . import lattice as lt
from . import sigma as sg
from . import spectral as sp
from . import strata as st
from .errors import NumericalFailure, Sigma2Error
from .numerics import cauchy_derivatives, peak

__all__ = ["SuiteResult", "Suite", "run_suite", "run_suites", "SUITES",
           "p_route_derivatives", "random_lambda1_context"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: dict               # the suite's details and its "thresholds"

    def line(self):
        """One line; a bounded detail is followed by its bound, as in
        max_residual=6.09e-12 (<1e-05) or failures=0 (=0)."""
        status = "PASS" if self.passed else "FAIL"
        bounds = self.details["thresholds"]
        extras = []
        for k, v in sorted(self.details.items()):
            if k in bounds:
                rel = "<" if isinstance(bounds[k], float) else "="
                extras.append(f"{k}={_fmt(v)} ({rel}{_fmt(bounds[k])})")
            elif k != "thresholds":
                extras.append(f"{k}={_fmt(v)}")
        return f"[{status}] {self.name}: {', '.join(extras)}"


def _fmt(v):
    return f"{v:.3g}" if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# sampling helpers

def _uniform(lo, hi, d):
    """rng.uniform(lo, hi) from the double d of rng.random(), by numpy's own
    formula: each sampler attempt takes its doubles in one rng.random call."""
    return lo + (hi - lo) * d


def _disc(r, d, t):
    """The point of the disk |z| <= r at the uniform doubles d, t."""
    return r * np.sqrt(d) * np.exp(2j * np.pi * t)


def _cunit(rng):
    return complex(*rng.normal(size=2).tolist()) / np.sqrt(2.0)


def _cunits(rng, n):
    """n successive _cunit draws, from one rng.normal call (the same stream)
    and with _cunit's division, CPython's complex / float, on the parts."""
    x, y = rng.normal(size=(n, 2)).T
    return (st._Complexes(x, y) / np.sqrt(2.0)).tolist()


def _cdisc(rng, r=1.0):
    """Uniform draw from the closed disk |z| <= r (bounded, unlike _cunit)."""
    return _disc(r, *rng.random(2).tolist())


# A sampler takes at most this many draws per sample it is asked for; at
# default sizes, seeds 0-199 and 4242, the most any took was 2 (one context)
DRAWS_PER_SAMPLE = 16


def _sample(counts, n, draws, evaluate):
    """Up to n values evaluate(*args), args taken in turn from the iterable
    draws, in draw order.  A draw is replaced by the next when evaluate
    returns None (the suite's own conditions reject it) or raises a
    Sigma2Error (the package refuses it; counted in counts["refused"]).
    Stops after n values, when draws run out or after DRAWS_PER_SAMPLE * n
    draws, and adds the shortfall to counts["unsampled"]."""
    values = []
    for args in itertools.islice(draws, DRAWS_PER_SAMPLE * n):
        try:
            value = evaluate(*args)
        except Sigma2Error:
            counts["refused"] += 1
            continue
        if value is not None:
            values.append(value)
            if len(values) == n:
                break
    counts["unsampled"] += n - len(values)
    return values


def _one(sampler, draw, evaluate):
    """The first value _sample gives for draw() (a tuple of evaluate's
    arguments), or NumericalFailure naming the sampler at the cap."""
    got = _sample({"refused": 0, "unsampled": 0}, 1, iter(draw, None), evaluate)
    if not got:
        raise NumericalFailure(f"{sampler}: no draw accepted in {DRAWS_PER_SAMPLE}")
    return got[0]


def random_gamma(rng, rmax=1.0):
    """(g4, g6) from the rmax-disk with |Delta| >= 0.05 (|g4|^3 + |g6|^2)."""
    def accept(g4, g6):
        dl = el.delta_gamma(g4, g6)
        return (g4, g6) if abs(dl) >= 0.05 * (abs(g4) ** 3 + abs(g6) ** 2) else None

    def draw():
        d = rng.random(6).tolist()
        return tuple(_disc(rmax, d[k], d[k + 1]) * _uniform(0.3, 1.0, d[k + 2])
                     for k in (0, 3))
    return _one("random_gamma", draw, accept)


def _alpha_gap(ctx, xi):
    """Distance from xi to the divisor points +-alpha, modulo the lattice."""
    return min(abs(el._reduce(ctx.ectx, xi - s * ctx.alpha)[0]) for s in (+1, -1))


def random_lambda1_context(rng):
    """A generic one-double-point context from the unit disk, with
    |wp'(alpha)| >= 0.25 scale^(1/2)."""
    def accept(g4, g6, a2):
        scale = (abs(g4) ** 1.5 + abs(g6) + abs(a2) ** 3) + 1e-12
        ctx = sg.context_lambda1(a2, (g4, g6))
        thin = ctx.branch_point or abs(ctx.wpp_alpha) < 0.25 * scale ** 0.5
        return None if thin else ctx

    def draw():
        gamma = random_gamma(rng)
        d, t, v = rng.random(3).tolist()
        return (*gamma, _disc(1.0, d, t) * _uniform(0.2, 1.0, v))
    return _one("random_lambda1_context", draw, accept)


def _worst(values, row):
    """The largest residual of one row over the values _sample gave (each a
    tuple of per-row residual tuples), taken in draw order; 0.0 for none,
    NaN if any is NaN."""
    return peak([0.0, *(r for v in values for r in v[row])])


# ---------------------------------------------------------------------------
# independent P-route: log-derivatives from sigma2 values only

def p_route_derivatives(ctx, U3, U1):
    """P11..P1113 via Cauchy-integral differentiation of sigma2 alone.

    Every contour integral runs over the entire function Z itself (so the
    sigma2 divisor cannot spoil analyticity); the log-derivatives are then
    assembled algebraically at the center.  Independent of the S-function
    closed forms, with spectral accuracy far below 1e-9.
    """
    # one sigma2_u call on the 24 x 64 product ring of radii 0.12 in U3 and
    # 0.18 in U1: zd[j, k] = d_U3^j d_U1^k Z
    zd = cauchy_derivatives(
        lambda x3: cauchy_derivatives(lambda t: sg.sigma2_u(ctx, x3, t[:, None]),
                                      complex(U1), 4, 0.18, 64).T,
        complex(U3), 1, 0.12, 24)
    base, d3 = zd                              # Z, Z_1, .., Z_1111; Z_3, Z_31, ..
    z = base[0]
    z01, z02, z03, z04 = base[1], base[2], base[3], base[4]
    z10, z11, z12, z13 = d3[0], d3[1], d3[2], d3[3]
    l1 = z01 / z
    w11 = z02 / z - l1 ** 2
    w111 = z03 / z - 3 * z02 * z01 / z ** 2 + 2 * l1 ** 3
    w1111 = (z04 / z - 4 * z03 * z01 / z ** 2 - 3 * (z02 / z) ** 2
             + 12 * z02 * z01 ** 2 / z ** 3 - 6 * l1 ** 4)
    w31 = z11 / z - z10 * z01 / z ** 2
    w311 = (z12 / z - z02 * z10 / z ** 2 - 2 * z01 * z11 / z ** 2
            + 2 * z01 ** 2 * z10 / z ** 3)
    w3111 = (z13 / z - z03 * z10 / z ** 2
             - 3 * (z12 * z01 + z02 * z11) / z ** 2
             + 6 * z02 * z01 * z10 / z ** 3 + 6 * z01 ** 2 * z11 / z ** 3
             - 6 * z01 ** 3 * z10 / z ** 4)
    return {
        "P11": -w11, "P111": -w111, "P1111": -w1111,
        "P13": -w31, "P113": -w311, "P1113": -w3111,
    }


# ---------------------------------------------------------------------------
# suites

def suite_heat(rng, samples):
    """q0, q2, q4, q6 annihilate sigma2 (normalized residuals)."""
    worst = 0.0
    per_op = {k: 0.0 for k in ("q0", "q2", "q4", "q6")}
    for _ in range(samples):
        ctx = random_lambda1_context(rng)
        u3, U1 = _cdisc(rng, 0.5), _cdisc(rng, 0.5)
        rep = heat.q_residuals(ctx, u3, U1)
        for k, v in rep.residuals.items():
            per_op[k] = peak((per_op[k], v))
        worst = peak((worst, rep.max_residual))
    return {"max_residual": worst, **per_op}


def suite_taylor(rng, samples):
    """Schur-Weierstrass leading part u3 - u1^3/3 near the moduli origin."""
    u = 1e-2
    worst3 = worst1 = 0.0
    for _ in range(samples):
        g4, g6 = random_gamma(rng, rmax=0.02)
        a2 = _cdisc(rng, 0.02)
        ctx = sg.context_lambda1(a2, (g4, g6))
        worst3 = peak((worst3, abs(sg.sigma2(ctx, u, 0.0) / u - 1.0)))
        worst1 = peak((worst1, abs(sg.sigma2(ctx, 0.0, u) / (-u ** 3 / 3) - 1.0)))
    # two-double-point constant: recorded, context independence asserted
    consts = []
    for _ in range(4):
        a2 = _cdisc(rng, 0.05)
        b2 = _cdisc(rng, 0.05)
        ctx0 = sg.context_lambda0(a2, b2)
        consts.append(sg.sigma2(ctx0, u, 0.0) / u)
    spread = peak(abs(c - consts[0]) for c in consts)
    return {"u3_residual": worst3, "u1_residual": worst1,
            "lambda0_constant": complex(np.mean(consts)),
            "lambda0_spread": spread}


def suite_inversion(rng, samples):
    """Forward integrals -> closed-form inversion round trip on three
    contexts, plus the rational-limit closed form."""
    counts = {"refused": 0, "unsampled": 0}
    trips = []
    for _ in range(3):
        ctx = random_lambda1_context(rng)
        trips += _sample(counts, max(1, samples // 3), _lattice_pairs(rng, ctx.ectx),
                         functools.partial(_round_trip, ctx))
    drawn = [(_cdisc(rng) + 1.0, _cdisc(rng, 0.5), _cdisc(rng, 0.3)) for _ in range(50)]
    kept = [(alpha, u1, u3) for alpha, u1, u3 in drawn
            if not (abs(u1) < 0.1 or abs(alpha) < 0.5
                    or not 0.05 < abs(np.tanh(u3 / alpha ** 3 + u1 / alpha)) < 20.0)]
    rational = _sample(counts, len(kept), kept, _rational_residuals)
    return {"round_trip": _worst(trips, 0), "rational_limit": _worst(rational, 0),
            **counts}


def _lattice_pairs(rng, ec):
    """Endless draws (xi1, xi2) of t omega + t' omega', t, t' in [-0.35, 0.35]."""
    while True:
        t = [_uniform(-0.35, 0.35, d) for d in rng.random(4).tolist()]
        yield t[0] * ec.omega + t[1] * ec.omegaP, t[2] * ec.omega + t[3] * ec.omegaP


def _round_trip(ctx, xi1, xi2):
    """((relative X1, X2 error of the round trip at Abel points xi1, xi2),),
    or None for a pair too close to the divisor or to each other."""
    ec = ctx.ectx
    if min(_alpha_gap(ctx, xi1), _alpha_gap(ctx, xi2)) < 0.08 * ec.scale():
        return None
    u1_probe = xi1 + xi2
    if (abs(el._reduce(ec, xi1 - xi2)[0]) < 0.05 * ec.scale()
            or _alpha_gap(ctx, u1_probe) < 0.08 * ec.scale()
            or abs(el._reduce(ec, u1_probe)[0]) < 0.05 * ec.scale()):
        return None
    u1, u3 = inv.forward_integrals(ctx, xi1, xi2)
    res = inv.solve_inversion(ctx, u1, u3)
    want = sorted([el.wp(ec, xi1), el.wp(ec, xi2)], key=lambda z: (z.real, z.imag))
    got = sorted([res.X1, res.X2], key=lambda z: (z.real, z.imag))
    scale = 1.0 + max(abs(w) for w in want)
    return (peak(abs(a - b) for a, b in zip(got, want)) / scale,),


def _rational_residuals(alpha, u1, u3):
    """((product, sum) residuals of the rational-limit closed form,)."""
    r = inv.solve_inversion_rational(alpha, u1, u3)
    prod = inv.rational_pair_product(alpha, u1, u3)
    scale = 1.0 + abs(r["prod_X"]) + abs(r["sum_X"])
    return (abs(r["prod_X"] - prod ** -2) / scale,
            abs(r["sum_X"] - (u1 * u1 - 2 * prod) / prod ** 2) / scale),


def suite_two_route(rng, samples):
    """P-route (Cauchy derivatives of sigma2) vs S-route closed forms, and the
    quintic-coefficient reconstruction from the log-derivative basis."""
    def routes(ctx, U3, U1):
        der = sg.log_derivatives(ctx, U3, U1)
        pr = p_route_derivatives(ctx, U3, U1)
        a = ctx.wp_alpha
        s_sum = der.P11 + 0.8 * a
        s_prod = -der.P13 + a * der.P11 + 0.16 * a * a
        p_sum = pr["P11"] + 0.8 * a
        p_prod = -pr["P13"] + a * pr["P11"] + 0.16 * a * a
        rec = lt.reconstruct_lambda(ctx, U1, U3)
        scale = 1.0 + abs(s_sum) + abs(s_prod)
        return ((abs(s_sum - p_sum) / scale, abs(s_prod - p_prod) / scale),
                (rec["lambda_residual"],), (rec["delta_residual"],))

    counts = {"refused": 0, "unsampled": 0}
    vals = _sample(counts, samples, iter(lambda: (
        random_lambda1_context(rng), _cdisc(rng, 0.25), 0.35 + _cdisc(rng, 0.15)), None),
        routes)
    return {"symmetric_functions": _worst(vals, 0),
            "lambda_reconstruction": _worst(vals, 1),
            "delta_residual": _worst(vals, 2), **counts}


def suite_periodicity(rng, samples):
    """sigma2 quasi-periodicity, P three-periodicity, functional equations."""
    def residuals(ctx, u, c, x, y):
        L = lt.period_matrices(ctx)
        qp = [r for k in (1, 2, 3) for r in (
            lt.quasi_periodicity_residual(ctx, u, k, L),
            lt.quasi_periodicity_residual(ctx, u, k, L, direction=-1))]
        fe = lt.functional_equation_check(ctx, c, x, y)
        return (qp, [lt.p_periodicity_residual(ctx, u, k, L) for k in (1, 2, 3)],
                (fe["product_residual"],), (fe["reciprocal_residual"],))

    ctxs = [random_lambda1_context(rng) for _ in range(3)]
    counts = {"refused": 0, "unsampled": 0}
    vals = _sample(counts, samples, (
        (ctxs[i % len(ctxs)], np.array([_cdisc(rng, 0.3), _cdisc(rng, 0.3)]),
         _cunit(rng) + 1.5, _cdisc(rng, 0.5), _cdisc(rng, 0.4))
        for i in itertools.count()), residuals)
    return {"quasi_periodicity": _worst(vals, 0), "p_periodicity": _worst(vals, 1),
            "functional_eq": _worst(vals, 2), "reciprocal": _worst(vals, 3), **counts}


def suite_legendre(rng, samples):
    """Degenerate Legendre identity and xi-independence of period increments."""
    counts = {"refused": 0, "unsampled": 0}
    worst_leg = worst_inc = 0.0
    for _ in range(samples):
        ctx = random_lambda1_context(rng)
        L = lt.period_matrices(ctx)
        worst_leg = peak((worst_leg, L.legendre_residual))
        t1 = np.concatenate([L.T[:, 0], L.H[:, 0]])
        incs = _sample(counts, 5, iter(lambda: (_cdisc(rng, 0.25) + 0.05,), None),
                       lambda xi: lt.period_increment(ctx, xi, 1, 0))
        # compare pairwise after reducing by the T1 direction (the segment
        # homology class may differ by a residue loop)
        for a in incs[1:]:
            diff = a - incs[0]
            m = round((diff[0] / t1[0]).real)
            worst_inc = peak((worst_inc, float(np.max(np.abs(diff - m * t1)))))
    return {"legendre": worst_leg, "increment_spread": worst_inc, **counts}


def suite_spectral(rng, samples):
    """Eigen-equation, KdV, real potential families, Bloch multipliers.
    m2_m3_gap is 0.0 by construction (quasi_momenta returns M2 = M3), so that
    row cannot fail; a refused Bloch sample shows in unsampled."""
    def eigen_kdv(ctx, b1, u3, u1):
        # near the sigma2 divisor the potential has poles close to the
        # differentiation ring, which then, not the identity, becomes the
        # bottleneck
        pval = sg.p_function_u(ctx, u3, u1)
        if abs(pval - 1.0) < 0.1 or abs(sp.potential_u(ctx, u3, u1)) > 50.0:
            return None
        return (sp.eigen_residual(ctx, b1, u3, u1),), (sp.kdv_residual(ctx, u3, u1),)

    def bloch(ctx, xi0, u):
        L = lt.period_matrices(ctx)
        m1, m2, m3 = sp.quasi_momenta(ctx, xi0, L)
        return ((float(np.max(np.abs(m2 - m3))),),
                sp._bloch_residuals(ctx, xi0, u, (1, 2, 3), L))

    counts = {"refused": 0, "unsampled": 0}
    spec = _sample(counts, samples, iter(lambda: (
        random_lambda1_context(rng), 0.3 + _cdisc(rng, 0.2), _cdisc(rng, 0.2),
        0.3 + _cdisc(rng, 0.2)), None), eigen_kdv)
    # Bloch factors
    blochs = _sample(counts, 5, iter(lambda: (
        random_lambda1_context(rng), 0.3 + _cdisc(rng, 0.15),
        np.array([_cdisc(rng, 0.2), _cdisc(rng, 0.2)])), None), bloch)
    # reality of V1, V2 with the double point in a spectral gap
    worst_im = 0.0
    grid = np.linspace(0.04, 0.96, 24)
    for g4, g6 in ((-1.2, 0.1), (-2.0, 0.5)):
        ec = el.make_context((g4, g6))
        om, omp, _, _ = sp.real_rectangle_periods(ec)
        roots = sorted([r.real for r in ec.roots])
        for wpa in (0.5 * (roots[1] + roots[2]), roots[0] - 0.4):
            ctx = sg.context_lambda1(0.6 * wpa, (g4, g6))
            for fam in ("V1", "V2"):
                s = sp.real_family(ctx, fam, 0.25, grid)
                worst_im = peak((worst_im, s.max_imag))
    return {"eigen": _worst(spec, 0), "kdv": _worst(spec, 1),
            "reality_max_imag": worst_im, "bloch": _worst(blochs, 1),
            "m2_m3_gap": _worst(blochs, 0), **counts}


def _rand_fraction(rng, den_max=12):
    return Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, den_max)))


def suite_algebra(rng, samples):
    """Exact rational identities: det V = (16/5) Delta, the tangency
    identities, and the resultant-discriminant agreement.  Each rational
    sample is checked at its integer twin (`strata.integer_point`), where
    the same identities hold exactly over Python ints."""
    fails = 0
    const = None
    for _ in range(samples):
        lam, _ = st.integer_point(st.G2Params(
            _rand_fraction(rng), _rand_fraction(rng),
            _rand_fraction(rng), _rand_fraction(rng)))
        d = st.discriminant(lam)
        if st.vmatrix_det(lam) != Fraction(16, 5) * d:
            fails += 1
            continue
        tr = st.tangency_residuals(lam)
        if any(x != 0 for x in tr["delta"]) or any(
                c != 0 for row in tr["gamma"] for c in row):
            fails += 1
            continue
        r = st.discriminant_resultant_oracle(lam)
        if d != 0:
            ratio = Fraction(r, d)
            if const is None:
                const = ratio
            if ratio != const:
                fails += 1
    return {"failures": fails, "resultant_constant": str(const)}


def suite_classify(rng, samples):
    """Chart -> classify -> chart round trips, samples per chart, each
    chart's points classified in one classify_many pass; rank table."""
    z = _cunits(rng, 4 * samples)
    lams = [st.G2Params(*z[i:i + 4]) for i in range(0, len(z), 4)]
    mis = sum(isinstance(cls, Sigma2Error) or cls.stratum != "Lambda2"
              for cls in st.classify_many(lams))
    drawn = []
    for _ in range(samples):
        g4, g6 = random_gamma(rng)
        drawn.append((_cunit(rng), g4, g6))
    lams = [st.lambda_from_lambda1(a2, (g4, g6)) for a2, g4, g6 in drawn]
    found = []
    for want, cls in zip(drawn, st.classify_many(lams)):
        if isinstance(cls, Sigma2Error) or cls.stratum != "Lambda1":
            mis += 1
        else:
            found.append((want, (cls.a2, cls.gamma.gamma4, cls.gamma.gamma6)))
    worst_rt = _worst_round_trip(found)
    z = _cunits(rng, 2 * samples)
    drawn = list(zip(z[0::2], z[1::2]))
    lams = [st.lambda_from_lambda0(a2, b2) for a2, b2 in drawn]
    found = []
    for want, cls in zip(drawn, st.classify_many(lams)):
        if isinstance(cls, Sigma2Error) or cls.stratum != "Lambda0":
            mis += 1
        else:
            found.append((want, (cls.a2, cls.b2)))
    worst_rt = peak((worst_rt, _worst_round_trip(found, pair=True)))
    # the seven partitions of the rank table
    table = [
        ((-5, 0, 4, 0), (1, 1, 1, 1, 1), 4),
        (st.lambda_from_lambda1(0.5, (1.0, 0.25)).astuple(), (2, 1, 1, 1), 3),
        ((1, 0, 0, 0), (3, 1, 1), 2),
        ((-3, 2, 0, 0), (2, 2, 1), 2),
        (st.lambda_from_lambda0(1.0, -2.0 / 3.0).astuple(), (3, 2), 1),
        ((-10, 20, -15, 4), (4, 1), 1),
        ((0, 0, 0, 0), (5,), 0),
    ]
    table_ok = True
    for lam_t, part, rank in table:
        cls = st.classify(st.G2Params(*lam_t))
        if cls.partition != part or cls.rank != rank:
            table_ok = False
    return {"misclassified": mis, "round_trip": worst_rt,
            "rank_table_ok": table_ok}


def _worst_round_trip(found, pair=False):
    """The largest max_j |got_j - want_j| / (1 + sum_j |want_j|) over the
    (want, got) rows of found, 0.0 for none; with pair, the want pair is
    compared in (Re, Im) order, as classify orders a2 and b2.  Each row's
    figure is the one Python's complex arithmetic gives."""
    if not found:
        return 0.0
    want, got = np.array(found).transpose(1, 0, 2)
    mod = np.hypot(want.real, want.imag)
    scale = 1.0
    for col in mod.T:
        scale = scale + col
    if pair:
        a, b = want.T
        swap = (b.real < a.real) | ((b.real == a.real) & (b.imag < a.imag))
        want = np.where(swap[:, None], want[:, ::-1], want)
    d = got - want
    return float((np.hypot(d.real, d.imag).max(axis=1) / scale).max())


def suite_gradient(rng, samples):
    """Closed-form discriminant gradient on the stratum vs the symbolic one
    and a Cauchy-ring one (still reported under the key closed_vs_fd)."""
    def residuals(gamma, a2):
        chk = st.gradient_delta_check(a2, gamma)
        ring = _ring_gradient(st.lambda_from_lambda1(a2, gamma))
        scale = max(1.0, max(abs(g) for g in chk["gradient"]))
        return (chk["residual"],), (peak(abs(a - b) for a, b in
                                         zip(ring, chk["closed_form"])) / scale,)

    counts = {"refused": 0, "unsampled": 0}
    vals = _sample(counts, samples, iter(lambda: (random_gamma(rng), _cunit(rng)), None),
                   residuals)
    # wp'(alpha) = 0 sample: both sides vanish
    chk0 = st.gradient_delta_check(0.0, (1.0, 0.0))
    van = peak(abs(g) for g in chk0["gradient"] + chk0["closed_form"])
    return {"closed_vs_symbolic": _worst(vals, 0), "closed_vs_fd": _worst(vals, 1),
            "branch_point_value": van, **counts}


def _ring_gradient(lam):
    """grad Delta by an 8-node Cauchy ring of radius 0.5 (1 + |l_j|) per
    coordinate, exact up to rounding as Delta has degree <= 5 in each."""
    vals = lam.astuple()

    def partial(j):
        def along(z):
            return st.discriminant(st.G2Params(*vals[:j], z, *vals[j + 1:]))
        return cauchy_derivatives(along, vals[j], 1, 0.5 * (1.0 + abs(vals[j])), 8)[1]

    return [partial(j) for j in range(4)]


def suite_trig_limit(rng, samples):
    """Degenerate Weierstrass sigma vs its hyperbolic closed form (fixed size)."""
    worst = 0.0
    for a in (1.0, 0.7, 1.1 + 0.4j):
        eps = 1e-6 * (1.0 + abs(a) ** 2)
        ec = el.make_context((-3 * a ** 2 + eps, 2 * a ** 3))
        for _ in range(10):
            u = _cunit(rng) * 0.6
            got = el.sigma_w(ec, u)
            want = el.sigma_trig_limit(a, u)
            worst = peak((worst, abs(got - want) / (1.0 + abs(want))))
    return {"max_residual": worst}


class Suite(NamedTuple):
    name: str                   # the suite's key in the verify record
    fn: Callable                # (rng, samples) -> details dict
    samples: int | None         # default sample count; None: fixed size
    bounds: dict                # {detail key: bound}; pass: < a float, == others


# CLI key -> Suite; one entry per condition that decides a pass.  Rows run
# longest first (seed-1 times), so a worker pool starts the long suites first
SUITES = {
    "classify": Suite("classification", suite_classify, 1000, {
        "misclassified": 0, "round_trip": 1e-9, "rank_table_ok": True}),
    "inversion": Suite("inversion_round_trip", suite_inversion, 100, {
        "round_trip": 1e-8, "rational_limit": 1e-10, "unsampled": 0}),
    "heat": Suite("heat_annihilation", suite_heat, 20, {"max_residual": 1e-5}),
    # m2_m3_gap reads 0.0 by construction; a refusal shows in unsampled
    "spectral": Suite("spectral", suite_spectral, 20, {
        "eigen": 1e-6, "kdv": 1e-5, "reality_max_imag": 1e-8, "bloch": 1e-6,
        "m2_m3_gap": 1e-12, "unsampled": 0}),
    "algebra": Suite("exact_algebra", suite_algebra, 100, {
        "failures": 0, "resultant_constant": "1"}),
    "two_route": Suite("two_route_consistency", suite_two_route, 8, {
        "symmetric_functions": 1e-9, "lambda_reconstruction": 1e-6,
        "delta_residual": 1e-6, "unsampled": 0}),
    "legendre": Suite("degenerate_legendre", suite_legendre, 10, {
        "legendre": 1e-8, "increment_spread": 1e-9, "unsampled": 0}),
    "gradient": Suite("gradient_formula", suite_gradient, 20, {
        "closed_vs_symbolic": 1e-6, "closed_vs_fd": 1e-6, "branch_point_value": 1e-8,
        "unsampled": 0}),
    "periodicity": Suite("periodicity", suite_periodicity, 20, {
        "quasi_periodicity": 1e-8, "p_periodicity": 1e-8, "functional_eq": 1e-9,
        "reciprocal": 1e-9, "unsampled": 0}),
    "taylor": Suite("taylor_leading_part", suite_taylor, 10, {
        "u3_residual": 1e-6, "u1_residual": 1e-4, "lambda0_spread": 1e-4}),
    "trig_limit": Suite("trigonometric_limit", suite_trig_limit, None, {
        "max_residual": 1e-4}),
}


def run_suite(key, seed=7, samples=None) -> SuiteResult:
    """Suite `key` at `samples` (default: its table size), judged by its bounds."""
    suite = SUITES[key]
    if samples is None or suite.samples is None:
        samples = suite.samples
    details = suite.fn(np.random.default_rng(seed), samples)
    passed = all(details[k] < b if isinstance(b, float) else details[k] == b
                 for k, b in suite.bounds.items())
    return SuiteResult(suite.name, passed,
                       {**details, "thresholds": dict(suite.bounds)})


def run_suites(keys, seed=7, samples=None) -> list:
    """run_suite over `keys`, the results in `keys` order.

    The suites run on min(len(keys), usable CPUs) forked worker processes,
    handed out in `keys` order, or in this process when that is below 2 or
    the platform has no CPU affinity call.  Each suite seeds its own rng,
    so the results are those of a sequential run; an exception a suite
    raises is raised here, the first in `keys` order, and every worker is
    joined before this returns.
    """
    keys = list(keys)
    # fork exists on Linux, which has the affinity call; elsewhere (no fork
    # on Windows, fork unsafe under macOS system libraries) run in process
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(keys), cpus)
    if workers < 2:
        return [run_suite(key, seed, samples) for key in keys]
    import multiprocessing          # ~25 ms cold, so only when forking
    # a worker would otherwise write out a copy of what is buffered here
    sys.stdout.flush()
    sys.stderr.flush()
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        results = list(pool.imap(
            functools.partial(_run_in_worker, seed=seed, samples=samples), keys))
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
    return results


def _run_in_worker(key, seed, samples):
    """A worker's task.  run_suite is looked up here, in the worker, so a
    rebinding of it (the benchmark's tracer wraps it) is never pickled."""
    return run_suite(key, seed, samples)
