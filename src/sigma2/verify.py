"""Verification suites: every headline identity, runnable at desk scale.

Each suite draws deterministic samples from an rng and returns its worst
residuals.  `SUITES` gives each its record name, default size and bounds, and
`run_suite` applies the one pass rule; the CLI `verify` command (through
`run_suites`, which runs the suites in worker processes) and the acceptance
tests both call it, so there is exactly one definition of "passing".
"""

from __future__ import annotations

import functools
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
from .errors import Sigma2Error
from .numerics import cauchy_derivatives

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

def _cunit(rng):
    return complex(rng.normal(), rng.normal()) / np.sqrt(2.0)


def _cdisc(rng, r=1.0):
    """Uniform draw from the closed disk |z| <= r (bounded, unlike _cunit)."""
    return r * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def random_gamma(rng, rmax=1.0):
    """(g4, g6) from the rmax-disk with |Delta| >= 0.05 (|g4|^3 + |g6|^2)."""
    while True:
        g4 = _cdisc(rng, rmax) * rng.uniform(0.3, 1.0)
        g6 = _cdisc(rng, rmax) * rng.uniform(0.3, 1.0)
        dl = el.delta_gamma(g4, g6)
        if abs(dl) >= 0.05 * (abs(g4) ** 3 + abs(g6) ** 2):
            return g4, g6


def _alpha_gap(ctx, xi):
    """Distance from xi to the divisor points +-alpha, modulo the lattice."""
    gaps = []
    for s in (+1, -1):
        z, _, _ = el._reduce(ctx.ectx, xi - s * ctx.alpha)
        gaps.append(abs(z))
    return min(gaps)


def random_lambda1_context(rng):
    """A generic one-double-point context from the unit disk, with
    |wp'(alpha)| >= 0.25 scale^(1/2)."""
    while True:
        g4, g6 = random_gamma(rng)
        a2 = _cdisc(rng) * rng.uniform(0.2, 1.0)
        scale = (abs(g4) ** 1.5 + abs(g6) + abs(a2) ** 3) + 1e-12
        try:
            ctx = sg.context_lambda1(a2, (g4, g6))
        except Sigma2Error:
            continue
        if ctx.branch_point or abs(ctx.wpp_alpha) < 0.25 * scale ** 0.5:
            continue
        return ctx


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
    """Q0, Q2, Q4, Q6 annihilate sigma2 (normalized residuals)."""
    worst = 0.0
    per_op = {k: 0.0 for k in ("Q0", "Q2", "Q4", "Q6")}
    for _ in range(samples):
        ctx = random_lambda1_context(rng)
        u3, U1 = _cdisc(rng, 0.5), _cdisc(rng, 0.5)
        rep = heat.q_residuals(ctx, u3, U1)
        for k, v in rep.residuals.items():
            per_op[k] = max(per_op[k], v)
        worst = max(worst, rep.max_residual)
    return {"max_residual": worst, **per_op}


def suite_taylor(rng, samples):
    """Schur-Weierstrass leading part u3 - u1^3/3 near the moduli origin."""
    u = 1e-2
    worst3 = worst1 = 0.0
    for _ in range(samples):
        g4, g6 = random_gamma(rng, rmax=0.02)
        a2 = _cdisc(rng, 0.02)
        ctx = sg.context_lambda1(a2, (g4, g6))
        worst3 = max(worst3, abs(sg.sigma2(ctx, u, 0.0) / u - 1.0))
        worst1 = max(worst1, abs(sg.sigma2(ctx, 0.0, u) / (-u ** 3 / 3) - 1.0))
    # two-double-point constant: recorded, context independence asserted
    consts = []
    for _ in range(4):
        a2 = _cdisc(rng, 0.05)
        b2 = _cdisc(rng, 0.05)
        ctx0 = sg.context_lambda0(a2, b2)
        consts.append(sg.sigma2(ctx0, u, 0.0) / u)
    spread = max(abs(c - consts[0]) for c in consts)
    return {"u3_residual": worst3, "u1_residual": worst1,
            "lambda0_constant": complex(np.mean(consts)),
            "lambda0_spread": spread}


def suite_inversion(rng, samples):
    """Forward integrals -> closed-form inversion round trip on three
    contexts, plus the rational-limit closed form."""
    worst_rt = 0.0
    per_ctx = max(1, samples // 3)
    for _ in range(3):
        ctx = random_lambda1_context(rng)
        ec = ctx.ectx
        done = 0
        while done < per_ctx:
            xi1 = (rng.uniform(-0.35, 0.35) * ec.omega
                   + rng.uniform(-0.35, 0.35) * ec.omegaP)
            xi2 = (rng.uniform(-0.35, 0.35) * ec.omega
                   + rng.uniform(-0.35, 0.35) * ec.omegaP)
            if min(_alpha_gap(ctx, xi1), _alpha_gap(ctx, xi2)) < 0.08 * ec.scale():
                continue
            u1_probe = xi1 + xi2
            z0, _, _ = el._reduce(ec, xi1 - xi2)
            if (abs(z0) < 0.05 * ec.scale()
                    or _alpha_gap(ctx, u1_probe) < 0.08 * ec.scale()
                    or abs(el._reduce(ec, u1_probe)[0]) < 0.05 * ec.scale()):
                continue
            try:
                u1, u3 = inv.forward_integrals(ctx, xi1, xi2)
                res = inv.solve_inversion(ctx, u1, u3)
            except Sigma2Error:
                continue
            want = sorted([el.wp(ec, xi1), el.wp(ec, xi2)],
                          key=lambda z: (z.real, z.imag))
            got = sorted([res.X1, res.X2], key=lambda z: (z.real, z.imag))
            scale = 1.0 + max(abs(w) for w in want)
            worst_rt = max(worst_rt,
                           max(abs(a - b) for a, b in zip(got, want)) / scale)
            done += 1
    worst_rat = 0.0
    for _ in range(50):
        alpha = _cdisc(rng) + 1.0
        u1 = _cdisc(rng, 0.5)
        u3 = _cdisc(rng, 0.3)
        theta = u3 / alpha ** 3 + u1 / alpha
        if (abs(u1) < 0.1 or abs(alpha) < 0.5
                or not 0.05 < abs(np.tanh(theta)) < 20.0):
            continue
        try:
            r = inv.solve_inversion_rational(alpha, u1, u3)
            prod = inv.rational_pair_product(alpha, u1, u3)
        except Sigma2Error:
            continue
        scale = 1.0 + abs(r["prod_X"]) + abs(r["sum_X"])
        worst_rat = max(worst_rat, abs(r["prod_X"] - prod ** -2) / scale)
        worst_rat = max(worst_rat,
                        abs(r["sum_X"] - (u1 * u1 - 2 * prod) / prod ** 2) / scale)
    return {"round_trip": worst_rt, "rational_limit": worst_rat}


def suite_two_route(rng, samples):
    """P-route (Cauchy derivatives of sigma2) vs S-route closed forms, and the
    quintic-coefficient reconstruction from the log-derivative basis."""
    worst_sym = 0.0
    worst_lam = 0.0
    worst_delta = 0.0
    done = 0
    while done < samples:
        ctx = random_lambda1_context(rng)
        U3, U1 = _cdisc(rng, 0.25), 0.35 + _cdisc(rng, 0.15)
        try:
            der = sg.log_derivatives(ctx, U3, U1)
            pr = p_route_derivatives(ctx, U3, U1)
            a = ctx.wp_alpha
            s_sum = der.P11 + 0.8 * a
            s_prod = -der.P13 + a * der.P11 + 0.16 * a * a
            p_sum = pr["P11"] + 0.8 * a
            p_prod = -pr["P13"] + a * pr["P11"] + 0.16 * a * a
            rec = lt.reconstruct_lambda(ctx, U1, U3)
        except Sigma2Error:
            continue
        scale = 1.0 + abs(s_sum) + abs(s_prod)
        worst_sym = max(worst_sym, abs(s_sum - p_sum) / scale,
                        abs(s_prod - p_prod) / scale)
        worst_lam = max(worst_lam, rec["lambda_residual"])
        worst_delta = max(worst_delta, rec["delta_residual"])
        done += 1
    return {"symmetric_functions": worst_sym,
            "lambda_reconstruction": worst_lam,
            "delta_residual": worst_delta}


def suite_periodicity(rng, samples):
    """sigma2 quasi-periodicity, P three-periodicity, functional equations."""
    ctxs = [random_lambda1_context(rng) for _ in range(3)]
    worst_qp = worst_p = worst_fe = worst_rc = 0.0
    for i in range(samples):
        ctx = ctxs[i % len(ctxs)]
        L = lt.period_matrices(ctx)
        u = np.array([_cdisc(rng, 0.3), _cdisc(rng, 0.3)])
        for k in (1, 2, 3):
            try:
                worst_qp = max(worst_qp,
                               lt.quasi_periodicity_residual(ctx, u, k, L),
                               lt.quasi_periodicity_residual(ctx, u, k, L,
                                                             direction=-1))
                worst_p = max(worst_p, lt.p_periodicity_residual(ctx, u, k, L))
            except Sigma2Error:
                continue
        c = _cunit(rng) + 1.5
        fe = lt.functional_equation_check(ctx, c, _cdisc(rng, 0.5),
                                          _cdisc(rng, 0.4))
        worst_fe = max(worst_fe, fe["product_residual"])
        worst_rc = max(worst_rc, fe["reciprocal_residual"])
    return {"quasi_periodicity": worst_qp, "p_periodicity": worst_p,
            "functional_eq": worst_fe, "reciprocal": worst_rc}


def suite_legendre(rng, samples):
    """Degenerate Legendre identity and xi-independence of period increments."""
    worst_leg = worst_inc = 0.0
    for _ in range(samples):
        ctx = random_lambda1_context(rng)
        L = lt.period_matrices(ctx)
        worst_leg = max(worst_leg, L.legendre_residual)
        t1 = np.concatenate([L.T[:, 0], L.H[:, 0]])
        incs = []
        for _ in range(5):
            xi = _cdisc(rng, 0.25) + 0.05
            try:
                incs.append(lt.period_increment(ctx, xi, 1, 0))
            except Sigma2Error:
                continue
        # compare pairwise after reducing by the T1 direction (the segment
        # homology class may differ by a residue loop)
        for a in incs[1:]:
            diff = a - incs[0]
            m = round((diff[0] / t1[0]).real)
            worst_inc = max(worst_inc, float(np.max(np.abs(diff - m * t1))))
    return {"legendre": worst_leg, "increment_spread": worst_inc}


def suite_spectral(rng, samples):
    """Eigen-equation, KdV, real potential families, Bloch multipliers."""
    worst_eig = worst_kdv = worst_bloch = worst_m23 = 0.0
    done = 0
    while done < samples:
        ctx = random_lambda1_context(rng)
        b1 = 0.3 + _cdisc(rng, 0.2)
        u3, u1 = _cdisc(rng, 0.2), 0.3 + _cdisc(rng, 0.2)
        try:
            # near the sigma2 divisor the potential has poles close to the
            # differentiation ring, which then, not the identity, becomes
            # the bottleneck
            pval = sg.p_function_u(ctx, u3, u1)
            if abs(pval - 1.0) < 0.1 or abs(sp.potential_u(ctx, u3, u1)) > 50.0:
                continue
            worst_eig = max(worst_eig, sp.eigen_residual(ctx, b1, u3, u1))
            worst_kdv = max(worst_kdv, sp.kdv_residual(ctx, u3, u1))
        except Sigma2Error:
            continue
        done += 1
    # Bloch factors
    for _ in range(5):
        ctx = random_lambda1_context(rng)
        L = lt.period_matrices(ctx)
        xi0 = 0.3 + _cdisc(rng, 0.15)
        u = np.array([_cdisc(rng, 0.2), _cdisc(rng, 0.2)])
        try:
            m1, m2, m3 = sp.quasi_momenta(ctx, xi0, L)
            worst_m23 = max(worst_m23, float(np.max(np.abs(m2 - m3))))
            for k in (1, 2, 3):
                worst_bloch = max(worst_bloch, sp.bloch_residual(ctx, xi0, u, k, L))
        except Sigma2Error:
            continue
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
                worst_im = max(worst_im, s.max_imag)
    return {"eigen": worst_eig, "kdv": worst_kdv, "reality_max_imag": worst_im,
            "bloch": worst_bloch, "m2_m3_gap": worst_m23}


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
    mis = 0
    worst_rt = 0.0
    lams = [st.G2Params(_cunit(rng), _cunit(rng), _cunit(rng), _cunit(rng))
            for _ in range(samples)]
    for cls in st.classify_many(lams):
        if isinstance(cls, Sigma2Error) or cls.stratum != "Lambda2":
            mis += 1
    drawn = []
    for _ in range(samples):
        g4, g6 = random_gamma(rng)
        drawn.append((_cunit(rng), g4, g6))
    lams = [st.lambda_from_lambda1(a2, (g4, g6)) for a2, g4, g6 in drawn]
    for (a2, g4, g6), cls in zip(drawn, st.classify_many(lams)):
        if isinstance(cls, Sigma2Error) or cls.stratum != "Lambda1":
            mis += 1
            continue
        scale = 1.0 + abs(a2) + abs(g4) + abs(g6)
        worst_rt = max(worst_rt, abs(cls.a2 - a2) / scale,
                       abs(cls.gamma.gamma4 - g4) / scale,
                       abs(cls.gamma.gamma6 - g6) / scale)
    drawn = [(_cunit(rng), _cunit(rng)) for _ in range(samples)]
    lams = [st.lambda_from_lambda0(a2, b2) for a2, b2 in drawn]
    for (a2, b2), cls in zip(drawn, st.classify_many(lams)):
        if isinstance(cls, Sigma2Error) or cls.stratum != "Lambda0":
            mis += 1
            continue
        want = sorted([a2, b2], key=lambda z: (z.real, z.imag))
        got = [cls.a2, cls.b2]
        scale = 1.0 + abs(a2) + abs(b2)
        worst_rt = max(worst_rt,
                       max(abs(x - y) for x, y in zip(got, want)) / scale)
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


def suite_gradient(rng, samples):
    """Closed-form discriminant gradient on the stratum vs the symbolic one
    and a Cauchy-ring one (still reported under the key closed_vs_fd)."""
    worst = 0.0
    worst_fd = 0.0
    done = 0
    while done < samples:
        g4, g6 = random_gamma(rng)
        a2 = _cunit(rng)
        try:
            chk = st.gradient_delta_check(a2, (g4, g6))
        except Sigma2Error:
            continue
        worst = max(worst, chk["residual"])
        lam = st.lambda_from_lambda1(a2, (g4, g6))
        ring = _ring_gradient(lam)
        scale = max(1.0, max(abs(g) for g in chk["gradient"]))
        worst_fd = max(worst_fd, max(abs(a - b) for a, b in
                                     zip(ring, chk["closed_form"])) / scale)
        done += 1
    # wp'(alpha) = 0 sample: both sides vanish
    chk0 = st.gradient_delta_check(0.0, (1.0, 0.0))
    van = max(max(abs(g) for g in chk0["gradient"]),
              max(abs(g) for g in chk0["closed_form"]))
    return {"closed_vs_symbolic": worst, "closed_vs_fd": worst_fd,
            "branch_point_value": van}


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
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
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
        "round_trip": 1e-8, "rational_limit": 1e-10}),
    "heat": Suite("heat_annihilation", suite_heat, 20, {"max_residual": 1e-5}),
    "spectral": Suite("spectral", suite_spectral, 20, {
        "eigen": 1e-6, "kdv": 1e-5, "reality_max_imag": 1e-8, "bloch": 1e-6,
        "m2_m3_gap": 1e-12}),
    "algebra": Suite("exact_algebra", suite_algebra, 100, {
        "failures": 0, "resultant_constant": "1"}),
    "two_route": Suite("two_route_consistency", suite_two_route, 8, {
        "symmetric_functions": 1e-9, "lambda_reconstruction": 1e-6,
        "delta_residual": 1e-6}),
    "legendre": Suite("degenerate_legendre", suite_legendre, 10, {
        "legendre": 1e-8, "increment_spread": 1e-9}),
    "gradient": Suite("gradient_formula", suite_gradient, 20, {
        "closed_vs_symbolic": 1e-6, "closed_vs_fd": 1e-6, "branch_point_value": 1e-8}),
    "periodicity": Suite("periodicity", suite_periodicity, 20, {
        "quasi_periodicity": 1e-8, "p_periodicity": 1e-8, "functional_eq": 1e-9,
        "reciprocal": 1e-9}),
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
