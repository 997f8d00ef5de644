"""Verification suites: every headline identity, runnable at desk scale.

Each suite draws its own deterministic samples from a seed, checks one family
of identities at its stated tolerance, and returns a SuiteResult with the
worst residuals.  The CLI `verify` command and the acceptance tests both call
these functions, so there is exactly one definition of "passing".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import elliptic as el
from . import heat
from . import inversion as inv
from . import lattice as lt
from . import sigma as sg
from . import spectral as sp
from . import strata as st
from .errors import Sigma2Error
from .numerics import NumericsConfig, DEFAULT_CONFIG, cauchy_derivatives

__all__ = ["SuiteResult", "run_suite", "SUITES",
           "p_route_derivatives", "random_lambda1_context"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in sorted(self.details.items()))
        return f"[{status}] {self.name}: {extras}"


# ---------------------------------------------------------------------------
# sampling helpers

def _cunit(rng):
    return complex(rng.normal(), rng.normal()) / np.sqrt(2.0)


def _cdisc(rng, r=1.0):
    """Uniform draw from the closed disk |z| <= r (bounded, unlike _cunit)."""
    return r * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def random_gamma(rng, rmax=1.0, delta_rel_min=0.05):
    while True:
        g4 = _cdisc(rng, rmax) * rng.uniform(0.3, 1.0)
        g6 = _cdisc(rng, rmax) * rng.uniform(0.3, 1.0)
        dl = el.delta_gamma(g4, g6)
        if abs(dl) >= delta_rel_min * (abs(g4) ** 3 + abs(g6) ** 2):
            return g4, g6


def _alpha_gap(ctx, xi):
    """Distance from xi to the divisor points +-alpha, modulo the lattice."""
    gaps = []
    for s in (+1, -1):
        z, _, _ = el._reduce(ctx.ectx, xi - s * ctx.alpha)
        gaps.append(abs(z))
    return min(gaps)


def random_lambda1_context(rng, rmax=1.0, wpp_rel_min=0.25,
                           cfg: NumericsConfig | None = None):
    """A generic one-double-point context with wp'(alpha) bounded away from 0."""
    while True:
        g4, g6 = random_gamma(rng, rmax)
        a2 = _cdisc(rng, rmax) * rng.uniform(0.2, 1.0)
        scale = (abs(g4) ** 1.5 + abs(g6) + abs(a2) ** 3) + 1e-12
        try:
            ctx = sg.context_lambda1(a2, (g4, g6), cfg)
        except Sigma2Error:
            continue
        if ctx.branch_point or abs(ctx.wpp_alpha) < wpp_rel_min * scale ** 0.5:
            continue
        return ctx


def _random_u(rng, radius):
    return _cdisc(rng, radius)


# ---------------------------------------------------------------------------
# independent P-route: log-derivatives from sigma2 values only

def p_route_derivatives(ctx, U3, U1, radius=0.18, nodes=64, r3=0.12, n3=24):
    """P11..P1113 via Cauchy-integral differentiation of sigma2 alone.

    Every contour integral runs over the entire function Z itself (so the
    sigma2 divisor cannot spoil analyticity); the log-derivatives are then
    assembled algebraically at the center.  Independent of the S-function
    closed forms, with spectral accuracy far below 1e-9.
    """
    U3, U1 = complex(U3), complex(U1)

    def z_block(u3):
        return np.array(cauchy_derivatives(
            lambda t: sg.sigma2_u(ctx, u3, t), U1, 4, radius, nodes))

    base = z_block(U3)                         # Z, Z_1, .., Z_1111
    acc = np.zeros(5, dtype=complex)
    for k in range(n3):
        w = np.exp(2j * np.pi * k / n3)
        acc += z_block(U3 + r3 * w) / w
    d3 = acc / (n3 * r3)                       # Z_3, Z_31, .., Z_31111
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

def suite_heat(seed=7, samples=20, cfg=None) -> SuiteResult:
    """Q0, Q2, Q4, Q6 annihilate sigma2 (normalized residuals < 1e-5)."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    worst = 0.0
    per_op = {k: 0.0 for k in ("Q0", "Q2", "Q4", "Q6")}
    for _ in range(samples):
        ctx = random_lambda1_context(rng, rmax=1.0, cfg=cfg)
        u3, U1 = _random_u(rng, 0.5), _random_u(rng, 0.5)
        rep = heat.q_residuals(ctx, u3, U1, cfg)
        for k, v in rep.residuals.items():
            per_op[k] = max(per_op[k], v)
        worst = max(worst, rep.max_residual)
    return SuiteResult("heat_annihilation", worst < 1e-5,
                       {"max_residual": worst, "threshold": 1e-5, **per_op})


def suite_taylor(seed=7, contexts=10, cfg=None) -> SuiteResult:
    """Schur-Weierstrass leading part u3 - u1^3/3 near the moduli origin."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    u = 1e-2
    worst3 = worst1 = 0.0
    for _ in range(contexts):
        g4, g6 = random_gamma(rng, rmax=0.02)
        a2 = _cdisc(rng, 0.02)
        ctx = sg.context_lambda1(a2, (g4, g6), cfg)
        worst3 = max(worst3, abs(sg.sigma2(ctx, u, 0.0) / u - 1.0))
        worst1 = max(worst1, abs(sg.sigma2(ctx, 0.0, u) / (-u ** 3 / 3) - 1.0))
    # two-double-point constant: recorded, context independence asserted
    consts = []
    for _ in range(4):
        a2 = _cdisc(rng, 0.05)
        b2 = _cdisc(rng, 0.05)
        ctx0 = sg.context_lambda0(a2, b2, cfg)
        consts.append(sg.sigma2(ctx0, u, 0.0) / u)
    spread = max(abs(c - consts[0]) for c in consts)
    ok = worst3 < 1e-6 and worst1 < 1e-4 and spread < 1e-4
    return SuiteResult("taylor_leading_part", ok,
                       {"u3_residual": worst3, "u1_residual": worst1,
                        "lambda0_constant": complex(np.mean(consts)),
                        "lambda0_spread": spread,
                        "thresholds": (1e-6, 1e-4)})


def suite_inversion(seed=7, instances=100, contexts=3, cfg=None) -> SuiteResult:
    """Forward integrals -> closed-form inversion round trip, plus the
    rational-limit closed form."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    worst_rt = 0.0
    per_ctx = max(1, instances // contexts)
    for _ in range(contexts):
        ctx = random_lambda1_context(rng, cfg=cfg)
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
    ok = worst_rt < 1e-8 and worst_rat < 1e-10
    return SuiteResult("inversion_round_trip", ok,
                       {"round_trip": worst_rt, "rational_limit": worst_rat,
                        "thresholds": (1e-8, 1e-10)})


def suite_two_route(seed=7, samples=8, cfg=None) -> SuiteResult:
    """P-route (Cauchy derivatives of sigma2) vs S-route closed forms, and the
    quintic-coefficient reconstruction from the log-derivative basis."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    worst_sym = 0.0
    worst_lam = 0.0
    worst_delta = 0.0
    done = 0
    while done < samples:
        ctx = random_lambda1_context(rng, cfg=cfg)
        U3, U1 = _random_u(rng, 0.25), 0.35 + _random_u(rng, 0.15)
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
    ok = worst_sym < 1e-9 and worst_lam < 1e-6 and worst_delta < 1e-6
    return SuiteResult("two_route_consistency", ok,
                       {"symmetric_functions": worst_sym,
                        "lambda_reconstruction": worst_lam,
                        "delta_residual": worst_delta,
                        "thresholds": (1e-9, 1e-6)})


def suite_periodicity(seed=7, samples=20, cfg=None) -> SuiteResult:
    """sigma2 quasi-periodicity, P three-periodicity, functional equations."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    ctxs = [random_lambda1_context(rng, cfg=cfg) for _ in range(3)]
    worst_qp = worst_p = worst_fe = worst_rc = 0.0
    for i in range(samples):
        ctx = ctxs[i % len(ctxs)]
        L = lt.period_matrices(ctx)
        u = np.array([_random_u(rng, 0.3), _random_u(rng, 0.3)])
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
        fe = lt.functional_equation_check(ctx, c, _random_u(rng, 0.5),
                                          _random_u(rng, 0.4))
        worst_fe = max(worst_fe, fe["product_residual"])
        worst_rc = max(worst_rc, fe["reciprocal_residual"])
    ok = worst_qp < 1e-8 and worst_p < 1e-8 and worst_fe < 1e-9 and worst_rc < 1e-9
    return SuiteResult("periodicity", ok,
                       {"quasi_periodicity": worst_qp, "p_periodicity": worst_p,
                        "functional_eq": worst_fe, "reciprocal": worst_rc,
                        "thresholds": (1e-8, 1e-9)})


def suite_legendre(seed=7, contexts=10, cfg=None) -> SuiteResult:
    """Degenerate Legendre identity and xi-independence of period increments."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    worst_leg = worst_inc = 0.0
    for _ in range(contexts):
        ctx = random_lambda1_context(rng, cfg=cfg)
        L = lt.period_matrices(ctx)
        worst_leg = max(worst_leg, L.legendre_residual)
        t1 = np.concatenate([L.T[:, 0], L.H[:, 0]])
        per = ctx.ectx.omega
        incs = []
        for _ in range(5):
            xi = _random_u(rng, 0.25) + 0.05
            try:
                incs.append(lt.period_increment(ctx, xi, per))
            except Sigma2Error:
                continue
        # compare pairwise after reducing by the T1 direction (the segment
        # homology class may differ by a residue loop)
        for a in incs[1:]:
            diff = a - incs[0]
            m = round((diff[0] / t1[0]).real)
            worst_inc = max(worst_inc, float(np.max(np.abs(diff - m * t1))))
    ok = worst_leg < 1e-8 and worst_inc < 1e-9
    return SuiteResult("degenerate_legendre", ok,
                       {"legendre": worst_leg, "increment_spread": worst_inc,
                        "thresholds": (1e-8, 1e-9)})


def suite_spectral(seed=7, samples=20, cfg=None) -> SuiteResult:
    """Eigen-equation, KdV, real potential families, Bloch multipliers."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    worst_eig = worst_kdv = worst_bloch = worst_m23 = 0.0
    done = 0
    while done < samples:
        ctx = random_lambda1_context(rng, cfg=cfg)
        b1 = 0.3 + _random_u(rng, 0.2)
        u3, u1 = _random_u(rng, 0.2), 0.3 + _random_u(rng, 0.2)
        try:
            # near the sigma2 divisor the potential blows up and stencil
            # differencing, not the identity, becomes the bottleneck
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
        ctx = random_lambda1_context(rng, cfg=cfg)
        L = lt.period_matrices(ctx)
        xi0 = 0.3 + _random_u(rng, 0.15)
        u = np.array([_random_u(rng, 0.2), _random_u(rng, 0.2)])
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
        ec = el.make_context((g4, g6), cfg)
        om, omp, _, _ = sp.real_rectangle_periods(ec)
        roots = sorted([r.real for r in ec.roots])
        for wpa in (0.5 * (roots[1] + roots[2]), roots[0] - 0.4):
            ctx = sg.context_lambda1(0.6 * wpa, (g4, g6), cfg)
            for fam in ("V1", "V2"):
                s = sp.real_family(ctx, fam, 0.25, grid, cfg)
                worst_im = max(worst_im, s.max_imag)
    ok = (worst_eig < 1e-6 and worst_kdv < 1e-5 and worst_im < 1e-8
          and worst_bloch < 1e-6 and worst_m23 < 1e-12)
    return SuiteResult("spectral", ok,
                       {"eigen": worst_eig, "kdv": worst_kdv,
                        "reality_max_imag": worst_im, "bloch": worst_bloch,
                        "m2_m3_gap": worst_m23,
                        "thresholds": (1e-6, 1e-5, 1e-8)})


def _rand_fraction(rng, den_max=12):
    return Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, den_max)))


def suite_algebra(seed=7, samples=100) -> SuiteResult:
    """Exact rational identities: det V = (16/5) Delta, the tangency
    identities, and the resultant-discriminant agreement."""
    rng = np.random.default_rng(seed)
    fails = 0
    const = None
    for _ in range(samples):
        lam = st.G2Params(_rand_fraction(rng), _rand_fraction(rng),
                          _rand_fraction(rng), _rand_fraction(rng))
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
            ratio = r / d
            if const is None:
                const = ratio
            if ratio != const:
                fails += 1
    return SuiteResult("exact_algebra", fails == 0 and const == 1,
                       {"failures": fails, "resultant_constant": str(const)})


def suite_classify(seed=7, per_chart=1000, cfg=None) -> SuiteResult:
    """Chart -> classify -> chart round trips and the rank table."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    mis = 0
    worst_rt = 0.0
    for _ in range(per_chart):
        lam = st.G2Params(_cunit(rng), _cunit(rng), _cunit(rng), _cunit(rng))
        try:
            cls = st.classify(lam, cfg)
        except Sigma2Error:
            mis += 1
            continue
        if cls.stratum != "Lambda2":
            mis += 1
    for _ in range(per_chart):
        g4, g6 = random_gamma(rng)
        a2 = _cunit(rng)
        lam = st.lambda_from_lambda1(a2, (g4, g6))
        try:
            cls = st.classify(lam, cfg)
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
    for _ in range(per_chart):
        a2, b2 = _cunit(rng), _cunit(rng)
        lam = st.lambda_from_lambda0(a2, b2)
        try:
            cls = st.classify(lam, cfg)
        except Sigma2Error:
            mis += 1
            continue
        if cls.stratum != "Lambda0":
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
        cls = st.classify(st.G2Params(*lam_t), cfg)
        if cls.partition != part or cls.rank != rank:
            table_ok = False
    ok = mis == 0 and worst_rt < 1e-9 and table_ok
    return SuiteResult("classification", ok,
                       {"misclassified": mis, "round_trip": worst_rt,
                        "rank_table_ok": table_ok, "threshold": 1e-9})


def suite_gradient(seed=7, samples=20, cfg=None) -> SuiteResult:
    """Closed-form discriminant gradient on the stratum vs symbolic and
    finite-difference gradients."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
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
        fd = _fd_gradient(lam)
        scale = max(1.0, max(abs(g) for g in chk["gradient"]))
        worst_fd = max(worst_fd, max(abs(a - b) for a, b in
                                     zip(fd, chk["closed_form"])) / scale)
        done += 1
    # wp'(alpha) = 0 sample: both sides vanish
    chk0 = st.gradient_delta_check(0.0, (1.0, 0.0))
    van = max(max(abs(g) for g in chk0["gradient"]),
              max(abs(g) for g in chk0["closed_form"]))
    ok = worst < 1e-6 and worst_fd < 1e-6 and van < 1e-8
    return SuiteResult("gradient_formula", ok,
                       {"closed_vs_symbolic": worst, "closed_vs_fd": worst_fd,
                        "branch_point_value": van, "threshold": 1e-6})


def _fd_gradient(lam, h=1e-6):
    vals = list(lam.astuple())
    out = []
    for j in range(4):
        hp = h * (1.0 + abs(vals[j]))
        up, dn = vals.copy(), vals.copy()
        up[j] = vals[j] + hp
        dn[j] = vals[j] - hp
        out.append((st.discriminant(st.G2Params(*up))
                    - st.discriminant(st.G2Params(*dn))) / (2 * hp))
    return out


def suite_trig_limit(seed=7, cfg=None) -> SuiteResult:
    """Degenerate Weierstrass sigma vs its hyperbolic closed form."""
    rng = np.random.default_rng(seed)
    cfg = cfg or DEFAULT_CONFIG
    worst = 0.0
    for a in (1.0, 0.7, 1.1 + 0.4j):
        eps = 1e-6 * (1.0 + abs(a) ** 2)
        ec = el.make_context((-3 * a ** 2 + eps, 2 * a ** 3), cfg)
        for _ in range(10):
            u = _cunit(rng) * 0.6
            got = el.sigma_w(ec, u)
            want = el.sigma_trig_limit(a, u)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return SuiteResult("trigonometric_limit", worst < 1e-4,
                       {"max_residual": worst, "threshold": 1e-4})


SUITES = {
    "heat": suite_heat,
    "taylor": suite_taylor,
    "inversion": suite_inversion,
    "two_route": suite_two_route,
    "periodicity": suite_periodicity,
    "legendre": suite_legendre,
    "spectral": suite_spectral,
    "algebra": suite_algebra,
    "classify": suite_classify,
    "gradient": suite_gradient,
    "trig_limit": suite_trig_limit,
}


def run_suite(name, seed=7, cfg=None, **kw) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if name == "algebra":
        return fn(seed=seed, **kw)
    return fn(seed=seed, cfg=cfg, **kw)
