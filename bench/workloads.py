"""Seeded inputs, requests and output checks for the benchmark workloads.

Inputs are drawn with numpy from the seed alone; the package receives only
the generated values.  Requests go through public entry points looked up at
call time (``sigma2.cli.main``, ``sigma2.classify``, ...), so the traced run
sees them through the wrappers it installs.  Checks run outside the timed
region and report, per request, whether it passed and the decimal digits of
agreement of each checked output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("grid_eval", "curve_sweep", "verify_all")

SIZES = {
    # sigma grid side, potential samples, sweep requests, verify argv tail
    "full": {"grid": 40, "potential": 512, "curves": 1000, "verify": ()},
    "tiny": {"grid": 5, "potential": 8, "curves": 24,
             "verify": ("--suite", "algebra,trig_limit", "--samples", "2")},
}

DIGITS_CAP = 16.0
REL_TOL = 1e-8          # agreement every checked output must reach
BRANCH_TOL = 1e-6       # sigma2 moves by O(1e-9) between the two contexts
ROUND_TRIP_TOL = 1e-9   # the classify acceptance suite's threshold
# the spectral acceptance suite bounds a real potential's max_imag by 1e-8 on
# O(1) samples; seeded grids pass near poles where V reaches 1e9, so the
# bound is taken relative to 1 + max|V|
REALITY_TOL = 1e-8
PROBES = 12             # sigma2 grid values checked against the Baker form


def digits(err):
    """Decimal digits of agreement for a relative error, capped at 16."""
    if not err > 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _disk(rng, r=1.0):
    return complex(r * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


def _dyadic(z, den=64):
    """Round to multiples of 1/den, so sums and products below are exact."""
    return complex(round(z.real * den) / den, round(z.imag * den) / den)


def gamma_from_roots(e1, e2, e3):
    """(gamma4, gamma6) with X^3 + gamma4 X + gamma6 = (X-e1)(X-e2)(X-e3)."""
    return e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3


def _generic_l1(rng):
    """(a2, gamma4, gamma6) away from degenerate curves and branch points."""
    while True:
        g4 = _disk(rng) * rng.uniform(0.3, 1.0)
        g6 = _disk(rng) * rng.uniform(0.3, 1.0)
        a2 = _disk(rng) * rng.uniform(0.2, 1.0)
        size = abs(g4) ** 3 + abs(g6) ** 2
        big_a = 5.0 * a2 / 3.0
        ypsq = big_a ** 3 + g4 * big_a + g6       # wp'(alpha)^2 / 4
        if (abs(4 * g4 ** 3 + 27 * g6 ** 2) >= 0.05 * size
                and abs(ypsq) ** 2 >= 0.05 * size):
            return complex(a2), complex(g4), complex(g6)


def _branch_l1(rng):
    """(a2, gamma4, gamma6) with wp(alpha) = (5/3) a2 on a cubic root."""
    while True:
        e1, e2 = _dyadic(_disk(rng)), _dyadic(_disk(rng))
        e3 = -(e1 + e2)
        if min(abs(e1 - e2), abs(e1 - e3), abs(e2 - e3)) >= 0.3:
            break
    g4, g6 = gamma_from_roots(e1, e2, e3)
    e = (e1, e2, e3)[int(rng.integers(3))]
    return 0.6 * e, g4, g6


def _real_roots(rng):
    """Three real roots e1 > e2 > e3 summing to 0 (rectangular lattice)."""
    e1 = rng.uniform(0.4, 1.0)
    e2 = e1 * rng.uniform(-0.4, 0.8)
    return e1, e2, -(e1 + e2)


def _rhombic_l1(rng):
    """Real curve with one real root (rhombic lattice), generic a2."""
    while True:
        c = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.2, 1.0))
        g4, g6 = gamma_from_roots(-2 * c.real, c, c.conjugate())
        a2 = rng.uniform(-1, 1)
        big_a = 5.0 * a2 / 3.0
        if abs(big_a ** 3 + g4.real * big_a + g6.real) >= 0.05:
            return complex(a2), complex(g4.real), complex(g6.real)


def _rect_l1(rng):
    e1, e2, e3 = _real_roots(rng)
    g4, g6 = gamma_from_roots(e1, e2, e3)
    a2 = 0.6 * rng.choice([e3 - rng.uniform(0.1, 0.5),
                           e2 + rng.uniform(0.2, 0.8) * (e1 - e2),
                           e1 + rng.uniform(0.1, 0.5)])
    return complex(a2), complex(g4), complex(g6)


def _l0(rng, gap=None):
    """(a2, b2) with the two double points apart, or ``gap`` apart."""
    while True:
        a2 = _disk(rng) * rng.uniform(0.2, 1.0)
        if gap is not None:
            return a2, a2 + gap * (1 + 2 * abs(a2)) * np.exp(2j * np.pi * rng.uniform())
        b2 = _disk(rng) * rng.uniform(0.2, 1.0)
        if abs(a2 - b2) >= 0.3:
            return a2, b2


def cli_complex(*zs):
    """CLI text for complex values as (re, im) pairs."""
    return ",".join(repr(float(x)) for z in zs for x in (z.real, z.imag))


def _reals(*xs):
    return ",".join(repr(float(x)) for x in xs)


# ---------------------------------------------------------------------------
# inputs

@dataclass(frozen=True)
class GridRequest:
    kind: str            # l1_generic | l1_branch | l0 | l0_near | potential
    argv: tuple
    out: str
    rows: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CurvePoint:
    chart: str           # l1_complex | l1_rect | l1_rhombic | l1_branch | l0 | l2
    lam: object          # sigma2.G2Params
    params: tuple        # chart coordinates: (a2, g4, g6) | (a2, b2) | ()
    u: tuple             # (u3, u1) for the sigma2 value
    U: tuple             # (U1, U3) for the inversion


def build_grid_eval(seed, size, workdir):
    rng = _rng(seed, "grid_eval")
    n, m = SIZES[size]["grid"], SIZES[size]["potential"]
    grid = f"-0.5,0.5,{n}"
    reqs = []

    def sigma_req(kind, a2, gamma=None, b2=None):
        if gamma is not None:
            params, other = {"a2": a2, "gamma": gamma}, f"--gamma={cli_complex(*gamma)}"
        else:
            params, other = {"a2": a2, "b2": b2}, f"--b2={cli_complex(b2)}"
        out = os.path.join(workdir, f"grid{len(reqs)}.csv")
        argv = ("sigma", f"--a2={cli_complex(a2)}", other, f"--grid={grid}",
                "--out", out)
        reqs.append(GridRequest(kind, argv, out, n * n, params))

    for _ in range(2):
        a2, g4, g6 = _generic_l1(rng)
        sigma_req("l1_generic", a2, gamma=(g4, g6))
    a2, g4, g6 = _branch_l1(rng)
    sigma_req("l1_branch", a2, gamma=(g4, g6))
    a2, b2 = _l0(rng)
    sigma_req("l0", a2, b2=b2)
    a2, b2 = _l0(rng, gap=1e-7)
    sigma_req("l0_near", a2, b2=b2)
    # real rectangular lattice with wp(alpha) inside the gap (e2, e1)
    e1, e2, e3 = _real_roots(rng)
    g4, g6 = (x.real for x in gamma_from_roots(complex(e1), e2, e3))
    a2 = 0.6 * (e2 + rng.uniform(0.25, 0.75) * (e1 - e2))
    phi = rng.uniform(0.1, 0.4)
    for family in ("V1", "V2"):
        out = os.path.join(workdir, f"grid{len(reqs)}.csv")
        argv = ("potential", f"--a2={_reals(a2)}", f"--gamma={_reals(g4, g6)}",
                "--family", family, f"--phi={phi!r}", "--grid", f"0.02,0.98,{m}",
                "--out", out)
        reqs.append(GridRequest("potential", argv, out, m,
                                {"a2": a2, "gamma": (g4, g6)}))
    return reqs


CURVE_SHARES = (("l1_complex", 0.40), ("l1_rect", 0.125), ("l1_rhombic", 0.125),
                ("l1_branch", 0.05), ("l0", 0.15), ("l2", 0.15))


def build_curve_sweep(seed, size):
    import sigma2
    rng = _rng(seed, "curve_sweep")
    total = SIZES[size]["curves"]
    charts = []
    for chart, share in CURVE_SHARES:
        charts += [chart] * max(1, round(share * total))
    rng.shuffle(charts)
    points = []
    for chart in charts:
        if chart == "l0":
            params = _l0(rng)
            lam = sigma2.lambda_from_lambda0(*params)
        elif chart == "l2":
            params = ()
            lam = sigma2.G2Params(*(_disk(rng) for _ in range(4)))
        else:
            make = {"l1_complex": _generic_l1, "l1_rect": _rect_l1,
                    "l1_rhombic": _rhombic_l1, "l1_branch": _branch_l1}[chart]
            params = make(rng)
            lam = sigma2.lambda_from_lambda1(params[0], params[1:])
        u = (_disk(rng, 0.4), _disk(rng, 0.4))
        big_u1 = _disk(rng, 0.3)
        big_u1 += 0.1 * big_u1 / abs(big_u1)
        points.append(CurvePoint(chart, lam, params, u, (big_u1, _disk(rng, 0.4))))
    return points


def build_verify_all(seed, size):
    return ("verify", "--seed", str(int(seed)), *SIZES[size]["verify"])


def build_inputs(workload, seed, size, workdir):
    if workload == "grid_eval":
        return build_grid_eval(seed, size, workdir)
    if workload == "curve_sweep":
        return build_curve_sweep(seed, size)
    if workload == "verify_all":
        return [build_verify_all(seed, size)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# requests

@dataclass
class Outcome:
    """What one request returned; ``error`` is an unexpected exception."""

    value: object = None
    error: str | None = None


def call_cli(argv):
    """Run one CLI command in-process; (exit code, captured stdout)."""
    import sigma2.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sigma2.cli.main(list(argv))
    return code, buf.getvalue()


def run_cli_request(argv):
    try:
        return Outcome(value=call_cli(argv))
    except Exception as exc:        # counted as a failed request
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def run_curve_request(p):
    """classify -> context -> sigma2 value -> periods -> inversion.

    Refusals are kept as values (the exception type name) and judged by the
    check; any other exception fails the request.
    """
    import sigma2
    import sigma2.inversion
    import sigma2.lattice
    refusal = (sigma2.NotOnStratum, sigma2.SingularConfiguration,
               sigma2.BranchPointCase)
    out = {}
    try:
        cls = sigma2.classify(p.lam)
        out["cls"] = cls
        try:
            ctx = sigma2.make_degen_context(cls)
        except refusal as exc:
            out["ctx"] = type(exc).__name__
            return Outcome(value=out)
        out["ctx"] = ctx
        out["sigma"] = sigma2.sigma2(ctx, *p.u)
        try:
            out["lat"] = sigma2.lattice.period_matrices(ctx)
        except refusal as exc:
            out["lat"] = type(exc).__name__
        try:
            if ctx.kind == "lambda1" and ctx.branch_point:
                out["inv"] = sigma2.inversion.branch_point_inversion(ctx, p.U[0])
            else:
                out["inv"] = sigma2.inversion.solve_inversion(ctx, *p.U)
        except refusal as exc:
            out["inv"] = type(exc).__name__
    except Exception as exc:        # counted as a failed request
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    return Outcome(value=out)


def run_request(workload, item):
    if workload == "curve_sweep":
        return run_curve_request(item)
    return run_cli_request(item.argv if workload == "grid_eval" else item)


# ---------------------------------------------------------------------------
# checks

@dataclass
class Verdict:
    ok: bool
    digits: list = field(default_factory=list)
    reason: str = ""


def _fail(reason, dig=()):
    return Verdict(False, list(dig), reason)


def _finite(*zs):
    return all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in r] for r in rows[1:]])


def baker_error(ctx, points, values):
    """Worst relative gap between sigma2 values and the Baker product form,
    over the points where that form is defined."""
    import sigma2
    worst = 0.0
    for (u3, u1), val in zip(points, values):
        try:
            ref = sigma2.sigma2_baker_form(ctx, u3, u1)
        except sigma2.PoleAtArgument:
            continue
        worst = max(worst, abs(ref - val) / abs(ref))
    return worst


def _last_json(text):
    """The JSON record that closes a CLI command's stdout."""
    start = text.find("\n{")
    return json.loads(text if text.startswith("{") else text[start:])


class GridChecker:
    """Checks grid CSVs: finiteness, oddness of sigma2, Baker form, reality."""

    def __init__(self, reqs, seed):
        self.reqs = reqs
        self.seed = seed
        self._ctx = {}

    def _context(self, i, params):
        import sigma2
        if i not in self._ctx:
            self._ctx[i] = sigma2.context_lambda1(params["a2"], params["gamma"])
        return self._ctx[i]

    def check(self, i, outcome):
        req = self.reqs[i]
        if outcome.error:
            return _fail(outcome.error)
        code, text = outcome.value
        if code != 0:
            return _fail(f"exit code {code}: {text[-200:]}")
        data = _read_csv(req.out)
        if data.shape[0] != req.rows or not np.all(np.isfinite(data)):
            return _fail("missing or non-finite rows")
        if req.kind == "potential":
            return self._check_potential(data)
        vals = data[:, 2] + 1j * data[:, 3]
        scale = float(np.max(np.abs(vals)))
        # sigma2 is odd and the grid is symmetric about 0
        odd = float(np.max(np.abs(vals + vals[::-1]))) / scale
        dig = [digits(odd)]
        if odd > REL_TOL:
            return _fail(f"sigma2(-u) != -sigma2(u): {odd:.3g}", dig)
        if req.kind not in ("l1_generic", "l1_branch"):
            return Verdict(True, dig)
        picks = np.random.default_rng([self.seed, i]).permutation(len(vals))
        picks = [j for j in picks if abs(vals[j]) > 1e-3 * scale][:PROBES]
        points, values = data[picks, :2], vals[picks]
        ctx = self._context(i, req.params)
        if req.kind == "l1_branch":
            if not ctx.branch_point:
                return _fail("branch-point input did not reach the branch regime")
            # sigma2 is continuous in the moduli, so a context 1e-9 off the
            # branch point, which takes the generic Baker form, must agree
            moved = dict(req.params, a2=req.params["a2"] * (1 + 1e-9))
            near = self._context((i, "near"), moved)
            err = baker_error(near, points, values)
            if err > BRANCH_TOL:
                return _fail(f"branch value discontinuous: {err:.3g}", dig)
            return Verdict(True, dig)
        err = baker_error(ctx, points, values)
        dig.append(digits(err))
        if err > REL_TOL:
            return _fail(f"sigma2 vs Baker form: {err:.3g}", dig)
        return Verdict(True, dig)

    @staticmethod
    def _check_potential(data):
        # how far from real the potential comes out varies by orders of
        # magnitude between curves (1e-17 to 1e-8 over seeds 0-199), so it
        # is a pass/fail check and does not feed correct_digits
        scale = 1.0 + float(np.max(np.abs(data[:, 1])))
        imag = float(np.max(np.abs(data[:, 2]))) / scale
        if imag > REALITY_TOL:
            return _fail(f"potential not real: {imag:.3g}")
        return Verdict(True)


def _stratum_of(chart):
    return {"l0": "Lambda0", "l2": "Lambda2"}.get(chart, "Lambda1")


class CurveChecker:
    """Chart/stratum agreement, chart round trip, Baker form, residuals."""

    def __init__(self, points):
        self.points = points

    def check(self, i, outcome):
        p = self.points[i]
        if outcome.error:
            return _fail(outcome.error)
        out = outcome.value
        cls = out["cls"]
        want = _stratum_of(p.chart)
        if cls.stratum != want:
            return _fail(f"{p.chart} point classified as {cls.stratum}")
        ctx = out["ctx"]
        if want == "Lambda2":
            return (Verdict(True) if ctx == "NotOnStratum"
                    else _fail(f"Lambda2 context: {ctx!r}"))
        if isinstance(ctx, str):
            return _fail(f"context refused: {ctx}")
        rt = self._round_trip(p, cls)
        dig = [digits(rt)]
        if rt > ROUND_TRIP_TOL:
            return _fail(f"chart round trip {rt:.3g}", dig)
        sig = out["sigma"]
        if not _finite(sig):
            return _fail("non-finite sigma2", dig)
        generic = ctx.kind == "lambda1" and not ctx.branch_point
        if generic:
            err = baker_error(ctx, [p.u], [sig])
            dig.append(digits(err))
            if err > REL_TOL:
                return _fail(f"sigma2 vs Baker form: {err:.3g}", dig)
        lat, inv = out["lat"], out["inv"]
        if generic:
            if isinstance(lat, str) or isinstance(inv, str):
                return _fail(f"generic context refused: {lat!r} {inv!r}", dig)
            dig.append(digits(lat.legendre_residual))
            if lat.legendre_residual > REL_TOL:
                return _fail("Legendre residual", dig)
        elif lat != "SingularConfiguration":
            return _fail(f"rank-3 lattice on a degenerate context: {lat!r}", dig)
        if ctx.kind == "lambda0":
            return (Verdict(True, dig) if inv == "NotOnStratum"
                    else _fail(f"inversion on Lambda0: {inv!r}", dig))
        if isinstance(inv, str):
            return _fail(f"inversion refused: {inv}", dig)
        g4, g6 = ctx.gamma.gamma4, ctx.gamma.gamma6
        xs = (inv.X1, inv.X2)
        scale = 1.0 + max(abs(x) ** 3 + abs(g4 * x) + abs(g6) for x in xs)
        memb = inv.residuals["curve_membership"] / scale
        dig.append(digits(memb))
        if not _finite(*xs, inv.Y1, inv.Y2) or memb > REL_TOL:
            return _fail(f"curve membership {memb:.3g}", dig)
        return Verdict(True, dig)

    @staticmethod
    def _round_trip(p, cls):
        if p.chart == "l0":
            want = sorted(p.params, key=lambda z: (z.real, z.imag))
            got = (cls.a2, cls.b2)
        else:
            want = p.params
            got = (cls.a2, cls.gamma.gamma4, cls.gamma.gamma6)
        scale = 1.0 + sum(abs(z) for z in want)
        return max(abs(complex(a) - b) for a, b in zip(got, want)) / scale


class VerifyChecker:
    """``all_passed`` and the worst residual any suite reports."""

    def check(self, i, outcome):
        if outcome.error:
            return _fail(outcome.error)
        code, text = outcome.value
        rec = _last_json(text)
        dig = [digits(r) for r in _suite_residuals(rec)]
        if code != 0 or not rec.get("all_passed"):
            return _fail(f"verify exit {code}, all_passed={rec.get('all_passed')}", dig)
        return Verdict(True, dig)


def _suite_residuals(rec):
    """Float detail fields of every suite, other than its thresholds."""
    for details in rec["suites"].values():
        for key, val in details.items():
            if key.startswith("threshold") or key == "passed":
                continue
            if isinstance(val, float):
                yield val


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def anchor_values(argv, workdir):
    """Run one anchor command; its CSV values as complex numbers."""
    out = os.path.join(workdir, "anchor.csv")
    code, text = call_cli([*argv, "--out", out])
    if code != 0:
        raise RuntimeError(f"anchor {argv} exited {code}: {text[-200:]}")
    data = _read_csv(out)
    return data[:, -2] + 1j * data[:, -1]


def check_anchors(workdir):
    """Grid outputs on fixed inputs against the values in reference.json."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    verdicts = []
    for anchor in ref["anchors"]:
        want = np.array([complex(*v) for v in anchor["values"]])
        try:
            got = anchor_values(anchor["argv"], workdir)
        except Exception as exc:     # counted as a failed request
            verdicts.append(_fail(f"anchor {anchor['name']}: {exc}"))
            continue
        if got.shape != want.shape or not np.all(np.isfinite(got)):
            verdicts.append(_fail(f"anchor {anchor['name']}: bad output"))
            continue
        err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
        verdicts.append(Verdict(err <= REL_TOL, [digits(err)],
                                f"anchor {anchor['name']}: {err:.3g}"))
    return verdicts


def make_checker(workload, inputs, seed):
    if workload == "grid_eval":
        return GridChecker(inputs, seed)
    if workload == "curve_sweep":
        return CurveChecker(inputs)
    return VerifyChecker()
