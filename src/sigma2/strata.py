"""Stratification of the quintic parameter space C^4 and its vector-field algebra.

The quintic x^5 + l4*x^3 + l6*x^2 + l8*x + l10 has actual genus 2, 1 or 0
according to its root-multiplicity partition; the three strata are cut out by
the discriminant Delta and the four-polynomial vector Gamma.  Classification
is root-cluster-first (companion-matrix eigenvalues on weight-normalized
coefficients), cross-checked against |Delta| and |Gamma| magnitudes and the
chart round trips; disagreement raises AmbiguousClassification.

`classify` and `classify_many` share one route.  The batch stacks the
companion matrices into one eigvals call per size (bit-identical
eigenvalues) and evaluates the Delta/Gamma monomials on the columns of the
normalized points, where numpy's complex arithmetic moves the magnitudes by
rounding only; a single point evaluates them over Python complex scalars.
Everything after that (clustering, Newton polish of the multiple roots,
every gate and the chart recovery) is the same per-point code, `_decide`.

Polynomials are stored as monomial lists so the same code path evaluates them
over complex floats and exactly over Python ints and Fractions.  det V = 16/5
Delta, the tangency identities and Res(f, f') = Delta are exact rational
statements, weighted-homogeneous in (l4, l6, l8, l10); `integer_point` moves a
rational point to an int point where each holds exactly when it held before,
the frame's constants are stored as integers (one factor per field clears its
fifths) and determinants use Bareiss's fraction-free elimination, so the
exact checks run over Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .elliptic import EllipticCurveParams, delta_gamma, make_context, invert_wp
from .errors import (AmbiguousClassification, DegenerateCurve, NotOnStratum,
                     Sigma2Error)
from .numerics import require_finite

__all__ = [
    "G2Params", "StratumClassification", "VectorFieldData",
    "discriminant", "gamma_vec", "upsilon", "classify", "classify_many",
    "lambda_from_lambda1", "lambda_from_lambda0",
    "vmatrix", "tangency_residuals", "gradient_delta_check",
    "discriminant_resultant_oracle", "integer_point", "RANK_BY_PARTITION",
]


@dataclass(frozen=True)
class G2Params:
    """Quintic coefficients (Sato weights 4, 6, 8, 10)."""

    lambda4: complex
    lambda6: complex
    lambda8: complex
    lambda10: complex

    def __post_init__(self):
        try:
            require_finite("G2Params", self.lambda4, self.lambda6,
                           self.lambda8, self.lambda10)
        except OverflowError:   # an int or Fraction beyond the float range
            pass

    def astuple(self):
        return (self.lambda4, self.lambda6, self.lambda8, self.lambda10)

    def rescaled(self, t):
        """Sato rescaling lambda_i -> t^i * lambda_i."""
        l4, l6, l8, l10 = self.astuple()
        return G2Params(t**4 * l4, t**6 * l6, t**8 * l8, t**10 * l10)


# ---------------------------------------------------------------------------
# polynomial tables: (coefficient, (pow4, pow6, pow8, pow10))

_DELTA_MONOMIALS = (
    (3125, (0, 0, 0, 4)), (-3750, (1, 1, 0, 3)), (2000, (1, 0, 2, 2)),
    (2250, (0, 2, 1, 2)), (-1600, (0, 1, 3, 1)), (256, (0, 0, 5, 0)),
    (-900, (3, 0, 1, 2)), (825, (2, 2, 0, 2)), (560, (2, 1, 2, 1)),
    (-630, (1, 3, 1, 1)), (108, (0, 5, 0, 1)), (-128, (2, 0, 4, 0)),
    (144, (1, 2, 3, 0)), (-27, (0, 4, 2, 0)), (108, (5, 0, 0, 2)),
    (-72, (4, 1, 1, 1)), (16, (3, 3, 0, 1)), (16, (4, 0, 3, 0)),
    (-4, (3, 2, 2, 0)),
)

_GAMMA_MONOMIALS = (
    ((50, (0, 1, 0, 1)), (-80, (0, 0, 2, 0)), (36, (2, 0, 1, 0)),
     (-27, (1, 2, 0, 0)), (-4, (4, 0, 0, 0))),
    ((200, (0, 0, 1, 1)), (-40, (2, 0, 0, 1)), (-36, (1, 1, 1, 0)),
     (27, (0, 3, 0, 0)), (4, (3, 1, 0, 0))),
    ((625, (0, 0, 0, 2)), (-720, (1, 0, 2, 0)), (135, (0, 2, 1, 0)),
     (308, (3, 0, 1, 0)), (-216, (2, 2, 0, 0)), (-32, (5, 0, 0, 0))),
    ((1600, (0, 0, 3, 0)), (-1040, (2, 0, 2, 0)), (360, (1, 2, 1, 0)),
     (135, (0, 4, 0, 0)), (224, (4, 0, 1, 0)), (-88, (3, 2, 0, 0)),
     (-16, (6, 0, 0, 0))),
)

_MAX_POWER = max(e for m in (_DELTA_MONOMIALS, *_GAMMA_MONOMIALS)
                 for _, p in m for e in p)


def _powers(lam):
    """Table pw[k][e] = lam[k]**e, built once per point and shared by every
    monomial evaluation there; exact for Fraction inputs."""
    return [[v**e for e in range(_MAX_POWER + 1)] for v in lam]


def _eval_monomials(monos, pw):
    p4, p6, p8, p10 = pw
    total = 0
    for c, (a, b, cc, d) in monos:
        total = total + c * p4[a] * p6[b] * p8[cc] * p10[d]
    return total


def _grad_monomials(monos, pw):
    """Gradient of a monomial polynomial, exact for Fraction inputs."""
    out = []
    for j in range(4):
        s = 0
        for c, p in monos:
            if p[j] == 0:
                continue
            q = list(p)
            q[j] -= 1
            term = c * p[j]
            for k in range(4):
                term = term * pw[k][q[k]]
            s = s + term
        out.append(s)
    return out


def discriminant(lam: G2Params):
    """Discriminant Delta(lambda) of the quintic (single polynomial)."""
    return _eval_monomials(_DELTA_MONOMIALS, _powers(lam.astuple()))


def discriminant_gradient(lam: G2Params):
    return _grad_monomials(_DELTA_MONOMIALS, _powers(lam.astuple()))


def gamma_vec(lam: G2Params):
    """The four Gamma polynomials whose common zero locus is Lambda0.

    All four components are checked everywhere they are used; whether a
    proper subset already cuts out the locus is left open, so no component
    is dropped.
    """
    return _gamma_from_powers(_powers(lam.astuple()))


def _gamma_from_powers(pw):
    return tuple(_eval_monomials(m, pw) for m in _GAMMA_MONOMIALS)


def discriminant_resultant_oracle(lam: G2Params):
    """Res_x(f, f') for the monic quintic: independent discriminant route.

    Exact for int and Fraction points (an int point gives an int)."""
    l4, l6, l8, l10 = lam.astuple()
    f = [1, 0, l4, l6, l8, l10]
    fp = [5, 0, 3 * l4, 2 * l6, l8]
    n, m = 5, 4
    rows = [[0] * i + f + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + fp + [0] * (n - 1 - i) for i in range(n)]
    return _det(rows)


def _div(x, n):
    """x / n, exact when both are ints: an int when n divides x, else a
    Fraction; true division otherwise."""
    if type(x) is int and type(n) is int:
        q, r = divmod(x, n)
        return q if r == 0 else Fraction(x, n)
    return x / n


def _det(rows):
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968), pivoting on the first nonzero entry of each column.  Every
    division is exact, so int entries stay ints (floor division), Fraction
    entries give the exact value and complex ones a rounded one."""
    a = [list(r) for r in rows]
    n = len(a)
    ints = all(type(x) is int for r in a for x in r)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0 * a[0][0]
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak, p = a[k], a[k][k]
        for ai in a[k + 1:]:
            aik = ai[k]
            for j in range(k + 1, n):
                v = ai[j] * p - aik * ak[j]
                ai[j] = v // prev if ints else _div(v, prev)
        prev = p
    return sign * a[-1][-1]


def integer_point(lam: G2Params):
    """(lam', D): lam' = (D^2 l4, D^3 l6, D^4 l8, D^5 l10) with D the lcm of
    the denominators of the int/Fraction point lam, so lam' is an int point.

    This is the Sato rescaling with t^2 = D: a polynomial of weight w gains
    the factor D^(w/2) (D^20 for Delta, det V and Res(f, f')), so every
    weighted-homogeneous identity holds at lam' exactly when it holds at lam.
    """
    from math import lcm
    vals = lam.astuple()
    d = lcm(*(v.denominator for v in vals))
    return G2Params(*(v.numerator * (d**k // v.denominator)
                      for v, k in zip(vals, (2, 3, 4, 5)))), d


# ---------------------------------------------------------------------------
# chart maps

def lambda_from_lambda1(a2, gamma) -> G2Params:
    """Chart of curves with one double point (a2, 0); gamma nondegenerate."""
    g4, g6 = _gamma_pair(gamma)
    if delta_gamma(g4, g6) == 0:
        raise DegenerateCurve("lambda_from_lambda1 needs 4*g4^3 + 27*g6^2 != 0")
    third = _third_like(a2)
    l4 = g4 - 5 * third * a2**2
    l6 = g6 - 4 * third * a2 * g4 - 10 * third**3 * a2**3
    l8 = -2 * a2 * g6 - third * a2**2 * g4 + 20 * third**3 * a2**4
    l10 = a2**2 * g6 + 2 * third * a2**3 * g4 + 8 * third**3 * a2**5
    return G2Params(l4, l6, l8, l10)


def lambda_from_lambda0(a2, b2) -> G2Params:
    """Chart of curves with double points at (a2, 0) and (b2, 0)."""
    l4 = -3 * a2**2 - 4 * a2 * b2 - 3 * b2**2
    l6 = 2 * (a2 + b2) * (a2**2 + 3 * a2 * b2 + b2**2)
    l8 = -a2 * b2 * (4 * a2**2 + 7 * a2 * b2 + 4 * b2**2)
    l10 = 2 * a2**2 * b2**2 * (a2 + b2)
    return G2Params(l4, l6, l8, l10)


def _gamma_pair(gamma):
    if isinstance(gamma, EllipticCurveParams):
        return gamma.gamma4, gamma.gamma6
    g4, g6 = gamma
    return g4, g6


def _third_like(x):
    return Fraction(1, 3) if isinstance(x, Fraction) else 1.0 / 3.0


def mu_from_gamma(a2, g4, g6):
    """(mu4, mu6) of the residual cubic x^3 + 2 a2 x^2 + mu4 x + mu6."""
    third = _third_like(a2)
    mu4 = g4 + 4 * third * a2**2
    mu6 = g6 + 2 * third * a2 * g4 + 8 * third**3 * a2**3
    return mu4, mu6


def upsilon(lam: G2Params, gamma, a2):
    """The four defining polynomials of the double-point locus.

    Zero exactly when the quintic equals (x-a2)^2 (x^3 + 2 a2 x^2 + mu4 x +
    mu6) with mu expressed through gamma.
    """
    return _upsilon(lam.astuple(), gamma, a2)


def _upsilon(vals, gamma, a2):
    g4, g6 = _gamma_pair(gamma)
    mu4, mu6 = mu_from_gamma(a2, g4, g6)
    l4, l6, l8, l10 = vals
    return (l4 - (mu4 - 3 * a2**2),
            l6 - (mu6 - 2 * a2 * mu4 + 2 * a2**3),
            l8 - (-2 * a2 * mu6 + a2**2 * mu4),
            l10 - a2**2 * mu6)


# ---------------------------------------------------------------------------
# classification

RANK_BY_PARTITION = {
    (1, 1, 1, 1, 1): 4,
    (2, 1, 1, 1): 3,
    (3, 1, 1): 2,
    (2, 2, 1): 2,
    (3, 2): 1,
    (4, 1): 1,
    (5,): 0,
}

# a 5-fold root of a monic quintic moves by O(eps^(1/5)) under coefficient
# noise, so the clustering radius cannot sit below ~7e-4 after normalization
_CLUSTER_FLOOR = 2.0 * float(np.finfo(float).eps) ** 0.2


@dataclass(frozen=True)
class StratumClassification:
    stratum: str                    # "Lambda2" | "Lambda1" | "Lambda0"
    partition: tuple
    rank: int
    lam: G2Params
    a2: complex | None = None
    gamma: EllipticCurveParams | None = None
    b2: complex | None = None
    residuals: dict = field(default_factory=dict)


def _weight_scale(lam):
    return max(float(abs(v)) ** (1.0 / w)
               for v, w in zip(lam.astuple(), (4, 6, 8, 10)))


def _normalized(lam, s):
    """The quotients l_w / s^w, a plain tuple: the weight scale s bounds
    each by 1 in modulus, so they need no finite check of their own."""
    l4, l6, l8, l10 = lam.astuple()
    return l4 / s**4, l6 / s**6, l8 / s**8, l10 / s**10


def _monic(ln):
    """Coefficient list (highest degree first) of the normalized quintic."""
    return [1.0 + 0j, 0j, *(complex(v) for v in ln)]


def _poly_derivs(p):
    """Coefficient lists of the quintic p and its first four derivatives."""
    ds = [p]
    for n in range(5, 1, -1):       # p has degree n
        p = [c * k for c, k in zip(p, range(n, 0, -1))]
        ds.append(p)
    return ds


def _horner(p, z):
    y = p[0]
    for c in p[1:]:
        y = y * z + c
    return y


def _quintic_roots(ps):
    """Roots of each monic coefficient list in ps: the eigenvalues of its
    companion matrix, with one exact 0j per trailing zero coefficient.

    The companion matrices of one size are stacked into one eigvals call;
    each one's eigenvalues are those of its own call, bit for bit.
    """
    by_size = {}
    for i, p in enumerate(ps):
        n = len(p) - 1
        while p[n] == 0:
            n -= 1
        by_size.setdefault(n, []).append(i)
    roots = [None] * len(ps)
    for n, idx in by_size.items():
        a = np.zeros((len(idx), n, n), dtype=complex)
        a[:, 0] = [[-c for c in ps[i][1:n + 1]] for i in idx]
        a.reshape(len(idx), n * n)[:, n::n + 1] = 1     # the subdiagonal
        for i, r in zip(idx, np.linalg.eigvals(a).tolist()):
            roots[i] = r + [0j] * (len(ps[i]) - 1 - n)
    return roots


def _clusters(roots):
    """Single-linkage clusters of the roots at radius _CLUSTER_FLOOR, as
    (center, multiplicity) pairs.

    A cluster starts at the first free root; the member found last is
    searched next, its free neighbours within the radius joining in index
    order, and the center is the mean of the members in the order they
    joined.
    """
    free = list(range(len(roots)))
    out = []
    while free:
        group = [free.pop(0)]
        frontier = group[:]
        while frontier and free:
            z = roots[frontier.pop()]
            near = [k for k in free if abs(roots[k] - z) <= _CLUSTER_FLOOR]
            for k in near:
                free.remove(k)
            group += near
            frontier += near
        members = [roots[j] for j in group]
        out.append((sum(members) / len(members), len(members)))
    return out


def _polish_root(ds, m, z):
    """Newton on p^(m-1), where an m-fold root of p is a simple root."""
    g = ds[m - 1]
    dg = ds[m]
    for _ in range(40):
        f = _horner(g, z)
        d = _horner(dg, z)
        if d == 0:
            break
        step = f / d
        z = z - step
        if abs(step) < 1e-15 * (1 + abs(z)):
            break
    return z


def _setup(lam):
    """(lam, s, ln): the point as G2Params, its weight scale s and, when
    s > 0, the weight-normalized point."""
    if not isinstance(lam, G2Params):
        lam = G2Params(*lam)
    s = _weight_scale(lam)
    return lam, s, (_normalized(lam, s) if s else None)


def _origin(lam):
    return StratumClassification(
        stratum="Lambda0", partition=(5,), rank=0, lam=lam,
        a2=0j, b2=0j, residuals={"delta_abs": 0.0, "gamma_norm": 0.0,
                                 "roundtrip": 0.0})


def classify(lam: G2Params) -> StratumClassification:
    """Stratum, partition and rank of the quintic parameter point."""
    lam, s, ln = _setup(lam)
    if s == 0.0:
        return _origin(lam)
    p = _monic(ln)
    pw = _powers(ln)
    return _decide(lam, s, ln, p, _quintic_roots([p])[0],
                   abs(_eval_monomials(_DELTA_MONOMIALS, pw)),
                   max(abs(g) for g in _gamma_from_powers(pw)))


def classify_many(points):
    """classify over a list of points in one array pass.

    One entry per point: its StratumClassification, or the Sigma2Error that
    classify raises there (any other exception propagates, as from
    classify).  The companion eigenvalues come from stacked eigvals calls
    and the Delta/Gamma magnitudes from the monomial tables evaluated on
    the columns of the normalized points, which moves those magnitudes by
    rounding only; the rest is classify's own per-point code.
    """
    setups = [_setup(lam) for lam in points]
    out = [_origin(lam) if s == 0.0 else None for lam, s, _ in setups]
    live = [i for i, o in enumerate(out) if o is None]
    ps = [_monic(setups[i][2]) for i in live]
    delta_abs, gamma_norm = _magnitudes(ps)
    for i, p, roots, d, g in zip(live, ps, _quintic_roots(ps), delta_abs,
                                 gamma_norm):
        try:
            out[i] = _decide(*setups[i], p, roots, d, g)
        except Sigma2Error as exc:
            out[i] = exc
    return out


def _magnitudes(ps):
    """(|Delta|, max |Gamma_i|) lists for the normalized quintics ps, from
    one evaluation of the monomial tables on the columns of the points."""
    pw = _powers(np.array([p[2:] for p in ps], dtype=complex).reshape(-1, 4).T)
    return (np.abs(_eval_monomials(_DELTA_MONOMIALS, pw)).tolist(),
            np.abs(_gamma_from_powers(pw)).max(axis=0).tolist())


def _decide(lam, s, ln, p, roots, delta_abs, gamma_norm):
    """classify's verdict from the roots of the normalized quintic p and the
    normalized point's |Delta| and max |Gamma_i|: clustering, polishing,
    every magnitude and round-trip gate, and chart recovery."""
    clusters = _clusters(roots)
    mults = tuple(sorted((m for _, m in clusters), reverse=True))
    if mults not in RANK_BY_PARTITION:
        raise AmbiguousClassification(f"unrecognized multiplicity pattern {mults}")
    res = {"delta_abs": delta_abs, "gamma_norm": gamma_norm}

    if mults == (1, 1, 1, 1, 1):
        if delta_abs < 1e-8:
            raise AmbiguousClassification(
                f"distinct roots but |Delta|={delta_abs:.3g} is tiny")
        return StratumClassification("Lambda2", mults, 4, lam, residuals=res)

    # simple roots are never read, so only the multiple ones are polished
    ds = _poly_derivs(p)
    centers = [(_polish_root(ds, m, c), m) for c, m in clusters if m > 1]

    if mults in ((2, 1, 1, 1), (3, 1, 1)):
        if delta_abs > 1e-6 or gamma_norm < 1e-8:
            raise AmbiguousClassification(
                f"partition {mults} but Delta/Gamma magnitudes disagree "
                f"({delta_abs:.3g}, {gamma_norm:.3g})")
        a2, gamma, rt = _recover_lambda1_normalized(ln, centers[0][0])
        res["roundtrip"] = rt
        res["upsilon"] = max(abs(u) for u in _upsilon(ln, gamma, a2))
        if rt > 1e-6:
            raise AmbiguousClassification(f"Lambda1 chart round trip residual {rt:.3g}")
        g4, g6 = gamma
        return StratumClassification(
            "Lambda1", mults, RANK_BY_PARTITION[mults], lam,
            a2=a2 * s**2,
            gamma=EllipticCurveParams(g4 * s**4, g6 * s**6),
            residuals=res)

    if gamma_norm > 1e-6:
        raise AmbiguousClassification(
            f"partition {mults} but |Gamma|={gamma_norm:.3g} is not small")
    a2, b2, rt = _recover_lambda0_normalized(ln, centers, mults)
    res["roundtrip"] = rt
    if rt > 1e-6:
        raise AmbiguousClassification(f"Lambda0 chart round trip residual {rt:.3g}")
    return StratumClassification(
        "Lambda0", mults, RANK_BY_PARTITION[mults], lam,
        a2=a2 * s**2, b2=b2 * s**2, residuals=res)


def _rel(lam_a: G2Params, ln):
    """max |lam_a - ln| / (1 + max |ln|), ln a normalized coefficient tuple."""
    num = max(abs(x - y) for x, y in zip(lam_a.astuple(), ln))
    den = 1.0 + max(abs(complex(x)) for x in ln)
    return num / den


def _recover_lambda1_normalized(ln, a2):
    l4, l6, _, _ = (complex(v) for v in ln)
    mu4 = l4 + 3 * a2**2
    mu6 = l6 + 2 * a2 * mu4 - 2 * a2**3
    g4 = mu4 - 4 * a2**2 / 3
    g6 = mu6 - 2 * a2 * mu4 / 3 + 16 * a2**3 / 27
    if delta_gamma(g4, g6) == 0:
        raise NotOnStratum("recovered gamma is degenerate")
    rt = _rel(lambda_from_lambda1(a2, (g4, g6)), ln)
    return a2, (g4, g6), rt


def _recover_lambda0_normalized(ln, centers, mults):
    by_mult = {}
    for z, m in centers:
        by_mult.setdefault(m, []).append(z)
    if mults == (2, 2, 1):
        cand = by_mult[2]
    elif mults == (3, 2):
        t = by_mult[3][0]
        d = by_mult[2][0]
        cand = [t, d]
    else:  # (4, 1)
        r = by_mult[4][0]
        cand = [r, r]
    a2, b2 = sorted(cand, key=lambda z: (z.real, z.imag))
    rt = _rel(lambda_from_lambda0(a2, b2), ln)
    return a2, b2, rt


# ---------------------------------------------------------------------------
# vector fields and tangency

@dataclass(frozen=True)
class VectorFieldData:
    V: tuple       # 4x4, rows of the frame l_0, l_2, l_4, l_6 on d/d lambda
    phi: tuple     # eigen-polynomials for l_k Delta = phi_k Delta
    psi: tuple     # four 4x4 matrices for l_k Gamma = psi_k Gamma


# row k of V, phi_k and psi_k (the field l_2k) are written times
# _FRAME_DEN[k], which clears their fifths (and the 25ths of psi_6), so every
# constant is an integer and an int point stays in the ints
_FRAME_DEN = (1, 5, 5, 25)


def _frame(l4, l6, l8, l10):
    """(V, phi, psi) of the frame, row k scaled by _FRAME_DEN[k]."""
    V = (
        (4 * l4, 6 * l6, 8 * l8, 10 * l10),
        (30 * l6, 40 * l8 - 12 * l4**2, 50 * l10 - 8 * l6 * l4, -4 * l8 * l4),
        (40 * l8, 50 * l10 - 8 * l6 * l4, 20 * l8 * l4 - 12 * l6**2,
         30 * l10 * l4 - 6 * l8 * l6),
        (250 * l10, -20 * l8 * l4, 150 * l10 * l4 - 30 * l8 * l6,
         100 * l10 * l6 - 40 * l8**2),
    )
    phi = (40, 0, 60 * l4, 100 * l6)
    psi0 = ((16, 0, 0, 0), (0, 18, 0, 0), (0, 0, 20, 0), (0, 0, 0, 24))
    psi2 = ((0, -30, 0, 0),
            (-116 * l4, 0, 16, 0),
            (135 * l6, -385 * l4, 0, 0),
            (360 * l6 * l4, 1200 * l8 - 280 * l4**2, 0, 0))
    psi4 = ((-32 * l4, 0, 4, 0),
            (33 * l6, 25 * l4, 0, 0),
            (120 * l8 - 432 * l4**2, 0, 60 * l4, -12),
            (720 * l8 * l4 + 540 * l6**2 - 176 * l4**3, 0, 0, 44 * l4))
    psi6 = ((-35 * l6, -35 * l4, 0, 0),
            (100 * l8 - 128 * l4**2, 0, 16 * l4, 0),
            (2500 * l10 - 405 * l6 * l4, -150 * l8 - 405 * l4**2, 0, 0),
            (1800 * l8 * l6 - 240 * l6 * l4**2, 1000 * l8 * l4 - 240 * l4**3,
             0, 0))
    return V, phi, (psi0, psi2, psi4, psi6)


def vmatrix(lam: G2Params) -> VectorFieldData:
    """The frame matrix V(lambda) with det V = (16/5) Delta, plus phi, psi."""
    V, phi, psi = _frame(*lam.astuple())
    return VectorFieldData(
        V=tuple(tuple(_div(x, d) for x in row) for row, d in zip(V, _FRAME_DEN)),
        phi=tuple(_div(x, d) for x, d in zip(phi, _FRAME_DEN)),
        psi=tuple(tuple(tuple(_div(x, d) for x in row) for row in m)
                  for m, d in zip(psi, _FRAME_DEN)))


def vmatrix_det(lam: G2Params):
    """det V, exact for int and Fraction points."""
    from math import prod
    return _div(_det(_frame(*lam.astuple())[0]), prod(_FRAME_DEN))


def tangency_residuals(lam: G2Params):
    """Residuals of l_k Delta = phi_k Delta and l_k Gamma = psi_k Gamma.

    Exact zeros for int and Fraction inputs; small floats otherwise.
    Directional derivatives use the symbolic polynomial gradients.
    """
    V, phi, psi = _frame(*lam.astuple())
    pw = _powers(lam.astuple())
    grad_d = _grad_monomials(_DELTA_MONOMIALS, pw)
    dval = _eval_monomials(_DELTA_MONOMIALS, pw)
    grad_g = [_grad_monomials(m, pw) for m in _GAMMA_MONOMIALS]
    gval = _gamma_from_powers(pw)
    delta_res = []
    gamma_res = []
    for row, ph, ps, den in zip(V, phi, psi, _FRAME_DEN):
        lhs = sum(row[j] * grad_d[j] for j in range(4))
        delta_res.append(_div(lhs - ph * dval, den))
        comp = []
        for i in range(4):
            lhs_i = sum(row[j] * grad_g[i][j] for j in range(4))
            rhs_i = sum(ps[i][j] * gval[j] for j in range(4))
            comp.append(_div(lhs_i - rhs_i, den))
        gamma_res.append(tuple(comp))
    return {"delta": tuple(delta_res), "gamma": tuple(gamma_res)}


def gradient_delta_check(a2, gamma):
    """Compare grad Delta on the stratum against its closed form.

    The closed form is (1/5)(4 g4^3 + 27 g6^2) wp'(alpha)^6 (a2^3, a2^2, a2, 1)
    with wp(alpha) = (5/3) a2.  Returns the two gradients and their relative
    deviation.
    """
    g4, g6 = _gamma_pair(gamma)
    lam = lambda_from_lambda1(a2, (g4, g6))
    grad = [complex(g) for g in discriminant_gradient(lam)]
    ectx = make_context(EllipticCurveParams(g4, g6))
    _, (_, _, wpp) = invert_wp(ectx, 5.0 * a2 / 3.0)
    # prefactor 1/16: the exact polynomial gradient of the resultant-validated
    # discriminant fixes the constant (a 1/5 here fails by exactly 5/16)
    pref = delta_gamma(g4, g6) * wpp ** 6 / 16.0
    closed = [pref * a2**3, pref * a2**2, pref * a2, pref]
    scale = max(1.0, max(abs(g) for g in grad), max(abs(g) for g in closed))
    resid = max(abs(a - b) for a, b in zip(grad, closed)) / scale
    return {"gradient": grad, "closed_form": closed, "residual": resid}
