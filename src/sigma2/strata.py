"""Stratification of the quintic parameter space C^4 and its vector-field algebra.

The quintic x^5 + l4*x^3 + l6*x^2 + l8*x + l10 has actual genus 2, 1 or 0
according to its root-multiplicity partition; the three strata are cut out by
the discriminant Delta and the four-polynomial vector Gamma.  Classification
is root-cluster-first (companion-matrix eigenvalues on weight-normalized
coefficients), cross-checked against |Delta| and |Gamma| magnitudes and the
chart round trips; disagreement raises AmbiguousClassification.

Polynomials are stored as monomial lists so the same code path evaluates them
over complex floats and over exact Fractions (det V = 16/5 Delta and the
tangency identities are exact rational statements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .elliptic import (EllipticCurveParams, delta_gamma, make_context, invert_wp,
                       wp_prime)
from .errors import AmbiguousClassification, DegenerateCurve, NotOnStratum
from .numerics import NumericsConfig, DEFAULT_CONFIG, cluster_points, require_finite

__all__ = [
    "G2Params", "StratumClassification", "VectorFieldData",
    "discriminant", "gamma_vec", "upsilon", "classify",
    "lambda_from_lambda1", "lambda_from_A", "lambda_from_lambda0",
    "recover_lambda1", "recover_lambda0",
    "vmatrix", "tangency_residuals", "restricted_fields_lambda1",
    "restricted_fields_lambda0", "gradient_delta_check",
    "discriminant_resultant_oracle", "RANK_BY_PARTITION",
]

F = Fraction


@dataclass(frozen=True)
class G2Params:
    """Quintic coefficients (Sato weights 4, 6, 8, 10)."""

    lambda4: complex
    lambda6: complex
    lambda8: complex
    lambda10: complex

    def __post_init__(self):
        if not isinstance(self.lambda4, Fraction):
            require_finite("G2Params", self.lambda4, self.lambda6,
                           self.lambda8, self.lambda10)

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
    """Res_x(f, f') for the monic quintic: independent discriminant route."""
    l4, l6, l8, l10 = lam.astuple()
    f = [1, 0, l4, l6, l8, l10]
    fp = [5, 0, 3 * l4, 2 * l6, l8]
    n, m = 5, 4
    size = n + m
    one = F(1) if isinstance(l4, Fraction) else 1.0
    rows = []
    for i in range(m):
        rows.append([one * 0] * i + [one * c for c in f] + [one * 0] * (m - 1 - i))
    for i in range(n):
        rows.append([one * 0] * i + [one * c for c in fp] + [one * 0] * (n - 1 - i))
    return _det(rows, size)


def _det(rows, size):
    """Determinant by Gaussian elimination with row pivoting on the first
    nonzero entry; exact for Fraction entries, rounded for complex ones."""
    a = [row[:] for row in rows]
    sign = 1
    det = None
    for col in range(size):
        piv = None
        for r in range(col, size):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return 0 * a[0][0]
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, size):
            fct = a[r][col] / a[col][col]
            for c in range(col, size):
                a[r][c] = a[r][c] - fct * a[col][c]
    det = a[0][0]
    for i in range(1, size):
        det = det * a[i][i]
    return sign * det


# ---------------------------------------------------------------------------
# parameterizations and recovery

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


def lambda_from_A(a, gamma) -> G2Params:
    """Same chart in the A-variable, A = (5/3)*a2."""
    g4, g6 = _gamma_pair(gamma)
    if delta_gamma(g4, g6) == 0:
        raise DegenerateCurve("lambda_from_A needs 4*g4^3 + 27*g6^2 != 0")
    fifth = _fifth_like(a)
    l4 = g4 - 3 * fifth * a**2
    l6 = g6 - 4 * fifth * a * g4 - 2 * fifth**2 * a**3
    l8 = -6 * fifth * a * g6 - 3 * fifth**2 * a**2 * g4 + 12 * fifth**3 * a**4
    l10 = (9 * fifth**2 * a**2 * g6 + 18 * fifth**3 * a**3 * g4
           + 72 * fifth**5 * a**5)
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
    return F(1, 3) if isinstance(x, Fraction) else 1.0 / 3.0


def _fifth_like(x):
    return F(1, 5) if isinstance(x, Fraction) else 1.0 / 5.0


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
    g4, g6 = _gamma_pair(gamma)
    mu4, mu6 = mu_from_gamma(a2, g4, g6)
    l4, l6, l8, l10 = lam.astuple()
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
    l4, l6, l8, l10 = lam.astuple()
    return G2Params(l4 / s**4, l6 / s**6, l8 / s**8, l10 / s**10)


def _poly_derivs(l4, l6, l8, l10):
    """Coefficient lists (highest degree first) of the quintic and its first
    four derivatives."""
    p = [1.0 + 0j, 0j, l4, l6, l8, l10]
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


def _quintic_roots(p):
    """Roots of the monic coefficient list p: eigenvalues of its companion
    matrix, with one exact 0j per trailing zero coefficient."""
    n = len(p) - 1
    while p[n] == 0:
        n -= 1
    a = np.eye(n, k=-1, dtype=complex)
    a[0] = [-c for c in p[1:n + 1]]
    return np.linalg.eigvals(a).tolist() + [0j] * (len(p) - 1 - n)


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


def classify(lam: G2Params, cfg: NumericsConfig | None = None) -> StratumClassification:
    """Stratum, partition and rank of the quintic parameter point."""
    cfg = cfg or DEFAULT_CONFIG
    if not isinstance(lam, G2Params):
        lam = G2Params(*lam)
    s = _weight_scale(lam)
    if s == 0.0:
        return StratumClassification(
            stratum="Lambda0", partition=(5,), rank=0, lam=lam,
            a2=0j, b2=0j, residuals={"delta_abs": 0.0, "gamma_norm": 0.0,
                                     "roundtrip": 0.0})
    ln = _normalized(lam, s)
    l4, l6, l8, l10 = (complex(v) for v in ln.astuple())
    ds = _poly_derivs(l4, l6, l8, l10)
    roots = _quintic_roots(ds[0])
    radius = max(cfg.cluster_tol, _CLUSTER_FLOOR)
    clusters = cluster_points(roots, radius)
    mults = tuple(sorted((len(m) for _, m in clusters), reverse=True))
    if mults not in RANK_BY_PARTITION:
        raise AmbiguousClassification(f"unrecognized multiplicity pattern {mults}")
    centers = [(_polish_root(ds, len(m), c), len(m)) for c, m in clusters]
    pw = _powers(ln.astuple())
    delta_abs = abs(_eval_monomials(_DELTA_MONOMIALS, pw))
    gamma_norm = max(abs(g) for g in _gamma_from_powers(pw))
    res = {"delta_abs": delta_abs, "gamma_norm": gamma_norm}

    if mults == (1, 1, 1, 1, 1):
        if delta_abs < 1e-8:
            raise AmbiguousClassification(
                f"distinct roots but |Delta|={delta_abs:.3g} is tiny")
        return StratumClassification("Lambda2", mults, 4, lam, residuals=res)

    if mults in ((2, 1, 1, 1), (3, 1, 1)):
        if delta_abs > 1e-6 or gamma_norm < 1e-8:
            raise AmbiguousClassification(
                f"partition {mults} but Delta/Gamma magnitudes disagree "
                f"({delta_abs:.3g}, {gamma_norm:.3g})")
        a2n = max(centers, key=lambda cm: cm[1])[0]
        a2, gamma, rt = _recover_lambda1_normalized(ln, a2n)
        res["roundtrip"] = rt
        res["upsilon"] = max(abs(u) for u in upsilon(ln, gamma, a2))
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


def _rel(lam_a: G2Params, lam_b: G2Params):
    num = max(abs(x - y) for x, y in zip(lam_a.astuple(), lam_b.astuple()))
    den = 1.0 + max(abs(complex(x)) for x in lam_b.astuple())
    return num / den


def _recover_lambda1_normalized(ln, a2):
    l4, l6, _, _ = (complex(v) for v in ln.astuple())
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
    elif mults == (4, 1):
        r = by_mult[4][0]
        cand = [r, r]
    else:  # (5,)
        cand = [0j, 0j]
    a2, b2 = sorted(cand, key=lambda z: (z.real, z.imag))
    rt = _rel(lambda_from_lambda0(a2, b2), ln)
    return a2, b2, rt


def recover_lambda1(lam: G2Params, cfg: NumericsConfig | None = None):
    """(a2, gamma) for a Lambda1 point; the double root plus quotient curve."""
    cls = classify(lam, cfg)
    if cls.stratum != "Lambda1":
        raise NotOnStratum(f"recover_lambda1 on {cls.stratum}")
    return cls.a2, cls.gamma


def recover_lambda0(lam: G2Params, cfg: NumericsConfig | None = None):
    """(a2, b2) for a Lambda0 point, ordered lexicographically by (Re, Im)."""
    cls = classify(lam, cfg)
    if cls.stratum != "Lambda0":
        raise NotOnStratum(f"recover_lambda0 on {cls.stratum}")
    return cls.a2, cls.b2


# ---------------------------------------------------------------------------
# vector fields and tangency

@dataclass(frozen=True)
class VectorFieldData:
    V: tuple       # 4x4, rows of the frame l_0, l_2, l_4, l_6 on d/d lambda
    phi: tuple     # eigen-polynomials for l_k Delta = phi_k Delta
    psi: tuple     # four 4x4 matrices for l_k Gamma = psi_k Gamma


def vmatrix(lam: G2Params) -> VectorFieldData:
    """The frame matrix V(lambda) with det V = (16/5) Delta, plus phi, psi."""
    l4, l6, l8, l10 = lam.astuple()
    c = F
    V = (
        (4 * l4, 6 * l6, 8 * l8, 10 * l10),
        (6 * l6, 8 * l8 - c(12, 5) * l4**2, 10 * l10 - c(8, 5) * l6 * l4,
         -c(4, 5) * l8 * l4),
        (8 * l8, 10 * l10 - c(8, 5) * l6 * l4, 4 * l8 * l4 - c(12, 5) * l6**2,
         6 * l10 * l4 - c(6, 5) * l8 * l6),
        (10 * l10, -c(4, 5) * l8 * l4, 6 * l10 * l4 - c(6, 5) * l8 * l6,
         4 * l10 * l6 - c(8, 5) * l8**2),
    )
    phi = (40 + 0 * l4, 0 * l4, 12 * l4, 4 * l6)
    zero = 0 * l4
    psi0 = ((16 + zero, zero, zero, zero), (zero, 18 + zero, zero, zero),
            (zero, zero, 20 + zero, zero), (zero, zero, zero, 24 + zero))
    psi2 = ((zero, -6 + zero, zero, zero),
            (-c(116, 5) * l4, zero, c(16, 5) + zero, zero),
            (27 * l6, -77 * l4, zero, zero),
            (72 * l6 * l4, 240 * l8 - 56 * l4**2, zero, zero))
    psi4 = ((-c(32, 5) * l4, zero, c(4, 5) + zero, zero),
            (c(33, 5) * l6, 5 * l4, zero, zero),
            (24 * l8 - c(432, 5) * l4**2, zero, 12 * l4, -c(12, 5) + zero),
            (144 * l8 * l4 + 108 * l6**2 - c(176, 5) * l4**3, zero, zero,
             c(44, 5) * l4))
    psi6 = ((-c(7, 5) * l6, -c(7, 5) * l4, zero, zero),
            (4 * l8 - c(128, 25) * l4**2, zero, c(16, 25) * l4, zero),
            (100 * l10 - c(81, 5) * l6 * l4, -6 * l8 - c(81, 5) * l4**2, zero, zero),
            (72 * l8 * l6 - c(48, 5) * l6 * l4**2, 40 * l8 * l4 - c(48, 5) * l4**3,
             zero, zero))
    return VectorFieldData(V=V, phi=phi, psi=(psi0, psi2, psi4, psi6))


def vmatrix_det(lam: G2Params):
    return _det([list(r) for r in vmatrix(lam).V], 4)


def tangency_residuals(lam: G2Params):
    """Residuals of l_k Delta = phi_k Delta and l_k Gamma = psi_k Gamma.

    Exact zeros for Fraction inputs; small floats otherwise.  Directional
    derivatives use the symbolic polynomial gradients.
    """
    vf = vmatrix(lam)
    pw = _powers(lam.astuple())
    grad_d = _grad_monomials(_DELTA_MONOMIALS, pw)
    dval = _eval_monomials(_DELTA_MONOMIALS, pw)
    grad_g = [_grad_monomials(m, pw) for m in _GAMMA_MONOMIALS]
    gval = _gamma_from_powers(pw)
    delta_res = []
    gamma_res = []
    for k in range(4):
        row = vf.V[k]
        lhs = sum(row[j] * grad_d[j] for j in range(4))
        delta_res.append(lhs - vf.phi[k] * dval)
        comp = []
        for i in range(4):
            lhs_i = sum(row[j] * grad_g[i][j] for j in range(4))
            rhs_i = sum(vf.psi[k][i][j] * gval[j] for j in range(4))
            comp.append(lhs_i - rhs_i)
        gamma_res.append(tuple(comp))
    return {"delta": tuple(delta_res), "gamma": tuple(gamma_res)}


def restricted_fields_lambda1(a2, gamma):
    """Frame fields on the one-double-point stratum in (a2, g4, g6) coordinates.

    Returns the coefficient triples of l~0, l~2, l~4 on (d_a2, d_g4, d_g6) and
    the decomposition coefficients of l_6 on (l~0, l~2, l~4).
    """
    g4, g6 = _gamma_pair(gamma)
    c = F
    l0 = (2 * a2, 4 * g4, 6 * g6)
    l2 = (c(2, 15) * (6 * g4 + 5 * a2**2),
          c(2, 3) * (9 * g6 - 8 * a2 * g4),
          -c(4, 3) * (g4**2 + 6 * a2 * g6))
    l4 = (c(2, 45) * (27 * g6 + 9 * a2 * g4 - 40 * a2**3),
          -c(4, 3) * a2 * (9 * g6 + a2 * g4),
          -c(2, 3) * a2 * (3 * a2 * g6 - 4 * g4**2))
    l6_coeffs = (-a2**3, -a2**2, -a2)
    return {"l0": l0, "l2": l2, "l4": l4, "l6_decomposition": l6_coeffs}


def restricted_fields_lambda0(a2, b2):
    """Frame fields on the two-double-point stratum in (a2, b2) coordinates."""
    c = F
    l0 = (2 * a2, 2 * b2)
    l2 = (-c(2, 5) * (a2**2 + 8 * a2 * b2 + 6 * b2**2),
          -c(2, 5) * (6 * a2**2 + 8 * a2 * b2 + b2**2))
    l4_coeffs = (-(a2**2 + a2 * b2 + b2**2), -(a2 + b2))
    l6_coeffs = (a2 * b2 * (a2 + b2), a2 * b2)
    return {"l0": l0, "l2": l2, "l4_decomposition": l4_coeffs,
            "l6_decomposition": l6_coeffs}


def gradient_delta_check(a2, gamma, ectx=None):
    """Compare grad Delta on the stratum against its closed form.

    The closed form is (1/5)(4 g4^3 + 27 g6^2) wp'(alpha)^6 (a2^3, a2^2, a2, 1)
    with wp(alpha) = (5/3) a2.  Returns the two gradients and their relative
    deviation.
    """
    g4, g6 = _gamma_pair(gamma)
    lam = lambda_from_lambda1(a2, (g4, g6))
    grad = [complex(g) for g in discriminant_gradient(lam)]
    if ectx is None:
        ectx = make_context(EllipticCurveParams(g4, g6))
    alpha = invert_wp(ectx, 5.0 * a2 / 3.0)
    wpp6 = wp_prime(ectx, alpha) ** 6
    # prefactor 1/16: the exact polynomial gradient of the resultant-validated
    # discriminant fixes the constant (a 1/5 here fails by exactly 5/16)
    pref = delta_gamma(g4, g6) * wpp6 / 16.0
    closed = [pref * a2**3, pref * a2**2, pref * a2, pref]
    scale = max(1.0, max(abs(g) for g in grad), max(abs(g) for g in closed))
    resid = max(abs(a - b) for a, b in zip(grad, closed)) / scale
    return {"gradient": grad, "closed_form": closed, "residual": resid}
