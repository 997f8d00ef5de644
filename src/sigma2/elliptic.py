"""Weierstrass function engine over a genus-1 curve X^3 - Y^2 + g4*X + g6 = 0.

The curve coefficients (gamma4, gamma6) fix the invariants
(g2, g3) = (-4*gamma4, -4*gamma6), so wp satisfies

    wp'^2 = 4*wp^3 + 4*gamma4*wp + 4*gamma6.

The cubic roots come from Cardano's formula with two Newton steps, the
periods from Carlson's R_F (duplication, in cmath) at their cross-ratio; sigma,
zeta, wp, wp' are then evaluated through Jacobi theta q-series after reduction
of the argument to the fundamental cell, elementwise in one numpy broadcast
when the argument is an ndarray.  The period pair is canonicalized (tau in the
half-open fundamental domain, boundary ties decided within a fixed tolerance)
so identical parameters always produce the identical context, and periods a
few ulp apart or weight-rescaled curves produce the same basis.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, NumericalFailure, PoleAtArgument
from .numerics import (POLE_TOL, all_finite, any_true, continuous_log,
                       require_finite, shc)

__all__ = [
    "EllipticCurveParams", "EllipticContext", "make_context", "delta_gamma",
    "weierstrass", "wp", "wp_prime", "zeta_w", "sigma_w", "sigma_char",
    "invert_wp", "on_lattice", "sigma_trig_limit", "sigma_ratio_log",
]


@dataclass(frozen=True)
class EllipticCurveParams:
    """Coefficients of the genus-1 curve X^3 - Y^2 + gamma4*X + gamma6."""

    gamma4: complex
    gamma6: complex

    def __post_init__(self):
        require_finite("EllipticCurveParams", self.gamma4, self.gamma6)


def delta_gamma(gamma4, gamma6):
    """Cubic discriminant-type quantity 4*gamma4^3 + 27*gamma6^2."""
    return 4 * gamma4**3 + 27 * gamma6**2


_OMEGA3 = complex(-0.5, math.sqrt(3) / 2)     # exp(2 pi i / 3)


def _cubic_roots(g4, g6):
    """Roots of X^3 + g4 X + g6 (not both zero) by Cardano's formula, each
    polished by two Newton steps.

    X = u + v with u^3 = (d - g6)/2, d^2 = g6^2 + 4 g4^3/27 and u v = -g4/3;
    the sign of d is taken to avoid cancellation in d - g6.
    """
    d = cmath.sqrt(g6 * g6 + 4 * g4 ** 3 / 27)
    w = d - g6 if abs(d - g6) >= abs(d + g6) else -d - g6
    u = (w / 2) ** (1 / 3)
    v = -g4 / (3 * u)
    w3 = _OMEGA3.conjugate()
    roots = []
    for x in (u + v, _OMEGA3 * u + w3 * v, w3 * u + _OMEGA3 * v):
        for _ in range(2):
            dp = 3 * x * x + g4
            if dp:
                x -= (x ** 3 + g4 * x + g6) / dp
        roots.append(x)
    return roots


# duplication stops once max |X| < (3 eps)^(1/8), where the series error
# O(X^8) is below the rounding of double precision
_RF_STOP = (3 * 2.0 ** -53) ** (-1 / 8)


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) for complex x, y, z off the cut (-inf, 0], at
    most one of them zero: the duplication theorem, then the DLMF 19.36.1
    series through seventh order (Carlson, Numer. Algorithms 10, 1995)."""
    a = (x + y + z) / 3
    dx, dy = a - x, a - y
    q = _RF_STOP * max(abs(dx), abs(dy), abs(a - z))
    while q >= abs(a):
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
        dx, dy, q = dx / 4, dy / 4, q / 4
    bx, by = dx / a, dy / a
    bz = -bx - by
    e2, e3 = bx * by - bz * bz, bx * by * bz
    return (1 + e2 * (-1 / 10 + e2 / 24 - 3 * e3 / 44 - 5 * e2 * e2 / 208 + e2 * e3 / 16)
            + e3 * (1 / 14 + 3 * e3 / 104)) / cmath.sqrt(a)


def _gauss_reduce(a, b):
    for _ in range(256):
        if abs(a) > abs(b):
            a, b = b, a
        k = round((b * a.conjugate()).real / abs(a) ** 2)
        if k == 0:
            break
        b -= k * a
    return a, b


_TIE_TOL = 1e-12


def _signed(a, b):
    """(a, b) or (-a, -b), whichever has arg a in (-pi/2, pi/2]; arguments
    within _TIE_TOL of -pi/2 count as +pi/2."""
    if a.real < -_TIE_TOL * abs(a) or (abs(a.real) <= _TIE_TOL * abs(a) and a.imag < 0):
        return -a, -b
    return a, b


def _canonical_pair(a, b):
    """Deterministic full-period basis (omega, omegaP).

    tau = omegaP/omega is put in the half-open fundamental domain
    -1/2 <= Re tau < 1/2, |tau| >= 1, with Re tau <= 0 on |tau| = 1, each
    boundary decided within _TIE_TOL, so periods that differ by a few ulp (or
    by a weight rescaling) give the same basis.  Of the bases left, related
    by -1 and, on the square and hexagonal lattices, by the rotations fixing
    tau, the one whose omega has the smallest argument in (-pi/2, pi/2] wins.
    """
    a, b = _gauss_reduce(complex(a), complex(b))
    if abs(a) > abs(b):
        a, b = b, a
    if (b / a).imag < 0:
        b = -b
    tau = b / a
    if tau.real >= 0.5 - _TIE_TOL:
        b -= a
        tau -= 1
    bases = [(a, b)]
    if abs(tau) <= 1 + _TIE_TOL:
        if tau.real > _TIE_TOL:
            bases = [(b, -a)]
        elif tau.real >= -_TIE_TOL:
            bases.append((b, -a))
        elif tau.real <= _TIE_TOL - 0.5:
            bases += [(a + b, -a), (b, -a - b)]
    return min((_signed(*p) for p in bases), key=lambda p: cmath.phase(p[0]))


def _lattice_from_roots(roots):
    """Full-period basis from the cubic roots via K(m), K(1-m).

    The root labelling is scanned so the cross-ratio m stays off the cut
    (-inf,0] u [1,inf); all labellings describe the same lattice.
    """
    for perm in itertools.permutations(range(3)):
        e1, e2, e3 = (roots[i] for i in perm)
        d13 = e1 - e3
        if d13 == 0:
            continue
        m = (e2 - e3) / d13
        if abs(m.imag) < 1e-13 * (1 + abs(m)) and (m.real <= 1e-13 or m.real >= 1 - 1e-13):
            continue
        big_k = _carlson_rf(0, 1 - m, 1)
        big_kp = _carlson_rf(0, m, 1)
        s = cmath.sqrt(d13)
        w1h, w3h = big_k / s, 1j * big_kp / s
        return 2 * w1h, 2 * w3h
    return None


def _theta_table(q):
    """Truncated theta1 q-series as rows (m, c, c m, -c m^2, -c m^3).

    theta1 and its first three v-derivatives are the row sums of
    c_k * (sin, cos, sin, cos)(m v) for k = 1..4.  Inside the reduced cell
    |Im v| <= pi Im(tau)/2, where term n is at most |q|^(n^2) (2n+1)^3 times
    the leading one, derivatives included; the series stops once that falls
    below 1e-18.  A reduced basis has |q| <= exp(-pi sqrt(3)/2) ~ 0.066,
    which needs 5 terms.
    """
    aq = abs(q)
    rows = []
    for n in range(60):
        m = 2 * n + 1
        if n and aq ** (n * n) * m ** 3 < 1e-18:
            break
        c = complex(2 * (-1) ** n * q ** ((n + 0.5) ** 2))
        rows.append((m, c, c * m, -c * m * m, -c * m ** 3))
    return tuple(rows)


def _theta_consts(q, terms):
    th2 = 2 * sum(q ** ((n + 0.5) ** 2) for n in range(terms))
    th3 = 1 + 2 * sum(q ** (n * n) for n in range(1, terms))
    th4 = 1 + 2 * sum((-1) ** n * q ** (n * n) for n in range(1, terms))
    return th2, th3, th4


@dataclass(frozen=True)
class EllipticContext:
    """Immutable evaluation context for one genus-1 curve.

    omega, omegaP are full periods with Im(omegaP/omega) > 0; eta, etaP the
    matching full-period zeta increments; roots = (e1, e2, e3) labelled by
    e1 = wp(omega/2), e2 = wp((omega+omegaP)/2), e3 = wp(omegaP/2).
    """

    params: EllipticCurveParams
    g2: complex
    g3: complex
    omega: complex
    omegaP: complex
    eta: complex
    etaP: complex
    nome: complex
    roots: tuple
    _th1p0: complex
    _theta: tuple

    @property
    def gamma4(self):
        return self.params.gamma4

    @property
    def gamma6(self):
        return self.params.gamma6

    @property
    def half_periods(self):
        """(omega/2, (omega+omegaP)/2, omegaP/2), matching the root order."""
        return (self.omega / 2, (self.omega + self.omegaP) / 2, self.omegaP / 2)

    def scale(self):
        return max(abs(self.omega), abs(self.omegaP))


def make_context(params) -> EllipticContext:
    """Build the Weierstrass context for curve parameters (gamma4, gamma6)."""
    if not isinstance(params, EllipticCurveParams):
        params = EllipticCurveParams(*params)
    g4, g6 = complex(params.gamma4), complex(params.gamma6)
    dlt = delta_gamma(g4, g6)
    scale = abs(g4) ** 3 + abs(g6) ** 2
    if scale == 0 or abs(dlt) <= 1e-12 * scale:
        raise DegenerateCurve(f"4*g4^3 + 27*g6^2 = {dlt!r} is (relatively) zero")
    g2, g3 = -4 * g4, -4 * g6
    roots = _cubic_roots(g4, g6)
    pair = _lattice_from_roots(roots)
    if pair is None:
        raise NumericalFailure("period construction failed: collinear root degeneracy")
    omega, omegaP = _canonical_pair(*pair)
    w1h = omega / 2
    tau = omegaP / omega
    q = cmath.exp(1j * math.pi * tau)
    table = _theta_table(q)
    t1 = sum(row[2] for row in table)
    t3 = sum(row[4] for row in table)
    eta1h = -math.pi ** 2 * t3 / (12 * w1h * t1)
    eta = 2 * eta1h
    etaP = 2 * (eta1h * (omegaP / 2) - 1j * math.pi / 2) / w1h
    th2, th3, th4 = _theta_consts(q, len(table))
    sc = (math.pi / w1h) ** 2 / 12
    e1 = sc * (th3 ** 4 + th4 ** 4)
    e2 = sc * (th2 ** 4 - th4 ** 4)
    e3 = -sc * (th2 ** 4 + th3 ** 4)
    rscale = max(1.0, max(abs(x) for x in roots))
    remaining = list(roots)
    worst = 0.0
    for e in (e1, e2, e3):
        j = min(range(len(remaining)), key=lambda k: abs(remaining[k] - e))
        worst = max(worst, abs(remaining.pop(j) - e))
    if worst > 1e-8 * rscale:
        raise NumericalFailure("period iteration did not reproduce the cubic roots")
    return EllipticContext(params=params, g2=g2, g3=g3, omega=omega,
                           omegaP=omegaP, eta=eta, etaP=etaP, nome=q,
                           roots=(e1, e2, e3), _th1p0=t1, _theta=table)


def _reduce(ctx: EllipticContext, u):
    """u modulo the period lattice, with the integer shifts used."""
    om, omp = ctx.omega, ctx.omegaP
    det = (om.conjugate() * omp).imag
    x = (u.conjugate() * omp).imag / det
    y = (om.conjugate() * u).imag / det
    if isinstance(u, np.ndarray):
        m, n = np.rint(x).astype(np.int64), np.rint(y).astype(np.int64)
    else:
        m, n = round(x), round(y)
    return u - m * om - n * omp, m, n


def on_lattice(ctx: EllipticContext, u):
    """Whether u lies within POLE_TOL times the period scale of a lattice
    point: the one test for the divisors where sigma vanishes (on the lattice)
    and zeta, wp and wp' have their poles.  Elementwise on ndarrays."""
    return abs(_reduce(ctx, u)[0]) < POLE_TOL * ctx.scale()


def _pole_guard(ctx, u0):
    if any_true(abs(u0) < POLE_TOL * ctx.scale()):
        raise PoleAtArgument(f"argument within {POLE_TOL} of a lattice point")


def _theta(ctx, u0, xp, derivs=True):
    """theta1 at v = pi u0 / omega, or theta1 and its first three v-derivatives."""
    v = np.pi * u0 / ctx.omega
    if xp is np:
        tab = np.array(ctx._theta)
        mv = np.multiply.outer(v, tab[:, 0].real)
        s = np.sin(mv)
        if not derivs:
            return (s * tab[:, 1]).sum(axis=-1)
        c = np.cos(mv)
        return tuple((f * tab[:, k]).sum(axis=-1) for k, f in enumerate((s, c, s, c), 1))
    if not derivs:
        t = 0j
        for m, c0, _, _, _ in ctx._theta:
            t += c0 * cmath.sin(m * v)
        return t
    t = t1 = t2 = t3 = 0j
    for m, c0, c1, c2, c3 in ctx._theta:
        s, c = cmath.sin(m * v), cmath.cos(m * v)
        t += c0 * s
        t1 += c1 * c
        t2 += c2 * s
        t3 += c3 * c
    return t, t1, t2, t3


def _lattice_factor(ctx, u0, m, n, xp):
    """sigma(u0 + l) / sigma(u0) and eta_l for the shift l = m omega + n omegaP."""
    if xp is cmath and not (m or n):
        return 1.0, 0.0
    lam = m * ctx.omega + n * ctx.omegaP
    etal = m * ctx.eta + n * ctx.etaP
    sign = 1 - 2 * ((m + n + m * n) % 2)
    return sign * xp.exp(etal * (u0 + lam / 2)), etal


def _evaluate(ctx, u, name, kernel):
    """kernel(ctx, u0, m, n, xp) for u = u0 + m omega + n omegaP.

    An ndarray u is evaluated in one numpy broadcast (xp = numpy); any other
    u is one complex scalar, evaluated with cmath (xp = cmath), which is
    several times faster than numpy on a single value.  A result past the
    double range, in any element of a tuple result, raises NumericalFailure
    rather than coming back inf or NaN.
    """
    if isinstance(u, np.ndarray):
        u = u.astype(complex)
        require_finite(name, u)
        with np.errstate(over="ignore", invalid="ignore"):
            val = kernel(ctx, *_reduce(ctx, u), np)
    else:
        u = complex(u)
        require_finite(name, u)
        try:
            val = kernel(ctx, *_reduce(ctx, u), cmath)
        except OverflowError:           # cmath.exp past the double range
            val = None
    parts = val if isinstance(val, tuple) else (val,)
    if val is None or not all(all_finite(v) for v in parts):
        raise NumericalFailure(f"{name}: value overflows double precision")
    return val


def _sigma_pref(ctx, u0, xp):
    """sigma(u0) / theta1(pi u0 / omega) for u0 in the reduced cell."""
    w1h = ctx.omega / 2
    return (2 * w1h / np.pi) * xp.exp((ctx.eta / 2) * u0 ** 2 / (2 * w1h)) / ctx._th1p0


def _sigma_w(ctx, u0, m, n, xp):
    t = _theta(ctx, u0, xp, derivs=False)
    return _sigma_pref(ctx, u0, xp) * t * _lattice_factor(ctx, u0, m, n, xp)[0]


def _sigma_w_prime(ctx, u0, m, n, xp):
    w1h = ctx.omega / 2
    t, t1, _, _ = _theta(ctx, u0, xp)
    pref = _sigma_pref(ctx, u0, xp)
    s0 = pref * t
    s0p = pref * ((ctx.eta / 2) * u0 / w1h * t + (np.pi / (2 * w1h)) * t1)
    fac, etal = _lattice_factor(ctx, u0, m, n, xp)
    return fac * (s0p + etal * s0)


def _weierstrass(ctx, u0, m, n, xp):
    """(zeta, wp, wp') from one theta1 table and its first three derivatives."""
    _pole_guard(ctx, u0)
    w1h = ctx.omega / 2
    t, t1, t2, t3 = _theta(ctx, u0, xp)
    zeta = ((ctx.eta / 2) * u0 / w1h + (np.pi / (2 * w1h)) * t1 / t
            + m * ctx.eta + n * ctx.etaP)
    big_l = t1 / t
    p = -(ctx.eta / 2) / w1h - (np.pi / (2 * w1h)) ** 2 * (t2 / t - big_l ** 2)
    pp = -(np.pi / (2 * w1h)) ** 3 * (t3 / t - 3 * big_l * (t2 / t) + 2 * big_l ** 3)
    return zeta, p, pp


def sigma_w(ctx: EllipticContext, u):
    """Weierstrass sigma(u); entire, sigma(u) = u + O(u^5).

    Like the other Weierstrass functions, returns a complex for a scalar u
    and a complex ndarray of u's shape for an ndarray u.
    """
    return _evaluate(ctx, u, "sigma_w", _sigma_w)


def sigma_w_prime(ctx: EllipticContext, u):
    """d sigma/du; entire (safe on the lattice, where sigma*zeta is 0*inf)."""
    return _evaluate(ctx, u, "sigma_w_prime", _sigma_w_prime)


def weierstrass(ctx: EllipticContext, u):
    """(zeta(u), wp(u), wp'(u)) from one theta evaluation; a tuple of three
    complex for a scalar u, of three complex ndarrays for an ndarray u."""
    return _evaluate(ctx, u, "weierstrass", _weierstrass)


def zeta_w(ctx: EllipticContext, u):
    """Weierstrass zeta(u) = sigma'(u)/sigma(u); simple pole on the lattice."""
    return _evaluate(ctx, u, "zeta_w", _weierstrass)[0]


def wp(ctx: EllipticContext, u):
    """Weierstrass wp(u) = -zeta'(u)."""
    return _evaluate(ctx, u, "wp", _weierstrass)[1]


def wp_prime(ctx: EllipticContext, u):
    """Derivative wp'(u); wp'^2 = 4 wp^3 + 4 gamma4 wp + 4 gamma6."""
    return _evaluate(ctx, u, "wp_prime", _weierstrass)[2]


def sigma_char(ctx: EllipticContext, u, i: int) -> complex:
    """Sigma with characteristic: exp(-u*eta_i)*sigma(u+w_i)/sigma(w_i).

    i in {1,2,3} selects the half period w_i in (omega/2, (omega+omegaP)/2,
    omegaP/2), with eta_i = zeta(w_i); even in u and sigma_char(0) = 1.
    """
    if i not in (1, 2, 3):
        raise ValueError("characteristic index must be 1, 2 or 3")
    u = complex(u)
    wi = ctx.half_periods[i - 1]
    etai = zeta_w(ctx, wi)
    return np.exp(-u * etai) * sigma_w(ctx, u + wi) / sigma_w(ctx, wi)


def invert_wp(ctx: EllipticContext, x):
    """A preimage alpha with wp(alpha) = x, reduced to the fundamental cell,
    and (zeta, wp, wp') at alpha from one kernel evaluation, there or, when
    the symmetry gives the same bits, at -alpha.

    The branch satisfies wp'(alpha) = -2*sqrt(X^3+g4*X+g6) with the principal
    square root (the branch the degenerate formulas assume).  At a cubic root
    the matching half period is returned exactly.
    """
    x = complex(x)
    require_finite("invert_wp", x)
    rscale = max(1.0, max(abs(e) for e in ctx.roots))
    for e, hp in zip(ctx.roots, ctx.half_periods):
        if abs(x - e) <= 1e-12 * rscale:
            return hp, weierstrass(ctx, hp)
    args = [x - e for e in ctx.roots]
    # keep Carlson arguments off the negative-real cut
    args = [a if abs(a.imag) > 1e-14 * abs(a) or a.real > 0
            else a + 1e-13j * max(abs(a), 1.0) for a in args]
    alpha = _carlson_rf(*args)
    target = -2 * cmath.sqrt(x ** 3 + ctx.gamma4 * x + ctx.gamma6)
    # one Newton run: -alpha and lattice shifts of alpha reduce to the same
    # cell point up to sign, so restarting from them would repeat it
    for _ in range(60):
        f = wp(ctx, alpha) - x
        if abs(f) < 1e-13 * (1 + abs(x)):
            break
        d = wp_prime(ctx, alpha)
        if abs(d) < 1e-14:
            raise NumericalFailure(f"invert_wp: Newton refinement failed for X={x!r}")
        alpha -= f / d
    else:
        raise NumericalFailure(f"invert_wp: Newton refinement failed for X={x!r}")
    a, _, _ = _reduce(ctx, alpha)
    vals = weierstrass(ctx, a)
    if abs(vals[2] - target) <= abs(vals[2] + target):
        return a, vals
    b, m, n = _reduce(ctx, -a)
    zeta, p, pp = vals
    # the kernel is exactly odd (zeta, wp') and even (wp) where -a needs no
    # lattice shift, up to the sign of an exact zero
    if m or n or 0 in (zeta.real, zeta.imag, pp.real, pp.imag):
        return b, weierstrass(ctx, b)
    return b, (-zeta, p, -pp)


def sigma_ratio_log(ctx: EllipticContext, alpha, xi) -> complex:
    """log(sigma(alpha-xi)/sigma(alpha+xi)), branch continuous from xi=0.

    The branch matters wherever this log feeds an exponent that is compared
    against quadrature (Abel integrals, Bloch factors); the value at xi=0 is 0.
    """
    xi = complex(xi)
    if xi == 0:
        return 0.0j
    return continuous_log(
        lambda t: sigma_w(ctx, alpha - t * xi) / sigma_w(ctx, alpha + t * xi))


def sigma_trig_limit(a, u) -> complex:
    """Degenerate-sigma closed form at (g2, g3) = (12a^2, -8a^3).

    Normalized so the value is u + O(u^3); equals
    exp(-a*u^2/2) * sinh(sqrt(3a)*u)/sqrt(3a).
    """
    a, u = complex(a), complex(u)
    if a == 0:
        raise ValueError("sigma_trig_limit needs a != 0")
    return complex(np.exp(-0.5 * a * u ** 2) * shc(np.sqrt(3 * a), u))
