"""Baker eigenfunctions, finite-gap potentials and Bloch multipliers.

The two-point Baker quotient built from sigma2 solves a Schroedinger equation

    (d^2/dU1^2 - U(U1)) psi = E psi,      E = wp(B1),

with the potential U = 2 S^2 - 2 wp(U1) - 2 wp(alpha), whose spectrum (for the
real rectangular normalization) is one point {wp(alpha)} plus the two bands
[wp(omega'/2), wp((omega+omega')/2)] and [wp(omega/2), inf).  U also satisfies
the KdV equation 4 dU/dU3 = d^3U/dU1^3 - 6 U dU/dU1 in the pair (U3, U1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import elliptic as el
from . import lattice as lt
from . import sigma as sg
from .errors import (NotRealAlpha, NotRealLattice, PoleAtArgument,
                     SingularConfiguration)
from .numerics import NumericsConfig, DEFAULT_CONFIG, complex_args, derivative

__all__ = [
    "PotentialSample", "baker_psi", "eigen_residual", "potential_u",
    "kdv_residual", "real_family", "real_rectangle_periods", "baker_phi",
    "quasi_momenta", "bloch_residual", "wronskian",
]


def _require_generic(ctx):
    if ctx.kind != "lambda1":
        raise SingularConfiguration("spectral objects need a Lambda1 context")
    if ctx.branch_point:
        raise SingularConfiguration("wp'(alpha) = 0: Bloch normalization degenerates")


def _b3_and_pwr(ctx, b1):
    """Second first-kind image B3 and the exponent slope of the eigenfunction.

    The slope is the third Abel integral at b1 (the second-kind exponent of
    the two-variable Baker quotient restricted to the U1 line); both values
    derive from the same continued log, so the pair is branch-consistent: a
    different log sheet shifts the numerator argument by a lattice vector and
    rescales by the matching quasi-periodicity factor.
    """
    ec = ctx.ectx
    a, ap = ctx.wp_alpha, ctx.wpp_alpha
    lg = el.sigma_ratio_log(ec, ctx.alpha, b1)
    b3 = (2.0 * ctx.zeta_alpha * b1 + lg) / ap
    pwr = el.zeta_w(ec, b1) - 0.2 * a * b1 - 0.36 * a * a * b3
    return b3, pwr


def baker_psi(ctx: sg.DegenSigmaContext, B1, U3, U1) -> complex:
    """Eigenfunction value psi(U1) for spectral parameter B1 (E = wp(B1))."""
    _require_generic(ctx)
    B1, U3, U1 = complex(B1), complex(U3), complex(U1)
    b3, pwr = _b3_and_pwr(ctx, B1)
    den = sg.sigma2_u(ctx, U3, U1)
    if den == 0:
        raise SingularConfiguration("U-point lies on the sigma2 divisor")
    num = sg.sigma2_u(ctx, b3 - U3, B1 - U1)
    return complex(num / den * np.exp(U1 * pwr))


def _weight_scale(ctx):
    g4, g6 = ctx.gamma.gamma4, ctx.gamma.gamma6
    return max(abs(ctx.a2) ** 0.5, abs(g4) ** 0.25, abs(g6) ** (1.0 / 6.0), 1e-6)


def eigen_residual(ctx: sg.DegenSigmaContext, B1, U3, U1,
                   cfg: NumericsConfig | None = None,
                   h: float | None = None, levels: int = 3) -> float:
    """|psi'' - (U + E) psi| / max-term, by differencing in U1."""
    _require_generic(ctx)
    h = 1e-3 / _weight_scale(ctx) if h is None else h
    psi0 = baker_psi(ctx, B1, U3, U1)
    psi2 = derivative(lambda t: baker_psi(ctx, B1, U3, t), complex(U1), 2, h, levels)
    pot = potential_u(ctx, U3, U1)
    energy = el.wp(ctx.ectx, B1)
    terms = [psi2, -pot * psi0, -energy * psi0]
    return abs(sum(terms)) / max(abs(t) for t in terms)


def wronskian(ctx: sg.DegenSigmaContext, B1, U3, U1,
              h: float | None = None, levels: int = 3) -> complex:
    """psi_+ psi_-' - psi_- psi_+' for the pair (B1, -B1)."""
    h = 1e-3 / _weight_scale(ctx) if h is None else h
    U1 = complex(U1)
    pp = baker_psi(ctx, B1, U3, U1)
    pm = baker_psi(ctx, -B1, U3, U1)
    dp = derivative(lambda t: baker_psi(ctx, B1, U3, t), U1, 1, h, levels)
    dm = derivative(lambda t: baker_psi(ctx, -B1, U3, t), U1, 1, h, levels)
    return complex(pp * dm - pm * dp)


def potential_u(ctx: sg.DegenSigmaContext, U3, U1):
    """U(U1) = 2 S^2 - 2 wp(U1) - 2 wp(alpha).

    The wp poles at lattice U1 cancel against S^2, so those points are
    evaluated by a small ring average; true poles (the sigma2 divisor, where
    P = 1) still raise SingularConfiguration.  ndarrays, broadcast together,
    are evaluated in one pass, the ring-averaged points picked by a mask.
    """
    _require_generic(ctx)
    ec = ctx.ectx
    U3, U1 = complex_args(U3, U1)
    h = 1e-3 * ec.scale()

    def direct(u3, u1):
        s = sg.s_function(ctx, u3, u1)
        return 2.0 * s * s - 2.0 * el.wp(ec, u1) - 2.0 * ctx.wp_alpha

    def ring(u3, u1):
        return sum(direct(u3, u1 + h * 1j ** k) for k in range(4)) / 4.0

    if not isinstance(U1, np.ndarray):
        try:
            return complex(direct(U3, U1))
        except PoleAtArgument:
            return complex(ring(U3, U1))
    # where the scalar path meets PoleAtArgument: a lattice point of wp(U1),
    # or U1 = +-alpha, where sigma(alpha -+ U1) ~ 0 in the generator P
    lim = ctx.cfg.cluster_tol * ec.scale()
    on_pole = ((abs(el._reduce(ec, U1)[0]) < lim)
               | (abs(el.sigma_w(ec, ctx.alpha - U1)) < lim)
               | (abs(el.sigma_w(ec, ctx.alpha + U1)) < lim))
    out = np.empty(U1.shape, dtype=complex)
    out[~on_pole] = direct(U3[~on_pole], U1[~on_pole])
    if on_pole.any():
        out[on_pole] = ring(U3[on_pole], U1[on_pole])
    return out


def kdv_residual(ctx: sg.DegenSigmaContext, U3, U1,
                 cfg: NumericsConfig | None = None,
                 h: float | None = None, levels: int = 3) -> float:
    """Normalized defect of 4 dU/dU3 = d^3 U/dU1^3 - 6 U dU/dU1."""
    _require_generic(ctx)
    ws = _weight_scale(ctx)
    h = 2e-3 / ws if h is None else h
    U3, U1 = complex(U3), complex(U1)
    u0 = potential_u(ctx, U3, U1)
    du3 = derivative(lambda t: potential_u(ctx, t, U1), U3, 1, h / ws ** 2, levels)
    du1 = derivative(lambda t: potential_u(ctx, U3, t), U1, 1, h, levels)
    du111 = derivative(lambda t: potential_u(ctx, U3, t), U1, 3, 4 * h, levels)
    terms = [4.0 * du3, -du111, 6.0 * u0 * du1]
    return abs(sum(terms)) / max(abs(t) for t in terms)


# ---------------------------------------------------------------------------
# real potential families

def real_rectangle_periods(ectx: el.EllipticContext, rel_tol: float = 1e-9):
    """(omega, omega', eta, eta') with omega real > 0 and omega' imaginary.

    The canonical context basis orders by length, so the real generator is
    recovered from the basis rather than assumed; raises NotRealLattice when
    the lattice is not rectangular in this orientation.
    """
    cands = [ectx.omega, ectx.omegaP, ectx.omega + ectx.omegaP,
             ectx.omega - ectx.omegaP]
    scale = ectx.scale()
    o_re = [z for z in cands if abs(z.imag) <= rel_tol * scale]
    o_im = [z for z in cands if abs(z.real) <= rel_tol * scale]
    if not o_re or not o_im:
        raise NotRealLattice("no rectangular basis: Im(omega) or Re(omega') != 0")
    om = min(o_re, key=abs)
    omp = min(o_im, key=abs)
    om = complex(abs(om.real), 0.0)
    omp = complex(0.0, abs(omp.imag)) * 1.0
    eta = 2.0 * el.zeta_w(ectx, om / 2)
    etap = 2.0 * el.zeta_w(ectx, omp / 2)
    return om, omp, eta, etap


@dataclass(frozen=True)
class PotentialSample:
    grid: np.ndarray
    values: np.ndarray
    family: str                 # "V1" | "V2" | "ComplexU"
    phi: float
    spectrum: dict = field(default_factory=dict)

    @property
    def max_imag(self):
        return float(np.max(np.abs(self.values.imag)))


def real_family(ctx: sg.DegenSigmaContext, family: str, phi: float,
                grid, cfg: NumericsConfig | None = None,
                reality_tol: float = 1e-6) -> PotentialSample:
    """One-parameter family of real potentials on the real line.

    V1(x) = U(omega x)/omega^2 at U3 = 2 pi i phi / wp'(alpha);
    V2(x) = U(omega x + omega'/2)/omega^2 at the U3 shifted by
    (zeta(alpha) omega' - alpha eta')/wp'(alpha).  Needs the rectangular
    normalization, wp(alpha) real, and wp(alpha) inside a spectral gap
    (wp'(alpha)^2 < 0, i.e. alpha on an edge with imaginary wp'): there the
    generator has unit modulus along the sample line and S stays real for
    every phi.  With wp(alpha) inside a band (wp'(alpha) real) only the
    endpoint phases phi in {0, +-1/2} give real potentials, so other phi
    raise NotRealAlpha rather than sample a complex family.
    """
    _require_generic(ctx)
    if family not in ("V1", "V2"):
        raise ValueError("family must be 'V1' or 'V2'")
    om, omp, eta, etap = real_rectangle_periods(ctx.ectx)
    if abs(ctx.wp_alpha.imag) > reality_tol * (1.0 + abs(ctx.wp_alpha)):
        raise NotRealAlpha(f"wp(alpha) = {ctx.wp_alpha!r} is not real")
    wpp_sq = ctx.wpp_alpha ** 2
    in_gap = wpp_sq.real < 0 and abs(wpp_sq.imag) <= reality_tol * abs(wpp_sq)
    endpoint_phase = min(abs(phi), abs(abs(phi) - 0.5)) <= reality_tol
    if not (in_gap or endpoint_phase):
        raise NotRealAlpha(
            "wp(alpha) lies inside a band (wp'(alpha)^2 > 0); the potential "
            "is real only at phi in {0, +-1/2} there")
    ap = ctx.wpp_alpha
    u3 = 2j * np.pi * phi / ap
    shift = 0.0j
    if family == "V2":
        u3 = u3 + (ctx.zeta_alpha * omp - ctx.alpha * etap) / ap
        shift = omp / 2.0
    grid = np.asarray(grid, dtype=float)
    vals = potential_u(ctx, u3, om * grid + shift) / om ** 2
    e1 = el.wp(ctx.ectx, om / 2)
    e2 = el.wp(ctx.ectx, (om + omp) / 2)
    e3 = el.wp(ctx.ectx, omp / 2)
    spectrum = {"point": ctx.wp_alpha.real,
                "band1": [e3.real, e2.real],
                "band2_lo": e1.real}
    return PotentialSample(grid=grid, values=vals, family=family,
                           phi=float(phi), spectrum=spectrum)


# ---------------------------------------------------------------------------
# Bloch multipliers

def baker_phi(ctx: sg.DegenSigmaContext, u3, u1, xi0) -> complex:
    """Two-variable Baker quotient with spectral point at uniformizer xi0."""
    _require_generic(ctx)
    vals = lt.abel_integrals(ctx, xi0)
    den = sg.sigma2(ctx, u3, u1)
    if den == 0:
        raise SingularConfiguration("u lies on the sigma2 divisor")
    num = sg.sigma2(ctx, vals.I1 - u3, vals.I2 - u1)
    return complex(num / den * np.exp(u3 * vals.I4 + u1 * vals.I3))


def quasi_momenta(ctx: sg.DegenSigmaContext, xi0,
                  lattice: lt.PeriodLattice | None = None):
    """Bloch exponents (M1, M2, M3) for the Baker quotient at xi0.

    M_i are covectors on (u3, u1): Phi(u + T_i) = Phi(u) exp(M_i . T_i).
    With rho = (I4, I3) and beta = (I1, I2) at xi0,

        M1 = rho - beta^t S K2,   M2 = M3 = rho - beta^t S (K2 + K3 K1^{-1}),

    S the index swap; K1 is invertible away from wp'(alpha) = 0 since
    det K1 = 2 alpha / wp'(alpha).
    """
    _require_generic(ctx)
    if lattice is None:
        lattice = lt.period_matrices(ctx)
    vals = lt.abel_integrals(ctx, xi0)
    rho = np.array([vals.I4, vals.I3], dtype=complex)
    beta = np.array([vals.I1, vals.I2], dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    m1 = rho - beta @ swap @ lattice.K2
    k1inv = np.linalg.inv(lattice.K1)
    m23 = rho - beta @ swap @ (lattice.K2 + lattice.K3 @ k1inv)
    return m1, m23, m23


def bloch_residual(ctx: sg.DegenSigmaContext, xi0, u, k: int,
                   lattice: lt.PeriodLattice | None = None) -> float:
    """Defect of Phi(u + T_k) = Phi(u) exp(M_k . T_k), in the log domain.

    The second-kind exponents grow like xi0^-3, so the ratio is assembled
    from sigma quotients and exponents separately; the residual is
    |exp(log ratio - M_k . T_k) - 1|, insensitive to the 2 pi i log branch.
    """
    if lattice is None:
        lattice = lt.period_matrices(ctx)
    momenta = quasi_momenta(ctx, xi0, lattice)
    tk, _ = lattice.column(k)
    u = np.asarray(u, dtype=complex)
    vals = lt.abel_integrals(ctx, xi0)
    num0 = sg.sigma2(ctx, vals.I1 - u[0], vals.I2 - u[1])
    num1 = sg.sigma2(ctx, vals.I1 - u[0] - tk[0], vals.I2 - u[1] - tk[1])
    den0 = sg.sigma2(ctx, u[0], u[1])
    den1 = sg.sigma2(ctx, u[0] + tk[0], u[1] + tk[1])
    if 0 in (num0, num1, den0, den1):
        raise SingularConfiguration("Bloch sample hit the sigma2 divisor")
    log_ratio = (np.log(num1 / num0) - np.log(den1 / den0)
                 + tk[0] * vals.I4 + tk[1] * vals.I3)
    return abs(np.exp(log_ratio - momenta[k - 1] @ tk) - 1.0)
