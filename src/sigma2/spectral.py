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
from .errors import NotRealAlpha, NotRealLattice, SingularConfiguration
from .numerics import _ring, any_true, cauchy_derivatives, complex_args

__all__ = [
    "PotentialSample", "baker_psi", "eigen_residual", "potential_u",
    "kdv_residual", "real_family", "real_rectangle_periods", "quasi_momenta",
    "bloch_residual",
]


def _require_generic(ctx):
    if ctx.kind != "lambda1":
        raise SingularConfiguration("spectral objects need a Lambda1 context")
    if ctx.branch_point:
        raise SingularConfiguration("wp'(alpha) = 0: Bloch normalization degenerates")


def baker_psi(ctx: sg.DegenSigmaContext, B1, U3, U1):
    """Eigenfunction value psi(U1) for spectral parameter B1 (E = wp(B1)).

    The Abel integrals at B1 give the numerator shift I1 and the exponent
    slope I3 from one continued log, so the pair is branch-consistent.
    Elementwise on ndarrays U3, U1, like potential_u.
    """
    _require_generic(ctx)
    B1 = complex(B1)
    U3, U1 = complex_args(U3, U1)
    vals = lt.abel_integrals(ctx, B1)
    den = sg.sigma2_u(ctx, U3, U1)
    if any_true(den == 0):
        raise SingularConfiguration("U-point lies on the sigma2 divisor")
    num = sg.sigma2_u(ctx, vals.I1 - U3, B1 - U1)
    return sg._result(num / den * np.exp(U1 * vals.I3))


def _u1_ring(ctx, f, U1, nmax):
    """[f, f', .., f^(nmax)] in U1 from a 16-node ring of radius 0.005/ws: the
    potential has poles nearby, so the disk stays small in weight units."""
    return cauchy_derivatives(f, complex(U1), nmax, 5e-3 / ctx.weight_scale(), 16)


def eigen_residual(ctx: sg.DegenSigmaContext, B1, U3, U1) -> float:
    """|psi'' - (U + E) psi| / max-term, by Cauchy differentiation in U1."""
    _require_generic(ctx)
    psi0, _, psi2 = _u1_ring(ctx, lambda t: baker_psi(ctx, B1, U3, t), U1, 2)
    pot = potential_u(ctx, U3, U1)
    energy = el.wp(ctx.ectx, B1)
    terms = [psi2, -pot * psi0, -energy * psi0]
    return abs(sum(terms)) / max(abs(t) for t in terms)


def potential_u(ctx: sg.DegenSigmaContext, U3, U1):
    """U(U1) = 2 S^2 - 2 wp(U1) - 2 wp(alpha).

    The wp poles at lattice U1 cancel against S^2, so those points are
    evaluated by a 16-node ring mean; true poles (the sigma2 divisor, where
    P = 1) still raise SingularConfiguration.  ndarrays, broadcast together,
    are evaluated in one pass, the ring-averaged points picked by a mask.
    """
    _require_generic(ctx)
    ec = ctx.ectx
    U3, U1 = complex_args(U3, U1)
    h = 1e-3 * ec.scale()

    def direct(u3, u1):
        s, _, _, pu, _ = sg._s_point(ctx, u3, u1)
        return 2.0 * s * s - 2.0 * pu - 2.0 * ctx.wp_alpha

    def ring(u3, u1):
        return cauchy_derivatives(
            lambda t: direct(u3, u1 + t.reshape(t.shape + (1,) * np.ndim(u1))),
            0.0, 0, h, 16)[0]

    # where direct() raises PoleAtArgument: a lattice point of wp(U1), or
    # U1 = +-alpha, where sigma(alpha -+ U1) = 0 in the generator P
    on_pole = (el.on_lattice(ec, U1) | el.on_lattice(ec, ctx.alpha - U1)
               | el.on_lattice(ec, ctx.alpha + U1))
    if not isinstance(U1, np.ndarray):
        return complex(ring(U3, U1) if on_pole else direct(U3, U1))
    out = np.empty(U1.shape, dtype=complex)
    out[~on_pole] = direct(U3[~on_pole], U1[~on_pole])
    if on_pole.any():
        out[on_pole] = ring(U3[on_pole], U1[on_pole])
    return out


def kdv_residual(ctx: sg.DegenSigmaContext, U3, U1) -> float:
    """Normalized defect of 4 dU/dU3 = d^3 U/dU1^3 - 6 U dU/dU1."""
    _require_generic(ctx)
    ws = ctx.weight_scale()
    U3, U1 = complex(U3), complex(U1)
    r1, r3 = 5e-3 / ws, 5e-3 / ws ** 3
    # the nodes of both 16-node rings, in U1 and in U3, in one potential_u call
    unit = _ring(16, 3)[0]
    vals = potential_u(ctx, np.concatenate([np.full(16, U3), U3 + r3 * unit]),
                       np.concatenate([U1 + r1 * unit, np.full(16, U1)]))
    u0, du1, _, du111 = cauchy_derivatives(lambda _: vals[:16], U1, 3, r1, 16)
    du3 = cauchy_derivatives(lambda _: vals[16:], U3, 1, r3, 16)[1]
    terms = [4.0 * du3, -du111, 6.0 * u0 * du1]
    return abs(sum(terms)) / max(abs(t) for t in terms)


# ---------------------------------------------------------------------------
# real potential families

def real_rectangle_periods(ectx: el.EllipticContext):
    """(omega, omega', eta, eta') with omega real > 0 and omega' imaginary.

    The canonical context basis orders by length, so the real generator is
    recovered from the basis rather than assumed; raises NotRealLattice when
    the lattice is not rectangular in this orientation (relative tolerance
    1e-9 on the vanishing components).
    """
    cands = [ectx.omega, ectx.omegaP, ectx.omega + ectx.omegaP,
             ectx.omega - ectx.omegaP]
    tol = 1e-9 * ectx.scale()
    o_re = [z for z in cands if abs(z.imag) <= tol]
    o_im = [z for z in cands if abs(z.real) <= tol]
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
                grid) -> PotentialSample:
    """One-parameter family of real potentials on the real line.

    V1(x) = U(omega x)/omega^2 at U3 = 2 pi i phi / wp'(alpha);
    V2(x) = U(omega x + omega'/2)/omega^2 at the U3 shifted by
    (zeta(alpha) omega' - alpha eta')/wp'(alpha).  Needs the rectangular
    normalization, wp(alpha) real, and wp(alpha) inside a spectral gap
    (wp'(alpha)^2 < 0, i.e. alpha on an edge with imaginary wp'): there the
    generator has unit modulus along the sample line and S stays real for
    every phi.  With wp(alpha) inside a band (wp'(alpha) real) only the
    endpoint phases phi in {0, +-1/2} give real potentials, so other phi
    raise NotRealAlpha rather than sample a complex family.  Each of these
    reality tests has relative tolerance 1e-6.
    """
    _require_generic(ctx)
    if family not in ("V1", "V2"):
        raise ValueError("family must be 'V1' or 'V2'")
    om, omp, eta, etap = real_rectangle_periods(ctx.ectx)
    if abs(ctx.wp_alpha.imag) > 1e-6 * (1.0 + abs(ctx.wp_alpha)):
        raise NotRealAlpha(f"wp(alpha) = {ctx.wp_alpha!r} is not real")
    wpp_sq = ctx.wpp_alpha ** 2
    in_gap = wpp_sq.real < 0 and abs(wpp_sq.imag) <= 1e-6 * abs(wpp_sq)
    endpoint_phase = min(abs(phi), abs(abs(phi) - 0.5)) <= 1e-6
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

def quasi_momenta(ctx: sg.DegenSigmaContext, xi0, lattice: lt.PeriodLattice):
    """Bloch exponents (M1, M2, M3) for the Baker quotient at xi0,
    Phi(u) = sigma2(I1 - u3, I2 - u1) / sigma2(u) exp(u3 I4 + u1 I3), with
    I1..I4 the Abel integrals at xi0.

    M_i are covectors on (u3, u1): Phi(u + T_i) = Phi(u) exp(M_i . T_i).
    With rho = (I4, I3) and beta = (I1, I2),

        M1 = rho - beta^t S K2,   M2 = M3 = rho - beta^t S (K2 + K3 K1^{-1}),

    S the index swap; K1 is invertible away from wp'(alpha) = 0 since
    det K1 = 2 alpha / wp'(alpha).
    """
    _require_generic(ctx)
    return _momenta(lt.abel_integrals(ctx, xi0), lattice)


def _momenta(vals, lattice):
    """quasi_momenta from the Abel integrals at xi0."""
    rho = np.array([vals.I4, vals.I3], dtype=complex)
    beta = np.array([vals.I1, vals.I2], dtype=complex)
    m1 = rho - beta @ lt._SWAP @ lattice.K2
    m23 = rho - beta @ lt._SWAP @ (lattice.K2 + lattice.K3 @ np.linalg.inv(lattice.K1))
    return m1, m23, m23


def bloch_residual(ctx: sg.DegenSigmaContext, xi0, u, k: int,
                   lattice: lt.PeriodLattice) -> float:
    """Defect of Phi(u + T_k) = Phi(u) exp(M_k . T_k), in the log domain.

    The second-kind exponents grow like xi0^-3, so the ratio is assembled
    from sigma quotients and exponents separately; the residual is
    |exp(log ratio - M_k . T_k) - 1|, insensitive to the 2 pi i log branch.
    """
    return _bloch_residuals(ctx, xi0, u, (k,), lattice)[0]


def _bloch_residuals(ctx, xi0, u, ks, lattice):
    """[bloch_residual(ctx, xi0, u, k, lattice) for k in ks], with the Abel
    integrals at xi0, the momenta and sigma2 at u and at I - u, which do not
    depend on k, evaluated once."""
    _require_generic(ctx)
    vals = lt.abel_integrals(ctx, xi0)
    momenta = _momenta(vals, lattice)
    u = np.asarray(u, dtype=complex)
    num0 = sg.sigma2(ctx, vals.I1 - u[0], vals.I2 - u[1])
    den0 = sg.sigma2(ctx, u[0], u[1])
    out = []
    for k in ks:
        tk, _ = lattice.column(k)
        num1 = sg.sigma2(ctx, vals.I1 - u[0] - tk[0], vals.I2 - u[1] - tk[1])
        den1 = sg.sigma2(ctx, u[0] + tk[0], u[1] + tk[1])
        if 0 in (num0, num1, den0, den1):
            raise SingularConfiguration("Bloch sample hit the sigma2 divisor")
        log_ratio = (np.log(num1 / num0) - np.log(den1 / den0)
                     + tk[0] * vals.I4 + tk[1] * vals.I3)
        out.append(abs(np.exp(log_ratio - momenta[k - 1] @ tk) - 1.0))
    return out
