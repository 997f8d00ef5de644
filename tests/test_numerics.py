import numpy as np
import pytest

from sigma2.errors import NumericalFailure
from sigma2.numerics import (NumericsConfig, cauchy_derivatives, cluster_points,
                             continuous_log, derivative, mixed_second,
                             quadrature_path, require_finite)


def test_config_validation():
    with pytest.raises(ValueError):
        NumericsConfig(fd_step=-1.0)
    with pytest.raises(ValueError):
        NumericsConfig(fd_order=5)
    cfg = NumericsConfig()
    assert cfg.tol == 1e-10 and cfg.fd_order == 3


def test_require_finite():
    require_finite("f", 1, 2.5 - 1j, np.complex128(3.0), np.zeros(3))
    for bad in (float("nan"), complex(1.0, float("inf")), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="^f: non-finite value"):
            require_finite("f", 1.0, bad)


@pytest.mark.parametrize("n,expect", [(1, np.cos(0.3)), (2, -np.sin(0.3)),
                                      (3, -np.cos(0.3)), (4, np.sin(0.3))])
def test_derivative_orders(n, expect):
    got = derivative(np.sin, 0.3, n=n, h=0.2, levels=3)
    assert abs(got - expect) < 1e-8


def test_derivative_complex_direction():
    f = lambda z: np.exp(2j * z)
    got = derivative(f, 0.1 + 0.2j, n=1, h=1e-2, levels=3, direction=1 + 1j)
    assert abs(got - 2j * f(0.1 + 0.2j)) < 1e-10


def test_mixed_second():
    f = lambda x, y: np.sin(x) * np.exp(y)
    got = mixed_second(f, 0.2, -0.1, h=1e-3)
    assert abs(got - np.cos(0.2) * np.exp(-0.1)) < 1e-9


def test_cauchy_derivatives_exponential():
    vals = cauchy_derivatives(np.exp, 0.3 + 0.1j, 4, radius=0.5)
    base = np.exp(0.3 + 0.1j)
    for v in vals:
        assert abs(v - base) < 1e-12


def test_quadrature_constant():
    assert abs(quadrature_path(lambda z: 1.0, [0.0, 1.0]) - 1.0) < 1e-14


def test_quadrature_closed_loop_residue():
    # residue 1 at the origin
    loop = [0.5, 0.5j, -0.5, -0.5j, 0.5]
    val = quadrature_path(lambda z: 1.0 / z, loop)
    assert abs(val - 2j * np.pi) < 1e-12


def test_quadrature_failure_attaches_estimate():
    # non-integrable singularity on the path (no symmetric cancellation)
    with pytest.raises((NumericalFailure, ZeroDivisionError)):
        quadrature_path(lambda z: 1.0 / z ** 2, [-1.0, 1.0])


def test_continuous_log_tracks_winding():
    # g(t) = exp(2 pi i n t) has log increment 2 pi i n, invisible to the
    # principal branch
    for n in (1, 3, -2):
        got = continuous_log(lambda t: np.exp(2j * np.pi * n * t))
        assert abs(got - 2j * np.pi * n) < 1e-12


def test_cluster_points():
    pts = [0.0, 1e-10, 1.0, 1.0 + 2e-10j, 2.5]
    clusters = cluster_points(pts, 1e-8)
    sizes = sorted(len(m) for _, m in clusters)
    assert sizes == [1, 2, 2]
    centers = [c for c, _ in clusters]
    assert centers == sorted(centers, key=lambda z: (z.real, z.imag))
