import warnings

import numpy as np
import pytest

from sigma2.errors import NumericalFailure
from sigma2.numerics import (cauchy_derivatives, continuous_log, peak,
                             require_finite, shc)

from oracles import (cluster_points, continuous_log_1d, quadrature_path,
                     shc_both_branches)


def test_require_finite():
    require_finite("f", 1, 2.5 - 1j, np.complex128(3.0), np.zeros(3))
    for bad in (float("nan"), complex(1.0, float("inf")), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="^f: non-finite value"):
            require_finite("f", 1.0, bad)


@pytest.mark.parametrize("n,expect", [(1, np.cos(0.3)), (2, -np.sin(0.3)),
                                      (3, -np.cos(0.3)), (4, np.sin(0.3))])
def test_derivative_orders(n, expect):
    # one call of f on the whole ring gives every order up to nmax
    calls = []

    def f(z):
        calls.append(z.shape)
        return np.sin(z)

    got = cauchy_derivatives(f, 0.3, 4, radius=0.5, nodes=16)
    assert calls == [(16,)]
    assert got.shape == (5,)
    assert abs(got[n] - expect) < 1e-12


def test_mixed_second():
    # trailing axes pass through: the inner ring's orders ride along the
    # outer ring, and f is evaluated once on the 16 x 12 product grid
    calls = []

    def f(x, y):
        calls.append(np.broadcast(x, y).shape)
        return np.sin(x) * np.exp(y)

    d = cauchy_derivatives(
        lambda x: cauchy_derivatives(lambda y: f(x, y[:, None]), -0.1, 1,
                                     radius=0.2, nodes=12).T,
        0.2, 1, radius=0.2, nodes=16)
    assert calls == [(12, 16)]
    assert d.shape == (2, 2)
    assert abs(d[0, 0] - np.sin(0.2) * np.exp(-0.1)) < 1e-13
    assert abs(d[1, 1] - np.cos(0.2) * np.exp(-0.1)) < 1e-12


def test_cauchy_derivatives_exponential():
    vals = cauchy_derivatives(np.exp, 0.3 + 0.1j, 4, radius=0.5, nodes=64)
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
    # principal branch; one function is one row, as period_increment asks
    for n in (1, 3, -2):
        got = continuous_log(lambda t, idx: np.exp(2j * np.pi * n * t)[None], 1)
        want = continuous_log_1d(lambda t: np.exp(2j * np.pi * n * t))
        assert got.shape == (1,) and got.tobytes() == np.array([want]).tobytes()
        assert abs(got[0] - 2j * np.pi * n) < 1e-12


def test_continuous_log_rows_are_the_1d_calls():
    # rows winding n times resolve at 16 (n = 1, -2, 0.3), 32 (n = 5) and
    # 64 (n = 11) steps, each with its 1-D value to the bit; only the rows
    # still open are evaluated again
    ns = np.array([1.0, 5.0, -2.0, 11.0, 0.3])
    seen = []

    def f(n, t):
        return np.exp(2j * np.pi * n * t) * (1 + 0.1 * t)

    def rows(t, idx):
        seen.append((len(t) - 1, idx.tolist()))
        return f(ns[idx, None], t)

    got = continuous_log(rows, len(ns))
    want = np.array([continuous_log_1d(lambda t: f(n, t)) for n in ns])
    assert got.tobytes() == want.tobytes()
    assert seen == [(16, [0, 1, 2, 3, 4]), (32, [1, 3]), (64, [3])]
    assert np.allclose(got, 2j * np.pi * ns + np.log(1.1), rtol=0, atol=1e-12)


def test_continuous_log_rows_refuse_a_zero():
    with pytest.raises(NumericalFailure, match="zero"):
        continuous_log(lambda t, idx: np.stack([t + 1.0, t - 0.5])[idx], 2)


def test_cluster_points():
    pts = [0.0, 1e-10, 1.0, 1.0 + 2e-10j, 2.5]
    clusters = cluster_points(pts, 1e-8)
    sizes = sorted(len(m) for _, m in clusters)
    assert sizes == [1, 2, 2]
    centers = [c for c, _ in clusters]
    assert centers == sorted(centers, key=lambda z: (z.real, z.imag))


def _bits(x):
    """type, dtype, shape and float64 bytes: equal only for the same value
    to the bit, signed zeros and NaN payloads included."""
    a = np.asarray(x)
    return type(x), a.dtype, a.shape, a.reshape(-1).view(np.float64).tobytes()


# |c z| from 1e-9 to ~30 with exact 1e-4 and 0 among them, so both branches
# and the switch are covered; a NaN goes the series way, as it always did
_MAGS = np.concatenate([np.logspace(-9, 1.5, 61), [1e-4, 0.0, np.nan]])
_Z = _MAGS * np.exp(1j * np.linspace(0.0, 6.0, _MAGS.size))


@pytest.mark.parametrize("c,z", [
    (1.0, _Z),
    (0.7 - 1.3j, _Z),
    (np.complex128(2.0 + 0.5j), _Z.real),
    (0.0, _Z),
    (0j, _Z.real),
    (np.array([0.0, 1e-3, 1.0, 1.0 + 2.0j])[:, None], _Z),
    (np.array([[0.0], [1e-6j], [0.3 - 0.1j], [5.0]]), _Z[::-1]),
    (np.sqrt(np.array([0.6 - 0.6, 1.5, -2.0 + 1j, 0.4j]))[:, None],
     np.array([0.3 - 0.5j, 1e-5, -2e-4j, 0.0])),
    (_Z[::7], _Z[::7] * 1j),
], ids=["real-c", "complex-c", "real-z", "c0", "c0-real-z", "c4x1", "c4x1-zeros",
        "ring", "paired"])
def test_shc_arrays_are_the_two_branch_formula_to_the_bit(c, z):
    assert _bits(shc(c, z)) == _bits(shc_both_branches(c, z))


@pytest.mark.parametrize("c,z", [
    (1.0, 0.5), (1.0, 1e-4), (1.0, 9.99e-5), (0.7 - 1.3j, 2e-5 + 1e-5j),
    (0.7 - 1.3j, 3.0 - 1.0j), (0.0, 0.25), (0j, 1.0 + 1j),
    (np.complex128(0.2j), np.complex128(1e-3)), (np.sqrt(-0.3 + 0j), 1.7),
    (1e-3, 0.09),
])
def test_shc_scalars_are_the_two_branch_formula_to_the_bit(c, z):
    assert _bits(shc(c, z)) == _bits(shc_both_branches(c, z))


def test_shc_at_c_zero_is_z_without_a_warning():
    z = np.array([0.3 - 0.5j, -1.0, 2e-5j, 0.0, 40.0 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (0, 0.0, 0j, np.zeros((3, 1))):
            got = shc(c, z)
            assert np.array_equal(got, np.broadcast_to(z, got.shape))
        assert shc(0.0, complex(z[0])) == z[0]


def test_peak_is_max_unless_a_nan_is_among_the_values():
    nan = float("nan")
    for values in ([0.0, 3.0, 1.0], [0.0, np.float64(2.0), 2.0], [5.0], [0.0, float("inf")]):
        assert peak(values) is max(values)
    for values in ([0.0, nan], [0.0, 1e-12, nan, 1.0], [nan, 2.0], [0.0, np.float64(nan)]):
        assert np.isnan(peak(iter(values)))
