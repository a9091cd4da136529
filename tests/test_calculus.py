import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from krflow import _kernels
from krflow.calculus import (
    HALF_BAND,
    build_grid,
    cumulative_dx,
    d_dx,
    d_ds,
    derivative_bands,
    integrate_ds,
    over_xm,
)
from krflow.errors import ConfigError, DivergentIntegrand
from krflow.geometry import ManifoldConfig, background, wedge_density


def test_build_grid_nodes():
    g = build_grid(16)
    assert g.dx == pytest.approx(0.0625)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0
    assert np.all(np.diff(g.x) > 0)
    g = build_grid(2048)
    assert len(g.x) == 2049
    assert g.x[1024] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("bad", [15, 14, 8, 17, 0, -4])
def test_build_grid_rejects_bad_sizes(bad):
    with pytest.raises(ConfigError):
        build_grid(bad)


def test_d_dx_annihilates_constants(grid256):
    out = d_dx(np.full(257, 3.7), grid256)
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_d_dx_exact_on_low_degree_polynomials(grid256, degree):
    coeffs = np.arange(1.0, degree + 2.0)
    f = np.polynomial.polynomial.polyval(grid256.x, coeffs)
    expected = np.polynomial.polynomial.polyval(
        grid256.x, np.polynomial.polynomial.polyder(coeffs))
    out = d_dx(f, grid256)
    assert np.abs(out - expected).max() < 1e-11 * (1 + np.abs(expected).max())


def test_d_dx_drift_sized_constant_is_exactly_zero_at_the_closures(grid512):
    out = d_dx(1e3 + 0.0 * grid512.x, grid512)
    assert out[[0, 1, -2, -1]].tolist() == [0.0, 0.0, 0.0, 0.0]


def test_d_dx_bits_match_the_plain_stencil(rng):
    # the stencil written out on numpy arrays and scalars, as a reference for
    # the in-place interior and the closure rows on Python floats
    for size in (6, 7, 513, 1025, 2049) * 20:
        f = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
        dx = 1.0 / (size - 1)
        c, c6 = 1.0 / (12.0 * dx), 1.0 / (60.0 * dx)
        ref = np.empty(size)
        ref[2:-2] = ((f[:-4] - f[4:]) + 8.0 * (f[3:-1] - f[1:-3])) * c
        ref[0] = (300.0 * (f[1] - f[0]) - 300.0 * (f[2] - f[0]) + 200.0 * (f[3] - f[0])
                  - 75.0 * (f[4] - f[0]) + 12.0 * (f[5] - f[0])) * c6
        ref[1] = (-12.0 * (f[0] - f[1]) + 120.0 * (f[2] - f[1]) - 60.0 * (f[3] - f[1])
                  + 20.0 * (f[4] - f[1]) - 3.0 * (f[5] - f[1])) * c6
        ref[-2] = (12.0 * (f[-1] - f[-2]) - 120.0 * (f[-3] - f[-2]) + 60.0 * (f[-4] - f[-2])
                   - 20.0 * (f[-5] - f[-2]) + 3.0 * (f[-6] - f[-2])) * c6
        ref[-1] = (-300.0 * (f[-2] - f[-1]) + 300.0 * (f[-3] - f[-1]) - 200.0 * (f[-4] - f[-1])
                   + 75.0 * (f[-5] - f[-1]) - 12.0 * (f[-6] - f[-1])) * c6
        # sizes 6 and 7 are below any Grid: a stand-in carries size and dx
        grid = SimpleNamespace(size=size - 1, dx=dx)
        assert _kernels.d_dx(f, grid).tobytes() == ref.tobytes()


def test_d_dx_strided_and_int_inputs_match_contiguous_float(grid512, rng):
    wide = rng.standard_normal(2 * (grid512.size + 1))
    strided = wide[::2]
    assert not strided.flags.c_contiguous
    expected = d_dx(np.ascontiguousarray(strided), grid512)
    assert d_dx(strided, grid512).tobytes() == expected.tobytes()
    ints = rng.integers(-1000, 1000, grid512.size + 1)
    expected = d_dx(ints.astype(np.float64), grid512)
    assert d_dx(ints, grid512).tobytes() == expected.tobytes()


@pytest.mark.parametrize("node", [3, 128, 256])
def test_d_dx_finiteness_guard(grid256, node):
    # a huge but finite node passes without a warning; a NaN or infinite
    # node raises wherever it sits
    f = np.sin(grid256.x)
    huge = f.copy()
    huge[node] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(d_dx(huge, grid256)).all()
    for bad in (np.nan, np.inf, -np.inf):
        values = f.copy()
        values[node] = bad
        with pytest.raises(DivergentIntegrand, match="non-finite node"):
            d_dx(values, grid256)


def test_d_dx_needs_six_nodes():
    # five values on a five-node stand-in grid pass the shape check
    with pytest.raises(ValueError, match="at least 6 nodes"):
        _kernels.d_dx(np.zeros(5), SimpleNamespace(size=4, dx=0.25))
    assert _kernels.d_dx(np.arange(6.0), SimpleNamespace(size=5, dx=1.0)).tolist() == [1.0] * 6


@pytest.mark.parametrize("size", (16, 128, 1024))
def test_derivative_bands_match_the_stencil(size, rng):
    # the bands read off colored probes are D = d_dx and K = D diag(x(1-x)) D;
    # at N = 16 the 17 nodes share the 2 * HALF_BAND + 1 = 15 probe colors
    g = build_grid(size)
    d_band, k_band = derivative_bands(g)
    f = rng.standard_normal(size + 1)
    cols = np.arange(size + 1)[:, None] + np.arange(-HALF_BAND, HALF_BAND + 1)
    inside = (cols >= 0) & (cols <= size)
    near = np.where(inside, f[np.clip(cols, 0, size)], 0.0)
    u = d_dx(f, g)
    for band, expected in ((d_band, u), (k_band, d_dx(g.xm * u, g))):
        assert band.shape == (size + 1, 2 * HALF_BAND + 1)
        applied = (band * near).sum(axis=1)
        scale = np.abs(expected).max()
        assert np.abs(applied - expected).max() <= 1e-12 * (1.0 + scale)
        # the match leaves no operator entry beyond HALF_BAND; the band's
        # slots past the matrix edge are zero; the cached bands are read-only
        assert not band[~inside].any()
        assert not band.flags.writeable
        with pytest.raises(ValueError):
            band[size // 2, HALF_BAND] = 0.0


def test_d_dx_quadratic_example(grid256):
    out = d_dx(grid256.x ** 2, grid256)
    assert np.abs(out - 2 * grid256.x).max() < 1e-12


def test_d_dx_fourth_order_convergence():
    errs = []
    for size in (256, 512):
        g = build_grid(size)
        err = d_dx(np.sin(3.0 * g.x), g) - 3.0 * np.cos(3.0 * g.x)
        errs.append(np.abs(err).max())
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 21.0


def test_d_ds_values(grid256):
    out = d_ds(grid256.x.copy(), grid256)
    assert out[0] == 0.0 and out[-1] == 0.0
    assert out[128] == pytest.approx(0.25, abs=1e-13)
    assert np.abs(d_ds(np.full(257, 1.3), grid256)).max() == 0.0


def test_d_ds_of_chart_variable(grid512):
    # s = log(x/(1-x)) has d/ds = 1; its derivatives blow up like x^-5 near
    # the ends, so the identity is checked away from the boundary band
    # (stencil error ~ 0.8 (dx/x)^4 there)
    interior = slice(40, -40)
    s = np.zeros(grid512.size + 1)
    s[1:-1] = np.log(grid512.x[1:-1] / (1.0 - grid512.x[1:-1]))
    s[0], s[-1] = s[1], s[-2]  # placeholder endpoint values, excluded below
    out = d_ds(s, grid512)
    assert np.abs(out[interior] - 1.0).max() < 1e-5


def test_integrate_background_density():
    for n in (1, 2, 3):
        g = build_grid(256)
        cfg = ManifoldConfig(n=n, grid=g)
        form = background(cfg).form
        density = wedge_density(form, n, form, n)
        assert integrate_ds(density, g) == pytest.approx((n + 1) ** n, abs=1e-12)


def test_integrate_a0_profile(grid256):
    a0 = 2.0 * grid256.xm
    assert integrate_ds(a0, grid256) == pytest.approx(2.0, abs=1e-13)


def test_integrate_zero(grid256):
    assert integrate_ds(np.zeros(257), grid256) == 0.0


def test_integrate_linearity(grid256, rng):
    f = grid256.xm * rng.standard_normal(257)
    g = grid256.xm * rng.standard_normal(257)
    a, b = 1.7, -0.4
    lhs = integrate_ds(a * f + b * g, grid256)
    rhs = a * integrate_ds(f, grid256) + b * integrate_ds(g, grid256)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_integrate_fourth_order_convergence():
    # smooth integrand vanishing at the endpoints: f/xm = sin(pi x)^2 * cos(x)
    vals = []
    for size in (256, 512):
        g = build_grid(size)
        f = g.xm * np.sin(np.pi * g.x) ** 2 * np.cos(g.x)
        vals.append(integrate_ds(f, g))
    truth = integrate_ds(
        build_grid(8192).xm * np.sin(np.pi * build_grid(8192).x) ** 2
        * np.cos(build_grid(8192).x), build_grid(8192))
    ratio = abs(vals[0] - truth) / abs(vals[1] - truth)
    assert 10.0 < ratio < 24.0


def test_integrate_flags_divergent_integrand(grid1024):
    with pytest.raises(DivergentIntegrand):
        integrate_ds(np.full(grid1024.size + 1, 1e7), grid1024)


@pytest.mark.parametrize("side", [3, -4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrate_flags_nonfinite_endpoint(grid256, side, bad):
    # one non-finite quotient next to an endpoint makes its extrapolation
    # NaN or infinite; no silent NaN comes back
    f = grid256.xm * np.cos(grid256.x)
    f[side] = bad
    endpoint = over_xm(f, grid256)[0 if side > 0 else -1]
    assert not np.isfinite(endpoint)
    with pytest.raises(DivergentIntegrand):
        integrate_ds(f, grid256)


def test_over_xm_bits_match_the_plain_extrapolation(grid512, rng):
    for _ in range(50):
        f = grid512.xm * rng.standard_normal(grid512.size + 1)
        ref = np.empty_like(f)
        ref[1:-1] = f[1:-1] / grid512.xm[1:-1]
        ref[0] = (6.0 * ref[1] - 15.0 * ref[2] + 20.0 * ref[3] - 15.0 * ref[4]
                  + 6.0 * ref[5] - ref[6])
        ref[-1] = (6.0 * ref[-2] - 15.0 * ref[-3] + 20.0 * ref[-4] - 15.0 * ref[-5]
                   + 6.0 * ref[-6] - ref[-7])
        assert over_xm(f, grid512).tobytes() == ref.tobytes()


def test_integrate_accepts_large_but_admissible(grid256):
    f = 1e6 * grid256.xm
    assert integrate_ds(f, grid256) == pytest.approx(2e6 / 2.0 * 1.0, rel=1e-10)


def test_cumulative_dx_matches_antiderivative(grid256):
    f = np.cos(2.0 * grid256.x)
    out = cumulative_dx(f, grid256)
    expected = 0.5 * np.sin(2.0 * grid256.x)
    assert np.abs(out - expected).max() < 1e-11


def test_shape_mismatch_rejected(grid256):
    with pytest.raises(ValueError):
        d_dx(np.zeros(100), grid256)
    with pytest.raises(ValueError):
        integrate_ds(np.zeros(100), grid256)
