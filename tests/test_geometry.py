import ast
from pathlib import Path

import numpy as np
import pytest

from krflow import _kernels, geometry
from krflow.calculus import build_grid, d_ds, d_dx, integrate_ds
from krflow.errors import ConfigError, NotInPotentialSpace
from krflow.geometry import (
    ManifoldConfig,
    RadialPotential,
    average,
    background,
    laplacian,
    make_state,
    sample_admissible,
    scalar_curvature,
    state_from,
    wedge_density,
)


def test_manifold_config_rejects_bad_dimension(grid256):
    for bad in (0, 4, -1):
        with pytest.raises(ConfigError):
            ManifoldConfig(n=bad, grid=grid256)


def test_background_values(config1):
    bg = background(config1)
    mid = config1.grid.size // 2
    assert bg.form.b[mid] == pytest.approx(1.0, abs=1e-14)
    assert bg.form.a[mid] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_background_is_einstein(n):
    cfg = ManifoldConfig(n=n, grid=build_grid(1024))
    bg = background(cfg)
    assert np.abs(bg.ricci.b - bg.form.b).max() <= 1e-10
    assert np.abs(bg.ricci.a - bg.form.a).max() <= 1e-10
    assert np.abs(bg.log_density).max() <= 1e-10
    assert np.abs(scalar_curvature(bg) - 2.0 * n).max() <= 1e-8


def test_constant_potential_gives_background(config2):
    state = make_state(config2, RadialPotential((0.7,)))
    bg = background(config2)
    assert np.abs(state.form.b - bg.form.b).max() < 1e-11
    assert np.abs(state.log_density).max() < 1e-11


def test_make_state_linear_potential_formula(config1):
    state = make_state(config1, RadialPotential((0.0, 0.3)))
    expected = 1.0 + 0.15 * (1.0 - config1.grid.x)
    assert np.abs(state.bhat - expected).max() < 1e-12
    assert state.bhat.min() > 0


def test_make_state_rejects_steep_potential(config1):
    with pytest.raises(NotInPotentialSpace) as err:
        make_state(config1, RadialPotential((0.0, -10.0)))
    assert "not positive" in str(err.value)
    assert min(err.value.min_ahat, err.value.min_bhat) <= 0.0
    # the profiles behind the state build reject the same state
    g = config1.grid
    with pytest.raises(NotInPotentialSpace) as err:
        _kernels.profiles(-10.0 * g.x, g, 1)
    assert min(err.value.min_ahat, err.value.min_bhat) <= 0.0


def test_potential_degree_cap():
    with pytest.raises(ConfigError):
        RadialPotential(np.zeros(12))


def test_wedge_density_full_power(config2, rng):
    phi = sample_admissible(config2, rng, 1)[0]
    state = make_state(config2, phi)
    n = 2
    density = wedge_density(state.form, n, state.form, n)
    manual = n * state.form.a * state.form.b ** (n - 1)
    assert np.abs(density - manual).max() < 1e-12


def test_wedge_density_mixed(grid256, rng):
    for n in (1, 2, 3):
        cfg = ManifoldConfig(n=n, grid=grid256)
        state = make_state(cfg, sample_admissible(cfg, rng, 1)[0])
        f, g = background(cfg).form, state.form
        for k in range(n + 1):
            density = wedge_density(f, k, g, n)
            manual = (k * f.a * f.b ** max(k - 1, 0) * g.b ** (n - k)
                      + (n - k) * g.a * g.b ** max(n - k - 1, 0) * f.b ** k)
            assert np.abs(density - manual).max() < 1e-12, (n, k)


def test_wedge_density_skips_zero_multiplicity(config1, rng):
    phi = sample_admissible(config1, rng, 1)[0]
    state = make_state(config1, phi)
    bg = background(config1)
    density = wedge_density(bg.form, 0, state.form, 1)
    assert np.abs(density - state.form.a).max() == 0.0


def test_wedge_density_degree_mismatch(config2):
    bg = background(config2)
    for k, n in ((-1, 2), (3, 2), (0, 0)):
        with pytest.raises(ConfigError):
            wedge_density(bg.form, k, bg.form, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_density_returns_a_fresh_array(grid256, n):
    cfg = ManifoldConfig(n=n, grid=grid256)
    state = make_state(cfg, RadialPotential((0.0, 0.1)))
    bg = background(cfg)
    for f, k, g in ((state.form, n, state.form), (bg.form, 0, state.form),
                    (state.ricci, 1, state.form)):
        density = wedge_density(f, k, g, n)
        for form in (f, g):
            assert not np.shares_memory(density, form.a)
            assert not np.shares_memory(density, form.b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ricci_profile_matches_the_general_formula(grid512, rng, n):
    # at n = 1 the state build skips the (n - 1) q term; the bits must be
    # those of the full expression
    cfg = ManifoldConfig(n=n, grid=grid512)
    g = cfg.grid
    for phi in sample_admissible(cfg, rng, 3):
        state = make_state(cfg, phi)
        q, r = state.q, state.r
        general = n - (n - 1) * (g.omx + g.xm * d_dx(q, g) / q) \
            - ((1.0 - 2.0 * g.x) + g.xm * d_dx(r, g) / r)
        assert np.array_equal(state.ricci.b, general)
        assert state.ricci.b.tobytes() == general.tobytes()


def test_closed_form_exactness(config2, rng):
    # A = d_ds(B) for every constructed metric form, to discretization order
    for phi in sample_admissible(config2, rng, 3):
        state = make_state(config2, phi)
        assert np.abs(state.form.a - d_ds(state.form.b, config2.grid)).max() < 1e-7
        assert np.abs(state.ricci.a - d_ds(state.ricci.b, config2.grid)).max() < 1e-6


def test_ricci_class_total(config2, rng):
    # Ricci lies in the class of the metric: same mixed-wedge total
    n = config2.n
    for phi in sample_admissible(config2, rng, 3):
        state = make_state(config2, phi)
        ric_total = integrate_ds(
            wedge_density(state.ricci, 1, state.form, n), config2.grid)
        assert ric_total == pytest.approx((n + 1) ** n, abs=1e-6)


def test_ricci_independent_differentiation_path():
    # for n=1 the Ricci A-profile equals A0 - d2/ds2 of the log volume ratio
    cfg = ManifoldConfig(n=1, grid=build_grid(1024))
    state = make_state(cfg, RadialPotential((0.0, 0.1)))
    bg = background(cfg)
    direct = bg.form.a - d_ds(d_ds(state.log_density, cfg.grid), cfg.grid)
    assert np.abs(state.ricci.a - direct).max() <= 1e-6


def test_scalar_curvature_class_average(config2, rng):
    n = config2.n
    for phi in sample_admissible(config2, rng, 3):
        state = make_state(config2, phi)
        density = wedge_density(state.form, n, state.form, n)
        assert average(scalar_curvature(state) * density, config2) == \
            pytest.approx(2.0 * n, abs=1e-6)


def test_scalar_curvature_matches_definition(config2, rng):
    n = config2.n
    phi = sample_admissible(config2, rng, 1)[0]
    state = make_state(config2, phi)
    scal = scalar_curvature(state)
    ric_wedge = wedge_density(state.ricci, 1, state.form, n)
    full = wedge_density(state.form, n, state.form, n)
    interior = slice(1, -1)
    rewritten = 2.0 * n * ric_wedge[interior] / full[interior]
    assert np.abs(scal[interior] - rewritten).max() < 1e-9


def test_laplacian_kills_constants(config2, rng):
    phi = sample_admissible(config2, rng, 1)[0]
    state = make_state(config2, phi)
    out = laplacian(state, np.full(config2.grid.size + 1, 2.2))
    assert np.abs(out).max() == 0.0


def test_laplacian_zero_average(config2, rng):
    n = config2.n
    phi = sample_admissible(config2, rng, 1)[0]
    state = make_state(config2, phi)
    f = np.sin(2.0 * config2.grid.x)
    density = wedge_density(state.form, n, state.form, n)
    assert abs(average(laplacian(state, f) * density, config2)) <= 1e-6


def test_laplacian_direct_stencil_path(config1):
    # background n=1, f = x: Delta f = 2 d_ds(d_ds f) / A0 = 1 - 2x
    bg = background(config1)
    g = config1.grid
    out = laplacian(bg, g.x.copy())
    direct = 2.0 * d_ds(d_ds(g.x.copy(), g), g)[1:-1] / bg.form.a[1:-1]
    assert np.abs(out[1:-1] - direct).max() <= 1e-8
    assert np.abs(out - (1.0 - 2.0 * g.x)).max() <= 1e-10


def test_laplacian_self_adjoint(config2, rng):
    n = config2.n
    phi = sample_admissible(config2, rng, 1)[0]
    state = make_state(config2, phi)
    f = np.sin(2.0 * config2.grid.x)
    h = config2.grid.x ** 2
    density = wedge_density(state.form, n, state.form, n)
    lhs = average(f * laplacian(state, h) * density, config2)
    rhs = average(h * laplacian(state, f) * density, config2)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_laplacian_sign_and_gradient_identity(config2, rng):
    # avg f Delta f = -2n avg |df|^2 wedge metric^(n-1) <= 0
    n = config2.n
    phi = sample_admissible(config2, rng, 1)[0]
    state = make_state(config2, phi)
    f = np.cos(3.0 * config2.grid.x)
    density = wedge_density(state.form, n, state.form, n)
    lhs = average(f * laplacian(state, f) * density, config2)
    grad = d_ds(f, config2.grid) ** 2 * state.form.b ** (n - 1)
    rhs = -2.0 * n * average(grad, config2)
    assert lhs == pytest.approx(rhs, abs=1e-6)
    assert lhs <= 1e-8


def test_average_normalization(config2, rng):
    n = config2.n
    bg = background(config2)
    bg_density = wedge_density(bg.form, n, bg.form, n)
    assert average(bg_density, config2) == pytest.approx(1.0, abs=1e-12)
    assert average(np.zeros(config2.grid.size + 1), config2) == 0.0
    for phi in sample_admissible(config2, rng, 5):
        state = make_state(config2, phi)
        density = wedge_density(state.form, n, state.form, n)
        assert average(density, config2) == pytest.approx(1.0, abs=1e-8)


def test_class_invariance_many_samples(config1, rng):
    n = config1.n
    bg = background(config1)
    for phi in sample_admissible(config1, rng, 20):
        state = make_state(config1, phi)
        assert average(wedge_density(state.form, n, state.form, n), config1) == \
            pytest.approx(1.0, abs=1e-6)
        ric_mixed = integrate_ds(
            wedge_density(state.ricci, 1, state.form, n), config1.grid)
        ref_mixed = integrate_ds(
            wedge_density(bg.form, 1, state.form, n), config1.grid)
        assert abs(ric_mixed - ref_mixed) <= 1e-6 * (n + 1) ** n


def test_state_from_composes(config1, rng):
    p1, p2 = sample_admissible(config1, rng, 2, coeff_bound=0.15)
    base = make_state(config1, p1)
    combined = state_from(base, p2)
    direct = make_state(config1, p1 + p2)
    assert np.abs(combined.form.b - direct.form.b).max() < 1e-12


def test_sampler_determinism_and_margin(config1):
    a = sample_admissible(config1, np.random.default_rng(5), 4)
    b = sample_admissible(config1, np.random.default_rng(5), 4)
    assert all(pa.coeffs == pb.coeffs for pa, pb in zip(a, b))
    for phi in a:
        state = make_state(config1, phi)
        assert min(state.ahat.min(), state.bhat.min()) >= 0.3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampler_tries_derive_only_their_profiles(n, grid256, monkeypatch):
    # a try is a positivity test: its state build derives the profiles (two
    # stencil derivatives) and neither the volume density nor the Ricci
    # profile, with or without a base state
    config = ManifoldConfig(n=n, grid=grid256)
    base = make_state(config, RadialPotential((0.0, 0.2, 0.1)))
    counts = {"tries": 0, "wedge_density": 0, "d_dx": 0}

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(geometry, "make_state", "tries")
    counted(geometry, "state_from", "tries")
    counted(geometry, "wedge_density", "wedge_density")
    counted(geometry, "d_dx", "d_dx")
    counted(_kernels, "d_dx", "d_dx")
    rng = np.random.default_rng(7)
    drawn = sample_admissible(config, rng, 4) + sample_admissible(config, rng, 4, base=base)
    assert len(drawn) == 8 and counts["tries"] >= 8
    assert counts == {"tries": counts["tries"], "wedge_density": 0, "d_dx": 2 * counts["tries"]}


def test_potential_arithmetic(grid256):
    p = RadialPotential((1.0, 2.0))
    q = RadialPotential((0.5, 0.0, 1.0))
    s = p + q
    assert s.coeffs == (1.5, 2.0, 1.0)
    d = p - q
    assert d.coeffs == (0.5, 2.0, -1.0)
    assert p.scaled(2.0).coeffs == (2.0, 4.0)
    vals = s.values(grid256)
    manual = 1.5 + 2.0 * grid256.x + grid256.x ** 2
    assert np.abs(vals - manual).max() < 1e-15


@pytest.mark.parametrize("size", [16, 1024, 2048])
def test_potential_values_are_polyvals_bits(size):
    # Horner's rule in polyval's operation order: c[-1] + x*0 (+0.0 on the
    # nodes, so a -0.0 leading coefficient starts from +0.0), then c_k + acc*x
    grid = build_grid(size)
    rng = np.random.default_rng(size)
    for length in range(1, 10):
        for trial in range(8):
            coeffs = rng.uniform(-1.0, 1.0, length) * 10.0 ** rng.integers(-6, 7, length)
            if trial < 2:
                coeffs[-1] = (0.0, -0.0)[trial]
            phi = RadialPotential(coeffs)
            values = phi.values(grid)
            expected = np.polynomial.polynomial.polyval(grid.x, np.asarray(phi.coeffs))
            assert values.tobytes() == expected.tobytes(), (length, trial)
            assert not values.flags.writeable


def test_potential_holds_only_its_coefficients(grid256):
    # the nodal values are computed on each call and kept nowhere
    phi = RadialPotential((0.1, 0.2))
    assert RadialPotential.__slots__ == ("coeffs",)
    assert phi.values(grid256) is not phi.values(grid256)


def test_only_the_sampler_calls_make_state():
    # make_state is state_from_total under its first name; the benchmark
    # counts each call of it from sample_admissible as one sample try, so the
    # package builds every other state with state_from_total
    calls, sampled = set(), set()
    for path in Path(geometry.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "make_state" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.add(node)
            if isinstance(node, ast.FunctionDef) and node.name == "sample_admissible":
                sampled.update(ast.walk(node))
    assert calls and calls <= sampled
