import ast
import dataclasses
import math
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from conftest import COARSE_NEGATIVE_NORM
from krflow import flow, functionals, geometry
from krflow.calculus import build_grid, cumulative_dx, d_ds, d_dx, integrate_ds
from krflow.errors import (
    ConfigError,
    DivergentIntegrand,
    ExpressionMismatch,
    KrflowError,
    NotInPotentialSpace,
)
from krflow.functionals import (
    Energies,
    c_omega_estimate,
    dirichlet,
    e1_coefficients,
    evaluate,
    fubini_study_reference,
    futaki_of_state,
    j_energy,
    k_energy_coefficients,
    make_reference,
    re_reference,
    ricci_potential,
    weighted_sum,
)
from krflow.geometry import (
    ManifoldConfig,
    RadialForm,
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

ZERO = RadialPotential((0.0,))


def gauss_path_integral(func, nodes=32):
    """Integral over t in [0,1] of func(t) by Gauss-Legendre quadrature."""
    points, weights = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (points + 1.0)
    return 0.5 * sum(w * func(ti) for w, ti in zip(weights, t))


def test_coefficient_systems():
    assert list(k_energy_coefficients(2)) == [2.0, -1.0, -1.0]
    assert list(k_energy_coefficients(3)) == [3.0, -1.0, -1.0, -1.0]
    assert list(e1_coefficients(1)) == [0.0, 0.0]
    assert list(e1_coefficients(2)) == [1.0, 1.0, -2.0]
    assert list(e1_coefficients(3)) == [2.0, 2.0, -2.0, -2.0]
    for n in (1, 2, 3):
        assert sum(k_energy_coefficients(n)) == 0.0
        assert sum(e1_coefficients(n)) == 0.0


def test_ricci_potential_background(fs_ref1):
    assert np.abs(fs_ref1.h).max() == 0.0
    assert fs_ref1.c0 == 0.0 and fs_ref1.c1 == 0.0


def test_ricci_potential_defining_equation():
    cfg = ManifoldConfig(n=2, grid=build_grid(1024))
    state = make_state(cfg, RadialPotential((0.0, 0.2, 0.1)))
    h = ricci_potential(state)
    defect = d_ds(h, cfg.grid) - (state.ricci.b - state.form.b)
    assert np.abs(defect).max() <= 1e-6


def test_ricci_potential_normalization(bent_ref1):
    state = bent_ref1.state
    cfg = state.config
    value = average((np.exp(bent_ref1.h) - 1.0) * bent_ref1.state.density, cfg)
    assert abs(value) <= 1e-10


def test_ricci_potential_rejects_bad_endpoints(bent_ref1):
    state = bent_ref1.state
    # a copy of the state whose Ricci profile, derived when first read, is
    # preset to one that misses the endpoint condition
    doctored = dataclasses.replace(state)
    doctored.__dict__["_ricci"] = (RadialForm(a=state.ricci.a, b=state.ricci.b + 1.0),
                                   state.ricci_db)
    with pytest.raises(NotInPotentialSpace):
        ricci_potential(doctored)


def test_ricci_potential_rejects_a_nonpositive_normalization():
    # a coarse grid can make the normalizing quadrature of an admissible
    # state negative: a typed error, not a math domain error
    cfg = ManifoldConfig(n=2, grid=build_grid(16))
    state = make_state(cfg, RadialPotential(COARSE_NEGATIVE_NORM))
    with pytest.raises(DivergentIntegrand, match=r"is -1178\.69,"):
        ricci_potential(state)


def _finite_or_typed(label, entry):
    """``entry()``'s values are all finite, or it raises a KrflowError."""
    try:
        values = entry()
    except KrflowError:
        return
    assert all(np.all(np.isfinite(v)) for v in values), label


def test_public_entry_points_at_the_cone_boundary():
    # seeded candidates with coefficients far beyond the sampler's, many of
    # them near the edge of the positive cone and on coarse grids: at every
    # admissible state each public entry point returns finite values or
    # raises a KrflowError (about 1,150 states in 6,000 candidates)
    rng = np.random.default_rng(20240901)
    configs = {}
    small = RadialPotential((0.0, 0.01, -0.005))
    admissible = 0
    for _ in range(6000):
        n, size = int(rng.integers(1, 4)), int(rng.choice((16, 32, 64)))
        coeffs = rng.uniform(-3.0, 3.0, 9)
        cfg = configs.setdefault((n, size), ManifoldConfig(n=n, grid=build_grid(size)))
        try:
            state = make_state(cfg, RadialPotential(coeffs))
        except NotInPotentialSpace:
            continue
        admissible += 1
        label = (n, size, coeffs.tolist())
        for entry in (lambda: (state.ahat, state.bhat, state.log_density, state.density),
                      lambda: (scalar_curvature(state),),
                      lambda: (futaki_of_state(state),),
                      lambda: attrgetter("h", "c0", "c1")(make_reference(state)),
                      lambda: attrgetter("j", "j_mixed", "nu", "e1", "dirichlet", "residual")(
                          evaluate(make_reference(state), small))):
            _finite_or_typed(label, entry)
    assert admissible > 1000


def test_j_energy_zero_and_constant(fs_ref1):
    assert j_energy(fs_ref1, ZERO) == 0.0
    assert abs(j_energy(fs_ref1, RadialPotential((1.3,)))) <= 1e-12


def test_j_energy_closed_form():
    cfg = ManifoldConfig(n=1, grid=build_grid(1024))
    ref = make_reference(make_state(cfg, ZERO))
    for eps in (0.1, 0.3):
        assert j_energy(ref, RadialPotential((0.0, eps))) == \
            pytest.approx(eps ** 2 / 24.0, abs=1e-7)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_j_energy_expressions_agree_and_nonnegative(n, rng):
    cfg = ManifoldConfig(n=n, grid=build_grid(512))
    from krflow.functionals import fubini_study_reference
    ref = fubini_study_reference(cfg)
    for phi in sample_admissible(cfg, rng, 5):
        report = evaluate(ref, phi)
        assert abs(report.j - report.j_mixed) <= 1e-6 * (1.0 + abs(report.j))
        assert report.j >= -1e-12


def test_j_energy_mismatch_raises(rng):
    # on a 32-panel grid J's two forms differ by more than 1e-6 relative:
    # j_energy refuses, while evaluate reports both forms unjudged
    cfg = ManifoldConfig(n=2, grid=build_grid(32))
    ref = make_reference(make_state(cfg, ZERO))
    phi = sample_admissible(cfg, rng, 1)[0]
    report = evaluate(ref, phi)
    assert abs(report.j - report.j_mixed) > 1e-6 * (1.0 + abs(report.j))
    energies = evaluate(ref, phi)
    assert (report.j, report.j_mixed) == (energies.j, energies.j_mixed)
    with pytest.raises(ExpressionMismatch):
        j_energy(ref, phi)


def test_k_energy_zero_and_constant(fs_ref1, bent_ref1):
    for ref in (fs_ref1, bent_ref1):
        assert evaluate(ref, ZERO).nu == 0.0
        assert abs(evaluate(ref, RadialPotential((0.8,))).nu) <= 1e-8


def test_k_energy_path_integral_oracle():
    # nu(phi) equals the integral of its derivative along phi_t = t phi
    cfg = ManifoldConfig(n=1, grid=build_grid(512))
    from krflow.functionals import fubini_study_reference
    ref = fubini_study_reference(cfg)
    phi = RadialPotential((0.0, 0.2))
    xi = phi.values(cfg.grid)
    n = cfg.n

    def derivative(t):
        state = make_state(cfg, phi.scaled(t))
        density = wedge_density(state.form, n, state.form, n)
        return -0.5 * average(xi * (scalar_curvature(state) - 2.0 * n) * density, cfg)

    oracle = gauss_path_integral(derivative)
    assert evaluate(ref, phi).nu == pytest.approx(oracle, abs=1e-5)


def test_k_energy_synthetic_matches_direct_display(fs_ref2, rng):
    # the display with +phi inside the entropy term and the plain mixed sum
    cfg = fs_ref2.config
    n = cfg.n
    for phi in sample_admissible(cfg, rng, 3):
        values = phi.values(cfg.grid)
        state = make_state(cfg, fs_ref2.state.phi_total + values)
        density = wedge_density(state.form, n, state.form, n)
        log_rel = state.log_density - fs_ref2.state.log_density
        entropy = average((log_rel + values - fs_ref2.h) * density, cfg)
        mixed = weighted_sum(np.ones(n + 1), evaluate(fs_ref2, phi).uncentered)
        direct = entropy - mixed + fs_ref2.c0
        assert evaluate(fs_ref2, phi).nu == pytest.approx(direct, abs=1e-7)


def test_e1_energy_zero_and_constant(fs_ref2, bent_ref2):
    for ref in (fs_ref2, bent_ref2):
        assert evaluate(ref, ZERO).e1 == 0.0
        assert abs(evaluate(ref, RadialPotential((-0.4,))).e1) <= 1e-8


def test_e1_energy_path_integral_oracle():
    cfg = ManifoldConfig(n=2, grid=build_grid(512))
    from krflow.functionals import fubini_study_reference
    ref = fubini_study_reference(cfg)
    phi = RadialPotential((0.0, 0.2))
    xi = phi.values(cfg.grid)
    n = cfg.n

    def derivative(t):
        state = make_state(cfg, phi.scaled(t))
        lap = laplacian(state, xi)
        ric_wedge = wedge_density(state.ricci, 1, state.form, n)
        value = average(lap * ric_wedge, cfg)
        ric_sq = wedge_density(state.ricci, 2, state.form, n)
        full = wedge_density(state.form, n, state.form, n)
        value -= (n - 1) * average(xi * (ric_sq - full), cfg)
        return value

    oracle = gauss_path_integral(derivative)
    assert evaluate(ref, phi).e1 == pytest.approx(oracle, abs=1e-5)


def test_flow_velocity_fixed_point(fs_ref1):
    v = evaluate(fs_ref1, ZERO).velocity
    assert np.abs(v).max() == 0.0


def test_flow_velocity_constant_shift(fs_ref1):
    v = evaluate(fs_ref1, RadialPotential((0.9,))).velocity
    assert np.abs(v - 0.9).max() <= 1e-11


def test_flow_velocity_profile_identity(bent_ref2, rng):
    cfg = bent_ref2.config
    phi = sample_admissible(cfg, rng, 1, base=bent_ref2.state)[0]
    from krflow.geometry import state_from
    state = state_from(bent_ref2.state, phi)
    v = evaluate(bent_ref2, phi).velocity
    defect = d_ds(v, cfg.grid) - (state.form.b - state.ricci.b)
    assert np.abs(defect).max() <= 1e-6


def test_dirichlet_values(fs_ref1):
    g = fs_ref1.grid
    assert dirichlet(fs_ref1.state, np.full(g.size + 1, 2.0)) == 0.0
    # background n=1, v = x: average of (x(1-x))^2 /(x(1-x)) over volume 2
    assert dirichlet(fs_ref1.state, g.x.copy()) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_dirichlet_nonnegative(fs_ref2, rng):
    for phi in sample_admissible(fs_ref2.config, rng, 5):
        state = make_state(fs_ref2.config, phi)
        v = evaluate(fs_ref2, phi).velocity
        assert dirichlet(state, v) >= 0.0


def test_identity_residual_at_zero(fs_ref1, bent_ref1):
    assert evaluate(fs_ref1, ZERO).residual == 0.0
    res = evaluate(bent_ref1, ZERO).residual
    expected = -dirichlet(bent_ref1.state, -bent_ref1.h)
    assert res == pytest.approx(expected, abs=1e-15)
    assert res <= 0.0


def test_identity_residual_constancy(fs_ref1, rng):
    cfg = fs_ref1.config
    residuals = [evaluate(fs_ref1, ZERO).residual]
    residuals += [evaluate(fs_ref1, phi).residual
                  for phi in sample_admissible(cfg, rng, 6)]
    assert max(residuals) - min(residuals) <= 1e-5


def test_futaki_background_exactly_zero():
    for n in (1, 2, 3):
        for size in (128, 512, 1024):
            assert futaki_of_state(background(ManifoldConfig(n=n, grid=build_grid(size)))) == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_futaki_vanishes_and_reference_independent(n, rng):
    cfg = ManifoldConfig(n=n, grid=build_grid(512))
    values = []
    for psi in sample_admissible(cfg, rng, 3):
        values.append(futaki_of_state(make_state(cfg, psi)))
    assert max(abs(v) for v in values) <= 1e-6
    assert max(abs(a - b) for a in values for b in values) <= 1e-6


def _futaki_of_solved_h(state):
    """The invariant from the solved Ricci potential: average(d_ds h * density)."""
    h = make_reference(state).h
    return average(d_ds(h, state.grid) * state.density, state.config)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_futaki_of_state_reads_the_ricci_profile(n):
    # d_ds h = B_ric - B, so the invariant read off a state's Ricci profile
    # and the one from its solved Ricci potential (cumulative integral, then
    # d_ds again) differ only by the error of solving for h. That error is
    # 5e-13 on the bent reference at N = 512. On the sampler's degree-8
    # potentials it reaches 2.3e-8 at N = 512 and falls at fourth order (16x
    # per doubling; 4.1e-12 at N = 2048 on these five, measured). The exact
    # invariant of CP^n is 0, and the value read off the profile is the
    # closer of the two
    bent = RadialPotential((0.0, 0.2, 0.1))
    rng = np.random.default_rng(11)
    psis = sample_admissible(ManifoldConfig(n=n, grid=build_grid(512)), rng, 5)
    gaps, profile, solved = [], [], []
    for size in (512, 1024, 2048):
        cfg = ManifoldConfig(n=n, grid=build_grid(size))
        if size == 512:
            state = make_state(cfg, bent)
            assert abs(futaki_of_state(state) - _futaki_of_solved_h(state)) <= 1e-11
        states = [make_state(cfg, psi) for psi in psis]
        new = [futaki_of_state(s) for s in states]
        old = [_futaki_of_solved_h(s) for s in states]
        gaps.append(max(abs(a - b) for a, b in zip(new, old)))
        profile.append(max(abs(v) for v in new))
        solved.append(max(abs(v) for v in old))
    assert gaps[0] / gaps[1] > 8.0 and gaps[1] / gaps[2] > 8.0
    assert gaps[2] <= 2e-11
    assert all(a < b for a, b in zip(profile, solved))


def test_re_reference_identity(fs_ref1, rng):
    same = re_reference(fs_ref1, ZERO)
    phi = sample_admissible(fs_ref1.config, rng, 1)[0]
    assert j_energy(same, phi) == pytest.approx(j_energy(fs_ref1, phi), abs=1e-14)
    assert evaluate(same, phi).nu == pytest.approx(evaluate(fs_ref1, phi).nu, abs=1e-14)
    assert evaluate(same, phi).e1 == pytest.approx(evaluate(fs_ref1, phi).e1, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_cocycle_nu_e1(n, rng):
    cfg = ManifoldConfig(n=n, grid=build_grid(512))
    from krflow.functionals import fubini_study_reference
    ref = fubini_study_reference(cfg)
    p1, p2 = sample_admissible(cfg, rng, 2, coeff_bound=0.2)
    ref1 = re_reference(ref, p1)
    for name in ("nu", "e1"):
        total = getattr(evaluate(ref, p2), name)
        split = getattr(evaluate(ref, p1), name) + getattr(evaluate(ref1, p2 - p1), name)
        scale = max(abs(total), abs(split))
        assert abs(total - split) <= 1e-6 * (1.0 + scale)


def test_mixed_sum_constant_telescoping(fs_ref2):
    const = RadialPotential((0.6,))
    n = fs_ref2.config.n
    uncentered = evaluate(fs_ref2, const).uncentered
    assert abs(weighted_sum(k_energy_coefficients(n), uncentered)) <= 1e-8
    assert abs(weighted_sum(e1_coefficients(n), uncentered)) <= 1e-8


def test_mixed_sum_all_ones_derivative(fs_ref2, rng):
    # d/dt of the (n+1)-normalized all-ones mixed sum is the average of the
    # velocity against the evolved volume
    cfg = fs_ref2.config
    n = cfg.n
    phi = sample_admissible(cfg, rng, 1)[0]
    xi = RadialPotential(rng.uniform(-0.2, 0.2, 9))
    dt = 1e-4
    ones = np.ones(n + 1)
    plus, minus = (weighted_sum(ones, evaluate(fs_ref2, phi + xi.scaled(s)).uncentered)
                   for s in (dt, -dt))
    lhs = (plus - minus) / (2.0 * dt)
    state = make_state(cfg, phi)
    rhs = average(xi.values(cfg.grid) * wedge_density(state.form, n, state.form, n), cfg)
    assert abs(lhs - rhs) <= 1e-5 * (1.0 + abs(rhs))


def test_shift_invariance(fs_ref2, rng):
    phi = sample_admissible(fs_ref2.config, rng, 1)[0]
    shifted = phi + RadialPotential((5.0,))
    assert abs(j_energy(fs_ref2, shifted) - j_energy(fs_ref2, phi)) <= 1e-8
    assert abs(evaluate(fs_ref2, shifted).nu - evaluate(fs_ref2, phi).nu) <= 1e-8
    assert abs(evaluate(fs_ref2, shifted).e1 - evaluate(fs_ref2, phi).e1) <= 1e-8
    assert abs(evaluate(fs_ref2, shifted).residual
               - evaluate(fs_ref2, phi).residual) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_own_state_mixed_averages_vanish(n):
    # at a reference's own state every mixed average is exactly 0.0, so E1's
    # weights add nothing: the suite reads the diagonal axiom and C_omega off
    # one Energies per reference, at the mutated weights
    cfg = ManifoldConfig(n=n, grid=build_grid(128))
    ref = make_reference(make_state(cfg, RadialPotential((0.0, 0.2, 0.1))))
    zeros = np.zeros_like(ref.state.phi_total)
    own = Energies(ref, ref.state, zeros)
    assert all(m == 0.0 for m in own.mixed)
    for offset in (0.1, -3.5):
        coeffs = e1_coefficients(n)
        coeffs[1] += offset
        assert Energies(ref, ref.state, zeros, coeffs).e1.hex() == own.e1.hex()


def test_evaluate_report(rng, monkeypatch):
    # at n = 1, 2, 3 and both references, evaluate's Energies share one
    # state build and one set of mixed averages among J, nu, E1 and the
    # residual, and give each the same bits as a fresh evaluate. Its energies
    # are computed when first read, so the tally reads all six
    calls, quadratures = [], []

    def read(energies):
        attrgetter("j", "j_mixed", "nu", "e1", "dirichlet", "residual")(energies)
        return energies

    def counted(*args):
        calls.append(args)
        return wedge_density(*args)

    def integrated(*args):
        quadratures.append(args)
        return integrate_ds(*args)

    def tally(func):
        calls.clear()
        quadratures.clear()
        return func(), len(calls), len(quadratures)

    for n in (1, 2, 3):
        cfg = ManifoldConfig(n=n, grid=build_grid(512))
        for ref in (make_reference(make_state(cfg, ZERO)),
                    make_reference(make_state(cfg, RadialPotential((0.0, 0.2, 0.1))))):
            phi = sample_admissible(cfg, rng, 1, base=ref.state)[0]
            state = make_state(cfg, ref.state.phi_total + phi.values(cfg.grid))
            with monkeypatch.context() as patch:
                for module in (geometry, functionals):
                    patch.setattr(module, "wedge_density", counted)
                    patch.setattr(module, "integrate_ds", integrated)
                report, wedges, averages = tally(lambda: read(evaluate(ref, phi)))
                at_ref = tally(lambda: c_omega_estimate(ref))[1:]
                at_record = tally(lambda: flow._record(ref, state, 0.0))[1:]
            # each quantity is taken once. Wedges: the state's volume density,
            # the n - 1 inner wedges and E1's entropy density; the outer two
            # wedges are the state's and the reference's volume densities.
            # Averages: the n + 1 mixed ones, n for J's gradient form and one
            # each for nu, E1 and the Dirichlet term. Neither the reference's
            # own state nor a flow record's state reads J; the reference's
            # volume density was read when it was made, the record's state
            # derives its own on first read, and a record adds the Futaki
            # invariant. The constant C_omega at the reference is its one
            # Dirichlet term
            assert (wedges, averages) == (n + 1, 2 * n + 4), n
            assert at_ref == (0, 1) and at_record == (n + 1, n + 5), n
            assert report.j == j_energy(ref, phi)
            assert report.nu == evaluate(ref, phi).nu
            assert report.e1 == evaluate(ref, phi).e1
            assert report.residual == evaluate(ref, phi).residual
            assert report.dirichlet == dirichlet(state, evaluate(ref, phi).velocity)
            assert report.j >= 0.0
            assert report.dirichlet >= 0.0
            assert report.residual == pytest.approx(
                report.e1 - 2.0 * report.nu - report.dirichlet, abs=1e-15)
            assert report.ref is ref


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fubini_study_orbit_oracle(n):
    # the maps z -> mu z carry Fubini-Study to Kahler-Einstein metrics whose
    # potentials are phi = (n+1) log(1 + (lam - 1) x), lam = |mu|^2. There
    # nu, E1, Dirichlet(velocity) and the residual vanish and J's two forms
    # agree exactly, while J grows with |log lam| (Bando & Mabuchi 1987):
    # the exact values are the oracle
    reports = {}
    for size, lams in ((512, (10.0,)), (1024, (0.5, 2.0, 10.0))):
        ref = fubini_study_reference(ManifoldConfig(n=n, grid=build_grid(size)))
        for lam in lams:
            reports[size, lam] = evaluate(ref, (n + 1) * np.log1p((lam - 1.0) * ref.grid.x))
    for lam in (0.5, 2.0):
        r = reports[1024, lam]
        assert max(abs(r.nu), abs(r.e1), abs(r.residual), abs(r.j - r.j_mixed)) <= 1e-10, lam
        assert r.dirichlet <= 1e-15, lam
    # at lam = 10 the potential bends on a scale of 1/lam near x = 0: the
    # stencils' error is larger there, and falls at about fourth order
    for name in ("nu", "e1", "residual"):
        fine = abs(getattr(reports[1024, 10.0], name))
        assert fine <= 2e-7 and abs(getattr(reports[512, 10.0], name)) >= 6.0 * fine, name
    assert reports[1024, 10.0].j > reports[1024, 2.0].j > 0.0


# per n, bounds at N = 1024 on the largest |change| of nu, E1 and the
# Dirichlet term under the automorphisms below; the defects measured at seed
# 19 are (2.8e-10, 2.1e-8, 5.6e-9), (6.8e-10, 1.4e-8, 3.2e-9) and
# (5.0e-9, 2.3e-7, 1.3e-7)
ORBIT_BOUNDS = {1: (1e-9, 6e-8, 2e-8), 2: (2e-9, 5e-8, 1e-8), 3: (2e-8, 7e-7, 4e-7)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_automorphism_orbit_oracle_on_the_cone(n):
    # z -> mu z (lam = |mu|^2) moves x to lam x / (1 + (lam - 1) x) and pulls
    # the metric of phi back to the metric of
    #     sigma*phi = (n+1) log(1 + (lam - 1) x) + phi(lam x / (1 + (lam - 1) x)),
    # exact nodal values that share no code with the stencils. The Futaki
    # invariant vanishes, so nu, E1 and Dirichlet(velocity) are invariant
    # along the orbit, while J is not. The defects fall with the grid
    rng = np.random.default_rng(19)
    samples = sample_admissible(ManifoldConfig(n=n, grid=build_grid(512)), rng, 3)
    names = ("nu", "e1", "dirichlet")
    worst, j_move = {}, math.inf
    for size in (512, 1024):
        ref = fubini_study_reference(ManifoldConfig(n=n, grid=build_grid(size)))
        x = ref.grid.x
        worst[size] = [0.0] * len(names)
        for phi in samples:
            energies = evaluate(ref, phi)
            for lam in (0.5, 2.0, 4.0):
                moved = lam * x / (1.0 + (lam - 1.0) * x)
                pulled = evaluate(ref, (n + 1) * np.log1p((lam - 1.0) * x)
                                  + np.polynomial.polynomial.polyval(moved, phi.coeffs))
                worst[size] = [max(w, abs(getattr(pulled, name) - getattr(energies, name)))
                               for w, name in zip(worst[size], names)]
                j_move = min(j_move, abs(pulled.j - energies.j))
    for name, fine, coarse, bound in zip(names, worst[1024], worst[512], ORBIT_BOUNDS[n]):
        assert fine <= bound and coarse >= 6.0 * fine, (name, fine, coarse)
    assert j_move >= 0.01


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluate_returns_the_energies_of_its_state(n, rng):
    # evaluate is the one way from a potential to its energies: it returns
    # the Energies of the state_from state, whose six values are those of a
    # directly built Energies, bit for bit
    cfg = ManifoldConfig(n=n, grid=build_grid(256))
    ref = make_reference(make_state(cfg, RadialPotential((0.0, 0.2, 0.1))))
    phi = sample_admissible(cfg, rng, 1, base=ref.state)[0]
    energies = evaluate(ref, phi)
    assert isinstance(energies, Energies) and energies.ref is ref
    values = phi.values(cfg.grid)
    direct = Energies(ref, state_from(ref.state, values), values)
    for name in ("j", "j_mixed", "nu", "e1", "dirichlet", "residual"):
        assert getattr(energies, name).hex() == getattr(direct, name).hex(), name


def test_energy_weighting_stays_in_functionals():
    # which averages each energy weights, and with which coefficients, is
    # decided in functionals alone, and how a potential becomes a checked
    # nodal array in geometry alone: the flow and the suite read the public
    # names of both and no private one
    package = Path(functionals.__file__).parent
    owners = ("functionals", "geometry")
    for module in ("flow.py", "verification.py"):
        tree = ast.parse((package / module).read_text())
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module in owners
                   for alias in node.names if alias.name.startswith("_")]
        private += [node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in owners]
        assert not private, (module, private)


@pytest.fixture(scope="module")
def nodal_entry_points():
    """Each public entry point that takes a nodal array, as a one-argument
    call and the error a non-finite node raises there: NotInPotentialSpace
    where the array is a potential, DivergentIntegrand where it is a profile
    to differentiate or integrate."""
    config = ManifoldConfig(n=2, grid=build_grid(64))
    g = config.grid
    ref = fubini_study_reference(config)
    state = ref.state
    potentials = {
        "make_state": lambda v: make_state(config, v),
        "state_from": lambda v: state_from(state, v),
        "evaluate": lambda v: evaluate(ref, v),
        "j_energy": lambda v: j_energy(ref, v),
        "run": lambda v: flow.run(flow.FlowConfig(manifold=config, initial=v, t_max=0.01)),
    }
    # ``Energies`` integrates its values against the wedges on construction,
    # and a wedge density is integrated where it is used
    integrands = {
        "Energies": lambda v: Energies(ref, state, v),
        "wedge_density": lambda v: average(wedge_density(RadialForm(a=v, b=v), 1, state.form, 2),
                                           config),
        "d_dx": lambda v: d_dx(v, g),
        "d_ds": lambda v: d_ds(v, g),
        "integrate_ds": lambda v: integrate_ds(v, g),
        "average": lambda v: average(v, config),
        "cumulative_dx": lambda v: cumulative_dx(v, g),
        "laplacian": lambda v: laplacian(state, v),
        "dirichlet": lambda v: dirichlet(state, v),
    }
    points = {name: (call, NotInPotentialSpace) for name, call in potentials.items()}
    points.update((name, (call, DivergentIntegrand)) for name, call in integrands.items())
    return g, points


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["make_state", "state_from", "evaluate", "j_energy", "run",
                                  "Energies", "wedge_density", "d_dx", "d_ds", "integrate_ds",
                                  "average", "cumulative_dx", "laplacian", "dirichlet"])
def test_malformed_nodal_input_raises_typed_errors(nodal_entry_points, name):
    # a nodal array of the wrong length is a ConfigError (a ValueError too);
    # a non-finite node is an error of the array's role, never a NaN result
    # and never a warning. The well-formed array passes, so the errors come
    # from the bad node
    g, points = nodal_entry_points
    call, nonfinite_error = points[name]
    good = 0.1 * g.x * g.xm
    call(good)
    for wrong in (good[:-1], np.append(good, 0.0), good.reshape(1, -1)):
        with pytest.raises(ConfigError, match="does not match") as info:
            call(wrong)
        assert isinstance(info.value, ValueError)
    for bad in (np.nan, np.inf):
        values = good.copy()
        values[g.size // 3] = bad
        with pytest.raises(nonfinite_error):
            call(values)


def test_every_exported_name_resolves():
    # ``from krflow import *`` imports each name in ``__all__``; the energies
    # are read through ``Energies``, which the package exports
    import krflow
    namespace = {}
    exec("from krflow import *", namespace)
    assert set(krflow.__all__) <= namespace.keys()
    assert len(set(krflow.__all__)) == len(krflow.__all__)
    assert namespace["Energies"] is Energies


def test_state_and_energies_keep_read_only_copies(fs_ref1):
    # a state and its energies keep read-only copies of the arrays they are
    # handed: a later write to the caller's array reaches neither
    a = np.array(RadialPotential((0.0, 0.1, 0.05)).values(fs_ref1.grid))
    before = a.copy()
    state = make_state(fs_ref1.config, a)
    energies = Energies(fs_ref1, state, a)
    a[:] = 5.0
    for kept in (state.phi_total, energies.values):
        np.testing.assert_array_equal(kept, before)
        assert not kept.flags.writeable
