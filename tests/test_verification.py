import numpy as np
import pytest

from krflow import flow, functionals, geometry, verification
from krflow.calculus import build_grid
from krflow.errors import ConfigError
from krflow.flow import FlowRecord, FlowTrace
from krflow.functionals import (
    e1_coefficients,
    evaluate,
    fubini_study_reference,
    j_energy,
    make_reference,
    re_reference,
    weighted_sum,
)
from krflow.geometry import (
    ManifoldConfig,
    RadialPotential,
    average,
    make_state,
    sample_admissible,
    scalar_curvature,
)
from krflow.verification import (
    COCYCLES,
    DEFAULT_TOLERANCES,
    IDENTITIES,
    SuiteConfig,
    VariationalCheck,
    cocycle_check,
    flow_checks,
    run_suite,
    tolerance,
    variational_check,
)

ZERO = RadialPotential((0.0,))


def _two_point_defect(f, ref, phi1, phi2):
    """|f(ref, phi2) - f(ref, phi1) - f(ref1, phi2 - phi1)| over 1 + the
    largest of the three, ref1 = re_reference(ref, phi1)."""
    total, first = f(ref, phi2), f(ref, phi1)
    second = f(re_reference(ref, phi1), phi2 - phi1)
    return abs(total - first - second) / (1.0 + max(abs(total), abs(first), abs(second)))


def test_rel_err_normalization():
    check = VariationalCheck(identity="DER_JFUNC", lhs=2.0, rhs=1.0, dt=1e-4)
    assert check.rel_err == pytest.approx(1.0 / 3.0)


def test_der_kenerg_critical_point(fs_ref1, rng):
    direction = RadialPotential(rng.uniform(-0.3, 0.3, 9))
    check = variational_check(fs_ref1, ZERO, direction)["DER_KENERG"]
    assert check.rhs == 0.0
    assert abs(check.lhs) <= 1e-6


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("identity", IDENTITIES)
def test_variational_identities_random(identity, n, rng):
    cfg = ManifoldConfig(n=n, grid=build_grid(512))
    ref = fubini_study_reference(cfg)
    for _ in range(2):
        base = sample_admissible(cfg, rng, 1)[0]
        direction = RadialPotential(rng.uniform(-0.3, 0.3, 9))
        check = variational_check(ref, base, direction, dt=1e-4)[identity]
        assert check.rel_err <= 1e-5


def test_der_j1fun_degenerate_dimension(fs_ref1, rng):
    base = sample_admissible(fs_ref1.config, rng, 1)[0]
    direction = RadialPotential(rng.uniform(-0.3, 0.3, 9))
    check = variational_check(fs_ref1, base, direction)["DER_J1FUN"]
    assert check.lhs == 0.0 and check.rhs == 0.0
    assert check.rel_err == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_variational_check_bits_match_each_functional(n, rng):
    # the shared states give the same bits as one central difference per
    # functional, with E1's b1 weight offset as the suite's mutation does
    cfg = ManifoldConfig(n=n, grid=build_grid(256))
    ref = fubini_study_reference(cfg)
    e1_coeffs = e1_coefficients(n)
    e1_coeffs[1] += 0.05
    base = sample_admissible(cfg, rng, 1)[0]
    direction = RadialPotential(rng.uniform(-0.3, 0.3, 9))
    dt = 1e-4
    functionals_ = {
        "DER_JFUNC": lambda p: weighted_sum(np.full(n + 1, float(n + 1)),
                                            evaluate(ref, p).uncentered),
        "DER_KENERG": lambda p: evaluate(ref, p).nu,
        "DER_J1FUN": lambda p: weighted_sum(e1_coefficients(n), evaluate(ref, p).uncentered),
        "DER_E1": lambda p: evaluate(ref, p, e1_coeffs).e1,
    }
    checks = variational_check(ref, base, direction, dt=dt, e1_coeffs=e1_coeffs)
    assert tuple(checks) == IDENTITIES
    for identity, f in functionals_.items():
        lhs = (f(base + direction.scaled(dt)) - f(base + direction.scaled(-dt))) / (2.0 * dt)
        assert checks[identity].lhs == lhs
        assert checks[identity].identity == identity and checks[identity].dt == dt
    state = make_state(cfg, base)
    xi = direction.values(ref.grid)
    assert checks["DER_JFUNC"].rhs == (n + 1) * average(xi * state.density, cfg)
    assert checks["DER_KENERG"].rhs == -0.5 * average(
        xi * (scalar_curvature(state) - 2.0 * n) * state.density, cfg)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cocycle_check_bits_match_each_functional(n, rng):
    cfg = ManifoldConfig(n=n, grid=build_grid(256))
    bent = make_reference(make_state(cfg, RadialPotential((0.0, 0.2, 0.1))))
    functionals_ = {
        "nu": lambda ref, p: evaluate(ref, p).nu,
        "e1": lambda ref, p: evaluate(ref, p).e1,
        "mixed_energy": lambda ref, p: weighted_sum(np.ones(n + 1),
                                                    evaluate(ref, p).uncentered),
    }
    for ref in (fubini_study_reference(cfg), bent):
        p1, p2 = sample_admissible(cfg, rng, 2, coeff_bound=0.2, base=ref.state)
        defects = cocycle_check(ref, p1, p2)
        assert tuple(defects) == COCYCLES
        for name, f in functionals_.items():
            assert defects[name] == _two_point_defect(f, ref, p1, p2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_checks_wedge_counts(n, rng, monkeypatch):
    # each state's n + 1 wedges come from its one Energies, whose two ends are
    # the state's and the reference's volume densities: a state costs its
    # build's density, the n - 1 inner wedges and E1's entropy density. It
    # takes each average once: the n + 1 centered and n + 1 uncentered mixed
    # averages and one each for nu's and E1's entropy terms
    calls, averages = [], []
    real, real_integrate = geometry.wedge_density, geometry.integrate_ds

    def counted(*args):
        calls.append(args)
        return real(*args)

    def integrated(*args):
        averages.append(args)
        return real_integrate(*args)

    for module in (geometry, functionals, verification):
        monkeypatch.setattr(module, "wedge_density", counted)
    for module in (geometry, functionals):
        monkeypatch.setattr(module, "integrate_ds", integrated)
    cfg = ManifoldConfig(n=n, grid=build_grid(128))
    ref = fubini_study_reference(cfg)
    base, other = sample_admissible(cfg, rng, 2)
    calls.clear()
    averages.clear()
    variational_check(ref, base, RadialPotential(rng.uniform(-0.3, 0.3, 9)))
    # two varied states, then the state at phi and its right-hand sides'
    # wedges (Ric wedge state^(n-1); at n > 1 also ref^2 and Ric^2) and
    # averages (3; at n > 1 also J1's and E1's second term)
    assert len(calls) == 2 * (n + 1) + 2 + (2 if n > 1 else 0)
    assert len(averages) == 2 * (2 * n + 4) + 3 + (2 if n > 1 else 0)
    calls.clear()
    averages.clear()
    cocycle_check(ref, base, other)
    # three states (the reference promoted from the first one shares its
    # build) and that reference's c1 density; no wedge against ``ref`` is
    # computed at k = 0 or k = n. The reference adds two quadratures for its
    # Ricci potential's constant and one each for c0 and c1
    assert len(calls) == 3 * (n + 1) + 1
    assert {args[1] for args in calls if args[0] is ref.form} == set(range(1, n))
    assert len(averages) == 3 * (2 * n + 4) + 4


def test_cocycle_trivial_cases(fs_ref1, rng):
    phi = sample_admissible(fs_ref1.config, rng, 1)[0]
    assert cocycle_check(fs_ref1, ZERO, ZERO)["nu"] == 0.0
    same = cocycle_check(fs_ref1, phi, phi)
    assert same["nu"] <= 1e-8
    assert same["e1"] <= 1e-8


@pytest.mark.parametrize("functional", ["nu", "e1", "mixed_energy"])
def test_cocycle_random_pairs(fs_ref2, functional, rng):
    p1, p2 = sample_admissible(fs_ref2.config, rng, 2, coeff_bound=0.2)
    assert cocycle_check(fs_ref2, p1, p2)[functional] <= 1e-6


def test_j_cocycle_defect_is_structural(fs_ref1, rng):
    # J satisfies the diagonal axiom but not the cocycle: the defect equals
    # the average of (phi2 - phi1) against the difference of volume forms
    # (cocycle_check's docstring) and is of order one for generic pairs.
    p1, p2 = sample_admissible(fs_ref1.config, rng, 2)
    assert _two_point_defect(j_energy, fs_ref1, p1, p1) <= 1e-8
    assert _two_point_defect(j_energy, fs_ref1, p1, p2) > 1e-4


@pytest.mark.parametrize("field, value", [("samples", 3), ("samples", 5), ("fd_pairs", 0),
                                          ("flow_grid", 15), ("flow_grid", 129),
                                          ("flow_record_every", 0)])
def test_suite_config_rejects_too_few_samples_or_pairs(field, value):
    # fewer than 6 samples leaves the cocycle checks short of their 3 pairs,
    # and no finite-difference pair leaves the identities unchecked. The
    # flow's grid and record spacing are checked here too, so that the
    # error names the field before any check runs
    with pytest.raises(ConfigError, match=field):
        SuiteConfig(**{field: value})
    SuiteConfig(samples=6, fd_pairs=1, flow_grid=16, flow_record_every=1)


def test_suite_default_passes():
    report = run_suite(SuiteConfig(n=1, grid_size=1024))
    failed = [e.name for e in report.entries if not e.passed]
    assert report.passed, f"failing checks: {failed}"


def test_suite_n2_passes():
    report = run_suite(SuiteConfig(n=2, grid_size=1024, samples=10, fd_pairs=3))
    failed = [e.name for e in report.entries if not e.passed]
    assert report.passed, f"failing checks: {failed}"


@pytest.mark.parametrize("seed, n", [(seed, n) for seed in (4, 6, 7, 8) for n in (1, 2, 3)] + [
    pytest.param(87, 2, marks=pytest.mark.xfail(strict=True, reason=(
        "scal_class_average reads 1.27x its tolerance: d_dx's one-sided closures "
        "at x = 1, composed four deep, on this seed's steep potentials")))])
def test_verify_verdicts_hold_across_seeds(seed, n):
    # the bundled suite at other seeds; 4, 6, 7 and 8 failed a check with
    # the quartic endpoint extrapolation in calculus.over_xm
    report = run_suite(SuiteConfig(n=n, grid_size=1024, seed=seed))
    failed = [e.line() for e in report.entries if not e.passed]
    assert report.passed, failed


def test_suite_deterministic():
    config = SuiteConfig(n=1, grid_size=512, samples=6, fd_pairs=2,
                         tolerances={"scal_class_average": 1e-5})
    a = run_suite(config).to_text()
    b = run_suite(config).to_text()
    assert a == b


def test_suite_reports_have_expected_shape():
    report = run_suite(SuiteConfig(n=1, grid_size=512, samples=6, fd_pairs=2,
                                   tolerances={"scal_class_average": 1e-5}))
    for entry in report.entries:
        line = entry.line()
        name, status, value, tolerance = line.split(",")
        assert status in ("PASS", "FAIL")
        float(value), float(tolerance)


def test_suite_b1_mutation_detected():
    report = run_suite(SuiteConfig(n=1, grid_size=1024, samples=8, fd_pairs=3,
                                   b1_offset=0.1))
    failed = {e.name for e in report.entries if not e.passed}
    assert "der_e1" in failed
    assert "residual_constancy_background" in failed
    assert "residual_constancy_perturbed" in failed
    assert not report.passed


def test_suite_h_mutation_detected():
    report = run_suite(SuiteConfig(n=1, grid_size=1024, samples=8, fd_pairs=3,
                                   h_norm_offset=0.1))
    failed = {e.name for e in report.entries if not e.passed}
    assert failed == {"h_normalization"}


def test_suite_state_builds(monkeypatch):
    # outside the sampler and the short flow, a suite with S samples and P
    # finite-difference pairs builds 16 + 2 S + 3 P states: the two
    # references (2), one per sampled potential (S), the shifted copies (3),
    # 3 per pair for all four identities (3 P), 3 per cocycle pair for all
    # three functionals (9), the Futaki pool (2) and the perturbed residuals
    # (S). The background residuals and the curvature averages read the
    # sampled potentials' states while their energies are read, and the
    # zero-potential residuals and the diagonal read one Energies at each
    # reference's own state. It makes 6 references: the background, the bent
    # one, one per cocycle pair and the flow's
    counts = {"suite": 0, "sampler": 0, "flow": 0}
    references = []
    real_reference = functionals.make_reference
    phase = ["suite"]
    real_build = geometry.state_from_total

    def build(*args, **kwargs):
        counts[phase[-1]] += 1
        return real_build(*args, **kwargs)

    def within(name, func):
        def wrapped(*args, **kwargs):
            phase.append(name)
            try:
                return func(*args, **kwargs)
            finally:
                phase.pop()
        return wrapped

    def reference(*args, **kwargs):
        references.append(phase[-1])
        return real_reference(*args, **kwargs)

    for module in (geometry, flow, verification):
        monkeypatch.setattr(module, "state_from_total", build)
    for module in (functionals, verification, flow):
        monkeypatch.setattr(module, "make_reference", reference)
    monkeypatch.setattr(verification, "sample_admissible",
                        within("sampler", verification.sample_admissible))
    monkeypatch.setattr(verification, "run", within("flow", verification.run))
    run_suite(SuiteConfig(n=2, grid_size=128, samples=6, fd_pairs=1, flow_grid=64,
                          flow_t_max=0.05))
    assert counts["suite"] == 16 + 2 * 6 + 3 * 1
    assert len(references) == 6
    assert counts["sampler"] >= 6 + 2 + 1 + 6 and counts["flow"] >= 2


def test_tolerance_overrides():
    overrides = SuiteConfig(n=1, grid_size=512, tolerances={"der_e1": 1e-3}).tolerances
    assert tolerance("der_e1", overrides) == 1e-3
    assert tolerance("der_jfunc", overrides) == 1e-5
    with pytest.raises(KeyError):
        tolerance("not_a_check", overrides)


def test_flow_checks_scale_the_residual_and_read_overrides():
    # the residual gate's tolerance is scaled by 1 + |C_omega|, and an
    # override replaces a default before scaling
    records = [FlowRecord(t=t, nu=nu, e1=e1, dirichlet=0.0, residual=res, scal_min=1.0,
                          scal_max=1.0, futaki=0.0, min_ahat=1.0, min_bhat=1.0)
               for t, nu, e1, res in ((0.0, 0.5, 0.75, -0.5), (1.0, 0.25, 0.125, -0.375))]
    trace = FlowTrace(records=records, c_omega=-0.375)
    monotone, residual, inequality = flow_checks(trace)
    assert (monotone.value, residual.value, inequality.value) == (0.0, 0.125, 0.0)
    assert residual.tolerance == DEFAULT_TOLERANCES["flow_residual_constant"] * 1.375
    assert flow_checks(trace, {"flow_residual_constant": 0.1})[1].tolerance == 0.1 * 1.375
