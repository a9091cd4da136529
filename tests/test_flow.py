import numpy as np
import pytest

from krflow import _kernels
from krflow.calculus import build_grid
from krflow.errors import ConfigError, FlowAborted, StepRejected
from krflow.flow import (
    FlowConfig,
    TRACE_COLUMNS,
    _record,
    _rkc_step,
    _shift_profile,
    _stable_dt,
    _stage_count,
    _step_limit,
    c_omega_estimate,
    default_dt_init,
    run,
    step,
)
from krflow.functionals import dirichlet, fubini_study_reference
from krflow.geometry import ManifoldConfig, RadialPotential, make_state, state_from_total

ZERO = RadialPotential((0.0,))
TILT = RadialPotential((0.0, 0.2))


@pytest.fixture(scope="module")
def small_config():
    return ManifoldConfig(n=1, grid=build_grid(128))


@pytest.fixture(scope="module")
def small_trace(small_config):
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=1.0, record_every=200)
    return run(cfg)


def test_flow_config_validation(small_config):
    with pytest.raises(ConfigError):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, dt_init=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, dt_safety=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, record_every=0)
    with pytest.raises(ConfigError):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0,
                   representation="fourier")


def test_flow_config_validates_step_control(small_config):
    for bad in ({"max_halvings": -1}, {"grow_streak": 0}, {"fit_degree": -1}):
        with pytest.raises(ConfigError):
            FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, **bad)
    # the smallest admissible values are accepted
    FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0,
               max_halvings=0, grow_streak=1, fit_degree=0)


def test_default_dt_init():
    assert default_dt_init(build_grid(2048)) == pytest.approx(1e-4)
    assert default_dt_init(build_grid(1024)) == pytest.approx(4e-4)


def test_fixed_point_is_stationary(small_config):
    cfg = FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, record_every=100)
    trace = run(cfg)
    assert trace.rejected == 0
    for rec in trace.records:
        assert rec.nu == 0.0
        assert rec.e1 == 0.0
        assert rec.dirichlet == 0.0
        assert rec.futaki == 0.0
    assert trace.records[-1].t == pytest.approx(1.0, abs=1e-12)


def test_step_richardson_order(small_config):
    # phi + dt v(phi) differs from the second-order RKC2 update by O(dt^2)
    ref = fubini_study_reference(small_config)
    g = small_config.grid
    from krflow.functionals import flow_velocity
    phi = TILT.values(g)
    v = flow_velocity(ref, TILT)
    gaps = []
    for dt in (1e-3, 5e-4):
        updated = step(ref, phi, dt)
        gaps.append(np.abs(updated - (phi + dt * v)).max())
    ratio = gaps[0] / gaps[1]
    assert 3.0 < ratio < 5.0


def test_step_rejects_large_dt(small_config):
    # two stages cover the real interval [-beta(2), 0], beta(2) ~ 1.6, far
    # short of dt * lambda at dt = 100: the step leaves the positive cone;
    # with the stages of the stage rule the same state takes a step of a
    # typical record spacing
    ref = fubini_study_reference(small_config)
    with pytest.raises(StepRejected):
        step(ref, TILT, 100.0, stages=2)
    out = step(ref, TILT, 0.01)
    assert make_state(small_config, out).ahat.min() > 0.0


def test_step_polynomial_representation(small_config):
    ref = fubini_study_reference(small_config)
    out = step(ref, TILT, 1e-5, representation="polynomial", fit_degree=8)
    assert isinstance(out, RadialPotential)
    nodal = step(ref, TILT, 1e-5)
    assert np.abs(out.values(small_config.grid) - nodal).max() < 1e-10


def test_run_rejection_and_halving(small_config):
    # without the stability cap every step has two stages and the record
    # spacing dt is unstable; the growing oscillation trips the positivity
    # check within a few steps and the rejection loop halves dt back under
    # the two-stage limit, where (growth off, so dt stays there) the run
    # recovers
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.5,
                     record_every=1, dt_init=0.002, stability_cap=False,
                     grow_streak=10 ** 9)
    trace = run(cfg)
    assert trace.rejected > 0
    assert trace.max_stages == 2
    # a rejected step stops at the stage that left the cone
    assert 2 * trace.accepted + trace.rejected <= trace.velocity_evals \
        <= 2 * (trace.accepted + trace.rejected)
    assert [rec.t for rec in trace.records] == pytest.approx(
        [0.002 * k for k in range(251)], abs=1e-12)
    assert trace.min_positivity() > 0.0
    first, last = trace.records[0], trace.records[-1]
    assert (last.nu - first.nu) / (1.0 + abs(first.nu)) <= 1e-8


def test_run_aborts_on_dt_underflow(small_config):
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.5,
                     record_every=1, dt_init=0.002, stability_cap=False,
                     max_halvings=0)
    with pytest.raises(FlowAborted):
        run(cfg)


def test_short_flow_invariants(small_trace):
    trace = small_trace
    assert trace.rejected == 0
    assert trace.nu_violation() <= 1e-8
    assert trace.residual_deviation() <= 1e-5 * (1.0 + abs(trace.c_omega))
    assert trace.inequality_margin() >= -1e-8
    assert trace.min_positivity() > 0.0
    times = [rec.t for rec in trace.records]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_record_row_matches_columns(small_trace):
    row = small_trace.records[0].row()
    assert len(row) == len(TRACE_COLUMNS)


def test_flow_with_perturbed_reference(small_config):
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.5,
                     record_every=200, reference=RadialPotential((0.0, 0.2, 0.1)))
    trace = run(cfg)
    assert trace.c_omega < 0.0
    assert trace.residual_deviation() <= 1e-5 * (1.0 + abs(trace.c_omega))
    assert trace.inequality_margin() >= -1e-8


def test_c_omega_estimate(small_config):
    ref = fubini_study_reference(small_config)
    assert c_omega_estimate(ref) == 0.0
    from krflow.functionals import make_reference
    from krflow.geometry import make_state
    bent = make_reference(make_state(small_config, RadialPotential((0.0, 0.2, 0.1))))
    est = c_omega_estimate(bent)
    assert est == pytest.approx(-dirichlet(bent.state, -bent.potential.h), abs=1e-15)
    assert est < 0.0


def test_c_omega_same_across_initial_data(small_config):
    # two flows from different initial data agree on the constant
    traces = []
    for initial in (TILT, RadialPotential((0.0, -0.1, 0.15))):
        cfg = FlowConfig(manifold=small_config, initial=initial, t_max=0.3,
                         record_every=200)
        traces.append(run(cfg))
    a, b = traces
    assert a.c_omega == b.c_omega
    tol = 1e-5 * (1.0 + abs(a.c_omega))
    assert abs(a.records[-1].residual - b.records[-1].residual) <= 2 * tol


def test_polynomial_representation_run(small_config):
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.2,
                     record_every=100, representation="polynomial")
    trace = run(cfg)
    nodal = run(FlowConfig(manifold=small_config, initial=TILT, t_max=0.2,
                           record_every=100))
    assert trace.records[-1].t == pytest.approx(nodal.records[-1].t, abs=1e-12)
    assert trace.records[-1].nu == pytest.approx(nodal.records[-1].nu, abs=1e-8)
    assert trace.residual_deviation() <= 1e-4


def test_dt_growth_respects_cap(small_config, monkeypatch):
    # a tiny dt_init refines the record grid, not the step: steps run at the
    # record spacing and the stage count (not the step) absorbs the
    # stiffness, following the stage rule. Three forced rejections halve dt
    # to spacing / 8; every grow_streak accepted steps it grows by
    # 1 / dt_safety, capped at the spacing, and steps are cut to land on the
    # record times
    from krflow import flow

    sizes = []
    real_step = flow.step

    def forced(ref, phi, dt, *args, **kwargs):
        sizes.append(dt)
        if len(sizes) <= 3:
            raise StepRejected("forced")
        return real_step(ref, phi, dt, *args, **kwargs)

    monkeypatch.setattr(flow, "step", forced)
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.5,
                     record_every=10000, dt_init=1e-6, dt_safety=0.5,
                     grow_streak=2)
    trace = run(cfg)
    h = 10000 * 1e-6
    ramp = [h, h / 2, h / 4, h / 8, h / 8, h / 4, h / 4, h / 4, h / 2, h / 2]
    assert sizes == pytest.approx(ramp + [h] * 48, rel=1e-9)
    assert trace.rejected == 3
    assert trace.accepted == len(sizes) - 3
    assert [rec.t for rec in trace.records] == pytest.approx(
        [h * k for k in range(51)], abs=1e-12)
    state = make_state(small_config, TILT)
    assert _stage_count(small_config, state, 0.9 * h) <= trace.max_stages \
        <= _stage_count(small_config, state, 1.1 * h)
    assert trace.velocity_evals <= trace.accepted * trace.max_stages


def test_step_limit_caps_n3_steps():
    # at n >= 2 steps longer than _step_limit are split even when the
    # record spacing is longer
    config = ManifoldConfig(n=3, grid=build_grid(128))
    trace = run(FlowConfig(manifold=config, initial=TILT, t_max=0.5,
                           record_every=10000, dt_init=1e-4))
    limit = _step_limit(config, make_state(config, TILT).q)
    assert limit < 0.5
    assert trace.accepted >= np.ceil(0.5 / (1.1 * limit))
    assert len(trace.records) == 2
    assert trace.rejected == 0


def _fd_jacobian(ref, phi, h=1e-6):
    g = ref.grid
    total = ref.state.phi_total + phi.values(g)
    shift = _shift_profile(ref)
    jac = np.empty((g.size + 1, g.size + 1))
    for i in range(g.size + 1):
        cols = []
        for sign in (1.0, -1.0):
            probe = total.copy()
            probe[i] += sign * h
            cols.append(_kernels.velocity(probe, shift, g.x, g.xm, g.omx, g.dx,
                                          ref.config.n)[0])
        jac[:, i] = (cols[0] - cols[1]) / (2.0 * h)
    return jac, total


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("size", (256, 512))
def test_stage_rule_is_stable_on_jacobian(n, size):
    # |P_s(dt lambda)| over the eigenvalues of the velocity's Jacobian, for
    # every step from dt0 up to criterion 3's record spacing (1000 dt0), cut
    # by the step limit and with s from the stage rule: the step may grow
    # no mode faster than the exact flow does (the constant gauge mode and
    # the near-automorphism mode grow; the rest must not)
    config = ManifoldConfig(n=n, grid=build_grid(size))
    ref = fubini_study_reference(config)
    for phi in (TILT, RadialPotential((0.0, 0.2, 0.1))):
        jac, total = _fd_jacobian(ref, phi)
        eig = np.linalg.eigvals(jac)
        state = state_from_total(config, total)
        lam = 2.5 / _stable_dt(config, state.r, state.q)
        dt0 = min(default_dt_init(config.grid), 2.5 / lam)
        for dt in np.geomspace(dt0, 1000.0 * dt0, 13):
            dt = min(dt, _step_limit(config, state.q))
            z = dt * eig
            amplification = np.abs(_rkc_step(lambda y: z * y, np.ones_like(z), 1.0,
                                             _stage_count(config, state, dt)))
            bound = np.maximum(1.0, np.abs(np.exp(z)))
            assert (amplification - bound).max() <= 1e-9, (phi, dt)


def test_long_flow_n3_meets_criterion_3():
    # criterion 3's gates on a long n = 3 flow, where the convection term's
    # complex eigenvalues need the damping and the step limit
    config = ManifoldConfig(n=3, grid=build_grid(512))
    trace = run(FlowConfig(manifold=config, initial=TILT, t_max=10.0, record_every=1000))
    final = trace.records[-1]
    assert trace.records[-1].t == pytest.approx(10.0, abs=1e-12)
    assert trace.rejected == 0
    assert trace.nu_violation() <= 1e-8
    assert trace.residual_deviation() <= 1e-5 * (1.0 + abs(trace.c_omega))
    assert trace.inequality_margin() >= -1e-8
    assert final.scal_max - final.scal_min <= 1e-3
    assert trace.min_positivity() > 0.0


@pytest.mark.parametrize("n", (1, 2, 3))
def test_rkc_matches_rk4(n):
    # the same flow by classical RK4 at the stability cap (the cap re-estimated
    # at each record, each step cut to land on the RKC trace's record times)
    config = ManifoldConfig(n=n, grid=build_grid(512))
    g = config.grid
    trace = run(FlowConfig(manifold=config, initial=TILT, t_max=0.5, record_every=100))
    ref = fubini_study_reference(config)
    shift = _shift_profile(ref)
    total = ref.state.phi_total + TILT.values(g)
    t = 0.0
    for rec in trace.records[1:]:
        state = state_from_total(config, total)
        cap = _stable_dt(config, state.r, state.q)
        while t < rec.t:
            dt = rec.t - t if rec.t - t <= cap * (1.0 + 1e-9) else cap
            total, ok = _kernels.rk4_step(total, dt, shift, g.x, g.xm, g.omx, g.dx, n)
            assert ok
            t = rec.t if dt == rec.t - t else t + dt
        expected = _record(ref, state_from_total(config, total), rec.t)
        for name in ("nu", "e1", "dirichlet", "residual"):
            assert getattr(rec, name) == pytest.approx(getattr(expected, name), abs=1e-8), name
        for name in ("scal_min", "scal_max"):
            assert getattr(rec, name) == pytest.approx(getattr(expected, name), abs=1e-4), name
    assert len(trace.records) > 10
