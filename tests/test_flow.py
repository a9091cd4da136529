import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse import diags

import dataclasses
import functools
import os
import subprocess
import sys

import krflow
from conftest import flow_gate_failures
from krflow import _kernels, banded, flow
from krflow.calculus import HALF_BAND, build_grid
from krflow.errors import ConfigError, FlowAborted, KrflowError, NotInPotentialSpace, StepRejected
from krflow.flow import (
    FlowConfig,
    TRACE_COLUMNS,
    _GAMMA,
    _jacobian_band,
    _record,
    _ros2,
    _shift_profile,
    _stable_dt,
    c_omega_estimate,
    run,
    step,
)
from krflow.functionals import Energies, dirichlet, fubini_study_reference
from krflow.verification import _identity_rhs, tolerance
from krflow.geometry import (
    ManifoldConfig,
    MetricState,
    RadialPotential,
    background,
    laplacian,
    make_state,
    state_from,
    state_from_total,
)

ZERO = RadialPotential((0.0,))
TILT = RadialPotential((0.0, 0.2))
# the positivity minima the patched velocity kernel raises with (see _cone_exit)
FAILED_MINS = (-0.5, 0.25)


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
    with pytest.raises(ConfigError, match="positive and finite, got inf"):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=np.inf)
    with pytest.raises(ConfigError):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, dt_init=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, record_every=0)


def test_flow_config_validates_step_control(small_config):
    # dt_init and record_every are the only step-control fields (a
    # rejection's halving is a fixed rule); their smallest admissible values
    # are accepted
    for bad in ({"dt_init": 0.0}, {"record_every": 0}):
        with pytest.raises(ConfigError):
            FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, **bad)
    FlowConfig(manifold=small_config, initial=ZERO, t_max=1.0, dt_init=1e-300,
               record_every=1)
    assert [f.name for f in dataclasses.fields(FlowConfig)] == [
        "manifold", "initial", "t_max", "dt_init", "record_every", "reference"]


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
    # phi + dt v(phi) differs from the second-order ROS2 update by O(dt^2);
    # the step re-zeroes its result at the midpoint, so the Euler update is
    # compared re-zeroed too
    ref = fubini_study_reference(small_config)
    g = small_config.grid
    phi = TILT.values(g)
    start = state_from(ref.state, phi)
    v = Energies.at(ref, TILT).velocity
    gaps = []
    for dt in (1e-3, 5e-4):
        # the Fubini-Study base is 0, so this is the relative potential exactly
        updated = step(ref, start, dt).phi_total - ref.state.phi_total
        euler = phi + dt * v
        gaps.append(np.abs(updated - (euler - euler[g.size // 2])).max())
    ratio = gaps[0] / gaps[1]
    assert 3.0 < ratio < 5.0


def test_step_accuracy_at_record_spacing():
    # steps of 0.01 to t = 0.055 from 0.2x plus small x^2, x^3 terms (the
    # shape of the benchmark's flow): nu's decrease matches a run with
    # 16x shorter steps to 7.3e-5 of itself (measured). This is what
    # gamma = 1 - 1/sqrt(2) buys; the other L-stable root misses by 2.1e-3
    config = ManifoldConfig(n=1, grid=build_grid(256))
    initial = RadialPotential((0.0, 0.2, 3e-4, -6.9e-3))
    drops = []
    for record_every in (1000, 1000 // 16):
        trace = run(FlowConfig(manifold=config, initial=initial, t_max=0.055,
                               dt_init=1e-5, record_every=record_every))
        drops.append(trace.records[0].nu - trace.records[-1].nu)
    assert trace.accepted > 80
    assert abs(drops[0] - drops[1]) <= 5e-4 * drops[1]


def _cone_exit(monkeypatch, start, stop, longest=0.0):
    """Make the velocity kernel raise a cone exit (min Ahat and min Bhat
    FAILED_MINS) in every step longer than ``longest`` that overlaps the
    flow-time window (start, stop). A step calls the kernel at its stage
    only (f0 comes from the start's handed-over state), so the step is
    rejected after its factorization. Flow time is the sum of the steps that
    ``flow.step`` accepted, as ``run`` takes them. A step counts as longer
    only beyond the relative slack 1e-9 that ``run``'s landing rule allows,
    so the roundoff of a halved step t_next - t does not reject it."""
    clock = {"t": 0.0, "dt": 0.0}
    real_step, real_velocity = flow.step, _kernels.velocity

    def timed_step(ref, state, dt, *args, **kwargs):
        clock["dt"] = dt
        out = real_step(ref, state, dt, *args, **kwargs)
        clock["t"] += dt
        return out

    def velocity(*args):
        t, dt = clock["t"], clock["dt"]
        if dt > longest * (1.0 + 1e-9) and t < stop and t + dt > start:
            raise NotInPotentialSpace("patched cone exit", *FAILED_MINS)
        return real_velocity(*args)

    monkeypatch.setattr(flow, "step", timed_step)
    monkeypatch.setattr(_kernels, "velocity", velocity)


def test_step_rejects_large_dt(small_config, monkeypatch):
    # ROS2 is L-stable: a step of dt = 100 from 0.2x stays in the positive
    # cone. Inside a window where the velocity kernel reports a cone exit,
    # the same step raises StepRejected with the minima that failed
    ref = fubini_study_reference(small_config)
    start = make_state(small_config, TILT)
    assert step(ref, start, 100.0).ahat.min() > 0.0
    # the explicit RK4 reference integrator leaves the cone at dt = 1e3
    g = small_config.grid
    total = ref.state.phi_total + TILT.values(g)
    with pytest.raises(NotInPotentialSpace):
        _kernels.rk4_step(total, 1e3, _shift_profile(ref), g, 1)
    _cone_exit(monkeypatch, 0.0, 1.0)
    with pytest.raises(StepRejected) as info:
        flow.step(ref, start, 100.0)
    assert (info.value.min_ahat, info.value.min_bhat) == FAILED_MINS
    assert "min Ahat -0.5" in str(info.value)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_step_hands_off_its_profiles(n, monkeypatch):
    # each accepted step returns the state, with its profiles, of the array
    # the run continues from, bitwise that of a fresh build, and the run
    # hands it to the next step and to the record. The first step starts
    # from the initial state; the second is rejected once at its stage, and
    # its retry starts from the same state
    config = ManifoldConfig(n=n, grid=build_grid(128))
    calls, recorded = [], []
    real_step, real_velocity, real_record = flow.step, _kernels.velocity, flow._record

    def spy(ref, state, dt, *args, **kwargs):
        calls.append({"start": state, "out": None})
        calls[-1]["out"] = real_step(ref, state, dt, *args, **kwargs)
        return calls[-1]["out"]

    def velocity(*args):
        if len(calls) == 2 and calls[-1]["out"] is None:
            raise NotInPotentialSpace("patched cone exit", *FAILED_MINS)
        return real_velocity(*args)

    def record(ref, state, t):
        recorded.append(state)
        return real_record(ref, state, t)

    monkeypatch.setattr(flow, "step", spy)
    monkeypatch.setattr(_kernels, "velocity", velocity)
    monkeypatch.setattr(flow, "_record", record)
    trace = run(FlowConfig(manifold=config, initial=TILT, t_max=0.05, record_every=100,
                           dt_init=1e-4, reference=RadialPotential((0.0, 0.2, 0.1))))
    assert trace.rejected == 1 and calls[1]["out"] is None
    assert trace.accepted == len(calls) - 1 > 3
    assert isinstance(calls[0]["start"], MetricState) and calls[0]["start"] is recorded[0]
    assert calls[2]["start"] is calls[1]["start"] is calls[0]["out"]
    accepted = [c for c in calls if c["out"] is not None]
    for prev, cur in zip(accepted, accepted[1:]):
        assert cur["start"] is prev["out"]
    # each later record reads the state of a step
    handed = {id(c["out"]) for c in accepted}
    assert len(recorded) == len(trace.records)
    assert all(id(state) in handed for state in recorded[1:])
    for call in accepted:
        returned = call["out"]
        fresh = state_from_total(config, returned.phi_total)
        for name in ("phi_total", "ahat", "bhat", "q", "r", "log_density", "density",
                     "ricci_db"):
            assert np.array_equal(getattr(returned, name), getattr(fresh, name)), name
        for form in ("form", "ricci"):
            for part in ("a", "b"):
                assert np.array_equal(getattr(getattr(returned, form), part),
                                      getattr(getattr(fresh, form), part)), (form, part)


def test_landed_interval_derives_profiles_twice(monkeypatch):
    # a record interval of one landed step without rejection derives the
    # metric profiles twice: at the stage (inside the velocity kernel) and at
    # the accepted state, which the record's state build and the next step
    # reuse. Before the first record: the reference and the initial state
    config = ManifoldConfig(n=2, grid=build_grid(128))
    counts, seen = [], {"profiles": 0}
    real_profiles, real_record = _kernels.profiles, flow._record

    def profiles(*args):
        seen["profiles"] += 1
        return real_profiles(*args)

    def record(*args):
        counts.append(seen["profiles"])
        return real_record(*args)

    monkeypatch.setattr(_kernels, "profiles", profiles)
    monkeypatch.setattr(flow, "_record", record)
    trace = run(FlowConfig(manifold=config, initial=TILT, t_max=0.1, record_every=100,
                           dt_init=1e-4))
    assert trace.rejected == 0 and trace.accepted == len(trace.records) - 1 == 10
    assert counts[0] == 2
    assert np.diff(counts).tolist() == [2] * trace.accepted


def test_run_rejection_and_halving(small_config, monkeypatch):
    # inside the window (0.1025, 0.2025) only steps of at most h / 4 keep
    # positivity: each record interval that meets it starts at the record
    # spacing h and is halved until its steps pass, and past the window the
    # run steps at h again. Each rejection is logged with its time, step and
    # the minima that failed, and the trajectory stays that of the unpatched
    # run up to the step error that the window's shorter steps reduce
    # (6.9e-6 of nu, measured)
    h = 0.01
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.5,
                     record_every=100, dt_init=h / 100)
    plain = run(cfg)
    _cone_exit(monkeypatch, 0.1025, 0.2025, longest=h / 4)
    trace = run(cfg)
    assert trace.rejected == len(trace.rejections) > 2
    np.testing.assert_allclose(trace.rejections[:2], [(0.1, h) + FAILED_MINS,
                                                      (0.1, h / 2) + FAILED_MINS], atol=1e-12)
    for t, dt, min_a, min_b in trace.rejections:
        assert 0.1 - 1e-12 <= t < 0.2025 and dt > h / 4 * (1.0 + 1e-9)
    # a rejected step stops at its stage velocity, after the factorization:
    # two velocity evaluations and one factorization per attempted step
    assert trace.velocity_evals == 2 * (trace.accepted + trace.rejected)
    assert trace.factorizations == trace.accepted + trace.rejected
    assert trace.accepted > plain.accepted
    assert [rec.t for rec in trace.records] == pytest.approx(
        [h * k for k in range(51)], abs=1e-12)
    assert trace.min_positivity() > 0.0
    assert not flow_gate_failures(trace)
    for rec, expected in zip(trace.records, plain.records):
        assert rec.nu == pytest.approx(expected.nu, rel=2e-4)


def test_run_aborts_where_no_step_passes(small_config, monkeypatch):
    # a window that no step length passes: the run creeps up to its start in
    # ever shorter steps, and halving there runs until dt < 1e-14. The error
    # carries the trace up to the abort: the records at h k for k <= 10, the
    # accepted steps, and the first rejection at the record spacing
    h = 0.01
    _cone_exit(monkeypatch, 0.1025, 0.2025)
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.5,
                     record_every=100, dt_init=h / 100)
    with pytest.raises(FlowAborted, match="dt underflow at t = 0.1025 ") as info:
        run(cfg)
    partial = info.value.trace
    assert [rec.t for rec in partial.records] == pytest.approx(
        [h * k for k in range(11)], abs=1e-12)
    assert partial.accepted >= 10
    np.testing.assert_allclose(partial.rejections[0], (0.1, h) + FAILED_MINS, atol=1e-12)
    assert partial.rejections[-1][1] < 2e-14


def test_short_flow_invariants(small_trace):
    trace = small_trace
    assert trace.rejected == 0
    assert not flow_gate_failures(trace)
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
    assert not flow_gate_failures(trace)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_reference_is_fubini_study(n, monkeypatch):
    # the zero potential's reference is Fubini-Study bit for bit: Horner's
    # rule on the zero polynomial gives +0.0 at every node, the array
    # ``background`` builds, so the default and an explicit zero potential
    # record the same rows at C_omega = 0.0
    config = ManifoldConfig(n=n, grid=build_grid(64))
    built, real_reference = [], flow.make_reference

    def reference(state):
        built.append(real_reference(state))
        return built[-1]

    monkeypatch.setattr(flow, "make_reference", reference)
    traces = [run(FlowConfig(manifold=config, initial=TILT, t_max=0.05, record_every=50, **kw))
              for kw in ({}, {"reference": ZERO})]
    assert [r.row() for r in traces[0].records] == [r.row() for r in traces[1].records]
    assert traces[0].c_omega == traces[1].c_omega == 0.0
    fs = fubini_study_reference(config)
    for ref in built:
        assert ref.h.tobytes() == fs.h.tobytes()
        assert (ref.c0.hex(), ref.c1.hex()) == (fs.c0.hex(), fs.c1.hex())
    assert len(built) == 2


def test_reference_none_is_a_config_error(small_config):
    # None is no potential: the reference defaults to the zero potential
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.1, reference=None)
    with pytest.raises(ConfigError):
        run(cfg)


def test_c_omega_estimate(small_config):
    ref = fubini_study_reference(small_config)
    assert c_omega_estimate(ref) == 0.0
    from krflow.functionals import make_reference
    from krflow.geometry import make_state
    bent = make_reference(make_state(small_config, RadialPotential((0.0, 0.2, 0.1))))
    est = c_omega_estimate(bent)
    assert est == pytest.approx(-dirichlet(bent.state, -bent.h), abs=1e-15)
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


def test_rejection_halving_holds_to_the_record_time(small_config, monkeypatch):
    # a tiny dt_init refines the record grid, not the step: steps run at the
    # record spacing h. Three forced rejections halve dt to h / 8, which
    # crosses the rest of that record interval in 8 steps; the next interval
    # starts again at h
    sizes = []
    real_step = flow.step

    def forced(ref, phi, dt, *args, **kwargs):
        sizes.append(dt)
        if len(sizes) <= 3:
            raise StepRejected("forced")
        return real_step(ref, phi, dt, *args, **kwargs)

    monkeypatch.setattr(flow, "step", forced)
    cfg = FlowConfig(manifold=small_config, initial=TILT, t_max=0.5,
                     record_every=10000, dt_init=1e-6)
    trace = run(cfg)
    h = 10000 * 1e-6
    assert sizes == pytest.approx([h, h / 2, h / 4] + [h / 8] * 8 + [h] * 49, rel=1e-9)
    assert trace.rejected == 3
    assert trace.accepted == len(sizes) - 3 == 57
    assert [rec.t for rec in trace.records] == pytest.approx(
        [h * k for k in range(51)], abs=1e-12)
    # the forced rejections raise before the step evaluates anything
    assert trace.velocity_evals == 2 * trace.accepted
    assert trace.factorizations == trace.accepted


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
            cols.append(_kernels.velocity(probe, shift, g, ref.config.n))
        jac[:, i] = (cols[0] - cols[1]) / (2.0 * h)
    return jac, total


def _dense(band):
    m = band.shape[0]
    out = np.zeros((m, m))
    for k in range(band.shape[1]):
        offset = k - HALF_BAND
        rows = np.arange(max(0, -offset), min(m, m - offset))
        out[rows, rows + offset] = band[rows, k]
    return out


@pytest.mark.parametrize("n", (1, 2, 3))
def test_jacobian_matches_fd(n):
    # the assembled band is the velocity's whole Jacobian: the central
    # differences close on it at their own second order (100x per 10x in the
    # probe step, down to 1e-8 of the scale at step 1e-7), and no entry of
    # theirs falls outside the band (the 6-point edge closures reach 7
    # columns)
    config = ManifoldConfig(n=n, grid=build_grid(128))
    ref = fubini_study_reference(config)
    outside = np.abs(np.subtract.outer(np.arange(129), np.arange(129))) > HALF_BAND
    for phi in (TILT, RadialPotential((0.0, 0.2, 0.1))):
        gaps = []
        for h in (1e-6, 1e-7):
            fd, total = _fd_jacobian(ref, phi, h)
            exact = _dense(_jacobian_band(config, state_from_total(config, total)))
            scale = np.abs(fd).max()
            gaps.append(np.abs(exact - fd).max() / scale)
            assert np.abs(fd[outside]).max() <= 1e-12 * scale
        assert gaps[1] <= 1e-7
        assert gaps[0] / gaps[1] > 50.0
        assert exact[0, HALF_BAND] != 0.0 and exact[-1, -1 - HALF_BAND] != 0.0


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("size", (64, 256, 1024))
def test_jacobian_is_half_the_laplacian_plus_identity(n, size):
    # the velocity log(volume ratio) + phi - shift linearizes to
    # laplacian / 2 + I: the step's band and ``geometry.laplacian`` are one
    # operator at a state off Fubini-Study (measured gap <= 6.3e-16)
    config = ManifoldConfig(n=n, grid=build_grid(size))
    state = make_state(config, RadialPotential((0.0, 0.2, 0.1)))
    band = _jacobian_band(config, state)
    cols = np.arange(size + 1)[:, None] + np.arange(-HALF_BAND, HALF_BAND + 1)
    inside = (cols >= 0) & (cols <= size)
    rng = np.random.default_rng(size + n)
    for _ in range(3):
        f = rng.standard_normal(size + 1)
        applied = (band * np.where(inside, f[np.clip(cols, 0, size)], 0.0)).sum(axis=1)
        expected = laplacian(state, f) / 2.0 + f
        assert np.abs(applied - expected).max() <= 1e-13 * (1.0 + np.abs(expected).max())


@functools.lru_cache(maxsize=None)
def _background_spectrum(n, size):
    config = ManifoldConfig(n=n, grid=build_grid(size))
    return np.linalg.eigvals(_dense(_jacobian_band(config, background(config))))


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("size", (128, 512))
def test_background_jacobian_has_the_jacobi_spectrum(n, size):
    # at Fubini-Study (r = q = n + 1) the velocity's Jacobian is L + I, with
    # (n+1) L f = x(1 - x) f'' + (n - (n+1) x) f' the Jacobi operator, whose
    # eigenfunctions of degree k have eigenvalue -k (k + n) / (n + 1). The
    # stencils reproduce degree <= 3 exactly, so those four eigenvalues of
    # the band match to roundoff (3.1e-12 at most, measured)
    eig = _background_spectrum(n, size)
    for k in range(4):
        assert np.abs(eig - (1.0 - k * (k + n) / (n + 1))).min() <= 1e-10, k


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("size", (128, 512))
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: the one-sided closures of d_dx admit a second growing "
    "eigenvalue (1.0 at n = 1, 0.43-0.44 at n = 2, 0.145-0.161 at n = 3), a "
    "grid version of a singular solution such as log(1 - x)"))
def test_background_jacobian_grows_only_the_gauge_mode(n, size):
    # the exact flow linearized at Fubini-Study grows only the constant
    # gauge mode (k = 0, eigenvalue 1)
    assert (_background_spectrum(n, size).real > 1e-9).sum() == 1


@functools.lru_cache(maxsize=None)
def _decaying_flow(n):
    """Records along the flow from 0.2x + 0.05x^2 at N = 256 to t = 4."""
    config = FlowConfig(manifold=ManifoldConfig(n=n, grid=build_grid(256)),
                        initial=RadialPotential((0.0, 0.2, 0.05)), t_max=4.0, record_every=50)
    records = run(config).records
    return tuple(np.array([getattr(rec, name) for rec in records])
                 for name in ("t", "nu", "dirichlet", "e1"))


def _log_slope(t, values, start, stop):
    window = (t >= start) & (t <= stop)
    return np.polyfit(t[window], np.log(values[window]), 1)[0]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_flow_decays_at_the_jacobi_rate(n):
    # the flow converges to a point of the Fubini-Study orbit (the k = 1
    # mode has eigenvalue 0), and its velocity then decays with the k = 2
    # eigenvalue -(n + 3)/(n + 1). Dirichlet and nu, quadratic in it, decay
    # at twice that rate: fitted on [2, 4] Dirichlet's rate is off by
    # 6.0e-5, 8.6e-5 and 9.1e-5 at n = 1, 2, 3, and nu's on [1, 3] by
    # 2.9e-4, 3.0e-4 and 4.3e-5 (measured)
    t, nu, dirichlet_, _ = _decaying_flow(n)
    rate = -2.0 * (n + 3) / (n + 1)
    assert abs(_log_slope(t, dirichlet_, 2.0, 4.0) / rate - 1.0) <= 1e-3
    assert abs(_log_slope(t, nu, 1.0, 3.0) / rate - 1.0) <= 1e-2


@pytest.mark.parametrize("n", (1, 2, 3))
def test_flow_dissipates_nu_at_n_times_dirichlet(n):
    # dnu/dt = -n * dirichlet: nu's fall to T ~ 2 against n times the
    # Dirichlet column's integral, composite Simpson over an even number of
    # record intervals. The gap is 1.2e-5, 1.7e-5 and 2.2e-5 of the fall at
    # n = 1, 2, 3 (measured) and falls at second order with the step;
    # without the factor n it would be 1/2 at n = 2 and 2/3 at n = 3
    t, nu, dirichlet_, _ = _decaying_flow(n)
    h = t[1] - t[0]
    m = int(2.0 / h) // 2 * 2
    np.testing.assert_allclose(np.diff(t[:m + 1]), h, rtol=1e-9)
    integral = h / 3.0 * (dirichlet_[0] + 4.0 * dirichlet_[1:m:2].sum()
                          + 2.0 * dirichlet_[2:m:2].sum() + dirichlet_[m])
    fall = nu[0] - nu[m]
    assert abs(fall - n * integral) <= 5e-5 * fall


@pytest.mark.parametrize("n", (1, 2, 3))
def test_flow_e1_falls_between_records(n):
    # E1 is the flow's Lyapunov function: its relative change between
    # records stays within nu's monotonicity tolerance. Along these flows it
    # falls at every record; the largest changes are -1.05e-12, -5.26e-12
    # and -4.05e-12 at n = 1, 2, 3 (measured)
    e1 = _decaying_flow(n)[3]
    assert (np.diff(e1) / (1.0 + np.abs(e1[:-1]))).max() <= tolerance("flow_nu_monotone")


@pytest.mark.parametrize("eps", (1e-2, 1e-3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_e1_rate_near_fubini_study(n, eps):
    # from E1 = 2 nu + D + C_omega and dnu/dt = -n D, dE1/dt = -2n D + dD/dt.
    # Near Fubini-Study D decays with the k = 2 mode, at twice its rate
    # -(n + 3)/(n + 1), so rho = (dE1/dt)/(n D) tends to
    # -2 - 2(n + 3)/(n(n + 1)): -6, -11/3 and -3. At phi = eps x^2 on 1024
    # panels rho is within 0.156 eps |rho_inf| of it (measured). dE1/dt is
    # E1's first variation along the flow velocity
    ref = fubini_study_reference(ManifoldConfig(n=n, grid=build_grid(1024)))
    energies = Energies.at(ref, RadialPotential((0.0, 0.0, eps)))
    rho = _identity_rhs(ref, energies.state, energies.velocity)[3] / (n * energies.dirichlet)
    rho_inf = -2.0 - 2.0 * (n + 3) / (n * (n + 1))
    assert abs(rho - rho_inf) <= eps * abs(rho_inf)


@pytest.mark.parametrize("size", (16, 128, 134, 256, 512))
def test_block_solve_matches_dense_solve(size):
    # the banded LU on I - c J against a dense solve for c = gamma dt from
    # 1e-4 to 10. c = 1 is left out: the constant mode (J 1 = 1) makes I - J
    # singular
    rng = np.random.default_rng(size)
    for n in (1, 3):
        config = ManifoldConfig(n=n, grid=build_grid(size))
        ref = fubini_study_reference(config)
        total = ref.state.phi_total + RadialPotential((0.0, 0.2, 0.1)).values(config.grid)
        jac = _jacobian_band(config, state_from_total(config, total))
        for c in np.geomspace(1e-4, 10.0, 7):
            system = -c * jac
            system[:, HALF_BAND] += 1.0
            matrix = _dense(system)
            rhs = rng.standard_normal(size + 1)
            x = banded.solve(banded.factor(system), rhs)
            expected = np.linalg.solve(matrix, rhs)
            residual = np.abs(matrix @ x - rhs).max()
            norm = np.abs(matrix).sum(axis=1).max()
            assert residual <= 1e-12 * norm * np.abs(x).max(), (n, c)
            assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max(), (n, c)


def test_banded_solve_pivots():
    # bands with a zero first diagonal entry, which only row interchanges get
    # past: a random band, and the band of row swaps (2j, 2j + 1), whose
    # diagonal is zero throughout and whose solution is the swapped right-hand
    # side
    rng = np.random.default_rng(7)
    for size in (17, 257):
        random = rng.standard_normal((size, 2 * HALF_BAND + 1))
        random[0, HALF_BAND] = 0.0
        swaps = np.zeros_like(random)
        swaps[0:size - 1:2, HALF_BAND + 1] = swaps[1::2, HALF_BAND - 1] = 1.0
        swaps[-1, HALF_BAND] = size % 2
        for band in (random, swaps):
            rhs = rng.standard_normal(size)
            factored = banded.factor(band)
            assert factored[1][0] != 1  # row 1 was swapped away (1-based)
            x = banded.solve(factored, rhs)
            expected = np.linalg.solve(_dense(band), rhs)
            assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


def _singular(band):
    """``band`` with its middle row zeroed: an exactly singular matrix."""
    band = band.copy()
    band[band.shape[0] // 2] = 0.0
    return band


def test_singular_step_matrix_rejects_step(small_config, monkeypatch):
    # an exactly singular band raises LinAlgError; in a step it is a
    # rejection without minima, and the run halves dt and goes on
    band = np.zeros((33, 2 * HALF_BAND + 1))
    band[:, HALF_BAND] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        banded.factor(_singular(band))
    sizes = []
    real_step, real_factor = flow.step, banded.factor

    def timed_step(ref, phi, dt, *args, **kwargs):
        sizes.append(dt)
        return real_step(ref, phi, dt, *args, **kwargs)

    def factor(system):
        return real_factor(_singular(system) if len(sizes) == 1 else system)

    monkeypatch.setattr(flow, "step", timed_step)
    monkeypatch.setattr(banded, "factor", factor)
    h = 0.01
    trace = run(FlowConfig(manifold=small_config, initial=TILT, t_max=0.05,
                           record_every=100, dt_init=h / 100))
    assert sizes[:2] == pytest.approx([h, h / 2], rel=1e-12)
    assert trace.rejections == [(0.0, sizes[0], None, None)]
    assert trace.factorizations == trace.accepted
    assert trace.records[-1].t == pytest.approx(0.05, abs=1e-12)


def test_missing_lapack_is_a_typed_error():
    # a library without the banded LU (here the C library) is a KrflowError
    import ctypes
    import ctypes.util
    with pytest.raises(KrflowError, match="banded LU"):
        banded._routines(ctypes.CDLL(ctypes.util.find_library("c")))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("size", (256, 512))
def test_ros2_is_stable_on_jacobian(n, size):
    # |R(dt lambda)| over the eigenvalues of the velocity's Jacobian, with R
    # the step's own update on y' = lambda y, for steps from dt0 up to
    # criterion 3's record spacing (1000 dt0) and beyond (10 to 1e4). The
    # step grows no mode that the exact flow damps. The few modes the exact
    # flow grows (the constant gauge mode, which run removes, and modes near
    # it) the step grows by at most its local error beyond e^z, (gamma
    # (1 - gamma) - 1/6) z^3 ~ 0.04 z^3, up to 1000 dt0; R's pole at
    # z = 1/gamma ~ 3.4 lies beyond that
    config = ManifoldConfig(n=n, grid=build_grid(size))
    ref = fubini_study_reference(config)
    for phi in (TILT, RadialPotential((0.0, 0.2, 0.1))):
        jac, total = _fd_jacobian(ref, phi)
        eig = np.linalg.eigvals(jac)
        growing = eig.real > 0.0
        assert 1 <= growing.sum() <= 3 and eig.real.max() < 1.0 + 1e-6
        state = state_from_total(config, total)
        dt0 = _stable_dt(config, state.r, state.q)
        accurate = np.geomspace(dt0, 1000.0 * dt0, 13)
        for dt in np.concatenate((accurate, np.geomspace(10.0, 1e4, 4))):
            z = dt * eig
            amplification = np.abs(_ros2(lambda y: z * y, lambda v: v / (1.0 - _GAMMA * z),
                                         np.ones_like(z), z, 1.0))
            assert (amplification[~growing] - 1.0).max() <= 1e-9, (phi, dt)
            if dt <= accurate[-1]:
                exact = np.abs(np.exp(z[growing]))
                excess = amplification[growing] - exact
                assert (excess - 0.1 * np.abs(z[growing]) ** 3 * exact).max() <= 1e-9, (phi, dt)


def test_long_flow_n3_meets_criterion_3():
    # criterion 3's gates on a long n = 3 flow, where the convection term
    # gives the Jacobian complex eigenvalues (ROS2 is A-stable, so the step
    # still runs at the record spacing)
    config = ManifoldConfig(n=3, grid=build_grid(512))
    trace = run(FlowConfig(manifold=config, initial=TILT, t_max=10.0, record_every=1000))
    final = trace.records[-1]
    assert trace.records[-1].t == pytest.approx(10.0, abs=1e-12)
    assert trace.rejected == 0
    assert not flow_gate_failures(trace)
    assert final.scal_max - final.scal_min <= 1e-3
    assert trace.min_positivity() > 0.0


@pytest.mark.parametrize("n", (1, 2, 3))
def test_ros2_matches_rk4(n):
    # the same flow by Radau IIA (order 5, L-stable) at rtol 1e-11, landing on
    # the ROS2 trace's record times. Its Jacobian comes from finite
    # differences on the stencils' band, so the reference shares only the
    # velocity with the flow. Its gaps to the trace match, to 2 digits, those
    # of the stability-capped classical RK4 this test was first written on
    config = ManifoldConfig(n=n, grid=build_grid(512))
    g = config.grid
    trace = run(FlowConfig(manifold=config, initial=TILT, t_max=0.5, record_every=100))
    ref = fubini_study_reference(config)
    shift = _shift_profile(ref)
    times = [rec.t for rec in trace.records]
    band = diags([np.ones(g.size + 1)] * (2 * HALF_BAND + 1), range(-HALF_BAND, HALF_BAND + 1),
                 shape=(g.size + 1, g.size + 1))

    def velocity(t, total):
        return _kernels.velocity(total, shift, g, n)

    solution = solve_ivp(velocity, (0.0, times[-1]), ref.state.phi_total + TILT.values(g),
                         method="Radau", t_eval=times, rtol=1e-11, atol=1e-13,
                         jac_sparsity=band)
    assert solution.success
    for rec, total in zip(trace.records[1:], solution.y.T[1:]):
        expected = _record(ref, state_from_total(config, total), rec.t)
        for name in ("nu", "e1", "dirichlet", "residual"):
            assert getattr(rec, name) == pytest.approx(getattr(expected, name), abs=1e-8), name
        for name in ("scal_min", "scal_max"):
            assert getattr(rec, name) == pytest.approx(getattr(expected, name), abs=1e-4), name
    assert len(trace.records) > 10


def _short_flow_in_subprocess(before, after):
    # runs ``before``, a short flow, then ``after`` in a fresh interpreter;
    # returns what it printed
    code = ("import sys, krflow\n" + before +
            "config = krflow.FlowConfig(manifold=krflow.ManifoldConfig(\n"
            "    n=2, grid=krflow.build_grid(64)),\n"
            "    initial=krflow.RadialPotential((0.0, 0.2)), t_max=0.05)\n"
            "assert krflow.run(config).factorizations > 0\n" + after)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(krflow.__file__))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_flow_does_not_import_scipy():
    # scipy would cost the flow 28-52 MiB of peak memory and 0.3-0.7 s of
    # import time (scipy.linalg, scipy.integrate); the step's banded LU is the
    # LAPACK inside numpy's own OpenBLAS, and the flow imports no scipy module
    out = _short_flow_in_subprocess(
        "", "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert out.strip() == "[]"


def test_potentials_do_not_import_numpy_polynomial():
    # a polynomial potential's nodal values come from Horner's rule in
    # ``RadialPotential.values``, so evaluating one and flowing from one
    # leave numpy.polynomial (0.75 MiB of resident memory) unimported
    out = _short_flow_in_subprocess(
        "manifold = krflow.ManifoldConfig(n=2, grid=krflow.build_grid(64))\n"
        "krflow.evaluate(krflow.fubini_study_reference(manifold),\n"
        "                krflow.RadialPotential((0.0, 0.1, 0.05)))\n",
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    assert out.strip() == "[]"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="lists the mapped shared objects from Linux's /proc/self/maps")
def test_flow_maps_no_new_shared_object():
    # the banded LU is found among the libraries numpy already loaded (its
    # bundled scipy-openblas64, the one LAPACK banded.py supports), so the
    # flow maps no shared object that importing krflow did not already map
    objects = ("def objects():\n"
               "    with open('/proc/self/maps') as maps:\n"
               "        paths = (line.split()[-1] for line in maps)\n"
               "        return {p for p in paths if '.so' in p.rsplit('/', 1)[-1]}\n")
    _short_flow_in_subprocess(
        objects + "before = objects()\n",
        "assert objects() == before, sorted(objects() - before)\n"
        "assert any('openblas' in p for p in before), sorted(before)\n")
