"""Potential-form Ricci flow dphi/dt = log(volume ratio) + phi - h.

The method-of-lines system is integrated on the nodal values with the damped
second-order Runge-Kutta-Chebyshev method (RKC2; Sommeijer, Shampine &
Verwer, J. Comput. Appl. Math. 88, 1997). The reduced problem is stiff like
a 1D diffusion equation: the spectral estimate in ``_stable_dt`` caps
classical explicit steps far below what accuracy needs. An s-stage RKC2 step
is stable on a real interval [-beta(s), 0] with beta(s) ~ 0.5 s^2, so each
step picks the smallest stage count that covers the estimate, and the step
itself can be as long as the record spacing. Every stage is one call of the
same velocity kernel; there are no linear solves.

Records fall on a time grid: record k sits at t = k * record_every * dt0,
where dt0 is the initial step size (``dt_init`` or its default, capped by
``_stable_dt`` at the initial state). Steps are cut to land on record times
and on t_max. A step that leaves the positive cone is rejected and retried
at half the size; after streaks of accepted steps the size grows again, up
to the record spacing.

Potentials would drift by an exponentially growing constant along the flow
(the +phi term integrates the spatially constant mode). Every recorded
functional is shift invariant, so the drift is pure gauge; ``run`` re-zeroes
the midpoint value after each step because the drifted constant's stencil
roundoff would otherwise contaminate the curvature columns of long traces.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import ConfigError, FlowAborted, StepRejected
from .functionals import (
    _dirichlet_from,
    _e1_energy_from,
    _k_energy_from,
    _velocity_from,
    fubini_study_reference,
    futaki_of_state,
    identity_residual,
    make_reference,
)
from .geometry import (
    ManifoldConfig,
    RadialPotential,
    ZERO_POTENTIAL,
    _potential_values,
    make_state,
    scalar_curvature,
    state_from_total,
)

TRACE_COLUMNS = ("t", "nu", "e1", "dirichlet", "residual",
                 "scal_min", "scal_max", "futaki", "min_Ahat", "min_Bhat")

# RKC2 damping: w0 = 1 + _DAMPING / s^2. For n >= 2 the (n-1)(1-x)/q
# convection term gives the Jacobian complex eigenvalues, which the thin
# stability region of the classical light damping (2/13) does not hold;
# heavy damping widens the region around the negative real axis at the cost
# of a shorter real interval (beta(s) ~ 0.495 s^2 instead of 0.653 s^2).
_DAMPING = 3.0
# the real stability interval must exceed dt * lambda by this factor
_STAGE_MARGIN = 1.2
# step limit dt <= _IMAG_STEPS / c_im, c_im the imaginary-part bound of the
# spectrum (see _step_limit)
_IMAG_STEPS = 10.0


@dataclass
class FlowConfig:
    """Flow run parameters.

    ``initial`` and the optional ``reference`` are potentials relative to the
    background. ``dt_init`` defaults to 1e-4 (2048/N)^2 and is additionally
    capped by the stability estimate; the result dt0 is the unit of the
    record grid: records fall at t = k * ``record_every`` * dt0 (plus the
    initial and final states), the spacing at which a classical explicit
    method at the stability cap would record every ``record_every`` steps.
    ``representation`` is "nodal" (default) or "polynomial" (least-squares
    refit of degree ``fit_degree`` after every accepted step).
    """

    manifold: ManifoldConfig
    initial: object
    t_max: float
    dt_init: float | None = None
    dt_safety: float = 0.9
    record_every: int = 200
    reference: object | None = None
    representation: str = "nodal"
    fit_degree: int = 8
    max_halvings: int = 60
    grow_streak: int = 16
    stability_cap: bool = True  # stage count and step limit from the spectral estimate; off: 2 stages
    gauge_fix: bool = True  # re-zero the potential's midpoint value after each step

    def __post_init__(self):
        if not self.t_max > 0.0:
            raise ConfigError(f"t_max must be positive, got {self.t_max}")
        if self.dt_init is not None and not self.dt_init > 0.0:
            raise ConfigError(f"dt_init must be positive, got {self.dt_init}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ConfigError(f"dt_safety must lie in (0, 1], got {self.dt_safety}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if self.representation not in ("nodal", "polynomial"):
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.fit_degree < 0:
            raise ConfigError(f"fit_degree must be >= 0, got {self.fit_degree}")
        if self.max_halvings < 0:
            raise ConfigError(f"max_halvings must be >= 0, got {self.max_halvings}")
        if self.grow_streak < 1:
            raise ConfigError(f"grow_streak must be >= 1, got {self.grow_streak}")


@dataclass(frozen=True)
class FlowRecord:
    t: float
    nu: float
    e1: float
    dirichlet: float
    residual: float
    scal_min: float
    scal_max: float
    futaki: float
    min_ahat: float
    min_bhat: float

    def row(self):
        return (self.t, self.nu, self.e1, self.dirichlet, self.residual,
                self.scal_min, self.scal_max, self.futaki, self.min_ahat, self.min_bhat)


@dataclass
class FlowTrace:
    """Time series of functional records along one flow run, with the step
    counts, the velocity evaluations (rejected steps included) and the
    largest stage count used."""

    records: list = field(default_factory=list)
    c_omega: float = 0.0
    accepted: int = 0
    rejected: int = 0
    velocity_evals: int = 0
    max_stages: int = 0

    def residual_deviation(self):
        return max(abs(rec.residual - self.c_omega) for rec in self.records)

    def nu_violation(self):
        """Largest relative increase of the K-energy between consecutive
        records, (nu_next - nu) / (1 + |nu|); <= 0 means monotone."""
        if len(self.records) < 2:
            return 0.0
        return max((cur.nu - prev.nu) / (1.0 + abs(prev.nu))
                   for prev, cur in zip(self.records, self.records[1:]))

    def inequality_margin(self):
        """min over records of E1 - 2 nu - C; >= 0 up to rounding."""
        return min(rec.e1 - 2.0 * rec.nu - self.c_omega for rec in self.records)

    def min_positivity(self):
        return min(min(rec.min_ahat, rec.min_bhat) for rec in self.records)


def default_dt_init(grid):
    return 1e-4 * (2048.0 / grid.size) ** 2


def _stable_dt(config, r, q):
    """Spectral step unit 2.5 / lambda from a frozen-coefficient symbol bound.

    lambda bounds the spectral radius of the velocity's Jacobian: the
    diffusion coefficient in x is x(1-x)/r, 1.9/dx^2 bounds the squared
    symbol of the composed first-derivative stencils, 1.4/dx the first-order
    part, +2 covers the zero-order term. 2.5 / lambda is the classical RK4
    stability limit; here it sets the record-grid unit dt0, and lambda
    itself sets the RKC stage count (``_stage_count``).
    """
    g = config.grid
    n = config.n
    diff = float((g.xm / r).max())
    conv = float((np.abs(1.0 - 2.0 * g.x) / r).max())
    if n > 1:
        conv += float(((n - 1) * g.omx / q).max())
    lam = 1.9 * diff / (g.dx * g.dx) + 1.4 * conv / g.dx + 2.0
    return 2.5 / lam


def _step_limit(config, q):
    """Longest step whose complex eigenvalues the damped stability region
    holds: dt <= _IMAG_STEPS / c_im, c_im = 1.4 (n-1) max((1-x)/q) / dx the
    bound on the imaginary parts that the n >= 2 convection term produces.
    No limit at n = 1, whose spectrum is nearly real."""
    if config.n == 1:
        return np.inf
    g = config.grid
    c_im = 1.4 * (config.n - 1) * float((g.omx / q).max()) / g.dx
    return _IMAG_STEPS / c_im


@lru_cache(maxsize=None)
def _rkc_coefficients(s):
    """Damped RKC2 recurrence coefficients for s >= 2 stages.

    Returns ``(mu, nu, mu_t, gamma_t, beta)``: per-stage tuples indexed by
    stage j (entries below the first used stage are unused) and the real
    stability interval beta(s), at which the Chebyshev argument w0 + w1 z
    reaches -1. The stability polynomial is a_s + b_s T_s(w0 + w1 z).
    """
    w0 = 1.0 + _DAMPING / (s * s)
    t, t1, t2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]  # T_j, T_j', T_j'' at w0
    for _ in range(2, s + 1):
        t.append(2.0 * w0 * t[-1] - t[-2])
        t1.append(2.0 * t[-2] + 2.0 * w0 * t1[-1] - t1[-2])
        t2.append(4.0 * t1[-2] + 2.0 * w0 * t2[-1] - t2[-2])
    w1 = t1[s] / t2[s]
    b = [0.0, 0.0] + [t2[j] / (t1[j] * t1[j]) for j in range(2, s + 1)]
    b[0] = b[1] = b[2]
    a = [1.0 - b[j] * t[j] for j in range(s + 1)]
    mu = [0.0, 0.0] + [2.0 * w0 * b[j] / b[j - 1] for j in range(2, s + 1)]
    nu = [0.0, 0.0] + [-b[j] / b[j - 2] for j in range(2, s + 1)]
    mu_t = [0.0, b[1] * w1] + [2.0 * w1 * b[j] / b[j - 1] for j in range(2, s + 1)]
    gamma_t = [0.0, 0.0] + [-a[j - 1] * mu_t[j] for j in range(2, s + 1)]
    return tuple(mu), tuple(nu), tuple(mu_t), tuple(gamma_t), (1.0 + w0) / w1


def _stage_count(config, state, dt):
    """Smallest s >= 2 with beta(s) >= _STAGE_MARGIN * dt * lambda, where
    lambda = 2.5 / _stable_dt is the spectral estimate at ``state``."""
    z = _STAGE_MARGIN * dt * 2.5 / _stable_dt(config, state.r, state.q)
    s = 2
    while _rkc_coefficients(s)[4] < z:
        s += 1
    return s


def _rkc_step(f, y0, dt, s):
    """The s-stage damped RKC2 update of dy/dt = f(y); calls f s times.

    Works on the stage increments d_j = Y_j - Y_0, updated in place (f must
    return a new array).
    """
    mu, nu, mu_t, gamma_t, _ = _rkc_coefficients(s)
    f0 = dt * f(y0)
    d2, d1 = 0.0, mu_t[1] * f0
    for j in range(2, s + 1):
        d = f(y0 + d1)
        d *= mu_t[j] * dt
        d += mu[j] * d1
        d += nu[j] * d2
        d += gamma_t[j] * f0
        d2, d1 = d1, d
    return y0 + d1


def _shift_profile(ref):
    return ref.state.log_density + ref.state.phi_total + ref.potential.h


def step(ref, phi, dt, representation="nodal", fit_degree=8, stages=None, trace=None):
    """One damped RKC2 step from the relative potential ``phi``.

    ``stages`` defaults to the stage rule (``_stage_count``) on the spectral
    estimate at ``phi``. When a ``trace`` is given, the step adds its
    velocity evaluations and stage count to it. Raises StepRejected when any
    stage or the result leaves the positive cone; the caller is expected to
    halve dt and retry. Returns the updated relative potential (nodal array,
    or RadialPotential when the polynomial representation is requested).
    """
    g = ref.grid
    n = ref.config.n
    total = ref.state.phi_total + _potential_values(phi, g)
    if stages is None:
        stages = _stage_count(ref.config, state_from_total(ref.config, total), dt)
    shift = _shift_profile(ref)
    if trace is not None:
        trace.max_stages = max(trace.max_stages, stages)

    def rejected(min_a, min_b):
        return StepRejected(f"positivity lost at dt = {dt:.3e} "
                            f"(min Ahat {min_a:.3g}, min Bhat {min_b:.3g})")

    def velocity(values):
        if trace is not None:
            trace.velocity_evals += 1
        out, min_a, min_b = _kernels.velocity(values, shift, g.x, g.xm, g.omx, g.dx, n)
        if out is None:
            raise rejected(min_a, min_b)
        return out

    new_total = _rkc_step(velocity, total, dt, stages)
    _, min_a, min_b = _kernels.log_density(new_total, g.x, g.xm, g.omx, g.dx, n)
    if not (min_a > 0.0 and min_b > 0.0):
        raise rejected(min_a, min_b)
    rel = new_total - ref.state.phi_total
    if representation == "polynomial":
        coeffs = np.polynomial.polynomial.polyfit(g.x, rel, fit_degree)
        return RadialPotential(coeffs, max_degree=fit_degree)
    return rel


def _record(ref, state, t):
    rel = state.phi_total - ref.state.phi_total
    nu = _k_energy_from(ref, state, rel)
    e1 = _e1_energy_from(ref, state, rel)
    dir_term = _dirichlet_from(state, _velocity_from(ref, state, rel))
    scal = scalar_curvature(state)
    return FlowRecord(
        t=t,
        nu=nu,
        e1=e1,
        dirichlet=dir_term,
        residual=e1 - 2.0 * nu - dir_term,
        scal_min=float(scal.min()),
        scal_max=float(scal.max()),
        futaki=futaki_of_state(state),
        min_ahat=float(state.ahat.min()),
        min_bhat=float(state.bhat.min()),
    )


def run(config):
    """Integrate to t_max, recording functionals on the record grid
    t = k * record_every * dt0 (plus the initial and final states)."""
    manifold = config.manifold
    g = manifold.grid
    if config.reference is None:
        ref = fubini_study_reference(manifold)
    else:
        ref = make_reference(make_state(manifold, config.reference))
    base = ref.state.phi_total
    rel = _potential_values(config.initial, g)
    state = state_from_total(manifold, base + rel)  # validates the initial data

    trace = FlowTrace(c_omega=c_omega_estimate(ref))
    trace.records.append(_record(ref, state, 0.0))

    dt0 = config.dt_init if config.dt_init is not None else default_dt_init(g)
    if config.stability_cap:
        dt0 = min(dt0, _stable_dt(manifold, state.r, state.q))
    spacing = config.record_every * dt0
    dt = spacing
    t = 0.0
    k = 1  # index of the next record time
    streak = 0
    halvings = 0
    stages = 2
    t_end = config.t_max * (1.0 - 1e-12)
    while t < t_end:
        t_next = k * spacing
        if t_next >= t_end:
            t_next = config.t_max
        remaining = t_next - t
        # land on the record time instead of leaving a roundoff-sized sliver
        dt_step = remaining if remaining <= dt * (1.0 + 1e-9) else dt
        if config.stability_cap:
            dt_step = min(dt_step, _step_limit(manifold, state.q))
            stages = _stage_count(manifold, state, dt_step)
        try:
            new = step(ref, rel, dt_step, config.representation, config.fit_degree,
                       stages=stages, trace=trace)
        except StepRejected:
            trace.rejected += 1
            halvings += 1
            dt = 0.5 * dt_step
            streak = 0
            if halvings > config.max_halvings or dt < 1e-14:
                raise FlowAborted(
                    f"dt underflow at t = {t:.6g} after {halvings} consecutive halvings")
            continue
        halvings = 0
        rel = _potential_values(new, g)
        if config.gauge_fix:
            # the constant mode grows like e^t and is pure gauge (every
            # recorded functional is shift invariant); left alone it reaches
            # ~1e3 by t ~ 10 and its stencil roundoff pollutes the
            # derivative-heavy record columns
            rel = rel - rel[g.size // 2]
        landed = dt_step >= remaining
        if landed or config.stability_cap:  # the last step lands on t_max
            state = state_from_total(manifold, base + rel)
        t = t_next if landed else t + dt_step
        trace.accepted += 1
        streak += 1
        if streak >= config.grow_streak:
            streak = 0
            dt = min(dt / config.dt_safety, spacing)
        if landed and t < config.t_max:
            trace.records.append(_record(ref, state, t))
            k += 1
    if trace.records[-1].t < t:
        trace.records.append(_record(ref, state, t))
    return trace


def c_omega_estimate(ref):
    """The reference constant, measured as the identity residual at phi = 0.

    Equal (within discretization error) to the residual at any other
    potential and at any flow time.
    """
    return identity_residual(ref, ZERO_POTENTIAL)
