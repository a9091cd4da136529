"""Potential-form Ricci flow dphi/dt = log(volume ratio) + phi - h.

The method-of-lines system is integrated on the nodal values with the
L-stable two-stage Rosenbrock method ROS2 (Verwer, Spee, Blom & Hundsdorfer,
SIAM J. Sci. Comput. 20, 1999) with gamma = 1 - 1/sqrt(2). The reduced
problem is stiff like a 1D diffusion equation: the spectral estimate in
``_stable_dt`` caps explicit steps far below what accuracy needs. ROS2 has
no such cap, so a step is as long as the record spacing. Each step uses two
velocities, f0 at its start and one at its stage, and makes two linear
solves with a step matrix M = I - gamma dt J, where J is the velocity's
exact Jacobian at the state M was built at: a band assembled from the grid's
operator bands (``calculus.derivative_bands``), LU-factored by LAPACK's
banded routines from numpy's own OpenBLAS (``banded``). ROS2 keeps order 2
with any matrix in place of the Jacobian (a W-method: Steihaug & Wolfbrandt,
Math. Comp. 33, 1979), so ``run`` keeps one factored ``StepMatrix`` and
refreshes it at the current state only when dt leaves its dt's landing slack
(every rejection does) or r or q drifts from the profiles it was built from
by more than ``_DRIFT``; an exactly singular M rejects the step like a cone
exit.

A step takes a ``MetricState`` and returns one, so each accepted state's
metric profiles are derived once: ``run`` validates the initial data into
the first state, each step builds the state of its result (its positivity
check), and ``run`` hands that state to the next step, which reads f0 off
it, to a refresh of the step matrix, which reads r and q, and at a record
time to the record, whose reads derive the state's density and Ricci
profile. Only the stage's profiles are derived besides, inside the velocity
kernel.

Records fall on a time grid: record k sits at t = k * record_every * dt0,
where dt0 is ``_stable_dt`` at the initial state, or ``dt_init`` when that
is smaller; the last record sits at t_max. ``run`` crosses one record
interval at a time, starting with one step of the interval's full length. A
rejected step is retried from the same start at half the size, until dt
falls below 1e-14 and the run aborts. The halved size holds until the
interval's record time, on which the last step is cut to land.

The flow runs relative to a reference metric built from a potential like
any other state: ``FlowConfig.reference`` defaults to the zero potential,
whose reference is Fubini-Study (h = 0 and C_omega = 0 exactly), and an
explicit ``reference=None`` is no potential, so ``run`` raises ConfigError.

Potentials would drift by an exponentially growing constant along the flow
(the +phi term integrates the spatially constant mode). Every recorded
functional is shift invariant, so the drift is pure gauge; ``step``
re-zeroes the midpoint value of its result because the drifted constant's
stencil roundoff would otherwise contaminate the curvature columns of long
traces.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels, banded
from .calculus import HALF_BAND, derivative_bands
from .errors import ConfigError, FlowAborted, NotInPotentialSpace, StepRejected, is_int
from .functionals import Energies, c_omega_estimate, futaki_of_state, make_reference
from .geometry import (ManifoldConfig, RadialPotential, scalar_curvature, state_from,
                       state_from_total)

TRACE_COLUMNS = ("t", "nu", "e1", "dirichlet", "residual",
                 "scal_min", "scal_max", "futaki", "min_Ahat", "min_Bhat")

# ROS2's diagonal coefficient. Both roots 1 -+ 1/sqrt(2) make the method
# L-stable; the smaller has the smaller error constant, gamma (1 - gamma) -
# 1/6 = 0.040 against -1.374, which the flow's slowly decaying low modes need
# at steps of the record spacing: at n = 1, N = 1024, from 0.2x + 3e-4 x^2 -
# 6.9e-3 x^3, nu's decrease to t = 0.055 in steps of 0.01 is off by 1.9e-3 of
# itself with the larger root and by 6.7e-5 with this one
_GAMMA = 1.0 - 1.0 / np.sqrt(2.0)

# The relative slack within which a step length counts as the one a step
# matrix or a record time was made for: a step whose remainder to the record
# time is this close lands on it, and a matrix serves steps this close to its dt
_SLACK = 1e-9

# How far r and q may drift from the profiles a step matrix was built from.
# On a stiff mode whose matrix eigenvalue is s times the true one, the
# step's amplification tends to 1 - 2a + a^2/2 with a = 1/(gamma s) as dt
# grows, and its modulus is at most 1 only for s >= 1/(4 gamma) ~ 0.854. For
# the diffusion term, whose coefficient is x(1-x)/r, s is about r/r_m, so a
# 10% bound keeps that limit in [-0.39, 0.61]. Without it, seeded flows far
# from Fubini-Study lost positivity, aborted or crept at dt ~ 1e-13
_DRIFT = 0.1


@dataclass
class FlowConfig:
    """Flow run parameters.

    ``initial`` and ``reference`` are potentials relative to the background;
    ``reference`` defaults to the zero potential, whose reference is
    Fubini-Study, and ``run`` raises ConfigError for ``reference=None``.
    dt0, the stability estimate at the initial state or ``dt_init`` when
    that is smaller, is the unit of the record grid: records fall at
    t = k * ``record_every`` * dt0 (plus the initial and final states), the
    spacing at which a classical explicit method at the stability cap would
    record every ``record_every`` steps. Steps run at the record spacing; a
    rejection shortens them only until the end of its record interval.
    """

    manifold: ManifoldConfig
    initial: object
    t_max: float
    dt_init: float | None = None
    record_every: int = 200
    reference: object = RadialPotential(())

    def __post_init__(self):
        if not 0.0 < self.t_max < np.inf:
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        if self.dt_init is not None and not self.dt_init > 0.0:
            raise ConfigError(f"dt_init must be positive, got {self.dt_init}")
        if not is_int(self.record_every) or self.record_every < 1:
            raise ConfigError(f"record_every must be an integer >= 1, got {self.record_every!r}")


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
    counts, the velocity evaluations (f0 and the stage's per step attempted
    with a step matrix; none when a refresh finds the matrix singular), the
    factorizations of the step matrix (one per refresh, see
    ``StepMatrix.fits``), and one ``(t, dt, min_ahat, min_bhat)`` entry per
    rejected step (the mins are None when the rejection did not report
    them). The records follow the flow's dissipation law dnu/dt = -n *
    dirichlet."""

    records: list = field(default_factory=list)
    c_omega: float = 0.0
    accepted: int = 0
    velocity_evals: int = 0
    factorizations: int = 0
    rejections: list = field(default_factory=list)

    @property
    def rejected(self):
        return len(self.rejections)

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


def _stable_dt(config, r, q):
    """Spectral step unit 2.5 / lambda from a frozen-coefficient symbol bound.

    lambda bounds the spectral radius of the velocity's Jacobian: the
    diffusion coefficient in x is x(1-x)/r, 1.9/dx^2 bounds the squared
    symbol of the composed first-derivative stencils, 1.4/dx the first-order
    part, +2 covers the zero-order term. 2.5 / lambda is the classical RK4
    stability limit. The flow's step has no stability limit; this unit is
    dt0, the unit of the record grid, unless ``dt_init`` is smaller.
    """
    g = config.grid
    n = config.n
    diff = float((g.xm / r).max())
    conv = float((np.abs(1.0 - 2.0 * g.x) / r).max())
    if n > 1:
        conv += float(((n - 1) * g.omx / q).max())
    lam = 1.9 * diff / (g.dx * g.dx) + 1.4 * conv / g.dx + 2.0
    return 2.5 / lam


def _jacobian_band(config, state):
    """Exact Jacobian of the velocity at the ``MetricState`` ``state`` (only
    ``r`` and ``q`` are read, so no density or Ricci profile is derived):

        J = diag(1/r) K + diag((n-1)(1-x)/q) D + I,

    r = (n+1) Ahat and q = (n+1) Bhat, with D and K the bands of
    ``calculus.derivative_bands``; a band of half-width HALF_BAND.
    """
    g = config.grid
    n = config.n
    d_band, k_band = derivative_bands(g)
    jac = k_band / state.r[:, None]
    if n > 1:
        jac += d_band * ((n - 1) * g.omx / state.q)[:, None]
    jac[:, HALF_BAND] += 1.0
    return jac


@dataclass(frozen=True)
class StepMatrix:
    """The step matrix I - gamma dt J, LU-factored (``factors``, as
    ``banded.factor`` returns them), with the dt and the profiles r and q of
    the state it was built at."""

    dt: float
    r: np.ndarray
    q: np.ndarray
    factors: tuple

    def fits(self, state, dt):
        """Whether steps of ``dt`` from the ``MetricState`` ``state`` may
        use this matrix: dt within the landing slack of its dt, and r and
        (where n > 1) q within ``_DRIFT`` of its profiles, relatively."""
        if abs(dt - self.dt) > _SLACK * dt:
            return False
        if np.abs(state.r / self.r - 1.0).max() > _DRIFT:
            return False
        return state.config.n == 1 or np.abs(state.q / self.q - 1.0).max() <= _DRIFT


def step_matrix(state, dt):
    """The ``StepMatrix`` of steps of ``dt`` at the ``MetricState`` ``state``;
    raises StepRejected (without minima) when it is exactly singular."""
    system = _jacobian_band(state.config, state)
    system *= -_GAMMA * dt
    system[:, HALF_BAND] += 1.0
    try:
        factors = banded.factor(system)
    except np.linalg.LinAlgError as exc:
        raise StepRejected(f"step matrix singular at dt = {dt:.3e} ({exc})") from exc
    return StepMatrix(dt, state.r, state.q, factors)


def _ros2(f, solve, y0, f0, dt):
    """One ROS2 step of dy/dt = f(y) from y0, with f0 = f(y0) and ``solve``
    applying (I - _GAMMA dt A)^-1 for any matrix A (order 2 for every A;
    stable on stiff modes where A is near the Jacobian); calls f once and
    ``solve`` twice."""
    k1 = solve(f0)
    k2 = solve(f(y0 + dt * k1) - 2.0 * k1)
    return y0 + dt * (1.5 * k1 + 0.5 * k2)


def step(ref, state, dt, matrix, trace=None):
    """One ROS2 step of the flow relative to ``ref`` from the ``MetricState``
    ``state``: the run's initial state or the one a previous step returned.

    f0 is read off the state's profiles; ``matrix`` is a ``StepMatrix``
    (``step_matrix``), built at this state or another. Returns the
    ``MetricState`` of the result, whose potential relative to ``ref`` is
    re-zeroed at the midpoint. With a ``trace``, the step adds its velocity
    evaluations to it. Raises StepRejected when the stage or the result
    leaves the positive cone (with the minima); the caller is expected to
    halve dt and retry from the same state.
    """
    g = ref.grid
    config = ref.config
    base = ref.state.phi_total
    shift = ref.shift

    def velocity(values):
        if trace is not None:
            trace.velocity_evals += 1
        return _kernels.velocity(values, shift, g, config.n)

    try:
        if trace is not None:
            trace.velocity_evals += 1
        f0 = state.log_density + state.phi_total
        f0 -= shift
        rel = _ros2(velocity, partial(banded.solve, matrix.factors), state.phi_total, f0,
                    dt) - base
        # the constant mode grows like e^t and is pure gauge (every recorded
        # functional is shift invariant); left alone it reaches ~1e3 by t ~ 10
        # and its stencil roundoff pollutes the derivative-heavy record columns
        rel = rel - rel[g.size // 2]
        return state_from(ref.state, rel)
    except NotInPotentialSpace as exc:
        mins = exc.min_ahat, exc.min_bhat
        where = "" if None in mins else " (min Ahat {:.3g}, min Bhat {:.3g})".format(*mins)
        raise StepRejected(f"positivity lost at dt = {dt:.3e}{where}", *mins) from exc


def _record(ref, state, t):
    energies = Energies(ref, state, state.phi_total - ref.state.phi_total)
    scal = scalar_curvature(state)
    return FlowRecord(
        t=t,
        nu=energies.nu,
        e1=energies.e1,
        dirichlet=energies.dirichlet,
        residual=energies.residual,
        scal_min=float(scal.min()),
        scal_max=float(scal.max()),
        futaki=futaki_of_state(state),
        min_ahat=state.min_ahat,
        min_bhat=state.min_bhat,
    )


def run(config):
    """Integrate to t_max, recording functionals on the record grid
    t = k * record_every * dt0 (plus the initial and final states), one
    record interval at a time, with one step matrix while it fits (see
    ``StepMatrix.fits``)."""
    manifold = config.manifold
    ref = make_reference(state_from_total(manifold, config.reference))
    state = state_from(ref.state, config.initial)  # validates the initial data

    trace = FlowTrace(c_omega=c_omega_estimate(ref))
    trace.records.append(_record(ref, state, 0.0))

    dt0 = _stable_dt(manifold, state.r, state.q)
    if config.dt_init is not None:
        dt0 = min(config.dt_init, dt0)
    spacing = config.record_every * dt0
    t_end = config.t_max * (1.0 - 1e-12)
    t = 0.0
    k = 0  # index of the record time the interval ends on
    matrix = None
    while t < t_end:
        k += 1
        t_next = k * spacing if k * spacing < t_end else config.t_max
        dt = t_next - t
        while t < t_next:
            remaining = t_next - t
            # land on the record time instead of leaving a roundoff-sized sliver
            if remaining <= dt * (1.0 + _SLACK):
                dt = remaining
            try:
                if matrix is None or not matrix.fits(state, dt):
                    matrix = None  # drop the old LU first: one alive during a refresh
                    matrix = step_matrix(state, dt)
                    trace.factorizations += 1
                state = step(ref, state, dt, matrix, trace=trace)
            except StepRejected as exc:
                trace.rejections.append((t, dt, exc.min_ahat, exc.min_bhat))
                dt *= 0.5
                if dt < 1e-14:
                    raise FlowAborted(f"dt underflow at t = {t:.6g} (dt = {dt:.3g})", trace=trace)
                continue
            trace.accepted += 1
            t = t_next if dt == remaining else t + dt
        trace.records.append(_record(ref, state, t))
    return trace
