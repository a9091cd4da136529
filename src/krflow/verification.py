"""Finite-difference adjudication of the derivative identities and the
property suites (axioms, monotonicity, residual constancy).

Every suite entry is normalized so that PASS means value <= tolerance; the
report is deterministic for a fixed seed and serializes one
``check_name,status,value,tolerance`` record per line.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .calculus import build_grid, d_ds
from .flow import FlowConfig, run
from .functionals import (
    J_FORMS_TOL,
    Energies,
    e1_coefficients,
    evaluate,
    fubini_study_reference,
    futaki_of_state,
    make_reference,
    weighted_sum,
)
from .geometry import (
    DEFAULT_COEFF_BOUND,
    DEFAULT_DEGREE,
    ManifoldConfig,
    RadialPotential,
    average,
    laplacian,
    sample_admissible,
    scalar_curvature,
    state_from,
    state_from_total,
    wedge_density,
)

IDENTITIES = ("DER_JFUNC", "DER_KENERG", "DER_J1FUN", "DER_E1")
# potential of the suite's perturbed ("bent") reference metric
BENT_REFERENCE = (0.0, 0.2, 0.1)


@dataclass(frozen=True)
class VariationalCheck:
    """One central-difference check of a derivative identity."""

    identity: str
    lhs: float
    rhs: float
    dt: float

    @property
    def rel_err(self):
        return abs(self.lhs - self.rhs) / (1.0 + max(abs(self.lhs), abs(self.rhs)))


def _variations(ref, phi, e1_coeffs):
    """The four identities' functionals at ``phi``, in ``IDENTITIES`` order:
    one ``Energies``' nu, E1 and J-type mixed sums of its uncentered averages."""
    n = ref.config.n
    energies = evaluate(ref, phi, e1_coeffs)
    return (weighted_sum(np.full(n + 1, float(n + 1)), energies.uncentered), energies.nu,
            weighted_sum(e1_coefficients(n), energies.uncentered), energies.e1)


def _identity_rhs(ref, state, xi):
    """The four analytic first variations at ``state`` along the nodal
    direction ``xi``, in ``IDENTITIES`` order."""
    n = ref.config.n
    cfg = ref.config
    jfunc = (n + 1) * average(xi * state.density, cfg)
    kenerg = -0.5 * average(xi * (scalar_curvature(state) - 2.0 * n) * state.density, cfg)
    j1fun = 0.0
    e1 = average(laplacian(state, xi) * wedge_density(state.ricci, 1, state.form, n), cfg)
    if n > 1:
        mixed = wedge_density(ref.form, 2, state.form, n)
        j1fun = (n - 1) * average(xi * (state.density - mixed), cfg)
        ric_sq = wedge_density(state.ricci, 2, state.form, n)
        e1 -= (n - 1) * average(xi * (ric_sq - state.density), cfg)
    return jfunc, kenerg, j1fun, e1


def variational_check(ref, phi, direction, dt=1e-4, e1_coeffs=None):
    """Central finite differences of the four identities' functionals along
    ``direction`` against their analytic derivatives at ``phi``.

    Returns ``{identity: VariationalCheck}`` in ``IDENTITIES`` order. One
    state and its ``Energies`` at each of phi +- dt * direction serve all
    four differences (E1 with ``e1_coeffs``), and one state at phi all four
    right-hand sides.
    """
    plus = _variations(ref, phi + direction.scaled(dt), e1_coeffs)
    minus = _variations(ref, phi + direction.scaled(-dt), e1_coeffs)
    rhs = _identity_rhs(ref, state_from(ref.state, phi), direction.values(ref.grid))
    return {identity: VariationalCheck(identity=identity, lhs=(p - m) / (2.0 * dt), rhs=r, dt=dt)
            for identity, p, m, r in zip(IDENTITIES, plus, minus, rhs)}


COCYCLES = ("nu", "e1", "mixed_energy")


def _cocycle_values(energies):
    """The ``COCYCLES`` of one ``Energies``: nu, E1 (default weights) and the
    mixed energy, the all-ones sum of its uncentered averages."""
    return (energies.nu, energies.e1,
            weighted_sum(np.ones(energies.ref.config.n + 1), energies.uncentered))


def cocycle_check(ref, phi1, phi2):
    """Defects of E(w, w2) = E(w, w1) + E(w1, w2), each normalized by its
    scale, as ``{name: defect}`` for the ``COCYCLES``: the K-energy, the first
    Chen-Tian energy and the mixed (Monge-Ampere) energy, all at
    discretization level. All three read one state at each of phi1 and phi2,
    the reference w1 promoted from the phi1 state, and one leg state at
    phi2 - phi1 relative to w1.

    The generalized energy J satisfies the diagonal axiom but NOT the
    cocycle. J is the reference average of phi minus the mixed energy, and
    the mixed energy is a cocycle, so J's signed defect telescopes exactly to

        J(w, phi2) - J(w, phi1) - J(w1, phi2 - phi1)
            = average((phi2 - phi1) * (ref.state.density - ref1.state.density)),

    with ref1 = re_reference(ref, phi1). It is generically of order one
    (eps^2/12 for the pair (eps x, 2 eps x) at n = 1).
    """
    at_phi1 = evaluate(ref, phi1)
    firsts = _cocycle_values(at_phi1)
    ref1 = make_reference(at_phi1.state)
    totals = _cocycle_values(evaluate(ref, phi2))
    seconds = _cocycle_values(evaluate(ref1, phi2 - phi1))
    return {name: abs(total - first - second)
            / (1.0 + max(abs(total), abs(first), abs(second)))
            for name, total, first, second in zip(COCYCLES, totals, firsts, seconds)}


@dataclass(frozen=True)
class CheckEntry:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self):
        return self.value <= self.tolerance

    @property
    def status(self):
        return "PASS" if self.passed else "FAIL"

    def line(self):
        return f"{self.name},{self.status},{self.value:.17g},{self.tolerance:.17g}"


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def to_text(self):
        return "\n".join(e.line() for e in self.entries) + "\n"


DEFAULT_TOLERANCES = {
    "j_expressions_agree": J_FORMS_TOL,
    "j_nonneg": 1e-12,
    "shift_invariance": 1e-8,
    "der_jfunc": 1e-5,
    "der_kenerg": 1e-5,
    "der_j1fun": 1e-5,
    "der_e1": 1e-5,
    "cocycle_nu": 1e-6,
    "cocycle_e1": 1e-6,
    "cocycle_mixed_energy": 1e-6,
    "diagonal_vanishing": 1e-8,
    "h_defining_eq": 1e-6,
    "h_normalization": 1e-10,
    "h_background_zero": 1e-10,
    "futaki_vanishing": 1e-6,
    "futaki_independence": 1e-6,
    "scal_class_average": 1e-6,
    "residual_constancy_background": 1e-6,
    "residual_constancy_perturbed": 1e-6,
    "flow_nu_monotone": 1e-8,
    "flow_residual_constant": 1e-5,
    "flow_inequality": 1e-8,
}


@dataclass
class SuiteConfig:
    """Parameters of one deterministic verification run."""

    n: int = 1
    grid_size: int = 1024
    seed: int = 20240901
    samples: int = 20
    fd_pairs: int = 5
    fd_dt: float = 1e-4
    flow_grid: int = 512
    flow_t_max: float = 0.5
    flow_record_every: int = 100
    tolerances: dict = field(default_factory=dict)
    b1_offset: float = 0.0
    h_norm_offset: float = 0.0

    def __post_init__(self):
        # the shift check reads 3 samples, the cocycle checks 3 pairs of them
        if self.samples < 6:
            raise ConfigError(f"samples must be at least 6, got {self.samples}")
        for name in ("fd_pairs", "flow_record_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("fd_dt", "flow_t_max"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        try:
            build_grid(self.flow_grid)
        except ConfigError as exc:
            raise ConfigError(f"flow_grid: {exc}") from None


def tolerance(name, overrides=None):
    """The tolerance of check ``name``: its ``overrides`` entry, else its default."""
    return float((overrides or {}).get(name, DEFAULT_TOLERANCES[name]))


def flow_checks(trace, overrides=None):
    """The suite's, ``krflow flow``'s and the tests' verdicts on ``trace``, as
    ``CheckEntry``s at the ``tolerance``s under ``overrides``: max(0, nu's
    largest relative rise), the Theorem-2 residual's largest distance from
    C_omega against the tolerance times 1 + |C_omega|, and max(0, -min of
    E1 - 2 nu - C_omega). The suite's flow runs at Fubini-Study, where C_omega
    is exactly 0.0: there the residual entry has the bits of the deviation
    over 1 + |C_omega| against the bare tolerance."""
    gates = (("flow_nu_monotone", max(0.0, trace.nu_violation()), 1.0),
             ("flow_residual_constant", trace.residual_deviation(), 1.0 + abs(trace.c_omega)),
             ("flow_inequality", max(0.0, -trace.inequality_margin()), 1.0))
    return tuple(CheckEntry(name, float(value), tolerance(name, overrides) * scale)
                 for name, value, scale in gates)


def run_suite(config):
    """Run every check; failures become FAIL entries, never exceptions. Each
    finite-difference pair and each of the three cocycle pairs is one call."""
    entries = []

    def add(name, value):
        entries.append(CheckEntry(name, float(value), tolerance(name, config.tolerances)))

    rng = np.random.default_rng(config.seed)
    grid = build_grid(config.grid_size)
    manifold = ManifoldConfig(n=config.n, grid=grid)
    n = config.n
    fs_ref = fubini_study_reference(manifold)
    bent_state = state_from_total(manifold, RadialPotential(BENT_REFERENCE))
    bent_ref = make_reference(bent_state, normalization_offset=config.h_norm_offset)
    e1_coeffs = e1_coefficients(n)
    e1_coeffs[1] += config.b1_offset
    potentials = sample_admissible(manifold, rng, config.samples)

    # energies at the sampled potentials (background reference), each read
    # once while its state is live: J's two forms and the residual (for the
    # background residual-constancy check) are kept as floats, the first
    # three are shifted by a constant and the first five states give the
    # class average of the scalar curvature
    j_forms, fs_residuals = [], []
    shift_drift = scal_worst = 0.0
    for k, phi in enumerate(potentials):
        energies = evaluate(fs_ref, phi, e1_coeffs)
        j_forms.append((energies.j, energies.j_mixed))
        fs_residuals.append(energies.residual)
        if k < 3:
            shifted = evaluate(fs_ref, phi + RadialPotential((0.75,)), e1_coeffs)
            shift_drift = max(shift_drift, abs(shifted.j - energies.j),
                              abs(shifted.nu - energies.nu), abs(shifted.e1 - energies.e1))
        if k < 5:
            scal = average(scalar_curvature(energies.state) * energies.state.density, manifold)
            scal_worst = max(scal_worst, abs(scal - 2.0 * n))
    del energies, shifted  # no state outlives its reads
    add("j_expressions_agree", max(abs(j - j_mixed) / (1.0 + abs(j)) for j, j_mixed in j_forms))
    add("j_nonneg", max(0.0, -min(j for j, _ in j_forms)))
    add("shift_invariance", shift_drift)

    # derivative identities against central differences
    pairs = []
    while len(pairs) < config.fd_pairs:
        base = sample_admissible(manifold, rng, 1)[0]
        direction = RadialPotential(
            rng.uniform(-DEFAULT_COEFF_BOUND, DEFAULT_COEFF_BOUND, DEFAULT_DEGREE + 1))
        pairs.append((base, direction))
    checks = [variational_check(fs_ref, base, direction, dt=config.fd_dt, e1_coeffs=e1_coeffs)
              for base, direction in pairs]
    for identity in IDENTITIES:
        add(identity.lower(), max(c[identity].rel_err for c in checks))

    # energy-functional axioms (cocycles hold for nu, e1 and the mixed
    # energy; J is checked on the diagonal axiom only, see cocycle_check)
    defects = [cocycle_check(fs_ref, p1, p2) for p1, p2 in zip(potentials[:3], potentials[3:6])]
    for name in COCYCLES:
        add("cocycle_" + name, max(d[name] for d in defects))
    # each reference's energies at its own state, for the diagonal axiom and
    # as C_omega below: every mixed average is exactly 0.0 there, so E1's
    # weights add nothing whatever b1_offset is, and the centered averages
    # are the uncentered ones
    own = {ref: Energies(ref, ref.state, np.zeros_like(ref.state.phi_total), e1_coeffs)
           for ref in (bent_ref, fs_ref)}
    add("diagonal_vanishing", max(
        max(abs(e.j), abs(e.nu), abs(e.e1), abs(weighted_sum(np.ones(n + 1), e.mixed)))
        for e in own.values()))

    # Ricci potential defining conditions
    h = bent_ref.h
    defect = d_ds(h, grid) - (bent_state.ricci.b - bent_state.form.b)
    add("h_defining_eq", np.abs(defect).max())
    add("h_normalization",
        abs(average((np.exp(h) - 1.0) * bent_ref.state.density, manifold)))
    add("h_background_zero", np.abs(fs_ref.h).max())

    # Futaki invariant: vanishing and independence of the metric in the class
    states = [fs_ref.state, bent_state]
    states += [state_from_total(manifold, psi) for psi in sample_admissible(manifold, rng, 2)]
    futaki_values = [futaki_of_state(s) for s in states]
    add("futaki_vanishing", max(abs(v) for v in futaki_values))
    add("futaki_independence",
        max(abs(a - b) for a in futaki_values for b in futaki_values))

    # scalar curvature class average
    add("scal_class_average", scal_worst)

    # the energy identity residual is a constant of the reference
    for name, ref in (("residual_constancy_background", fs_ref),
                      ("residual_constancy_perturbed", bent_ref)):
        residuals = [own[ref].residual]
        if ref is bent_ref:
            usable = sample_admissible(manifold, rng, config.samples, base=ref.state)
            residuals += [evaluate(ref, phi, e1_coeffs).residual for phi in usable]
        else:
            residuals += fs_residuals
        spread = max(residuals) - min(residuals)
        add(name, spread / (1.0 + abs(residuals[0])))

    # short flow: monotone K-energy, constant residual, inequality
    entries += flow_checks(run(FlowConfig(
        manifold=ManifoldConfig(n=n, grid=build_grid(config.flow_grid)),
        initial=RadialPotential((0.0, 0.2)),
        t_max=config.flow_t_max,
        record_every=config.flow_record_every,
    )), config.tolerances)

    return SuiteReport(entries=tuple(entries))
