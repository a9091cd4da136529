"""Ricci potential, Futaki invariant, and the canonical-class energies.

A ``Reference`` bundles a positive metric state with its Ricci potential and
the two normalization constants; all functionals are evaluated for a
potential *relative to* a reference, which makes the two-argument (cocycle)
form available through ``re_reference``.

Shift robustness: every functional here is invariant under adding a constant
to the potential because its mixed-term coefficients sum to zero. The
implementations subtract the potential's midpoint value before forming
products with volume densities, which makes that invariance exact in
floating point as well (potentials drift by large constants along the flow;
a fixed-node gauge keeps that drift out of the quadratures without masking
deliberately corrupted coefficient systems). ``mixed_sum`` is the uncentered
primitive and feels constants.

J, nu and E1 weight the same n + 1 mixed averages <phi, ref^k wedge
perturbed^(n-k)>. ``_pieces`` derives a state's n + 1 wedges once, the two
ends being the states' own volume densities, and averages the centred and,
through ``_averages``, the uncentred values against them.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .calculus import cumulative_dx, d_ds, integrate_ds, over_xm
from .errors import ExpressionMismatch, NotInPotentialSpace
from .geometry import (
    RadialForm,
    _potential_values,
    average,
    background,
    state_from,
    state_from_total,
    wedge_density,
)


ENDPOINT_TOL = 1e-7  # ``ricci_potential``'s endpoint test on B_ric - B, per 1 + max B


def k_energy_coefficients(n):
    """Mixed-term weights of the K-energy: (n, -1, ..., -1)."""
    coeffs = np.full(n + 1, -1.0)
    coeffs[0] = float(n)
    return coeffs


def e1_coefficients(n):
    """Mixed-term weights of the first Chen-Tian energy: (n-1, n-1, -2, ..., -2)."""
    coeffs = np.full(n + 1, -2.0)
    coeffs[0] = coeffs[1] = float(n - 1)
    return coeffs


@dataclass(frozen=True, eq=False)
class RicciPotential:
    """Solution h of i ddbar h = Ric - metric, normalized so that the
    average of e^h - 1 against the metric volume vanishes; ``c`` is the
    additive constant that enforced the normalization."""

    h: np.ndarray
    c: float


@dataclass(frozen=True, eq=False)
class Reference:
    """A metric state promoted to reference role, with cached quantities."""

    state: "MetricState"
    potential: RicciPotential
    c0: float
    c1: float

    @property
    def config(self):
        return self.state.config

    @property
    def grid(self):
        return self.state.config.grid

    @property
    def form(self):
        return self.state.form


@dataclass(frozen=True)
class FunctionalReport:
    """Values of all functionals at one potential."""

    j: float
    j_mixed: float
    nu: float
    e1: float
    dirichlet: float
    residual: float
    c0: float
    c1: float


def ricci_potential(state, normalization_offset=0.0):
    """Ricci potential of ``state``'s metric.

    dh/dx = (B_ric - B)/(x(1-x)) is integrated from the midpoint outward;
    the additive constant comes in closed form from the two quadratures that
    define the normalization. ``normalization_offset`` deliberately corrupts
    the constant (mutation fixtures only).
    """
    g = state.grid
    diff = state.ricci.b - state.form.b
    scale = 1.0 + float(np.abs(state.form.b).max())
    if abs(diff[0]) > ENDPOINT_TOL * scale or abs(diff[-1]) > ENDPOINT_TOL * scale:
        raise NotInPotentialSpace(
            f"Ricci-minus-metric profile does not vanish at the endpoints "
            f"({diff[0]:.3e}, {diff[-1]:.3e}); state is not admissible")
    h_raw = cumulative_dx(over_xm(diff, g), g)
    h_raw -= h_raw[g.size // 2]
    total = integrate_ds(state.density, g)
    weighted = integrate_ds(np.exp(h_raw) * state.density, g)
    c = math.log(total / weighted) + normalization_offset
    return RicciPotential(h=h_raw + c, c=c)


def make_reference(state, normalization_offset=0.0):
    """Promote a state to reference role (computes h and the constants)."""
    potential = ricci_potential(state, normalization_offset=normalization_offset)
    c0 = average(potential.h * state.density, state.config)
    c1 = average(potential.h * _entropy_density(state, state.form), state.config)
    return Reference(state=state, potential=potential, c0=c0, c1=c1)


def fubini_study_reference(config):
    """Reference at the background metric (h = 0 exactly)."""
    return make_reference(background(config))


def re_reference(ref, psi):
    """The perturbed metric as a new reference with its own Ricci potential."""
    return make_reference(state_from(ref.state, psi))


def _relative_state(ref, phi):
    values = _potential_values(phi, ref.grid)
    return state_from_total(ref.config, ref.state.phi_total + values), values


def _entropy_density(state, form):
    """(Ric(state) + form) wedge state^(n-1), the density of E1's entropy term."""
    ric_plus = RadialForm(a=state.ricci.a + form.a, b=state.ricci.b + form.b)
    return wedge_density(ric_plus, 1, state.form, state.config.n)


def _averages(values, wedges, config):
    return [average(values * wedge, config) for wedge in wedges]


def _weighted(coeffs, mixed):
    np1 = len(mixed)
    return sum(coeffs[k] / np1 * mixed[k] for k in range(np1))


# what the energies share at one state: its relative nodal values (also centred
# at the midpoint), log volume ratio, wedges ref^k wedge state^(n-k), centred averages
_Pieces = namedtuple("_Pieces", "state values centered log_rel wedges mixed")


def _pieces(ref, state, values):
    n = ref.config.n
    # k = 0 and k = n are the two volume densities themselves
    wedges = [state.density, *(wedge_density(ref.form, k, state.form, n) for k in range(1, n)),
              ref.state.density]
    centered = values - values[values.shape[0] // 2]
    log_rel = state.log_density - ref.state.log_density
    return _Pieces(state, values, centered, log_rel, wedges,
                   _averages(centered, wedges, ref.config))


def mixed_sum(ref, phi, coeffs):
    """sum_k coeffs[k]/(n+1) <avg of phi * (ref^k wedge perturbed^(n-k))>."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (ref.config.n + 1,):
        raise ValueError(f"need {ref.config.n + 1} coefficients, got shape {coeffs.shape}")
    pieces = _pieces(ref, *_relative_state(ref, phi))
    return _weighted(coeffs, _averages(pieces.values, pieces.wedges, ref.config))


def _j_energy_from(ref, pieces):
    n = ref.config.n
    grad = d_ds(pieces.centered, ref.grid) ** 2
    j_grad = 0.0
    for k in range(n):
        weight = (k + 1) / (n + 1)
        density = grad * ref.form.b ** k * pieces.state.form.b ** (n - 1 - k)
        j_grad += weight * average(density, ref.config)
    # the k = n average is against the reference volume itself
    j_mixed = pieces.mixed[n] - sum(pieces.mixed) / (n + 1)
    return j_grad, j_mixed


def j_energy(ref, phi):
    """Generalized energy; checks that its two defining expressions agree to
    1e-6 relative and returns the gradient form (which is >= 0)."""
    j_grad, j_mixed = _j_energy_from(ref, _pieces(ref, *_relative_state(ref, phi)))
    if abs(j_grad - j_mixed) > 1e-6 * (1.0 + abs(j_grad)):
        raise ExpressionMismatch(f"gradient form {j_grad:.12e} and mixed form "
                                 f"{j_mixed:.12e} of the generalized energy disagree")
    return j_grad


def _k_energy_from(ref, pieces):
    entropy = average((pieces.log_rel - ref.potential.h) * pieces.state.density, ref.config)
    return entropy + _weighted(k_energy_coefficients(ref.config.n), pieces.mixed) + ref.c0


def k_energy(ref, phi):
    """K-energy in synthetic form: entropy-type term, weighted mixed sums,
    plus the reference constant."""
    return _k_energy_from(ref, _pieces(ref, *_relative_state(ref, phi)))


def _e1_energy_from(ref, pieces, coeffs=None):
    if coeffs is None:
        coeffs = e1_coefficients(ref.config.n)
    density = _entropy_density(pieces.state, ref.form)
    entropy = average((pieces.log_rel - ref.potential.h) * density, ref.config)
    return entropy + _weighted(coeffs, pieces.mixed) + ref.c1


def e1_energy(ref, phi, coeffs=None):
    """First Chen-Tian energy with its (n-1, n-1, -2, ...) mixed weights."""
    return _e1_energy_from(ref, _pieces(ref, *_relative_state(ref, phi)), coeffs)


def flow_velocity(ref, phi):
    """Potential-flow velocity log(volume ratio) + phi - h."""
    state, values = _relative_state(ref, phi)
    return state.log_density - ref.state.log_density + values - ref.potential.h


def dirichlet(state, v):
    """Average of i dv /\\ dbar(v) wedge metric^(n-1); nonnegative."""
    n = state.config.n
    density = d_ds(v, state.grid) ** 2
    if n > 1:
        density = density * state.form.b ** (n - 1)
    return average(density, state.config)


def _identity_terms(ref, pieces, e1_coeffs=None):
    """(nu, E1, Dirichlet(velocity), E1 - 2 nu - Dirichlet) at one state."""
    nu = _k_energy_from(ref, pieces)
    e1 = _e1_energy_from(ref, pieces, e1_coeffs)
    velocity = pieces.log_rel + pieces.values - ref.potential.h
    dir_term = dirichlet(pieces.state, velocity)
    return nu, e1, dir_term, e1 - 2.0 * nu - dir_term


def identity_residual(ref, phi, e1_coeffs=None):
    """E1 - 2 K-energy - Dirichlet(velocity); independent of phi.

    Its common value is the reference constant relating the two energies.
    """
    return _identity_terms(ref, _pieces(ref, *_relative_state(ref, phi)), e1_coeffs)[3]


def c_omega_estimate(ref, e1_coeffs=None):
    """The reference constant, measured as the identity residual at phi = 0.

    Equal (within discretization error) to the residual at any other
    potential and at any flow time. Reads ``ref.state``; builds no state.
    """
    zero = np.zeros_like(ref.state.phi_total)
    return _identity_terms(ref, _pieces(ref, ref.state, zero), e1_coeffs)[3]


def futaki_of_state(state):
    """Futaki invariant paired with the radial holomorphic generator.

    The generator acts on chart functions as d/ds, so the invariant is the
    average of d_ds h against the state's volume, h its Ricci potential. The
    defining equation d_ds h = B_ric - B reads it off the state's Ricci
    profile without solving for h. Every metric in the class has the same
    invariant.
    """
    return average((state.ricci.b - state.form.b) * state.density, state.config)


def evaluate(ref, phi, e1_coeffs=None):
    """All functionals at one potential, sharing a single state build and
    one set of mixed averages. J's two forms are reported, not judged."""
    pieces = _pieces(ref, *_relative_state(ref, phi))
    j_grad, j_mixed = _j_energy_from(ref, pieces)
    nu, e1, dir_term, residual = _identity_terms(ref, pieces, e1_coeffs)
    return FunctionalReport(j=j_grad, j_mixed=j_mixed, nu=nu, e1=e1, dirichlet=dir_term,
                            residual=residual, c0=ref.c0, c1=ref.c1)
