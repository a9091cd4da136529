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
deliberately corrupted coefficient systems). ``Energies.uncentered`` holds
the uncentered averages, which feel constants.

``evaluate`` is the one way from a potential to its energies: it builds the
state once and returns its ``Energies``, which derive the n + 1 mixed
averages <phi, ref^k wedge perturbed^(n-k)> that J, nu and E1 weight, and
each energy once, when first read. An energy's error (a DivergentIntegrand,
say) therefore raises where it is first read, not in ``evaluate``. The public
functionals, the flow's records and the verification suite's checks all
read ``Energies``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .calculus import cumulative_dx, d_ds, integrate_ds, over_xm
from .errors import DivergentIntegrand, ExpressionMismatch, NotInPotentialSpace
from .geometry import (
    RadialForm,
    _potential_values,
    average,
    background,
    state_from,
    wedge_density,
)


ENDPOINT_TOL = 1e-7  # ``ricci_potential``'s endpoint test on B_ric - B, per 1 + max B
J_FORMS_TOL = 1e-6  # ``j_energy``'s bound on the gap of J's two forms, per 1 + |J|


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
class Reference:
    """A metric state promoted to reference role, with its Ricci potential h."""

    state: "MetricState"
    h: np.ndarray
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


def ricci_potential(state, normalization_offset=0.0):
    """Ricci potential h of ``state``'s metric, with e^h - 1 averaging to 0.

    dh/dx = (B_ric - B)/(x(1-x)) is integrated from the midpoint outward;
    the additive constant comes in closed form from the two quadratures that
    define the normalization (DivergentIntegrand unless the weighted one is
    positive and finite). ``normalization_offset`` deliberately corrupts the
    constant (mutation fixtures only).
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
    if not 0.0 < weighted < math.inf:
        raise DivergentIntegrand(
            f"normalizing integral of e^h against the volume is {weighted:.6g}, not in (0, inf)")
    return h_raw + (math.log(total / weighted) + normalization_offset)


def make_reference(state, normalization_offset=0.0):
    """Promote a state to reference role (computes h and the constants)."""
    h = ricci_potential(state, normalization_offset=normalization_offset)
    c0 = average(h * state.density, state.config)
    c1 = average(h * _entropy_density(state, state.form), state.config)
    return Reference(state=state, h=h, c0=c0, c1=c1)


def fubini_study_reference(config):
    """Reference at the background metric (h = 0 exactly)."""
    return make_reference(background(config))


def re_reference(ref, psi):
    """The perturbed metric as a new reference with its own Ricci potential."""
    return make_reference(state_from(ref.state, psi))


def _entropy_density(state, form):
    """(Ric(state) + form) wedge state^(n-1), the density of E1's entropy term."""
    ric_plus = RadialForm(a=state.ricci.a + form.a, b=state.ricci.b + form.b)
    return wedge_density(ric_plus, 1, state.form, state.config.n)


def weighted_sum(coeffs, averages):
    """sum_k coeffs[k]/(n+1) averages[k], the mixed sums' weighting."""
    np1 = len(averages)
    return sum(coeffs[k] / np1 * averages[k] for k in range(np1))


class Energies:
    """The energies of ``state``, whose nodal potential relative to ``ref`` is
    ``values``, kept as a read-only copy. Construction derives the n + 1
    wedges ref^k wedge state^(n-k) (the ends are the two volume densities)
    and the ``mixed`` averages of the midpoint-centered values against them.
    J (both forms), nu, E1 (weights ``e1_coeffs``), the flow velocity, its
    Dirichlet energy and the residual are each computed once, when first
    read."""

    def __init__(self, ref, state, values, e1_coeffs=None):
        values = _kernels.nodal(values, ref.grid).copy()  # out of reach of the caller's writes
        values.setflags(write=False)
        n = ref.config.n
        self.ref, self.state, self.values = ref, state, values
        self.e1_coeffs = e1_coefficients(n) if e1_coeffs is None else e1_coeffs
        self.wedges = [state.density,
                       *(wedge_density(ref.form, k, state.form, n) for k in range(1, n)),
                       ref.state.density]
        self.centered = values - values[values.shape[0] // 2]
        self.log_rel = state.log_density - ref.state.log_density
        self.mixed = [average(self.centered * wedge, ref.config) for wedge in self.wedges]

    @cached_property
    def uncentered(self):
        """<phi, ref^k wedge state^(n-k)>, k = 0..n, uncentered."""
        return [average(self.values * wedge, self.ref.config) for wedge in self.wedges]

    @cached_property
    def j(self):
        """J's gradient form, >= 0."""
        ref = self.ref
        n = ref.config.n
        grad = d_ds(self.centered, ref.grid) ** 2
        j_grad = 0.0
        for k in range(n):
            weight = (k + 1) / (n + 1)
            density = grad * ref.form.b ** k * self.state.form.b ** (n - 1 - k)
            j_grad += weight * average(density, ref.config)
        return j_grad

    @cached_property
    def j_mixed(self):
        """J's mixed form; the k = n average is against the reference volume."""
        n = self.ref.config.n
        return self.mixed[n] - sum(self.mixed) / (n + 1)

    @cached_property
    def nu(self):
        ref = self.ref
        entropy = average((self.log_rel - ref.h) * self.state.density, ref.config)
        return entropy + weighted_sum(k_energy_coefficients(ref.config.n), self.mixed) + ref.c0

    @cached_property
    def e1(self):
        ref = self.ref
        density = _entropy_density(self.state, ref.form)
        entropy = average((self.log_rel - ref.h) * density, ref.config)
        return entropy + weighted_sum(self.e1_coeffs, self.mixed) + ref.c1

    @cached_property
    def velocity(self):
        """The flow velocity log(volume ratio) + phi - h, the right-hand side
        of dphi/dt; along the flow dnu/dt = -n * Dirichlet(velocity)."""
        return self.log_rel + self.values - self.ref.h

    @cached_property
    def dirichlet(self):
        return dirichlet(self.state, self.velocity)

    @cached_property
    def residual(self):
        """E1 - 2 nu - Dirichlet(velocity), the same C_omega at every potential."""
        return self.e1 - 2.0 * self.nu - self.dirichlet


def evaluate(ref, phi, e1_coeffs=None):
    """The ``Energies`` at the potential ``phi`` relative to ``ref``. The
    one state (through ``state_from``; NotInPotentialSpace off the positive
    cone) and its mixed averages are built here. J (both forms, unjudged),
    nu, E1, the Dirichlet term and the residual are each computed when first
    read, so their errors (a DivergentIntegrand, say) raise at that read."""
    values = _potential_values(phi, ref.grid)
    return Energies(ref, state_from(ref.state, values), values, e1_coeffs)


def j_energy(ref, phi):
    """Generalized energy; checks that its two defining expressions agree to
    ``J_FORMS_TOL`` relative and returns the gradient form (which is >= 0)."""
    energies = evaluate(ref, phi)
    j_grad, j_mixed = energies.j, energies.j_mixed
    if abs(j_grad - j_mixed) > J_FORMS_TOL * (1.0 + abs(j_grad)):
        raise ExpressionMismatch(f"gradient form {j_grad:.12e} and mixed form "
                                 f"{j_mixed:.12e} of the generalized energy disagree")
    return j_grad


def dirichlet(state, v):
    """Average of i dv /\\ dbar(v) wedge metric^(n-1); nonnegative. At the
    flow velocity v (``Energies.velocity``), dnu/dt = -n * dirichlet(state, v)."""
    n = state.config.n
    density = d_ds(v, state.grid) ** 2
    if n > 1:
        density = density * state.form.b ** (n - 1)
    return average(density, state.config)


def c_omega_estimate(ref):
    """The reference constant, measured as the identity residual at phi = 0.

    Equal (within discretization error) to the residual at any other
    potential and at any flow time. At phi = 0 the mixed averages are 0 and
    nu's and E1's entropy averages exactly -c0 and -c1, so the residual is
    -Dirichlet(-h) = -Dirichlet(h) bit for bit (``0.0 -`` keeps +0.0 at h = 0).
    """
    return 0.0 - dirichlet(ref.state, ref.h)


def futaki_of_state(state):
    """Futaki invariant paired with the radial holomorphic generator.

    The generator acts on chart functions as d/ds, so the invariant is the
    average of d_ds h against the state's volume, h its Ricci potential. The
    defining equation d_ds h = B_ric - B reads it off the state's Ricci
    profile without solving for h. Every metric in the class has the same
    invariant.
    """
    return average((state.ricci.b - state.form.b) * state.density, state.config)
