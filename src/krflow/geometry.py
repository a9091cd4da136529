"""Rotation-invariant Kahler geometry on CP^n reduced to one dimension.

Conventions
-----------
A rotation-invariant real (1,1)-form is a pair of profiles (A, B) standing
for A * i ds /\\ dsbar + B * i ddbar(s) in the chart variable s = log|z|^2.
A form derived from a potential P has B = d_ds P and A = d_ds B. The wedge
product of n such forms reduces to

    sum_j A_j * prod_{k != j} B_k

times a fixed one-dimensional measure ds; the constant relating that measure
to the manifold volume cancels in every average and is never materialized.

The background metric has B0 = (n+1) x and A0 = (n+1) x (1-x), normalized so
that its Ricci form equals the metric exactly and the total volume in ds
units is (n+1)^n.

Positivity of a perturbed metric is equivalent to the reduced ratios

    Ahat = r / (n+1) > 0,   Bhat = q / (n+1) > 0,

    r = dB/dx,   q = (n+1) + (1-x) phi'(x),

holding at every node including the endpoints; these factored forms avoid
the 0/0 limits of A and B themselves. Likewise the Ricci profile is computed
from the factored formula

    B_ric = n - (n-1) [(1-x) + x(1-x) q'/q] - [(1-2x) + x(1-x) r'/r],

which is endpoint-regular. ``_kernels.profiles`` is the one derivation of
B, r, q, Ahat, Bhat and the log volume ratio, and the one positivity test;
the state build and the flow velocity call it. A ``MetricState`` derives the
volume density n A B^(n-1) and the Ricci profile when first read, so a
positivity test costs the profiles alone.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .calculus import Grid, d_dx, integrate_ds
from .errors import ConfigError, NotInPotentialSpace

DEFAULT_DEGREE = 8
DEFAULT_COEFF_BOUND = 0.3
SAMPLE_MARGIN = 0.3  # ``sample_admissible``'s floor on the reduced ratios Ahat and Bhat
MAX_SAMPLE_TRIES = 5000  # candidates ``sample_admissible`` draws before giving up


@dataclass(frozen=True, eq=False)
class ManifoldConfig:
    """Complex dimension (1..3) plus the grid everything is sampled on."""

    n: int
    grid: Grid

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ConfigError(f"complex dimension must be 1, 2 or 3, got {self.n}")

    @property
    def volume(self):
        """Total volume of the class in ds units: (n+1)^n."""
        return float((self.n + 1) ** self.n)


@dataclass(frozen=True, eq=False)
class RadialForm:
    """Profile pair (A, B) of a rotation-invariant real (1,1)-form."""

    a: np.ndarray
    b: np.ndarray


class RadialPotential:
    """Polynomial potential in x of degree at most ``DEFAULT_DEGREE``,
    coefficients low to high degree.

    Node evaluation is exact polynomial evaluation (no interpolation error),
    computed on each call and returned read-only; nothing is cached.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = tuple(float(v) for v in coeffs)
        if not c:
            c = (0.0,)
        if len(c) > DEFAULT_DEGREE + 1:
            raise ConfigError(f"potential degree {len(c) - 1} exceeds maximum {DEFAULT_DEGREE}")
        if not all(np.isfinite(c)):
            raise ConfigError("potential coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *_):
        raise AttributeError("RadialPotential is immutable")

    def values(self, grid):
        """Nodal values on ``grid`` by Horner's rule, read-only. The same IEEE
        operations in the same order as ``numpy.polynomial.polynomial.polyval``
        (``c[-1] + x * 0``, then ``c_k + acc * x``; ``x * 0`` is +0.0 on the
        nodes x >= 0), so the bits are polyval's."""
        x = grid.x
        *rest, top = self.coeffs
        out = np.full(x.shape, top + 0.0)
        for c in reversed(rest):
            out *= x
            out += c
        out.setflags(write=False)
        return out

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return RadialPotential(out)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, t):
        return RadialPotential([t * v for v in self.coeffs])

    def __repr__(self):
        return f"RadialPotential({list(self.coeffs)})"


@dataclass(frozen=True, eq=False)
class MetricState:
    """A validated positive metric with its profiles.

    ``phi_total`` is the nodal potential relative to the background, a
    read-only copy of the values the state was built from, ``form``
    the metric profile pair. ``q`` and ``r`` are the endpoint-regular factors
    described in the module docstring; ``log_density`` is log of the volume
    ratio against the background. Derived when first read: ``density``, the
    reduced volume density ``wedge_density(form, n, form, n)``, and together
    ``ricci``, the Ricci profile pair, and ``ricci_db``, its x-derivative (for
    endpoint-regular curvature ratios). Immutable and safe to share across
    threads: a derived value is cached, never changed.
    """

    config: ManifoldConfig
    phi_total: np.ndarray
    form: RadialForm
    ahat: np.ndarray
    bhat: np.ndarray
    q: np.ndarray
    r: np.ndarray
    log_density: np.ndarray

    @property
    def grid(self):
        return self.config.grid

    @cached_property
    def density(self):
        n = self.config.n
        return wedge_density(self.form, n, self.form, n)

    @cached_property
    def _ricci(self):
        g = self.grid
        n = self.config.n
        # at n = 1 the q term is exactly +-0 (q > 0) and 1 - (+-0) = 1: skip it
        ric_q = n - (n - 1) * (g.omx + g.xm * d_dx(self.q, g) / self.q) if n > 1 else 1.0
        b_ric = ric_q - ((1.0 - 2.0 * g.x) + g.xm * d_dx(self.r, g) / self.r)
        db_ric = d_dx(b_ric, g)
        return RadialForm(a=g.xm * db_ric, b=b_ric), db_ric

    @property
    def ricci(self):
        return self._ricci[0]

    @property
    def ricci_db(self):
        return self._ricci[1]


def _potential_values(phi, grid):
    if isinstance(phi, RadialPotential):
        return phi.values(grid)
    return _kernels.nodal(phi, grid)


def state_from_total(config, phi_total):
    """Build a MetricState from the total nodal potential (background-relative).

    One code path for polynomial-sampled and flow (nodal) states alike: all
    derivatives come from the fourth-order stencils, so every downstream
    quantity converges at the same designed order. Raises
    NotInPotentialSpace off the positive cone (with the minima) or at a
    non-finite node, and ConfigError for an array of the wrong length.
    """
    g = config.grid
    phi_total = _potential_values(phi_total, g).copy()  # out of reach of the caller's writes
    phi_total.setflags(write=False)
    p = _kernels.profiles(phi_total, g, config.n)
    return MetricState(config=config, phi_total=phi_total, form=RadialForm(a=g.xm * p.r, b=p.b),
                       ahat=p.ahat, bhat=p.bhat, q=p.q, r=p.r, log_density=p.log_density)


def background(config):
    """The Fubini-Study state: B0 = (n+1)x, phi = 0, Ricci = metric."""
    return state_from_total(config, np.zeros(config.grid.size + 1))


def make_state(config, phi):
    """State of the metric perturbed by ``phi`` (polynomial or nodal)."""
    return state_from_total(config, phi)


def state_from(base, phi):
    """State of ``base``'s metric perturbed by the relative potential ``phi``
    (polynomial or nodal): the one place where a relative potential meets its
    base's ``phi_total``."""
    values = _potential_values(phi, base.config.grid)
    return state_from_total(base.config, base.phi_total + values)


def wedge_density(f, k, g, n):
    """Reduced density of the wedge f^k /\\ g^(n-k), for 0 <= k <= n:

        k A_f B_f^(k-1) B_g^(n-k) + (n-k) A_g B_g^(n-k-1) B_f^k,

    multiplied left to right, the f term first. A factor of 1 and a power of
    1 are skipped (1 x = x and x^1 = x exactly, signed zeros included); the
    result is always a new array. Raises ConfigError when the four profiles
    differ in shape.
    """
    if not 0 <= k <= n or n < 1:
        raise ConfigError(f"wedge needs 0 <= k <= n and n >= 1, got k = {k}, n = {n}")
    if not f.a.shape == f.b.shape == g.a.shape == g.b.shape:
        raise ConfigError(f"a wedge profile's shape does not match: A_f {f.a.shape}, "
                          f"B_f {f.b.shape}, A_g {g.a.shape}, B_g {g.b.shape}")
    density = None
    for own, m, other, rest in ((f, k, g, n - k), (g, n - k, f, k)):
        if m:
            term = own.a if m == 1 and rest else m * own.a  # 1 * a: the copy
            for b, p in ((own.b, m - 1), (other.b, rest)):
                if p:
                    term = term * (b if p == 1 else b ** p)
            density = term if density is None else np.add(density, term, out=density)
    return density


def scalar_curvature(state):
    """Pointwise scalar curvature 2 [A_ric/A + (n-1) B_ric/B].

    Both ratios are evaluated in endpoint-regular form: A_ric/A equals
    (dB_ric/dx)/(dB/dx) everywhere, and B_ric/B at x = 0 is replaced by the
    same derivative ratio (l'Hopital).
    """
    n = state.config.n
    dbr = state.ricci_db
    ratio_a = dbr / state.r
    if n == 1:
        return 2.0 * ratio_a
    ratio_b = np.empty_like(ratio_a)
    ratio_b[1:] = state.ricci.b[1:] / state.form.b[1:]
    ratio_b[0] = dbr[0] / state.r[0]
    return 2.0 * (ratio_a + (n - 1) * ratio_b)


def laplacian(state, values):
    """Trace of i ddbar f against the metric: 2 [d_ds^2 f / A + (n-1) d_ds f / B].

    Computed in endpoint-regular form; the sign convention is the opposite of
    the Riemannian Laplace-Beltrami operator.
    """
    g = state.grid
    n = state.config.n
    u = d_dx(values, g)
    second = d_dx(g.xm * u, g)
    out = 2.0 * second / state.r
    if n > 1:
        out += 2.0 * (n - 1) * g.omx * u / state.q
    return out


def average(density, config):
    """Average of an n-form density over the class volume (n+1)^n."""
    return integrate_ds(density, config.grid) / config.volume


def sample_admissible(config, rng, count, coeff_bound=DEFAULT_COEFF_BOUND,
                      degree=DEFAULT_DEGREE, base=None):
    """Random positive potentials: coefficients uniform in [-bound, bound].

    Rejection sampling against the positivity test, optionally relative to a
    ``base`` state. Candidates whose Ahat or Bhat dips below ``SAMPLE_MARGIN``
    are rejected as well: states arbitrarily close to the cone boundary are
    admissible but numerically degenerate (log-density gradients diverge),
    and every tolerance in the suite presumes interior states.
    Deterministic for a seeded generator.
    """
    out = []
    tries = 0
    while len(out) < count:
        if tries >= MAX_SAMPLE_TRIES:
            raise ConfigError(
                f"could not sample {count} admissible potentials in {MAX_SAMPLE_TRIES} tries")
        tries += 1
        candidate = RadialPotential(rng.uniform(-coeff_bound, coeff_bound, degree + 1))
        try:
            if base is None:
                state = make_state(config, candidate)
            else:
                state = state_from(base, candidate)
        except NotInPotentialSpace:
            continue
        if min(state.ahat.min(), state.bhat.min()) < SAMPLE_MARGIN:
            continue
        out.append(candidate)
    return out
