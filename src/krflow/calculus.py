"""One-dimensional calculus on the compactified coordinate x in [0, 1].

The underlying chart variable is s = log(x/(1-x)), so derivatives "in s" are
taken as x(1-x) d/dx and integrals "ds" are integrals of f(x)/(x(1-x)) dx.
Working on a uniform grid in x keeps the domain compact (no truncation in s);
the 0/0 forms at the endpoints are resolved by one-sided quintic extrapolation.

This module owns the discretization. The grid supplies the derivative
(``d_dx``, the ``_kernels`` stencil under a second name), the quadrature
weights (``Grid.quad_weights``, composite Simpson), the endpoint quotient
f/(x(1-x)) (``over_xm``), the antiderivative (``cumulative_dx``) and the
stencil's operator bands (``derivative_bands``), which the flow assembles
its Jacobian from.

All operations are pure functions of their inputs; profiles are plain float64
arrays with one value per node and are never mutated.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._kernels import d_dx, nodal
from .errors import ConfigError, DivergentIntegrand

MIN_SIZE = 16
# half-width of the bands of D = d_dx and K = D diag(x(1-x)) D: the composed
# stencils reach 4 columns off the diagonal inside and 7 through the 6-point
# edge closures
HALF_BAND = 7
ENDPOINT_BOUND = 1e8  # ``integrate_ds``'s bound on the extrapolated endpoint integrand


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid on [0, 1] with ``size`` panels and ``size + 1`` nodes.

    ``size`` must be even so one composite quadrature rule covers the domain.
    Cached node profiles: ``x`` (nodes), ``xm`` = x(1-x), ``omx`` = 1-x.
    """

    size: int
    dx: float
    x: np.ndarray
    xm: np.ndarray
    omx: np.ndarray
    quad_weights: np.ndarray = field(repr=False)


def build_grid(size):
    """Uniform grid with the given (even, >= 16) panel count."""
    n = int(size)
    if n != size or n < MIN_SIZE:
        raise ConfigError(f"grid size must be an integer >= {MIN_SIZE}, got {size}")
    if n % 2 != 0:
        raise ConfigError(f"grid size must be even, got {n}")
    x = np.linspace(0.0, 1.0, n + 1)
    dx = 1.0 / n
    xm = x * (1.0 - x)
    omx = 1.0 - x
    # composite Simpson weights; fourth-order for smooth integrands
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= dx / 3.0
    for arr in (x, xm, omx, w):
        arr.setflags(write=False)
    return Grid(size=n, dx=dx, x=x, xm=xm, omx=omx, quad_weights=w)


def d_ds(values, grid):
    """Derivative in s = log(x/(1-x)): x(1-x) d/dx; zero at both endpoints."""
    return grid.xm * d_dx(values, grid)


def over_xm(values, grid):
    """f/(x(1-x)) at every node, for profiles f that vanish at x = 0, 1.

    The endpoint entries are 0/0 with finite limits; each is the one-sided
    quintic extrapolation of the six nearest interior quotients, on Python
    floats (the same operations as on numpy scalars, so the same bits).
    """
    f = nodal(values, grid)
    g = np.empty_like(f)
    np.divide(f[1:-1], grid.xm[1:-1], out=g[1:-1])
    g1, g2, g3, g4, g5, g6 = g[1:7].tolist()
    g[0] = 6.0 * g1 - 15.0 * g2 + 20.0 * g3 - 15.0 * g4 + 6.0 * g5 - g6
    h6, h5, h4, h3, h2, h1 = g[-7:-1].tolist()
    g[-1] = 6.0 * h1 - 15.0 * h2 + 20.0 * h3 - 15.0 * h4 + 6.0 * h5 - h6
    return g


def integrate_ds(values, grid):
    """Integral of f ds over the whole chart, i.e. of f(x)/(x(1-x)) dx.

    The integrand (``over_xm``) is fed to the composite rule. Raises
    DivergentIntegrand unless both extrapolated endpoint values are finite
    and within ``ENDPOINT_BOUND`` (else the integral almost surely diverges)
    and the quadrature is finite, which a non-finite interior node is not.
    """
    g = over_xm(values, grid)
    lo, hi = float(g[0]), float(g[-1])
    if not (abs(lo) <= ENDPOINT_BOUND and abs(hi) <= ENDPOINT_BOUND):
        raise DivergentIntegrand(
            f"extrapolated endpoint values ({lo:.3e}, {hi:.3e}) exceed bound {ENDPOINT_BOUND:.1e}")
    total = float(grid.quad_weights @ g)
    if not math.isfinite(total):
        raise DivergentIntegrand(f"quadrature of the integrand is {total}")
    return total


def cumulative_dx(values, grid):
    """Fourth-order antiderivative in x with value 0 at x = 0.

    Derivative-corrected trapezoid per panel: the correction term uses the
    stencil derivative, giving global O(dx^4) accuracy.
    """
    w = nodal(values, grid)
    dw = d_dx(w, grid)
    h = grid.dx
    panels = 0.5 * h * (w[:-1] + w[1:]) - (h * h / 12.0) * (dw[1:] - dw[:-1])
    out = np.empty_like(w)
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


def derivative_bands(grid):
    """The ``d_dx`` stencil D and K = D diag(x(1-x)) D on ``grid``, as
    read-only bands ``band[i, k] = M[i, i + k - HALF_BAND]``.

    Read off 2 * HALF_BAND + 1 colored probes through ``d_dx`` (columns that
    far apart never share a row), so they are the stencil's own operators.
    Cached by grid size: every Grid of one size has the same bands.
    """
    return _derivative_bands(grid.size)


@lru_cache(maxsize=4)
def _derivative_bands(size):
    g = build_grid(size)
    width = 2 * HALF_BAND + 1
    rows = np.arange(size + 1)
    d_band = np.zeros((size + 1, width))
    k_band = np.zeros((size + 1, width))
    for color in range(width):
        probe = np.zeros(size + 1)
        probe[color::width] = 1.0
        cols = (color - rows + HALF_BAND) % width
        d_probe = d_dx(probe, g)
        d_band[rows, cols] = d_probe
        k_band[rows, cols] = d_dx(g.xm * d_probe, g)
    for band in (d_band, k_band):
        band.setflags(write=False)
    return d_band, k_band
