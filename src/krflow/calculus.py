"""One-dimensional calculus on the compactified coordinate x in [0, 1].

The underlying chart variable is s = log(x/(1-x)), so derivatives "in s" are
taken as x(1-x) d/dx and integrals "ds" are integrals of f(x)/(x(1-x)) dx.
Working on a uniform grid in x keeps the domain compact (no truncation in s);
the 0/0 forms at the endpoints are resolved by one-sided quintic extrapolation.

This module owns the discretization. The grid supplies the derivative
(``d_dx``, the ``_kernels`` stencil under a second name), the quadrature
(``Grid.quad_rows``: Simpson's rule and the endpoint quotient folded into
one product), the quotient f/(x(1-x)) (``over_xm``), the antiderivative
(``cumulative_dx``) and the stencil's operator bands (``derivative_bands``),
which the flow assembles its Jacobian from.

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
    ``quad_rows`` takes f's interior nodes to Simpson's sum of ``over_xm(f)``
    (row 0) and to that sum plus its endpoint value at x = 0 or 1 (rows 1, 2):
    no weight is zero, so an infinite node never meets 0 (inf * 0 warns).
    """

    size: int
    dx: float
    x: np.ndarray
    xm: np.ndarray
    omx: np.ndarray
    quad_rows: np.ndarray = field(repr=False)


@lru_cache(maxsize=8)
def build_grid(size):
    """Uniform grid with the given (even, >= 16) panel count; one shared,
    read-only Grid per size while it stays among the 8 sizes last built."""
    n = int(size)
    if n != size or n < MIN_SIZE:
        raise ConfigError(f"grid size must be an integer >= {MIN_SIZE}, got {size}")
    if n % 2 != 0:
        raise ConfigError(f"grid size must be even, got {n}")
    x = np.linspace(0.0, 1.0, n + 1)
    dx = 1.0 / n
    xm = x * (1.0 - x)
    omx = 1.0 - x
    # composite Simpson weights (fourth order) of the interior nodes; dx/3 at each endpoint
    w = np.full(n - 1, 2.0)
    w[::2] = 4.0
    ends = np.zeros((2, n - 1))  # ``over_xm``'s extrapolations to x = 0 and x = 1
    ends[0, :6] = ends[1, :-7:-1] = (6.0, -15.0, 20.0, -15.0, 6.0, -1.0)
    simpson = (w + ends[0] + ends[1]) * (dx / 3.0)
    rows = np.vstack((simpson, simpson + ends)) / xm[1:-1]
    for arr in (x, xm, omx, rows):
        arr.setflags(write=False)
    return Grid(size=n, dx=dx, x=x, xm=xm, omx=omx, quad_rows=rows)


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

    The composite rule on ``over_xm(f)``, as one product with ``quad_rows``.
    Raises DivergentIntegrand at a non-finite node (an interior one makes the
    quadrature non-finite) and unless both extrapolated endpoint values are
    within ``ENDPOINT_BOUND`` (else the integral almost surely diverges).
    """
    f = nodal(values, grid)
    if not (math.isfinite(f[0]) and math.isfinite(f[-1])):
        raise DivergentIntegrand(f"non-finite endpoint node: {f[0]} at x = 0, {f[-1]} at x = 1")
    total, lo, hi = (grid.quad_rows @ f[1:-1]).tolist()
    if not math.isfinite(total):
        raise DivergentIntegrand(f"quadrature of the integrand is {total}")
    lo, hi = lo - total, hi - total
    if not (abs(lo) <= ENDPOINT_BOUND and abs(hi) <= ENDPOINT_BOUND):
        raise DivergentIntegrand(
            f"extrapolated endpoint values ({lo:.3e}, {hi:.3e}) exceed bound {ENDPOINT_BOUND:.1e}")
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


@lru_cache(maxsize=4)
def derivative_bands(grid):
    """The ``d_dx`` stencil D and K = D diag(x(1-x)) D on ``grid``, as
    read-only bands ``band[i, k] = M[i, i + k - HALF_BAND]``.

    Read off 2 * HALF_BAND + 1 colored probes through ``d_dx`` (columns that
    far apart never share a row), so they are the stencil's own operators.
    Cached per grid, and ``build_grid`` gives one grid per size.
    """
    size = grid.size
    width = 2 * HALF_BAND + 1
    rows = np.arange(size + 1)
    d_band = np.zeros((size + 1, width))
    k_band = np.zeros((size + 1, width))
    for color in range(width):
        probe = np.zeros(size + 1)
        probe[color::width] = 1.0
        cols = (color - rows + HALF_BAND) % width
        d_probe = d_dx(probe, grid)
        d_band[rows, cols] = d_probe
        k_band[rows, cols] = d_dx(grid.xm * d_probe, grid)
    for band in (d_band, k_band):
        band.setflags(write=False)
    return d_band, k_band
