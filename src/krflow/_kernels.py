"""The hot kernels: the stencil derivative, the metric profiles and the flow
velocity.

``d_dx`` is the one derivative of the package (``calculus.d_dx`` is the same
function). ``profiles`` is the one derivation of the metric profiles and
their cone minima from a total potential, and the one positivity test; the
state build and the flow velocity call it (a ``MetricState`` derives its
density and Ricci profile when first read). Every kernel takes the
``calculus.Grid`` it works on and reads its spacing and node profiles from
it; values are float64 arrays over the full node set (N+1 values including
both endpoints), and ``nodal`` is the one check of that shape.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DivergentIntegrand, NotInPotentialSpace


def nodal(values, grid):
    """``values`` as a contiguous float64 array with one value per node of
    ``grid``: the one shape check of every nodal array the package is handed.
    Raises ConfigError for any other shape."""
    f = np.ascontiguousarray(values, dtype=np.float64)
    if f.shape != (grid.size + 1,):
        raise ConfigError(f"nodal array of shape {f.shape} does not match the grid's "
                          f"{grid.size + 1} nodes")
    return f


def d_dx(values, grid):
    """Fourth-order finite-difference d/dx on the uniform ``grid``.

    Five-point central stencil in the interior; the two-node boundary bands
    use six-point one-sided stencils (one order higher, so the boundary
    contribution to integral-level errors stays below the interior term).
    Exact on polynomials of degree <= 4. The closure rows run on Python
    floats: the same IEEE operations in the same order as on numpy scalars,
    so the bits are unchanged, at a fraction of the per-operation overhead.
    """
    f = nodal(values, grid)
    m = f.shape[0]
    if m < 6:
        raise ConfigError("d_dx needs at least 6 nodes")
    if not np.isfinite(f).all():
        raise DivergentIntegrand("profile to differentiate has a non-finite node")
    out = np.empty(m, dtype=np.float64)
    # difference form (node values minus an anchor) so constants are
    # annihilated exactly in floating point
    mid = np.subtract(f[3:-1], f[1:-3], out=out[2:-2])
    mid *= 8.0
    mid += f[:-4] - f[4:]
    mid *= 1.0 / (12.0 * grid.dx)
    c6 = 1.0 / (60.0 * grid.dx)
    f0, f1, f2, f3, f4, f5 = f[:6].tolist()
    out[0] = (300.0 * (f1 - f0) - 300.0 * (f2 - f0) + 200.0 * (f3 - f0)
              - 75.0 * (f4 - f0) + 12.0 * (f5 - f0)) * c6
    out[1] = (-12.0 * (f0 - f1) + 120.0 * (f2 - f1) - 60.0 * (f3 - f1)
              + 20.0 * (f4 - f1) - 3.0 * (f5 - f1)) * c6
    e6, e5, e4, e3, e2, e1 = f[-6:].tolist()
    out[-2] = (12.0 * (e1 - e2) - 120.0 * (e3 - e2) + 60.0 * (e4 - e2)
               - 20.0 * (e5 - e2) + 3.0 * (e6 - e2)) * c6
    out[-1] = (-300.0 * (e2 - e1) + 300.0 * (e3 - e1) - 200.0 * (e4 - e1)
               + 75.0 * (e5 - e1) - 12.0 * (e6 - e1)) * c6
    return out


class Profiles(NamedTuple):
    """Metric profiles and cone minima of one positive total potential (see ``geometry``)."""

    b: np.ndarray  # B = (n+1) x + x(1-x) phi'(x)
    r: np.ndarray  # dB/dx
    q: np.ndarray  # (n+1) + (1-x) phi'(x)
    min_ahat: float  # min of Ahat = r / (n+1)
    min_bhat: float  # min of Bhat = q / (n+1)
    log_density: np.ndarray  # log volume ratio against the background


def profiles(total, grid, n):
    """Profiles of the metric with the background-relative potential
    ``total``. Raises NotInPotentialSpace, with the minima of Ahat and Bhat,
    when the state leaves the positive cone, and without them when ``total``
    has a non-finite node."""
    np1 = n + 1.0
    try:
        u = d_dx(total, grid)
    except DivergentIntegrand as exc:
        raise NotInPotentialSpace("potential has non-finite nodal values") from exc
    b = np1 * grid.x + grid.xm * u
    r = d_dx(b, grid)
    q = np1 + grid.omx * u
    ahat = r / np1
    bhat = q / np1
    min_a = float(ahat.min())
    min_b = float(bhat.min())
    if not (min_a > 0.0 and min_b > 0.0):
        raise NotInPotentialSpace(
            f"metric not positive: min Ahat = {min_a:.6g}, min Bhat = {min_b:.6g}", min_a, min_b)
    log_density = np.log(ahat)
    if n > 1:
        log_density += (n - 1) * np.log(bhat)
    return Profiles(b, r, q, min_a, min_b, log_density)


def velocity(phi, shift, grid, n):
    """Flow velocity log(density ratio) + phi - shift; raises
    NotInPotentialSpace off the positive cone.

    ``shift`` folds the reference metric's log density, potential offset and
    Ricci potential into one precomputed profile.
    """
    out = profiles(phi, grid, n).log_density + phi
    out -= shift
    return out


def rk4_step(phi, dt, shift, grid, n):
    """One classical Runge-Kutta step of dphi/dt = velocity(phi), raising
    NotInPotentialSpace off the cone. The flow steps with ROS2; this step
    stays only for one clause of ``test_step_rejects_large_dt`` and the
    benchmark's trace list, until ROADMAP items 1 and 11 retire it."""
    k1 = velocity(phi, shift, grid, n)
    k2 = velocity(phi + (0.5 * dt) * k1, shift, grid, n)
    k3 = velocity(phi + (0.5 * dt) * k2, shift, grid, n)
    k4 = velocity(phi + dt * k3, shift, grid, n)
    phi_new = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    profiles(phi_new, grid, n)  # the positivity test of the result
    return phi_new
