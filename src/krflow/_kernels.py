"""The hot kernels: the stencil derivative, the metric profiles and the flow
velocity.

``d_dx`` is the one derivative of the package (``calculus.d_dx`` is the same
function). ``profiles`` is the one derivation of the metric profiles from a
total potential; the state build, the flow velocity and the flow's Jacobian
all read it. Every kernel takes the ``calculus.Grid`` it works on and reads
its spacing and node profiles from it; values are float64 arrays over the
full node set (N+1 values including both endpoints).
"""

from typing import NamedTuple

import numpy as np


def d_dx(values, grid):
    """Fourth-order finite-difference d/dx on the uniform ``grid``.

    Five-point central stencil in the interior; the two-node boundary bands
    use six-point one-sided stencils (one order higher, so the boundary
    contribution to integral-level errors stays below the interior term).
    Exact on polynomials of degree <= 4. The closure rows run on Python
    floats: the same IEEE operations in the same order as on numpy scalars,
    so the bits are unchanged, at a fraction of the per-operation overhead.
    """
    f = np.ascontiguousarray(values, dtype=np.float64)
    if f.shape != (grid.size + 1,):
        raise ValueError(f"profile shape {f.shape} does not match grid with {grid.size + 1} nodes")
    m = f.shape[0]
    if m < 6:
        raise ValueError("d_dx needs at least 6 nodes")
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
    """Metric profiles of one total potential (see ``geometry``)."""

    u: np.ndarray  # phi'(x)
    b: np.ndarray  # B = (n+1) x + x(1-x) u
    r: np.ndarray  # dB/dx
    q: np.ndarray  # (n+1) + (1-x) u
    ahat: np.ndarray  # r / (n+1)
    bhat: np.ndarray  # q / (n+1)
    min_ahat: float
    min_bhat: float
    log_density: np.ndarray | None  # log volume ratio; None off the cone


def profiles(total, grid, n):
    """Profiles of the metric with the background-relative potential
    ``total``; ``log_density`` is None when the state leaves the positive
    cone (the minima still report how far)."""
    np1 = n + 1.0
    u = d_dx(total, grid)
    b = np1 * grid.x + grid.xm * u
    r = d_dx(b, grid)
    q = np1 + grid.omx * u
    ahat = r / np1
    bhat = q / np1
    min_a = float(ahat.min())
    min_b = float(bhat.min())
    log_density = None
    if min_a > 0.0 and min_b > 0.0:
        log_density = np.log(ahat)
        if n > 1:
            log_density += (n - 1) * np.log(bhat)
    return Profiles(u, b, r, q, ahat, bhat, min_a, min_b, log_density)


def velocity(phi, shift, grid, n):
    """Flow velocity log(density ratio) + phi - shift, as ``(velocity,
    profiles)``; the velocity is None off the positive cone, and the
    ``Profiles`` of ``phi`` say how far.

    ``shift`` folds the reference metric's log density, potential offset and
    Ricci potential into one precomputed profile.
    """
    p = profiles(phi, grid, n)
    if p.log_density is None:
        return None, p
    out = p.log_density + phi  # a new array: p keeps its log density
    out -= shift
    return out, p


def rk4_step(phi, dt, shift, grid, n):
    """One classical Runge-Kutta step of dphi/dt = velocity(phi).

    Returns ``(phi_new, ok)``; ok is False when any stage leaves the
    positive cone, in which case phi_new is None. The flow steps with ROS2
    and its tests check it against Radau IIA; this step stays only for one
    clause of ``test_step_rejects_large_dt`` and the benchmark's trace list,
    until ROADMAP items 1 and 11 retire it.
    """
    k1, _ = velocity(phi, shift, grid, n)
    if k1 is None:
        return None, False
    k2, _ = velocity(phi + (0.5 * dt) * k1, shift, grid, n)
    if k2 is None:
        return None, False
    k3, _ = velocity(phi + (0.5 * dt) * k2, shift, grid, n)
    if k3 is None:
        return None, False
    k4, _ = velocity(phi + dt * k3, shift, grid, n)
    if k4 is None:
        return None, False
    phi_new = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if profiles(phi_new, grid, n).log_density is None:
        return None, False
    return phi_new, True
