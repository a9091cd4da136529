"""Seeded workload inputs and an oracle that shares no code with krflow.

Potentials are polynomials in x with coefficients low degree first. Their
derivatives are taken exactly from the coefficients and their integrals by
adaptive quadrature (``scipy.integrate.quad``), so neither the stencils nor
the composite rule of the program enters the oracle.

Notation (reduced geometry on CP^n, see ``krflow.geometry``): for a
potential p relative to the background, B_p = (n+1) x + x(1-x) p'(x) and
r_p = dB_p/dx. The metric is positive when Ahat = r_p/(n+1) and
Bhat = 1 + (1-x) p'/(n+1) are positive on [0, 1].
"""

import warnings

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import IntegrationWarning, quad

DEGREE = 8
COEFF_BOUND = 0.3
MARGIN = 0.3
BENT_REFERENCE = (0.0, 0.2, 0.1)
FLOW_INITIAL = (0.0, 0.2)
FLOW_PERTURBATION = 0.01

_CHECK_NODES = np.linspace(0.0, 1.0, 4097)
_XM = np.array([0.0, 1.0, -1.0])  # x(1-x)


def _b_poly(coeffs, n):
    return P.polyadd([0.0, n + 1.0], P.polymul(_XM, P.polyder(coeffs)))


def min_ratio(coeffs, n):
    """Smallest of Ahat and Bhat over a fine node set, from exact derivatives."""
    x = _CHECK_NODES
    ahat = P.polyval(x, P.polyder(_b_poly(coeffs, n))) / (n + 1.0)
    bhat = 1.0 + (1.0 - x) * P.polyval(x, P.polyder(coeffs)) / (n + 1.0)
    return min(float(ahat.min()), float(bhat.min()))


def sample_potentials(rng, n, count, base=(0.0,)):
    """``count`` degree-8 potentials with coefficients uniform in
    [-0.3, 0.3] whose sum with ``base`` keeps both ratios >= 0.3 (the
    distribution of ``krflow.sample_admissible``), by rejection."""
    out = []
    while len(out) < count:
        coeffs = rng.uniform(-COEFF_BOUND, COEFF_BOUND, DEGREE + 1)
        if min_ratio(P.polyadd(base, coeffs), n) >= MARGIN:
            out.append([float(c) for c in coeffs])
    return out


def flow_initial(rng):
    """Criterion 3's initial potential 0.2x plus seeded x^2 and x^3 terms of
    size at most 0.01."""
    extra = rng.uniform(-FLOW_PERTURBATION, FLOW_PERTURBATION, 2)
    return list(FLOW_INITIAL) + [float(c) for c in extra]


def _integral(f):
    with warnings.catch_warnings():
        # quad warns when roundoff stops it short of epsrel; the result is
        # still accurate far below every tolerance the checks apply
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def j_energy(n, psi, reference=(0.0,)):
    """J(w_ref, psi) = (n+1)^-n int x(1-x) psi'^2
    sum_{k<n} (k+1)/(n+1) B_ref^k B_{ref+psi}^(n-1-k) dx."""
    dpsi = P.polyder(psi)
    b_ref = _b_poly(reference, n)
    b_tot = _b_poly(P.polyadd(reference, psi), n)

    def integrand(x):
        d = P.polyval(x, dpsi)
        br = P.polyval(x, b_ref)
        bt = P.polyval(x, b_tot)
        weight = sum((k + 1) / (n + 1) * br ** k * bt ** (n - 1 - k) for k in range(n))
        return x * (1.0 - x) * d * d * weight

    return _integral(integrand) / (n + 1) ** n


def nu_e1_fubini_study(phi):
    """K-energy and first Chen-Tian energy at n = 1 against Fubini-Study:
    nu = 1/2 int r log(r/2) dx - J and
    E1 = 1/2 int log(r/2) (4 - (x(1-x) r'/r)') dx, with r = r_phi."""
    r = P.polyder(_b_poly(phi, 1))
    r1 = P.polyder(r)
    r2 = P.polyder(r1)

    def entropy(x):
        rv = P.polyval(x, r)
        return rv * np.log(rv / 2.0)

    def e1_integrand(x):
        rv = P.polyval(x, r)
        rp = P.polyval(x, r1)
        rpp = P.polyval(x, r2)
        w = ((1.0 - 2.0 * x) * rp + x * (1.0 - x) * rpp) / rv - x * (1.0 - x) * rp * rp / (rv * rv)
        return np.log(rv / 2.0) * (4.0 - w)

    nu = 0.5 * _integral(entropy) - j_energy(1, phi)
    e1 = 0.5 * _integral(e1_integrand)
    return nu, e1


def nu_e1(psi, reference=(0.0,)):
    """nu and E1 at n = 1 against the reference metric ``reference``. The
    true functionals are cocycles, so nu(w_ref, psi) =
    nu(w_FS, ref + psi) - nu(w_FS, ref), and likewise for E1."""
    nu_tot, e1_tot = nu_e1_fubini_study(P.polyadd(reference, psi))
    if not np.any(reference):
        return nu_tot, e1_tot
    nu_ref, e1_ref = nu_e1_fubini_study(np.asarray(reference, dtype=float))
    return nu_tot - nu_ref, e1_tot - e1_ref
