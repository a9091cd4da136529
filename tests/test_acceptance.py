"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a single pass/fail line. ``conftest.py`` repeats the
lines in pytest's terminal summary; ``pytest -s`` shows them as they appear.
"""

import time

import numpy as np
import pytest

from conftest import flow_gate_failures
from krflow.calculus import build_grid, d_ds, integrate_ds
from krflow.flow import FlowConfig, run
from krflow.functionals import (
    dirichlet,
    e1_coefficients,
    evaluate,
    fubini_study_reference,
    futaki_of_state,
    j_energy,
    make_reference,
    re_reference,
    ricci_potential,
)
from krflow.geometry import (
    ManifoldConfig,
    RadialPotential,
    average,
    background,
    make_state,
    sample_admissible,
    scalar_curvature,
    wedge_density,
)
from krflow.verification import (
    DEFAULT_TOLERANCES,
    IDENTITIES,
    cocycle_check,
    variational_check,
)

SEED = 20240901
BENT = RadialPotential((0.0, 0.2, 0.1))
ZERO = RadialPotential((0.0,))


def _criterion(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>3} [{label}]: {status}  {detail}")
    return ok


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def residual_data():
    """Residuals of 20 seeded potentials for each (n, reference, N)."""
    data = {}
    for n in (1, 2):
        for ref_name in ("background", "perturbed"):
            rng = np.random.default_rng(SEED)
            entry = {}
            for size in (1024, 2048):
                grid = build_grid(size)
                config = ManifoldConfig(n=n, grid=grid)
                if ref_name == "background":
                    ref = fubini_study_reference(config)
                else:
                    ref = make_reference(make_state(config, BENT))
                if size == 1024:
                    base = ref.state if ref_name == "perturbed" else None
                    phis = sample_admissible(config, np.random.default_rng(SEED),
                                             20, base=base)
                    entry["phis"] = phis
                    entry["config1024"] = config
                    entry["ref1024"] = ref
                else:
                    entry["config2048"] = config
                    entry["ref2048"] = ref
                residuals = [evaluate(ref, ZERO).residual]
                residuals += [evaluate(ref, phi).residual for phi in entry["phis"]]
                entry[f"residuals{size}"] = residuals
            entry["c_omega"] = entry["residuals2048"][0]
            entry["reports2048"] = [evaluate(entry["ref2048"], phi)
                                    for phi in entry["phis"]]
            data[(n, ref_name)] = entry
    return data


@pytest.fixture(scope="module")
def long_flow():
    """Criterion 3's flow: n = 1, N = 1024, initial 0.2x, t_max = 10."""
    config = FlowConfig(
        manifold=ManifoldConfig(n=1, grid=build_grid(1024)),
        initial=RadialPotential((0.0, 0.2)),
        t_max=10.0,
        record_every=1000,
    )
    start = time.time()
    trace = run(config)
    return trace, time.time() - start


# ---------------------------------------------------------------- criteria

def test_criterion_01_residual_constancy(residual_data):
    details = []
    ok = True
    for (n, ref_name), entry in residual_data.items():
        spread1024 = max(entry["residuals1024"]) - min(entry["residuals1024"])
        spread2048 = max(entry["residuals2048"]) - min(entry["residuals2048"])
        tol = (DEFAULT_TOLERANCES[f"residual_constancy_{ref_name}"]
               * (1.0 + abs(entry["c_omega"])))
        ratio = spread1024 / spread2048
        ok &= spread2048 <= tol
        # grid doubling must buy at least the designed fourth order (~16x);
        # parts of the discretization error cancel inside the combination,
        # so the measured shrink overshoots 16 on tame sample draws
        ok &= 8.0 <= ratio <= 64.0
        details.append(f"n={n} {ref_name}: spread2048={spread2048:.2e} "
                       f"(tol {tol:.1e}), shrink x{ratio:.1f}")
    assert _criterion(1, "Theorem-2 pointwise identity", ok, "; ".join(details))


def test_criterion_02_inequality(residual_data, long_flow):
    worst = np.inf
    for entry in residual_data.values():
        c = entry["c_omega"]
        for report in entry["reports2048"]:
            worst = min(worst, report.e1 - 2.0 * report.nu - c)
    trace, _ = long_flow
    worst = min(worst, trace.inequality_margin())
    ok = worst >= -DEFAULT_TOLERANCES["flow_inequality"]
    assert _criterion(2, "Theorem-2 inequality", ok, f"min margin {worst:.2e}")


def test_criterion_03_flow_behavior(long_flow):
    trace, elapsed = long_flow
    failures = flow_gate_failures(trace)
    final = trace.records[-1]
    scal_spread = final.scal_max - final.scal_min
    ok = (not failures and scal_spread <= 1e-3
          and elapsed <= 300.0 and trace.min_positivity() > 0.0)
    assert _criterion(
        3, "flow behavior", ok,
        f"nu viol {trace.nu_violation():.1e}, residual dev "
        f"{trace.residual_deviation():.1e}, missed gates {failures or 'none'}, "
        f"final scal spread {scal_spread:.1e}, runtime {elapsed:.0f}s "
        f"({trace.velocity_evals} velocity evaluations, {trace.factorizations} "
        f"factorizations, {trace.accepted} steps, {trace.rejected} rejections)")
    # one step matrix for the record spacing and one for the last, shorter
    # step: near Fubini-Study r and q never drift 10% from the first state's
    assert trace.factorizations == 2


def test_criterion_04_variational_identities():
    worst = {}
    ok = True
    for n in (1, 2):
        config = ManifoldConfig(n=n, grid=build_grid(1024))
        ref = fubini_study_reference(config)
        rng = np.random.default_rng(SEED)
        pairs = []
        for _ in range(5):
            base = sample_admissible(config, rng, 1)[0]
            direction = RadialPotential(rng.uniform(-0.3, 0.3, 9))
            pairs.append((base, direction))
        checks = [variational_check(ref, b, d, dt=1e-4) for b, d in pairs]
        for identity in IDENTITIES:
            err = max(c[identity].rel_err for c in checks)
            worst[(identity, n)] = err
            ok &= err <= DEFAULT_TOLERANCES[identity.lower()]
    detail = ", ".join(f"{k[0]}(n={k[1]})={v:.1e}" for k, v in worst.items())
    assert _criterion(4, "variational identities", ok, detail)


def test_criterion_05a_axioms_nu_e1():
    ok = True
    details = []
    for n in (1, 2):
        config = ManifoldConfig(n=n, grid=build_grid(1024))
        ref = fubini_study_reference(config)
        rng = np.random.default_rng(SEED)
        cocycle = dict.fromkeys(("nu", "e1"), 0.0)
        for _ in range(5):
            p1, p2 = sample_admissible(config, rng, 2, coeff_bound=0.2)
            defects = cocycle_check(ref, p1, p2)
            for name in cocycle:
                cocycle[name] = max(cocycle[name], defects[name])
        energies = (j_energy, lambda r, p: evaluate(r, p).nu,
                    lambda r, p: evaluate(r, p).e1)
        diag = max(abs(f(ref, ZERO)) for f in energies)
        bent_ref = make_reference(make_state(config, BENT))
        diag = max(diag, *(abs(f(bent_ref, ZERO)) for f in energies))
        phi = sample_admissible(config, rng, 1)[0]
        shift = max(abs(f(ref, phi + RadialPotential((2.5,))) - f(ref, phi))
                    for f in energies)
        ok &= all(cocycle[name] <= DEFAULT_TOLERANCES["cocycle_" + name] for name in cocycle)
        ok &= diag <= DEFAULT_TOLERANCES["diagonal_vanishing"]
        ok &= shift <= DEFAULT_TOLERANCES["shift_invariance"]
        details.append(f"n={n}: cocycle {max(cocycle.values()):.1e}, diagonal {diag:.1e}, "
                       f"shift {shift:.1e}")
    assert _criterion(5, "axioms (nu, E1 cocycles; diagonal; shift)", ok,
                      "; ".join(details))


def _j_two_point(ref, phi1, phi2):
    """J's cocycle defect, its predicted value and the normalizing scale.

    The defect is J(w, phi2) - J(w, phi1) - J(w_phi1, phi2 - phi1); the
    prediction is the average of (phi2 - phi1) * (ref.state.density -
    re_reference(ref, phi1).state.density), as in ``cocycle_check``.
    """
    ref1 = re_reference(ref, phi1)
    total = j_energy(ref, phi2)
    first = j_energy(ref, phi1)
    second = j_energy(ref1, phi2 - phi1)
    step = (phi2 - phi1).values(ref.grid)
    predicted = average(step * (ref.state.density - ref1.state.density), ref.config)
    scale = max(abs(total), abs(first), abs(second))
    return total - first - second, predicted, scale


def test_criterion_05b_j_cocycle():
    """Criterion 5's two-point clause for the generalized energy J.

    J is not a cocycle. J = (avg of phi against the reference volume) minus
    the mixed energy, and the mixed energy is a cocycle, so the defect of J
    telescopes exactly to avg((phi2 - phi1) * (ref.state.density -
    re_reference(ref, phi1).state.density)): see ``verification.cocycle_check``
    and ``test_verification.test_j_cocycle_defect_is_structural``. The test
    asserts that identity at the cocycle tolerance, its closed form eps^2/12
    for the pair (eps x, 2 eps x) at n = 1, and that the defect itself is
    far from zero.
    """
    ok = True
    details = []
    for n in (1, 2):
        config = ManifoldConfig(n=n, grid=build_grid(1024))
        ref = fubini_study_reference(config)
        rng = np.random.default_rng(SEED)
        gap = 0.0
        worst = 0.0
        for _ in range(5):
            p1, p2 = sample_admissible(config, rng, 2, coeff_bound=0.2)
            defect, predicted, scale = _j_two_point(ref, p1, p2)
            gap = max(gap, abs(defect - predicted) / (1.0 + scale))
            worst = max(worst, abs(defect))
        ok &= gap <= 1e-6 and worst > 1e-4
        details.append(f"n={n}: gap {gap:.1e}, defect {worst:.3e}")
    ref = fubini_study_reference(ManifoldConfig(n=1, grid=build_grid(1024)))
    closed = 0.0
    for eps in (0.1, 0.3):
        defect, _, _ = _j_two_point(ref, RadialPotential((0.0, eps)),
                                    RadialPotential((0.0, 2.0 * eps)))
        closed = max(closed, abs(defect - eps ** 2 / 12.0))
    ok &= closed <= 1e-12
    details.append(f"closed-form gap {closed:.1e}")
    assert _criterion(5, "J two-point defect (J is not a cocycle)", ok,
                      "; ".join(details))


def test_criterion_06_j_energy():
    ok = True
    details = []
    for n in (1, 2, 3):
        config = ManifoldConfig(n=n, grid=build_grid(1024))
        ref = fubini_study_reference(config)
        rng = np.random.default_rng(SEED)
        agree = 0.0
        nonneg = True
        for phi in sample_admissible(config, rng, 20):
            report = evaluate(ref, phi)
            agree = max(agree, abs(report.j - report.j_mixed) / (1 + abs(report.j)))
            nonneg &= report.j >= -1e-12
        ok &= agree <= 1e-6 and nonneg
        details.append(f"n={n} expr gap {agree:.1e}")
    config = ManifoldConfig(n=1, grid=build_grid(1024))
    ref = fubini_study_reference(config)
    closed = max(abs(j_energy(ref, RadialPotential((0.0, eps))) - eps ** 2 / 24.0)
                 for eps in (0.1, 0.3))
    ok &= closed <= 1e-7
    details.append(f"closed-form gap {closed:.1e}")
    assert _criterion(6, "generalized energy", ok, ", ".join(details))


def test_criterion_07_ricci_potential():
    ok = True
    details = []
    for n in (1, 2):
        config = ManifoldConfig(n=n, grid=build_grid(1024))
        state = make_state(config, BENT)
        ref = make_reference(state)
        defect = np.abs(d_ds(ref.h, config.grid)
                        - (state.ricci.b - state.form.b)).max()
        norm = abs(average((np.exp(ref.h) - 1.0) * ref.state.density, config))
        fs = np.abs(fubini_study_reference(config).h).max()
        ok &= defect <= 1e-6 and norm <= 1e-10 and fs <= 1e-10
        details.append(f"n={n}: eq {defect:.1e}, norm {norm:.1e}, fs {fs:.1e}")
    assert _criterion(7, "Ricci potential conditions", ok, "; ".join(details))


def test_criterion_08_curvature(residual_data):
    ok = True
    details = []
    for n in (1, 2, 3):
        config = ManifoldConfig(n=n, grid=build_grid(1024))
        scal = scalar_curvature(background(config))
        pointwise = np.abs(scal - 2.0 * n).max()
        ok &= pointwise <= 1e-8
        details.append(f"n={n} fs pointwise {pointwise:.1e}")
    from krflow.geometry import state_from
    for (n, ref_name), entry in residual_data.items():
        config = entry["config1024"]
        avg_gap = 0.0
        class_gap = 0.0
        for phi in entry["phis"][:10]:
            state = state_from(entry["ref1024"].state, phi)
            density = wedge_density(state.form, n, state.form, n)
            avg_gap = max(avg_gap, abs(
                average(scalar_curvature(state) * density, config) - 2.0 * n))
            ric_total = integrate_ds(
                wedge_density(state.ricci, 1, state.form, n),
                config.grid)
            ref_total = integrate_ds(
                wedge_density(entry["ref1024"].form, 1, state.form, n),
                config.grid)
            class_gap = max(class_gap, abs(ric_total - ref_total) / (n + 1) ** n)
        ok &= avg_gap <= 1e-6 and class_gap <= 1e-6
        details.append(f"n={n} {ref_name} avg {avg_gap:.1e} class {class_gap:.1e}")
    assert _criterion(8, "curvature", ok, "; ".join(details))


def test_criterion_09_futaki():
    ok = True
    details = []
    for n in (1, 2):
        config = ManifoldConfig(n=n, grid=build_grid(1024))
        fs_value = futaki_of_state(background(config))
        ok &= fs_value == 0.0
        rng = np.random.default_rng(SEED)
        values = [futaki_of_state(make_state(config, psi))
                  for psi in sample_admissible(config, rng, 5)]
        vanish = max(abs(v) for v in values)
        pairwise = max(abs(a - b) for a in values for b in values)
        ok &= vanish <= 1e-6 and pairwise <= 1e-6
        details.append(f"n={n}: fs {fs_value}, vanish {vanish:.1e}, "
                       f"pairwise {pairwise:.1e}")
    assert _criterion(9, "Futaki invariant", ok, "; ".join(details))


def test_criterion_10_mutation_sensitivity():
    config = ManifoldConfig(n=1, grid=build_grid(1024))
    ref = fubini_study_reference(config)
    rng = np.random.default_rng(SEED)
    phis = sample_admissible(config, rng, 8)
    corrupted = e1_coefficients(1)
    corrupted[1] += 0.1

    residuals = [evaluate(ref, ZERO, corrupted).residual]
    residuals += [evaluate(ref, phi, corrupted).residual for phi in phis]
    spread = max(residuals) - min(residuals)
    residual_detects = spread > (DEFAULT_TOLERANCES["residual_constancy_background"]
                                 * (1.0 + abs(residuals[0])))

    der_err = max(
        variational_check(ref, phis[i], RadialPotential(rng.uniform(-0.3, 0.3, 9)),
                          dt=1e-4, e1_coeffs=corrupted)["DER_E1"].rel_err
        for i in range(5))
    der_detects = der_err > DEFAULT_TOLERANCES["der_e1"]

    state = make_state(config, BENT)
    bad_h = ricci_potential(state, normalization_offset=0.1)
    density = wedge_density(state.form, 1, state.form, 1)
    norm = abs(average((np.exp(bad_h) - 1.0) * density, config))
    norm_detects = norm > DEFAULT_TOLERANCES["h_normalization"]

    ok = residual_detects and der_detects and norm_detects
    assert _criterion(
        10, "mutation sensitivity", ok,
        f"b1 residual spread {spread:.1e}, DER_E1 err {der_err:.1e}, "
        f"h norm defect {norm:.1e}")
