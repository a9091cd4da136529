"""The krflow benchmark: one workload, one seed, one result line.

Run from the root of a krflow checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 15 --trace 0

The harness makes the workload's inputs from the seed, times set-up in
separate processes, runs the workload in a worker process
(``perfbench/worker.py``) against the source tree, and checks the worker's
outputs against the oracle in ``perfbench/oracle.py`` and against properties
the mathematics guarantees. It prints fingerprints and every metric by name
and unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The full record of the run goes to ``.perfbench_runs/``.
"""

import argparse
import configparser
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 6
DEADLINE_S = 170.0

# criterion 3's flow (n = 1, N = 1024, records every 1000 accepted steps,
# about every 0.01 in flow time) up to a fixed flow time instead of t = 10.
# About 5,500 steps: far from a multiple of 1000, so every seed gets the same
# number of records
FLOW = {"n": 1, "grid": 1024, "t_max": 0.055, "record_every": 1000}
SWEEP_GRID = 2048
SWEEP_POTENTIALS = 16
SWEEP_PAIRS = 4
VERIFY_CONFIGS = (None,  # the bundled config, as `krflow verify` runs it
                  os.path.join(HERE, "configs", "verify_n2.ini"),
                  os.path.join(HERE, "configs", "verify_n3.ini"))

# flow properties (criterion 3 and the dissipation identity)
NU_VIOLATION_TOL = 1e-8
RESIDUAL_TOL = 1e-5
INEQUALITY_FLOOR = -1e-8
# the trapezoid rule over records about 0.01 apart is second order in the
# spacing; seeds whose x^2, x^3 terms decay fast reach 7.6e-4 (seeds 1-30)
DISSIPATION_TOL = 3e-3
# energy_sweep: oracle gaps relative to 1 + |value|, and properties
J_GAP_TOL = 1e-10
NU_GAP_TOL = 1e-9
# E1 carries the fourth derivative of phi: its gap at N = 2048 is the
# stencils' fourth-order error, up to 4.8e-8 on seeds 1-40 (16x per doubling)
E1_GAP_TOL = 5e-7
RESIDUAL_SPREAD_TOL = 1e-6
COCYCLE_TOL = 1e-6


class BenchmarkError(Exception):
    pass


def make_inputs(workload, seed):
    """Everything the worker receives; a function of the seed alone."""
    rng = np.random.default_rng(seed)
    if workload == "flow":
        return dict(FLOW, initial=oracle.flow_initial(rng))
    if workload == "energy_sweep":
        cases = []
        for n in (1, 2, 3):
            for reference in ((0.0,), oracle.BENT_REFERENCE):
                cases.append({
                    "n": n,
                    "grid": SWEEP_GRID,
                    "reference": list(reference),
                    "potentials": oracle.sample_potentials(rng, n, SWEEP_POTENTIALS, reference),
                    "pairs": [[2 * i, 2 * i + 1] for i in range(SWEEP_PAIRS)],
                })
        return {"cases": cases}
    # the suite's own seed stays the bundled one: other suite seeds fail
    # some checks (see CHANGES.md), and --seed must not decide failures
    return {"configs": list(VERIFY_CONFIGS)}


def worker_env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, inputs, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, input=json.dumps(inputs), capture_output=True, text=True,
                              env=worker_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def git_sha():
    if not os.path.exists(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


# ---------------------------------------------------------------- checks


class Checks:
    def __init__(self):
        self.failures = []
        self.fingerprints = {}

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)


def _same_output_every_round(checks, rounds):
    digests = {r["digest"] for r in rounds}
    checks.require(len(digests) == 1,
                   f"outputs differ between rounds of one run ({len(digests)} distinct)")


def check_flow(inputs, result, checks):
    out = result["output"]
    if out is None:
        return
    rows = np.array(out["rows"])
    t, nu, e1, dirichlet, residual = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]
    scal_spread = rows[:, 6] - rows[:, 5]
    # C_omega is 0 at the Fubini-Study reference
    nu_violation = float(np.max((nu[1:] - nu[:-1]) / (1.0 + np.abs(nu[:-1]))))
    residual_dev = float(np.max(np.abs(residual)))
    margin = float(np.min(e1 - 2.0 * nu))
    positivity = float(np.min(rows[:, 8:10]))
    dissipated = float(nu[0] - nu[-1])
    integral = float(np.sum(0.5 * (dirichlet[1:] + dirichlet[:-1]) * np.diff(t)))
    dissipation_gap = abs(dissipated - integral) / integral
    checks.require(abs(t[-1] - inputs["t_max"]) <= 1e-9, f"flow ended at t = {t[-1]!r}")
    checks.require(nu_violation <= NU_VIOLATION_TOL, f"nu increased: {nu_violation:.3e}")
    checks.require(residual_dev <= RESIDUAL_TOL and abs(out["c_omega"]) <= RESIDUAL_TOL,
                   f"residual off C_omega = 0: {residual_dev:.3e} (c_omega {out['c_omega']:.3e})")
    checks.require(margin >= INEQUALITY_FLOOR, f"E1 - 2 nu - C_omega = {margin:.3e}")
    checks.require(positivity > 0.0, f"positivity lost: {positivity:.3e}")
    checks.require(dissipation_gap <= DISSIPATION_TOL,
                   f"nu(0) - nu(T) = {dissipated:.6e} but int Dirichlet dt = {integral:.6e}")
    checks.require(scal_spread[-1] < scal_spread[0],
                   f"scalar-curvature spread grew: {scal_spread[0]:.3e} -> {scal_spread[-1]:.3e}")
    checks.fingerprints.update({
        "nu": nu[-1], "e1": e1[-1], "dirichlet": dirichlet[-1], "residual": residual[-1],
        "scal_spread_first": scal_spread[0], "scal_spread_last": scal_spread[-1],
        "steps_accepted": out["accepted"], "steps_rejected": out["rejected"],
        "records": len(rows), "nu_violation": nu_violation, "residual_dev": residual_dev,
        "inequality_margin": margin, "dissipation_gap": dissipation_gap,
    })


def _rel_gap(value, exact):
    return abs(value - exact) / (1.0 + abs(exact))


def check_energy_sweep(inputs, result, checks):
    worst = {"j_gap": 0.0, "nu_gap": 0.0, "e1_gap": 0.0, "residual_spread": 0.0,
             "cocycle_nu": 0.0, "cocycle_e1": 0.0}
    for case, out in zip(inputs["cases"], result["output"]):
        n, reference = case["n"], case["reference"]
        label = f"n={n} reference={reference}"
        reports = out["reports"]
        residuals = []
        for psi, rep in zip(case["potentials"], reports):
            if rep is None:
                continue
            j, _, nu, e1, _, residual = rep
            residuals.append(residual)
            checks.require(j >= 0.0, f"{label}: J = {j:.3e} < 0")
            worst["j_gap"] = max(worst["j_gap"], _rel_gap(j, oracle.j_energy(n, psi, reference)))
            if n == 1:
                nu_exact, e1_exact = oracle.nu_e1(psi, reference)
                worst["nu_gap"] = max(worst["nu_gap"], _rel_gap(nu, nu_exact))
                worst["e1_gap"] = max(worst["e1_gap"], _rel_gap(e1, e1_exact))
        if residuals:
            spread = (max(residuals) - min(residuals)) / (1.0 + abs(residuals[0]))
            worst["residual_spread"] = max(worst["residual_spread"], spread)
        for (i, k), leg in zip(case["pairs"], out["legs"]):
            if leg is None or reports[i] is None or reports[k] is None:
                continue
            for name, col in (("cocycle_nu", 2), ("cocycle_e1", 3)):
                first, total, second = reports[i][col], reports[k][col], leg[col]
                defect = abs(total - first - second)
                scale = max(abs(total), abs(first), abs(second))
                worst[name] = max(worst[name], defect / (1.0 + scale))
    for name, tol in (("j_gap", J_GAP_TOL), ("nu_gap", NU_GAP_TOL), ("e1_gap", E1_GAP_TOL),
                      ("residual_spread", RESIDUAL_SPREAD_TOL), ("cocycle_nu", COCYCLE_TOL),
                      ("cocycle_e1", COCYCLE_TOL)):
        checks.require(worst[name] <= tol, f"{name} = {worst[name]:.3e} exceeds {tol:.0e}")
    checks.fingerprints.update(worst)


def _suite_samples(path):
    parser = configparser.ConfigParser()
    parser.read(path or os.path.join("src", "krflow", "configs", "verify_default.ini"))
    return int(parser.get("suite", "samples", fallback="20"))


def check_verify(inputs, result, checks):
    for entry in result["output"]:
        config = os.path.basename(entry["argv"][-1]) if len(entry["argv"]) > 1 else "bundled config"
        lines = entry["text"].splitlines()
        checks.require(bool(lines), f"{config}: no report (exit code {entry['code']})")
        worst, worst_name, passed = 0.0, None, 0
        for line in lines:
            try:
                name, status, value, tol = line.split(",")
                agrees = status == ("PASS" if float(value) <= float(tol) else "FAIL")
            except ValueError:
                checks.require(False, f"{config}: unreadable report line: {line}")
                continue
            checks.require(agrees, f"{config}: verdict disagrees with its numbers: {line}")
            passed += status == "PASS"
            if float(tol) > 0 and float(value) / float(tol) >= worst:
                worst, worst_name = float(value) / float(tol), name
        all_pass = passed == len(lines) and bool(lines)
        checks.require(entry["code"] == (0 if all_pass else 1),
                       f"{config}: exit code {entry['code']} with {passed}/{len(lines)} PASS")
        checks.fingerprints[config] = {
            "pass": passed, "checks": len(lines),
            "report_sha256": hashlib.sha256(entry["text"].encode()).hexdigest()[:16],
            "closest_to_tolerance": f"{worst_name} at {worst:.3f} of its tolerance",
        }


CHECKS = {"flow": check_flow, "energy_sweep": check_energy_sweep, "verify": check_verify}


# ---------------------------------------------------------------- metrics


def end_to_end(args, inputs, result, setup_times):
    # the mean, not the median, of the rounds: the machine alternates between
    # fast and slow stretches, and the mean moves smoothly with their mix
    # where the median jumps between the two levels
    wall = statistics.fmean(r["wall"] for r in result["rounds"])
    if args.workload == "flow":
        reports = len(result["output"]["rows"]) if result["output"] else 0
        extra = {"flow_time_per_s": (inputs["t_max"] / wall, "1/s")}
    elif args.workload == "energy_sweep":
        reports = sum(len(c["potentials"]) + len(c["pairs"]) for c in inputs["cases"])
        extra = {}
    else:
        reports = sum(_suite_samples(path) for path in inputs["configs"])
        extra = {}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mib": result["peak_rss_mib"],
        "evals_per_s": reports / wall,
    }
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "krflow", "__init__.py")):
        print("error: run from the root of a krflow checkout (src/krflow is missing)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)

    inputs = make_inputs(args.workload, args.seed)
    try:
        # half the set-up probes before the workload and half after, so that
        # their median spans the run's stretches of fast and slow machine
        setup_times = [run_worker(args, inputs, deadline, setup_only=True)["setup_s"]
                       for _ in range(SETUP_REPEATS // 2)]
        result = run_worker(args, inputs, deadline)
        setup_times += [run_worker(args, inputs, deadline, setup_only=True)["setup_s"]
                        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = result["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    checks = Checks()
    _same_output_every_round(checks, rounds)
    CHECKS[args.workload](inputs, result, checks)

    if args.trace:
        wanted, values, extra = spec["per_layer"], result["layers"], {}
    else:
        wanted = spec["end_to_end"]
        values, extra = end_to_end(args, inputs, result, setup_times)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    environment = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "kernel_backend": result["kernel_backend"],
        "blas_threads": result["blas_threads"],
    }
    print("environment: " + json.dumps(environment))
    print(f"rounds: {len(rounds)}, operations attempted {attempted}, failed {failed}")
    for error in sorted({e for r in rounds for e in r["errors"]}):
        print(f"failed operation: {error}")
    print("fingerprints: " + json.dumps(checks.fingerprints, default=float))
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")

    os.makedirs(".perfbench_runs", exist_ok=True)
    record = {"args": vars(args), "environment": environment, "inputs": inputs,
              "setup_times": setup_times, "worker": result,
              "checks": {"failures": checks.failures, "fingerprints": checks.fingerprints},
              "metrics": metrics}
    path = os.path.join(".perfbench_runs",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(json.dumps({"correct": not checks.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
