"""One workload of the krflow benchmark, in a process of its own.

Reads the workload's inputs as JSON on stdin, imports krflow from the source
tree on PYTHONPATH, builds the program's inputs (that is set-up), then runs
whole rounds until the time is up and prints one JSON object as its last
line of output. Each workload runs in its own process so that its peak
resident memory belongs to it alone.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, so the traced run states its own overhead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import time


class FlowWorkload:
    """One round is one flow run to the fixed flow time ``t_max``."""

    min_rounds = 1

    def __init__(self, inputs):
        from krflow import FlowConfig, ManifoldConfig, RadialPotential, build_grid
        from krflow import flow

        self.flow = flow
        self.config = FlowConfig(
            manifold=ManifoldConfig(n=inputs["n"], grid=build_grid(inputs["grid"])),
            initial=RadialPotential(inputs["initial"]),
            t_max=inputs["t_max"],
            record_every=inputs["record_every"],
        )

    def run_round(self):
        try:
            trace = self.flow.run(self.config)
        except Exception as exc:  # a failed operation is counted, not fatal
            return 1, [repr(exc)], None
        return 1, [], {
            "rows": [list(rec.row()) for rec in trace.records],
            "c_omega": trace.c_omega,
            "accepted": trace.accepted,
            "rejected": trace.rejected,
        }


class EnergySweepWorkload:
    """One round: for n = 1, 2, 3 and each reference, build the reference,
    ``evaluate`` every potential, and take each cocycle pair's second leg
    (``re_reference`` at phi1, then ``evaluate`` at phi2 - phi1)."""

    min_rounds = 1

    def __init__(self, inputs):
        from krflow import ManifoldConfig, RadialPotential, build_grid, functionals, geometry

        self.functionals = functionals
        self.geometry = geometry
        self.cases = []
        for case in inputs["cases"]:
            config = ManifoldConfig(n=case["n"], grid=build_grid(case["grid"]))
            potentials = [RadialPotential(c) for c in case["potentials"]]
            legs = [(potentials[i], potentials[j] - potentials[i]) for i, j in case["pairs"]]
            reference = RadialPotential(case["reference"]) if any(case["reference"]) else None
            self.cases.append((config, reference, potentials, legs))

    def _reference(self, config, reference):
        if reference is None:
            return self.functionals.fubini_study_reference(config)
        return self.functionals.make_reference(self.geometry.make_state(config, reference))

    def _report(self, ref, phi):
        r = self.functionals.evaluate(ref, phi)
        return [r.j, r.j_mixed, r.nu, r.e1, r.dirichlet, r.residual]

    def run_round(self):
        attempted, errors, output = 0, [], []
        for config, reference, potentials, legs in self.cases:
            case = {"reports": [], "legs": []}
            output.append(case)
            try:
                ref = self._reference(config, reference)
            except Exception as exc:
                attempted += len(potentials) + len(legs)
                errors += [repr(exc)] * (len(potentials) + len(legs))
                continue
            for phi in potentials:
                attempted += 1
                try:
                    case["reports"].append(self._report(ref, phi))
                except Exception as exc:
                    case["reports"].append(None)
                    errors.append(repr(exc))
            for phi1, delta in legs:
                attempted += 1
                try:
                    case["legs"].append(
                        self._report(self.functionals.re_reference(ref, phi1), delta))
                except Exception as exc:
                    case["legs"].append(None)
                    errors.append(repr(exc))
        return attempted, errors, output


class VerifyWorkload:
    """One round (a pass) runs ``krflow verify`` once on each config."""

    min_rounds = 2  # the determinism check compares two runs of each config

    def __init__(self, inputs):
        from krflow import cli

        self.cli = cli
        self.argvs = [["verify"] + (["--config", path] if path else [])
                      for path in inputs["configs"]]

    def run_round(self):
        attempted, errors, output = 0, [], []
        for argv in self.argvs:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv)
            except Exception as exc:
                code = None
                errors.append(repr(exc))
            text = buf.getvalue()
            lines = text.splitlines()
            attempted += max(1, len(lines))
            errors += [line for line in lines if ",FAIL," in line]
            output.append({"argv": argv, "code": code, "text": text})
        return attempted, errors, output


WORKLOADS = {
    "flow": FlowWorkload,
    "energy_sweep": EnergySweepWorkload,
    "verify": VerifyWorkload,
}


def _digest(output):
    return hashlib.sha256(json.dumps(output).encode()).hexdigest()


def measure(workload, seconds, min_rounds):
    """Whole rounds until ``seconds`` have passed (and at least
    ``min_rounds``); each round's wall time, counts and output digest."""
    rounds = []
    first = None
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        attempted, errors, output = workload.run_round()
        wall = time.perf_counter() - t0
        if first is None:
            first = output
        rounds.append({"wall": wall, "attempted": attempted, "failed": len(errors),
                       "errors": errors[:5], "digest": _digest(output)})
    return rounds, first


def trace_targets():
    """The traced functions: (name, function, result counter)."""
    from krflow import _kernels, calculus, cli, flow, functionals, geometry, verification

    def flow_result(trace):
        return {"accepted": trace.accepted, "rejected": trace.rejected,
                "flow_time": trace.records[-1].t}

    return [
        ("kernels.velocity", _kernels.velocity, None),
        ("kernels.rk4_step", _kernels.rk4_step, None),
        ("kernels.d_dx", _kernels.d_dx, None),
        ("flow.run", flow.run, flow_result),
        ("flow.record", flow._record, None),
        ("geometry.state_from_total", geometry.state_from_total, None),
        ("geometry.make_state", geometry.make_state, None),
        ("geometry.state_from", geometry.state_from, None),
        ("geometry.wedge_density", geometry.wedge_density, None),
        ("geometry.sample_admissible", geometry.sample_admissible,
         lambda out: {"accepted": len(out)}),
        ("calculus.integrate_ds", calculus.integrate_ds, None),
        ("calculus.cumulative_dx", calculus.cumulative_dx, None),
        ("functionals.evaluate", functionals.evaluate, None),
        ("functionals.make_reference", functionals.make_reference, None),
        ("functionals.futaki_of_state", functionals.futaki_of_state, None),
        ("verification.run_suite", verification.run_suite, None),
        ("verification.variational_check", verification.variational_check, None),
        ("verification.cocycle_check", verification.cocycle_check, None),
        ("cli.main", cli.main, None),
        ("cli.cmd_verify", cli.cmd_verify, None),
    ]


def layer_metrics(tracer, units):
    """Per-layer figures per round of the traced phase (counts and seconds
    per round; ``_us`` and ``_ms`` figures are means per call)."""
    s = tracer.stat
    run = s("flow.run")
    sampler = "geometry.sample_admissible"
    tries = (tracer.edge(sampler, "geometry.make_state").calls
             + tracer.edge(sampler, "geometry.state_from").calls)
    accepted = s(sampler).items.get("accepted", 0)
    per = {
        "kernels.velocity_evals": s("kernels.velocity").calls,
        "kernels.rk4_step_s": s("kernels.rk4_step").total,
        "kernels.d_dx_calls": s("kernels.d_dx").calls,
        "flow.steps_accepted": run.items.get("accepted", 0),
        "flow.steps_rejected": run.items.get("rejected", 0),
        "flow.run_self_s": run.self_time,
        "flow.record_s": s("flow.record").total,
        "geometry.state_builds": s("geometry.state_from_total").calls,
        "geometry.wedge_density_calls": s("geometry.wedge_density").calls,
        "geometry.sample_tries": tries,
        "calculus.integrate_ds_calls": s("calculus.integrate_ds").calls,
        "calculus.cumulative_dx_calls": s("calculus.cumulative_dx").calls,
        "functionals.evaluate_calls": s("functionals.evaluate").calls,
        "functionals.reference_builds": s("functionals.make_reference").calls,
        "functionals.futaki_of_state_calls": s("functionals.futaki_of_state").calls,
        "verification.run_suite_s": s("verification.run_suite").total,
        "verification.suite_flow_s": tracer.edge("verification.run_suite", "flow.run").total,
        "cli.verify_self_s": s("cli.main").self_time + s("cli.cmd_verify").self_time,
    }
    out = {name: value / units for name, value in per.items()}
    out.update({
        "kernels.velocity_us": s("kernels.velocity").mean() * 1e6,
        "kernels.d_dx_us": s("kernels.d_dx").mean() * 1e6,
        "flow.flow_time_per_s": run.items.get("flow_time", 0) / run.total if run.total else 0.0,
        "geometry.state_build_us": s("geometry.state_from_total").mean() * 1e6,
        "geometry.wedge_density_us": s("geometry.wedge_density").mean() * 1e6,
        "geometry.sample_accept_ratio": accepted / tries if tries else 0.0,
        "calculus.integrate_ds_us": s("calculus.integrate_ds").mean() * 1e6,
        "functionals.evaluate_ms": s("functionals.evaluate").mean() * 1e3,
        "functionals.reference_build_ms": s("functionals.make_reference").mean() * 1e3,
        "verification.variational_check_ms": s("verification.variational_check").mean() * 1e3,
        "verification.cocycle_check_ms": s("verification.cocycle_check").mean() * 1e3,
    })
    return out


def blas_threads():
    """Threads the bundled OpenBLAS uses, or None where it cannot be asked."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return func()
    return None


def peak_rss_mib():
    """Peak resident memory of this process image. ``ru_maxrss`` is no use
    here: Linux carries the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    inputs = json.load(sys.stdin)

    start = time.perf_counter()
    import krflow
    cls = WORKLOADS[args.workload]
    workload = cls(inputs)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    seconds = args.seconds / 2.0 if args.trace else args.seconds
    min_rounds = 1 if args.trace else cls.min_rounds
    result["rounds"], result["output"] = measure(workload, seconds, min_rounds)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(trace_targets())
        try:
            traced, _ = measure(workload, seconds, 1)
        finally:
            tracer.remove()
        untraced_wall = statistics.fmean(r["wall"] for r in result["rounds"])
        traced_wall = statistics.fmean(r["wall"] for r in traced)
        result["layers"] = layer_metrics(tracer, len(traced))
        result["layers"]["trace.wall_s"] = traced_wall
        result["layers"]["trace.overhead_s"] = traced_wall - untraced_wall
        result["rounds"] += traced

    result["kernel_backend"] = krflow.kernel_backend
    result["blas_threads"] = blas_threads()
    result["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
