import importlib.util
from pathlib import Path

import pytest

import krflow
from conftest import VERIFY_FAST
from krflow import _kernels, calculus, geometry

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve(worker):
    # the benchmark's worker reaches into krflow by name: its traced run
    # wraps these functions, and every run reports the kernel backend
    targets = worker.trace_targets()
    assert targets
    for name, func, on_result in targets:
        assert callable(func), name
        assert on_result is None or callable(on_result), name
    assert krflow.kernel_backend == "python"
    # the tracer wraps every module slot that holds a traced function, so one
    # derivative function under every name counts each derivative once
    assert calculus.d_dx is geometry.d_dx is _kernels.d_dx is krflow.d_dx


def test_benchmark_workloads_run(worker):
    # one round of the flow and energy_sweep workloads on small inputs runs
    # through the names and contracts the worker reads, without an error
    flow = worker.FlowWorkload({"n": 1, "grid": 64, "t_max": 0.01, "record_every": 1000,
                                "initial": [0.0, 0.2, 0.005, -0.005]})
    attempted, errors, output = flow.run_round()
    assert (attempted, errors) == (1, [])
    assert output["accepted"] > 0 and len(output["rows"]) >= 2
    potentials = [[0.0, 0.1], [0.0, -0.1, 0.05], [0.0, 0.05, 0.05], [0.02, 0.1, -0.05]]
    cases = [{"n": n, "grid": 64, "reference": reference, "potentials": potentials,
              "pairs": [[0, 1], [2, 3]]}
             for n in (1, 2, 3) for reference in ([0.0], [0.0, 0.2, 0.1])]
    sweep = worker.EnergySweepWorkload({"cases": cases})
    attempted, errors, output = sweep.run_round()
    assert (attempted, errors) == (len(cases) * 6, [])
    assert all(None not in case["reports"] + case["legs"] for case in output)


def test_benchmark_verify_workload_reports(worker, tmp_path):
    # one round of the verify workload on a small config: every report line
    # reads name,status,value,tolerance with the status that value <=
    # tolerance gives (the harness's rule), and the three flow gates report
    config = tmp_path / "verify.ini"
    config.write_text(VERIFY_FAST)
    attempted, errors, output = worker.VerifyWorkload({"configs": [str(config)]}).run_round()
    assert errors == [] and [entry["code"] for entry in output] == [0]
    lines = output[0]["text"].splitlines()
    assert attempted == len(lines)
    for line in lines:
        name, status, value, tol = line.split(",")
        assert status == ("PASS" if float(value) <= float(tol) else "FAIL"), line
    names = [line.split(",")[0] for line in lines]
    assert {"flow_nu_monotone", "flow_residual_constant", "flow_inequality"} <= set(names)
