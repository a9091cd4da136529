import importlib.util
from pathlib import Path

import krflow
from krflow import _kernels, calculus, geometry

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_benchmark_trace_targets_resolve():
    # the benchmark's worker reaches into krflow by name: its traced run
    # wraps these functions, and every run reports the kernel backend
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    targets = worker.trace_targets()
    assert targets
    for name, func, on_result in targets:
        assert callable(func), name
        assert on_result is None or callable(on_result), name
    assert krflow.kernel_backend == "python"
    # the tracer wraps every module slot that holds a traced function, so one
    # derivative function under every name counts each derivative once
    assert calculus.d_dx is geometry.d_dx is _kernels.d_dx is krflow.d_dx
