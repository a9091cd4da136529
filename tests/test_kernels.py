import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from krflow._kernels import backend_name, numpy_backend
from krflow.calculus import build_grid

REPO = Path(__file__).resolve().parents[1]


def _has_c_toolchain():
    cc = (sysconfig.get_config_var("CC") or "").split()
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    return bool(cc) and shutil.which(cc[0]) is not None and header.is_file()


needs_compiler = pytest.mark.skipif(
    not _has_c_toolchain(),
    reason="building krflow._kernels._core needs a C compiler and Python.h")


@pytest.fixture(scope="module")
def grid():
    return build_grid(256)


@pytest.fixture(scope="module")
def built_lib(tmp_path_factory):
    """A copy of the krflow package with ``_core`` built by ``setup.py``.

    The build runs from the repository root into a temporary tree, so the
    source tree stays untouched.
    """
    lib = tmp_path_factory.mktemp("krflow_build")
    shutil.copytree(REPO / "src" / "krflow", lib / "krflow",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(lib), "--build-temp", str(lib / "t")],
        cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return lib


@pytest.fixture(scope="module")
def built_core(built_lib):
    """The built extension, loaded without making it importable as
    ``krflow._kernels._core``: the source tree's backend list is unchanged."""
    name = "krflow._kernels._core"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    (path,) = (built_lib / "krflow" / "_kernels").glob("_core*" + suffix)
    spec = importlib.util.spec_from_file_location(name, path)
    registered = name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        sys.modules.pop(name, None)  # Cython's module init registers itself
    return module


@pytest.fixture(scope="module")
def backends(built_core):
    assert built_core.name == "cython"
    return [numpy_backend, built_core]


def test_backend_selected():
    assert backend_name in ("python", "cython")


@needs_compiler
def test_both_backends_available(built_lib):
    # the build compiles the extension; the numpy fallback always exists
    probe = ("import krflow._kernels as k; "
             "print(k.__file__); print(','.join(k.available_backends())); "
             "print(k.backend_name)")
    env = {**os.environ, "PYTHONPATH": str(built_lib), "KRFLOW_KERNEL": "cython"}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=built_lib, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    location, names, selected = proc.stdout.splitlines()
    assert Path(location).is_relative_to(built_lib)
    assert "python" in names.split(",")
    assert "cython" in names.split(",")
    assert selected == "cython"


@needs_compiler
def test_d_dx_agreement(grid, backends, rng):
    f = np.sin(3.0 * grid.x) + 0.2 * rng.standard_normal(grid.size + 1)
    outs = [b.d_dx(f, grid.dx) for b in backends]
    for other in outs[1:]:
        assert np.abs(outs[0] - other).max() <= 1e-12 * (1 + np.abs(outs[0]).max())


@needs_compiler
def test_log_density_agreement(grid, backends):
    phi = 0.2 * grid.x + 0.1 * grid.x ** 3
    results = [b.log_density(phi, grid.x, grid.xm, grid.omx, grid.dx, 2)
               for b in backends]
    for logrho, mina, minb in results:
        assert logrho is not None
    base = results[0]
    for other in results[1:]:
        assert np.abs(base[0] - other[0]).max() <= 1e-13
        assert base[1] == pytest.approx(other[1], abs=1e-14)
        assert base[2] == pytest.approx(other[2], abs=1e-14)


@needs_compiler
def test_log_density_positivity_flag(grid, backends):
    phi = -10.0 * grid.x
    for b in backends:
        logrho, mina, minb = b.log_density(phi, grid.x, grid.xm, grid.omx, grid.dx, 1)
        assert logrho is None
        assert min(mina, minb) <= 0.0


@needs_compiler
def test_velocity_agreement(grid, backends):
    phi = 0.15 * grid.x ** 2
    shift = 0.05 * grid.x
    results = [b.velocity(phi, shift, grid.x, grid.xm, grid.omx, grid.dx, 1)
               for b in backends]
    base = results[0][0]
    for other in results[1:]:
        assert np.abs(base - other[0]).max() <= 1e-13


@needs_compiler
def test_rk4_step_agreement(grid, backends):
    phi = 0.2 * grid.x
    shift = np.zeros(grid.size + 1)
    results = [b.rk4_step(phi, 1e-5, shift, grid.x, grid.xm, grid.omx, grid.dx, 1)
               for b in backends]
    for out, ok in results:
        assert ok
    base = results[0][0]
    for other in results[1:]:
        assert np.abs(base - other[0]).max() <= 1e-13


@needs_compiler
def test_rk4_step_rejection_agreement(grid, backends):
    phi = 0.2 * grid.x
    shift = np.zeros(grid.size + 1)
    for b in backends:
        out, ok = b.rk4_step(phi, 1e3, shift, grid.x, grid.xm, grid.omx, grid.dx, 1)
        assert not ok
        assert out is None

