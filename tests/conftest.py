import numpy as np
import pytest

from krflow.calculus import build_grid
from krflow.functionals import fubini_study_reference, make_reference
from krflow.geometry import ManifoldConfig, RadialPotential, make_state
from krflow.verification import flow_checks

BENT_COEFFS = (0.0, 0.2, 0.1)
# a verify config small enough for a unit test, on which every check passes
VERIFY_FAST = """
[run]
n = 1
grid_size = 512

[suite]
seed = 11
samples = 6
fd_pairs = 2
flow_grid = 128
flow_t_max = 0.2

[tolerances]
scal_class_average = 1e-5
residual_constancy_background = 1e-4
residual_constancy_perturbed = 1e-4
"""
# an admissible n = 2 state on which, at N = 16, the quadrature of e^h
# against the volume that normalizes the Ricci potential comes out at -1178.7
COARSE_NEGATIVE_NORM = (1.8019894382475554, 0.32797387213837137, 1.6480510198850826,
                        0.16857281684940828, -1.7551304400678869, 2.870998680508242,
                        0.25743497744605204, -2.6372058528554945)


@pytest.fixture(scope="session")
def grid256():
    return build_grid(256)


@pytest.fixture(scope="session")
def grid512():
    return build_grid(512)


@pytest.fixture(scope="session")
def grid1024():
    return build_grid(1024)


@pytest.fixture(scope="session")
def config1(grid512):
    return ManifoldConfig(n=1, grid=grid512)


@pytest.fixture(scope="session")
def config2(grid512):
    return ManifoldConfig(n=2, grid=grid512)


@pytest.fixture(scope="session")
def config3(grid512):
    return ManifoldConfig(n=3, grid=grid512)


@pytest.fixture(scope="session")
def fs_ref1(config1):
    return fubini_study_reference(config1)


@pytest.fixture(scope="session")
def fs_ref2(config2):
    return fubini_study_reference(config2)


@pytest.fixture(scope="session")
def bent_ref1(config1):
    return make_reference(make_state(config1, RadialPotential(BENT_COEFFS)))


@pytest.fixture(scope="session")
def bent_ref2(config2):
    return make_reference(make_state(config2, RadialPotential(BENT_COEFFS)))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


def flow_gate_failures(trace):
    """The suite's flow gates (``flow_checks`` at the default tolerances) that
    ``trace`` misses, as "name: value > tolerance" strings; empty when all
    pass."""
    return [f"{e.name}: {e.value:.3e} > {e.tolerance:.3e}"
            for e in flow_checks(trace) if not e.passed]


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance criteria's pass/fail lines in the terminal
    summary, so a plain run shows them (with ``-s`` they also appear as each
    test runs). Only prints: no verdict depends on it."""
    reports = sorted((report for key in ("passed", "failed")
                      for report in terminalreporter.stats.get(key, ())
                      if report.when == "call"), key=lambda report: report.nodeid)
    lines = [line for report in reports for line in report.capstdout.splitlines()
             if line.startswith("criterion ")]
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
