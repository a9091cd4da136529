import numpy as np
import pytest

from krflow.calculus import build_grid
from krflow.functionals import fubini_study_reference, make_reference
from krflow.geometry import ManifoldConfig, RadialPotential, make_state

BENT_COEFFS = (0.0, 0.2, 0.1)


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
