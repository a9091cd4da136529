"""Numerical laboratory for canonical-class energy functionals and the
potential-form Ricci flow on rotationally symmetric metrics over CP^n."""

from .calculus import Grid, build_grid, d_dx, d_ds, integrate_ds
from .errors import (
    ConfigError,
    DivergentIntegrand,
    ExpressionMismatch,
    FlowAborted,
    KrflowError,
    NotInPotentialSpace,
    StepRejected,
)
from .flow import FlowConfig, FlowTrace, run, step, step_matrix
from .functionals import (
    Energies,
    FunctionalReport,
    Reference,
    c_omega_estimate,
    dirichlet,
    evaluate,
    fubini_study_reference,
    futaki_of_state,
    j_energy,
    make_reference,
    re_reference,
    ricci_potential,
)
from .geometry import (
    ManifoldConfig,
    MetricState,
    RadialForm,
    RadialPotential,
    average,
    background,
    laplacian,
    make_state,
    sample_admissible,
    scalar_curvature,
    wedge_density,
)
from .verification import (
    SuiteConfig,
    SuiteReport,
    VariationalCheck,
    cocycle_check,
    run_suite,
    variational_check,
)

__version__ = "0.1.0"
# the kernels are plain numpy; the benchmark reports this name with every run
kernel_backend = "python"

__all__ = [
    "ConfigError", "DivergentIntegrand", "Energies", "ExpressionMismatch",
    "FlowAborted", "FlowConfig", "FlowTrace", "FunctionalReport", "Grid",
    "KrflowError", "ManifoldConfig", "MetricState", "NotInPotentialSpace",
    "RadialForm", "RadialPotential", "Reference", "StepRejected",
    "SuiteConfig", "SuiteReport", "VariationalCheck", "average", "background",
    "build_grid", "c_omega_estimate", "cocycle_check", "d_dx", "d_ds",
    "dirichlet", "evaluate", "fubini_study_reference", "futaki_of_state",
    "integrate_ds", "j_energy", "kernel_backend", "laplacian",
    "make_reference", "make_state", "re_reference", "ricci_potential", "run",
    "run_suite", "sample_admissible", "scalar_curvature", "step", "step_matrix",
    "variational_check", "wedge_density",
]
