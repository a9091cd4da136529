"""Numerical laboratory for canonical-class energy functionals and the
potential-form Ricci flow on rotationally symmetric metrics over CP^n.

A public name is imported from the submodule that defines it when it is
first read (PEP 562), so a caller loads only what it uses: evaluating
energies loads neither the flow nor the verification suite."""

import importlib

__version__ = "0.1.0"
# the kernels are plain numpy; the benchmark reports this name with every run
kernel_backend = "python"

# each submodule and the public names it defines
_EXPORTS = {
    "_kernels": "d_dx",
    "calculus": "Grid build_grid d_ds integrate_ds",
    "errors": "ConfigError DivergentIntegrand ExpressionMismatch FlowAborted KrflowError "
              "NotInPotentialSpace StepRejected",
    "flow": "FlowConfig FlowTrace run step step_matrix",
    "functionals": "Energies Reference c_omega_estimate dirichlet evaluate fubini_study_reference "
                   "futaki_of_state j_energy make_reference re_reference ricci_potential",
    "geometry": "ManifoldConfig MetricState RadialForm RadialPotential average background "
                "laplacian make_state sample_admissible scalar_curvature wedge_density",
    "verification": "SuiteConfig SuiteReport VariationalCheck cocycle_check run_suite "
                    "variational_check",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, "kernel_backend"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
