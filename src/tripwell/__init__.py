"""Numerical toolkit for a singularly perturbed triple-well variational problem.

The names below are re-exported from their submodules, which load on first
use: ``import tripwell`` loads none of them, ``tripwell.X`` imports the
submodule of X, and ``tripwell.grids`` imports the submodule itself.  No
re-export is stored in the package namespace, so every access reads the
submodule's current binding.
"""

import importlib

_EXPORTS = {
    "constants": ("HypothesisReport", "LimitConstants", "check_hypotheses", "eval_f",
                  "H_antiderivative", "interface_energies", "limit_constants"),
    "energy": ("EnergyBreakdown", "discrete_derivatives", "energy_Eeps", "energy_gradient",
               "energy_Ieps"),
    "errors": ("ConstructionError", "GridError", "NumericError", "ParameterError",
               "SpecificationError", "TripwellError"),
    "grids": ("GridFunction",),
    "microstructure": ("build_h7_competitor", "build_h8_competitor",
                       "build_three_well_profile", "build_two_well_sawtooth",
                       "solve_transition_ode"),
    "potential": ("Coercivity", "PotentialSpec", "estimate_coercivity", "eval_dW", "eval_W",
                  "load_potential", "sqrt_W", "verify_growth"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the variables that set a BLAS's threads per process, in the order it reads
# them; kept here, where no numpy is loaded, so the CLI can pin them first
BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
    "accelerate": ("VECLIB_MAXIMUM_THREADS",),
}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:      # the submodules ``import tripwell`` once loaded eagerly
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
