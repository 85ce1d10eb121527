"""Numerical toolkit for a singularly perturbed triple-well variational problem."""

from .constants import (
    HypothesisReport,
    LimitConstants,
    check_hypotheses,
    eval_f,
    H_antiderivative,
    interface_energies,
    limit_constants,
)
from .energy import EnergyBreakdown, discrete_derivatives, energy_Eeps, energy_gradient, energy_Ieps
from .errors import (
    ConstructionError,
    GridError,
    NumericError,
    ParameterError,
    SpecificationError,
    TripwellError,
)
from .grids import GridFunction
from .microstructure import (
    build_h7_competitor,
    build_h8_competitor,
    build_three_well_profile,
    build_two_well_sawtooth,
    solve_transition_ode,
)
from .potential import (
    Coercivity,
    PotentialSpec,
    estimate_coercivity,
    eval_dW,
    eval_W,
    load_potential,
    sqrt_W,
    verify_growth,
)

__version__ = "0.1.0"
