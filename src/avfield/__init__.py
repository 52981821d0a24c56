"""Average-field energy minimization for extended anyons on a 2D grid."""

__version__ = "0.1.0"

from .errors import (
    AvfieldError,
    DomainError,
    FormatError,
    NumericalFailureError,
)
from .grid import GridSpec, WaveFunction, gaussian_state
from .kernels import SmearedCoulomb, TrapPotential, eta0, lp_norm_grad_w
from .functional import EnergyBreakdown, FunctionalParams, energy
from .solver import SolverConfig, SolveResult, minimize, sweep
from .manybody import (
    ManyBodyBreakdown,
    ManyBodyParams,
    mixed_term_crosscheck,
    product_state_energy,
)
from .geometry import counterexample_probe
from .stateio import load_state, save_state

__all__ = [
    "AvfieldError",
    "DomainError",
    "FormatError",
    "NumericalFailureError",
    "GridSpec",
    "WaveFunction",
    "gaussian_state",
    "SmearedCoulomb",
    "TrapPotential",
    "eta0",
    "lp_norm_grad_w",
    "EnergyBreakdown",
    "FunctionalParams",
    "energy",
    "SolverConfig",
    "SolveResult",
    "minimize",
    "sweep",
    "ManyBodyBreakdown",
    "ManyBodyParams",
    "mixed_term_crosscheck",
    "product_state_energy",
    "counterexample_probe",
    "load_state",
    "save_state",
    "__version__",
]
