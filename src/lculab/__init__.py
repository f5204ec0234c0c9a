"""Desk-scale simulator and verification lab for thermal-state preparation and
Markov-chain hitting-time estimation built on linear combinations of unitaries."""

from .constants import DEFAULT_CONSTANTS, Constants
from .errors import (
    AnnihilationError,
    CalibrationError,
    LculabError,
    PreconditionWarning,
    SingularityError,
    ValidationError,
    WalkTimeoutError,
)
from .gap_amplification import parse_pauli_lines
from .gibbs import GibbsTask, calibrate_hs_grid, prepare_gibbs
from .inverse import (
    HittingTimeTask,
    amplitude_estimation,
    calibrate_inverse_grid,
    estimate_hitting_time,
)
from .markov import mark_states, validate_chain
from .operators import HermitianOperator

__version__ = "0.1.0"

__all__ = [
    "Constants",
    "DEFAULT_CONSTANTS",
    "LculabError",
    "ValidationError",
    "SingularityError",
    "AnnihilationError",
    "CalibrationError",
    "WalkTimeoutError",
    "PreconditionWarning",
    "HermitianOperator",
    "parse_pauli_lines",
    "GibbsTask",
    "calibrate_hs_grid",
    "prepare_gibbs",
    "validate_chain",
    "mark_states",
    "HittingTimeTask",
    "calibrate_inverse_grid",
    "estimate_hitting_time",
    "amplitude_estimation",
    "__version__",
]
