"""Exact and numerical bound states of the 2D anharmonic potential a r^2 + b r^-4 + c r^-6.

The package namespace holds what the command line and the scripts use; the
rest of the API is in anharm2d.closed_form and anharm2d.numeric.
"""

from anharm2d.closed_form import (
    ClosedFormState,
    Level,
    PotentialParams,
    SolvabilityError,
    constrained_state,
    excited_solve,
    radial_eval,
)
from anharm2d.numeric import ConvergenceError, build_grid, normalization_constant, verify

__version__ = "0.1.0"
