"""Expected power-displacement of uniform random sensors moved to anchors.

n sensors land uniformly at random on [0,1]; sensor i (the i-th smallest)
walks to the anchor (2i-1)/(2n), the unique layout covering the interval with
radius 1/(2n).  This package computes the expected total cost
sum_i E|X_i - t_i|^a exactly (rationals), in floating point (large n), and by
Monte Carlo, verifies the combinatorial and Beta-function identities the
closed forms rest on, and measures leading asymptotic constants on n-grids.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticReport,
    CoefficientSet,
    IdentityCheckResult,
    abel_anchor_sum,
    diagonal_coefficients,
    leading_constant,
    remainder_diagnostic,
    vanishing_signed_sum,
    vanishing_tail_correction_sum,
    verify_diagonal_beta_identity,
)
from .combinatorics import (
    binomial,
    eulerian_second_order,
    falling_factorial,
    finite_difference,
    rising_factorial,
    stirling_cycle,
    stirling_subset,
)
from .moments import (
    EXACT_N_GUARD,
    FloatMomentBreakdown,
    MomentBreakdown,
    MomentQuery,
    SensorMoment,
    SizeGuardError,
    anchor,
    per_sensor_moment_exact,
    signed_moment_total,
    total_moment_exact,
    total_moment_float,
)
from .simulation import SimulationConfig, SimulationResult, estimate
from .special_functions import (
    HalfIntValue,
    beta_exact,
    gamma_half_int,
    incomplete_beta_regularized_exact,
    incomplete_beta_step_down,
    stirling_bounds,
)

# the names imported above and the five submodules: what `import *` binds
__all__ = [name for name in dir() if not name.startswith("_")]
