"""Expected power-displacement of uniform random sensors moved to anchors.

n sensors land uniformly at random on [0,1]; sensor i (the i-th smallest)
walks to the anchor (2i-1)/(2n), the unique layout covering the interval with
radius 1/(2n).  This package computes the expected total cost
sum_i E|X_i - t_i|^a exactly (rationals), in floating point (large n), and by
Monte Carlo, verifies the combinatorial and Beta-function identities the
closed forms rest on, and measures leading asymptotic constants on n-grids.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, each with the submodule that defines it.  Importing the package loads
# none of them: a name, or one of these submodules, loads its module on first access (PEP
# 562), so `import anchor_moments.cli` starts without the modules a command does not run.
_SOURCES = {
    "asymptotics": (
        "AsymptoticReport", "CoefficientSet", "IdentityCheckResult", "abel_anchor_sum",
        "diagonal_coefficients", "leading_constant", "remainder_diagnostic",
        "vanishing_signed_sum", "vanishing_tail_correction_sum", "verify_diagonal_beta_identity",
    ),
    "combinatorics": (
        "binomial", "eulerian_second_order", "falling_factorial", "finite_difference",
        "rising_factorial", "stirling_cycle", "stirling_subset",
    ),
    "moments": (
        "EXACT_N_GUARD", "FloatMomentBreakdown", "MomentBreakdown", "MomentQuery",
        "SensorMoment", "SizeGuardError", "anchor", "per_sensor_moment_exact",
        "signed_moment_total", "total_moment_exact", "total_moment_float",
    ),
    "simulation": ("SimulationConfig", "SimulationResult", "estimate"),
    "special_functions": (
        "HalfIntValue", "beta_exact", "gamma_half_int", "stirling_bounds",
    ),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in (module, *names)}

# the public names and the five submodules: what `import *` binds, loading all five
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
