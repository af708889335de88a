"""Exception types shared across the package, and the seed check.

The CLI maps these onto process exit codes, so library code should raise
these rather than bare ValueError/RuntimeError for the corresponding
failure classes.
"""


class ParameterError(ValueError):
    """A parameter is outside its documented domain (exit code 2)."""


class UnreachableError(RuntimeError):
    """Source and destination are not connected in the scenario (exit code 3)."""


class CapacityError(ValueError):
    """A request exceeds the dense-simulation capacity limits (exit code 4)."""


def check_seed(seed) -> None:
    """numpy seeds take non-negative integers, or sequences of them."""
    if any(part < 0 for part in (seed if isinstance(seed, (list, tuple)) else [seed])):
        raise ParameterError(f"seed must be >= 0, got {seed}")
