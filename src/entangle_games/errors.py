"""Exception types shared across the package, and the checks of numbers
read from outside the program.

The CLI maps these onto process exit codes, so library code should raise
these rather than bare ValueError/RuntimeError for the corresponding
failure classes.
"""

import numbers
import sys


class ParameterError(ValueError):
    """A parameter is outside its documented domain (exit code 2)."""


class UnreachableError(RuntimeError):
    """Source and destination are not connected in the scenario (exit code 3)."""


class CapacityError(ValueError):
    """A request exceeds the dense-simulation capacity limits (exit code 4)."""


def check_seed(seed) -> None:
    """numpy seeds take non-negative integers, or sequences of them. A bool
    or a float part is rejected here, also where no generator gets made."""
    for part in seed if isinstance(seed, (list, tuple)) else [seed]:
        if not isinstance(part, numbers.Integral) or isinstance(part, bool):
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        if part < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float; json reads NaN and Infinity as floats, and ints
    of any size."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )
