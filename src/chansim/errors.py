"""Exception hierarchy shared by the chansim modules and CLI, and the NaN check
of the config types."""

import math
from dataclasses import fields


class ChansimError(Exception):
    """Base class for all chansim-specific errors."""


class ConfigError(ChansimError):
    """Invalid scenario configuration (bad value, bad key, bad combination)."""


class TraceError(ChansimError):
    """Malformed or inconsistent multipath trace input."""


class NumericError(ChansimError):
    """A numerical procedure could not produce a trustworthy result."""


class ElevationFloorError(ValueError):
    """Elevation angle below the configured floor for 1/sin(psi) terms."""


def reject_nan(instance) -> None:
    """Raise ValueError naming the first float field of a dataclass that holds NaN.

    NaN fails every comparison, so it passes a range check written as one;
    each config type calls this before its own checks.
    """
    for f in fields(instance):
        value = getattr(instance, f.name)
        if isinstance(value, float) and math.isnan(value):
            raise ValueError(f"{f.name} must be a number, got nan")
