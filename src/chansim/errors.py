"""Exception hierarchy shared by the chansim modules and CLI, and the finiteness
check of the config types."""

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


class RayRowError(ValueError):
    """A ray table input that breaks a pass rule; ``row`` is its input ray row."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


def reject_non_finite(instance) -> None:
    """Raise ValueError naming the first float field of a dataclass that is not finite.

    NaN passes range checks written as comparisons, infinity one-sided bounds.
    """
    for f in fields(instance):
        value = getattr(instance, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be a number, got {value}")
