"""Exception hierarchy shared by the chansim modules and CLI, and the field rule
that every config type applies first in ``__post_init__`` (``check_fields``),
so a YAML file, a constructor call and ``dataclasses.replace`` meet one rule.
"""

import functools
import math
import types
import typing
from collections.abc import Mapping
from dataclasses import fields

import numpy as np


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


class FieldError(ValueError):
    """A value that does not fit its field's type; ``field`` names the field, ``rule`` the rest."""

    def __init__(self, field: str, rule: str) -> None:
        super().__init__(f"{field} {rule}")
        self.field, self.rule = field, rule


_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string",
               type(None): "null"}
# The Python and numpy scalars a float or an int field takes; a bool is neither.
_SCALARS = {float: (int, float, np.integer, np.floating), int: (int, np.integer)}
_COLLECTIONS = {tuple: (list, tuple, np.ndarray), frozenset: (list, tuple, set, frozenset)}
_MISFIT = object()


def _stored(value, hint):
    """``value`` as a field of type ``hint`` stores it, or _MISFIT."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return next((s for s in (_stored(value, h) for h in args) if s is not _MISFIT), _MISFIT)
    if origin in _COLLECTIONS:  # an ordered field is not filled from a set
        if not isinstance(value, _COLLECTIONS[origin]):
            return _MISFIT
        items = origin(_stored(v, args[0]) for v in value)
        return _MISFIT if _MISFIT in items else items
    if origin is Mapping:
        return value  # a mapping field checks its own entries and names the bad one
    if isinstance(value, bool) and hint is not bool:
        return _MISFIT
    if hint in _SCALARS:
        try:
            return hint(value) if isinstance(value, _SCALARS[hint]) else _MISFIT
        except OverflowError:  # an int beyond the range of a float
            return _MISFIT
    return value if isinstance(value, hint) else _MISFIT


def as_float(value) -> float | None:
    """``value`` as a float field stores it, a Python float, or None if it does not fit."""
    stored = _stored(value, float)
    return None if stored is _MISFIT else stored


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, args))
    if origin in _COLLECTIONS:
        return f"a list, each item {_describe(args[0])}"
    return _TYPE_NAMES.get(hint) or f"a {hint.__name__}"


@functools.cache
def _field_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def checked(cls, values: dict) -> dict:
    """``values`` as the fields of dataclass ``cls`` store them: a Python float or int.

    Raises FieldError naming the first value that does not fit its field's type,
    and ValueError naming the first float that is NaN or infinite: NaN passes
    range checks written as comparisons, infinity one-sided bounds.
    """
    hints = _field_hints(cls)
    out = {}
    for name, value in values.items():
        stored = _stored(value, hints[name])
        if stored is _MISFIT:
            raise FieldError(name, f"must be {_describe(hints[name])}, got {value!r}")
        for x in stored if isinstance(stored, tuple) else (stored,):
            if type(x) is float and not math.isfinite(x):
                raise ValueError(f"{name} must be a number, got {x}")
        out[name] = stored
    return out


def check_fields(instance) -> None:
    """Store every field of a frozen dataclass as ``checked`` gives it."""
    for name, value in checked(type(instance), vars(instance)).items():
        object.__setattr__(instance, name, value)
