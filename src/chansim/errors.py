"""Exception hierarchy shared by the chansim modules and CLI, and the field rule
that every config type applies first in ``__post_init__`` (``check_fields``),
so a YAML file, a constructor call and ``dataclasses.replace`` meet one rule.

A field's rule is its type annotation, and for a field declared with
``ranged`` also the interval or the choices its values lie in.  A value that
breaks it raises ``FieldError`` in one form, "psi1_deg must be in (0, 90),
got -5.0", which the YAML loader prefixes with the key.
"""

import functools
import math
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING, field, fields

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
    """A value that breaks its field's rule; ``field`` names the field, ``rule`` the rest."""

    def __init__(self, field: str, rule: str) -> None:
        super().__init__(f"{field} {rule}")
        self.field, self.rule = field, rule


class Interval:
    """The numbers between two ends, each open or closed, written "(0, 90]" or "[1, inf)"."""

    def __init__(self, text: str) -> None:
        low, high = text[1:-1].split(", ")
        self.text, self.low, self.high = text, float(low), float(high)
        self.low_closed, self.high_closed = text[0] == "[", text[-1] == "]"

    def __contains__(self, x) -> bool:
        return ((self.low < x or self.low_closed and x == self.low)
                and (x < self.high or self.high_closed and x == self.high))


def ranged(allowed: str | tuple, default=MISSING, **kwargs):
    """A dataclass field whose values lie in ``allowed``: an ``Interval``'s text or a
    tuple of choices.  It holds for the value, each item of a list or set field,
    and each entry of a mapping field; None, where the type admits it, is exempt."""
    rule = Interval(allowed) if isinstance(allowed, str) else allowed
    return field(default=default, metadata={"allowed": rule}, **kwargs)


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
        return _MISFIT  # _fit takes a mapping entry by entry
    if isinstance(value, bool) and hint is not bool:
        return _MISFIT
    if hint in _SCALARS:
        if not isinstance(value, _SCALARS[hint]):
            return _MISFIT
        try:
            stored = hint(value)
        except OverflowError:  # an int beyond the range of a float
            return _MISFIT
        # NaN passes range checks written as comparisons, infinity one-sided bounds.
        return stored if hint is int or math.isfinite(stored) else _MISFIT
    return value if isinstance(value, hint) else _MISFIT


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, args))
    if origin in _COLLECTIONS:
        return f"a list, each item {_describe(args[0])}"
    if origin is Mapping:
        return f"a mapping, each value {_describe(args[1])}"
    return _TYPE_NAMES.get(hint) or f"a {hint.__name__}"


def _fit(name: str, value, hint, allowed):
    """``value`` as field ``name`` of type ``hint`` and rule ``allowed`` stores it, or
    FieldError naming the field, or a mapping field's entry, and the value."""
    if typing.get_origin(hint) is Mapping and isinstance(value, Mapping):
        item_hint = typing.get_args(hint)[1]
        return {key: _fit(f"{name}.{key}", item, item_hint, allowed)
                for key, item in value.items()}
    stored = _stored(value, hint)
    if stored is _MISFIT:
        shown = value.item() if isinstance(value, np.generic) else value
        raise FieldError(name, f"must be {_describe(hint)}, got {shown!r}")
    if allowed is None or stored is None:
        return stored
    # Sorted, so that a set names the same bad item under any string hash seed.
    for x in sorted(stored) if typing.get_origin(hint) in _COLLECTIONS else (stored,):
        if x not in allowed:
            rule = f"in {allowed.text}" if isinstance(allowed, Interval) else f"one of {allowed}"
            raise FieldError(name, f"must be {rule}, got {x!r}")
    return stored


@functools.cache
def _field_rules(cls) -> dict:
    """Each field's name -> its type hint and its ``ranged`` rule, or None."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("allowed")) for f in fields(cls)}


def checked(cls, values: dict) -> dict:
    """``values`` as the fields of dataclass ``cls`` store them: a Python float or int.

    Raises FieldError naming the first value, in the order of ``values``, that
    does not fit its field's type or rule.
    """
    rules = _field_rules(cls)
    return {name: _fit(name, value, *rules[name]) for name, value in values.items()}


def check_fields(instance) -> None:
    """Store every field of a frozen dataclass as ``checked`` gives it."""
    for name, value in checked(type(instance), vars(instance)).items():
        object.__setattr__(instance, name, value)
