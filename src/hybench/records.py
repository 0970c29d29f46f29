"""The one reader of JSON config records into dataclasses.

A benchmark config's sections, dataset recipes, agent and model settings,
environment parameters and dataset metadata all follow one rule: unknown
and missing keys are errors; each value must match its field's annotation
(``int`` rejects 2.5 and true, ``float`` takes a finite real, ``X | None``
also takes null, a ``tuple`` field takes a list and checks its elements);
and an accepted value keeps its type, so a config hashes as it always did.
``__post_init__`` still checks ranges.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass, replace
from numbers import Integral, Real

_MISMATCH = object()


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    # an integer of any size is finite; math.isfinite overflows on huge ones
    return _is_int(value) or (isinstance(value, Real) and not isinstance(value, bool)
                              and math.isfinite(value))


# scalar annotation -> (accepts, singular, plural)
_SCALARS = {
    int: (_is_int, "an integer", "integers"),
    float: (_is_finite_real, "a finite number", "finite numbers"),
    bool: (lambda v: isinstance(v, bool), "true or false", "booleans"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
    dict: (lambda v: isinstance(v, Mapping), "an object", "objects"),
    type(None): (lambda v: v is None, "null", "nulls"),
}


def check_keys(obj, what: str, required=(), optional=()) -> dict:
    """``obj``, checked to be a JSON object holding every required key and
    no key that is neither required nor optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown, missing = key_errors(obj, required, optional)
    if unknown:
        valid = sorted({*required, *optional})
        raise ValueError(f"unknown {what} keys {unknown}; valid: {valid}")
    if missing:
        raise ValueError(f"{what} is missing required keys {missing}")
    return obj


def key_errors(obj, required, optional) -> tuple[list, list]:
    """The unknown keys of the mapping ``obj``, sorted, and its missing
    required keys, in order."""
    unknown = sorted(set(obj) - {*required, *optional})
    return unknown, [key for key in required if key not in obj]


def read_record(cls, obj, what: str, base=None):
    """A ``cls`` dataclass read from the JSON object ``obj``.

    Without ``base`` every field without a default is required; with one,
    ``obj`` overrides the base's fields and a nested dataclass field is read
    over the base's value.
    """
    annotations, required = field_types(cls)
    check_keys(obj, what, () if base is not None else required, annotations)
    values = {}
    for name, value in obj.items():
        tp = annotations[name]
        if is_dataclass(tp):
            values[name] = read_record(tp, value, name, getattr(base, name, None))
        else:
            values[name] = read_value(tp, value, name)
    return replace(base, **values) if base is not None else cls(**values)


def read_value(tp, value, name: str):
    """``value`` as the annotation ``tp`` reads it: lists become tuples."""
    out = _convert(tp, value)
    if out is _MISMATCH:
        raise ValueError(f"{name} must be {_describe(tp)}, got {value!r}")
    return out


@functools.cache
def field_types(cls) -> tuple[dict, tuple]:
    """The resolved annotation of each field of ``cls`` and the names of the
    fields without a default; fails on an annotation the reader cannot read."""
    hints = typing.get_type_hints(cls)
    annotations = {f.name: hints[f.name] for f in fields(cls)}
    for name, tp in annotations.items():
        try:
            is_dataclass(tp) or _describe(tp)
        except KeyError:
            raise TypeError(f"{cls.__name__}.{name}: cannot read a {tp!r} field") from None
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    return annotations, required


def _is_tuple(tp) -> bool:
    return tp is tuple or typing.get_origin(tp) is tuple


def _convert(tp, value):
    """``value`` read as ``tp``, or ``_MISMATCH``.  A parametrized tuple has
    one element type: ``tuple[X, ...]``, or ``tuple[X, X]`` of fixed length."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:
        outs = (_convert(arm, value) for arm in args)
        return next((out for out in outs if out is not _MISMATCH), _MISMATCH)
    if _is_tuple(tp):
        if not isinstance(value, (list, tuple)) or (
                args and args[-1] is not ... and len(args) != len(value)):
            return _MISMATCH
        out = tuple(_convert(args[0], v) for v in value) if args else tuple(value)
        return _MISMATCH if any(v is _MISMATCH for v in out) else out
    if not _SCALARS[tp][0](value):
        return _MISMATCH
    return dict(value) if tp is dict else value


def _describe(tp, plural: bool = False) -> str:
    """What ``tp`` takes, in words; a KeyError for an unsupported type."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:
        return " or ".join(_describe(arm, plural) for arm in args)
    if _is_tuple(tp):
        text = "lists" if plural else "a list"
        if not args:
            return text
        count = "" if args[-1] is ... else f"{len(args)} "
        return f"{text} of {count}{_describe(args[0], plural=True)}"
    return _SCALARS[tp][2 if plural else 1]
