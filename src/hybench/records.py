"""The one mapping of JSON records to and from dataclasses, and the one
check of their field types and ranges.

A benchmark config's sections, dataset recipes, agent and model settings,
environment parameters, dataset metadata, saved policies and saved
ensembles all follow one rule: unknown and missing keys are errors; each
value must match its field's annotation (``int`` takes an integer >= 0,
since every integer field is a count, size, seed or index, and rejects 2.5
and true; ``float`` takes a finite real, ``Literal[...]`` one of its
strings, ``X | None`` also null; a ``tuple`` field takes a list and checks
its elements, an ``np.ndarray`` field takes a nested list of finite
numbers, and a dataclass takes an object, in a union read as the arm whose
keys it has, or an instance of itself, accepted as it is); ``Annotated[T,
Range(...)]`` and its aliases (``Count``, ``Positive``, ``NonNegative``,
``Probability``) read ``T``, then check the range; and an accepted real
keeps its type (an integer is stored as a Python int), so a config hashes
as it always did.  Config, environment-parameter and action-space records
call :func:`check_fields` first in ``__post_init__``, so a record built in
Python is checked as one read from JSON, and function arguments are checked
by :func:`read_value`; ``__post_init__`` then checks only rules that tie
fields together.  The records holding arrays (``GaussianRegressor``,
``QFunction``, ``BehaviorModel``) do not: :func:`check_fields` cannot read
an ndarray instance, so they are checked only when read from JSON.
:func:`write_record` is the inverse of :func:`read_record`; saved policies and
ensembles are JSON files whose record :func:`read_versioned` reads.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

_MISMATCH = object()
_UNIONS = (types.UnionType, typing.Union)  # ``X | None`` of an Annotated X is a typing.Union


@dataclass(frozen=True)
class Range:
    """The interval a field's value must lie in, declared in its annotation
    as ``Annotated[T, Range(...)]``; each end is closed unless marked open."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value) -> bool:
        return ((value > self.lo if self.lo_open else value >= self.lo)
                and (value < self.hi if self.hi_open else value <= self.hi))

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>' if self.lo_open else '>='} {self.lo}"
        return (f"in {'(' if self.lo_open else '['}{self.lo}, "
                f"{self.hi}{')' if self.hi_open else ']'}")


Count = typing.Annotated[int, Range(1)]
Positive = typing.Annotated[float, Range(0, lo_open=True)]
NonNegative = typing.Annotated[float, Range(0)]
Probability = typing.Annotated[float, Range(0, 1)]


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    # an integer of any size is finite; math.isfinite overflows on huge ones
    return _is_int(value) or (isinstance(value, Real) and not isinstance(value, bool)
                              and math.isfinite(value))


# scalar annotation -> (accepts, singular, plural)
_SCALARS = {
    int: (lambda v: _is_int(v) and v >= 0, "an integer >= 0", "integers >= 0"),
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


def read_record(cls, obj, what: str, base=None, path: str = ""):
    """A ``cls`` dataclass read from the JSON object ``obj``.

    Without ``base`` every field without a default is required; with one,
    ``obj`` overrides the base's fields and a nested dataclass field is read
    over the base's value.  Messages name each field by ``path`` plus its
    name, so a nested record's fields read ``outer.inner``.
    """
    annotations, required = field_types(cls)
    check_keys(obj, what, () if base is not None else required, annotations)
    values = {}
    for name, value in obj.items():
        tp, where = annotations[name], path + name
        if is_dataclass(tp):
            values[name] = read_record(tp, value, where, getattr(base, name, None), where + ".")
        else:
            values[name] = read_value(tp, value, where)
    try:
        return replace(base, **values) if base is not None else cls(**values)
    except ValueError as exc:  # a cross-field rule of a nested record: name where it sits
        raise ValueError(f"{what}: {exc}" if path else str(exc)) from None


def read_versioned(cls, d, expected: str, what: str):
    """The ``cls`` record of the JSON object ``d`` of format ``expected``."""
    version = d.get("format_version") if isinstance(d, dict) else None
    if version != expected:
        raise ValueError(f"unsupported {what} format {version!r}; expected {expected!r}")
    return read_record(cls, {k: v for k, v in d.items() if k != "format_version"}, what)


def save_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_fields(record) -> None:
    """Read each field of the dataclass instance ``record`` as its annotation
    and store the value read, so that lists become tuples."""
    for name, tp in field_types(type(record))[0].items():
        object.__setattr__(record, name, read_value(tp, getattr(record, name), name))


def read_value(tp, value, name: str):
    """``value`` as the annotation ``tp`` reads it: lists become tuples."""
    out = _convert(tp, value, name)
    if out is _MISMATCH:
        raise ValueError(_mismatch(tp, value, name))
    return out


def _mismatch(tp, value, name: str) -> str:
    got = reprlib.repr(value)  # bounded: a field may hold megabytes of weights
    return f"{name} must be {_describe(tp)}, got {got if len(got) <= 80 else got[:76] + ' ...'}"


def write_record(value):
    """``value`` as plain JSON, the inverse of :func:`read_record`: a
    dataclass becomes an object of its init fields, a tuple or list a list,
    an array or numpy scalar plain numbers, and a ``Fraction`` ``"p/q"``."""
    if is_dataclass(value):
        return {f.name: write_record(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return [write_record(v) for v in value]
    if isinstance(value, Mapping):
        return {k: write_record(v) for k, v in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


@functools.cache
def field_types(cls) -> tuple[dict, tuple]:
    """The resolved annotation of each field of ``cls`` and the names of the
    fields without a default; fails on an annotation the reader cannot read."""
    hints = typing.get_type_hints(cls, include_extras=True)
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


def _is_number_list(value) -> bool:
    """Whether ``value`` is a list nesting nothing but finite numbers."""
    return isinstance(value, list) and all(
        _is_number_list(v) if isinstance(v, list) else _is_finite_real(v) for v in value)


def _convert(tp, value, name: str):
    """``value`` read as ``tp``, or ``_MISMATCH``; a nested record that does
    not read, or an object that fits no record arm of a union, raises, naming
    its path from ``name``, and so does a value of the right type outside
    its field's ``Range``.  A parametrized tuple has one element type:
    ``tuple[X, ...]``, or ``tuple[X, X]`` of fixed length."""
    args, origin = typing.get_args(tp), typing.get_origin(tp)
    if origin is typing.Annotated:
        inner, bound = args
        out = _convert(inner, value, name)
        if out is not _MISMATCH and out not in bound:
            raise ValueError(f"{name} must be {bound}, got {value!r}")
        return out
    if is_dataclass(tp):
        if isinstance(value, tp):
            return value
        return (read_record(tp, value, name, path=name + ".")
                if isinstance(value, dict) else _MISMATCH)
    if origin is typing.Literal:
        return value if isinstance(value, str) and value in args else _MISMATCH
    if origin in _UNIONS:
        records = [arm for arm in args if is_dataclass(arm)]
        if records and isinstance(value, dict):
            # the arm whose keys the object has; a lone record arm reports its own
            # errors, and when no arm fits, each arm's stray or missing keys are named
            keys = {arm: key_errors(value, *field_types(arm)[::-1]) for arm in records}
            fits = [arm for arm in records if not any(keys[arm])]
            if fits or len(records) == 1:
                return _convert((fits + records)[0], value, name)
            why = [f"as {arm.__name__}, unknown keys {unknown}" if unknown
                   else f"as {arm.__name__}, missing keys {missing}"
                   for arm, (unknown, missing) in keys.items()]
            raise ValueError("; ".join([_mismatch(tp, value, name), *why]))
        outs = (_convert(arm, value, name) for arm in args)
        return next((out for out in outs if out is not _MISMATCH), _MISMATCH)
    if _is_tuple(tp):
        if not isinstance(value, (list, tuple)) or (
                args and args[-1] is not ... and len(args) != len(value)):
            return _MISMATCH
        out = (tuple(_convert(args[0], v, f"{name}[{i}]") for i, v in enumerate(value))
               if args else tuple(value))
        return _MISMATCH if any(v is _MISMATCH for v in out) else out
    if tp is np.ndarray:
        try:
            return np.array(value, dtype=float) if _is_number_list(value) else _MISMATCH
        except ValueError:  # ragged nesting
            return _MISMATCH
    if not _SCALARS[tp][0](value):
        return _MISMATCH
    return dict(value) if tp is dict else int(value) if tp is int else value


def _describe(tp, plural: bool = False) -> str:
    """What ``tp`` takes, in words, leaving out its range; a KeyError for an
    unsupported type."""
    args, origin = typing.get_args(tp), typing.get_origin(tp)
    if origin is typing.Annotated:
        if len(args) != 2 or not isinstance(args[1], Range):
            raise KeyError(tp)
        return _describe(args[0], plural)
    if origin in _UNIONS:
        return " or ".join(_describe(arm, plural) for arm in args)
    if _is_tuple(tp):
        text = "lists" if plural else "a list"
        if not args:
            return text
        count = "" if args[-1] is ... else f"{len(args)} "
        return f"{text} of {count}{_describe(args[0], plural=True)}"
    if tp is np.ndarray:
        return "nested lists of finite numbers" if plural else "a nested list of finite numbers"
    if is_dataclass(tp):
        return f"{tp.__name__} objects" if plural else f"a {tp.__name__} object"
    if origin is typing.Literal:
        if not all(isinstance(arg, str) for arg in args):
            raise KeyError(tp)
        return f"{'values' if plural else 'one'} of {', '.join(map(repr, args))}"
    return _SCALARS[tp][2 if plural else 1]
