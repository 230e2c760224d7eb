"""Exception hierarchy shared across the toolkit.

The CLI maps ValidationError to exit code 1 and BackendError to exit
code 2; everything raised by the library derives from one of them.
A subclass exists only where the package catches it or reads its data;
every other raise site raises one of the two with its own message.
"""

import json
import math
from dataclasses import is_dataclass
from functools import cache
from types import UnionType
from typing import Callable, Literal, Union, get_args, get_origin, get_type_hints


class PipelineError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PipelineError):
    """Bad inputs, malformed artifacts, or violated contracts."""


class BackendError(PipelineError):
    """A model backend failed or produced unusable output."""


class BackendFailure(BackendError):
    """Wraps any exception raised inside a backend plug-in."""

    def __init__(self, detail: str):
        super().__init__(f"backend failure: {detail}")
        self.detail = detail


def call_backend(role: str, identity: str, fn, *args):
    """Return fn(*args), raising BackendFailure for any exception.

    The one place a backend (method or registry factory) exception is wrapped;
    the message names the role and the backend's identity: "<role> '<identity>': <exc>".
    """
    try:
        return fn(*args)
    except Exception as exc:
        raise BackendFailure(f"{role} {identity!r}: {exc}") from exc


def config_value(value) -> str:
    """Quote a value as a JSON file spells it, a tuple made from a list as the list."""
    try:
        return json.dumps(value, ensure_ascii=False, default=repr)
    except RecursionError:  # json.loads admits nesting a few calls short of the limit
        return "a value nested too deep to quote"


field_hints = cache(get_type_hints)  # dataclass -> its field annotations, resolved


def check_fields(settings, section: str = "") -> None:
    """Check each field of dataclass `settings` against its annotation, the config's type schema.

    A mismatch is a ValidationError naming the key `section.field`. A bool is never an int or
    a float; a float is finite and may be an int. `X | None`, tuples of one scalar type,
    `Literal` of strings and nested settings classes are understood, others are a TypeError."""
    for name, hint in field_hints(type(settings)).items():
        (fits, wanted), value = value_rule(hint), getattr(settings, name)
        if not fits(value):
            key = f"{section}.{name}" if section else name
            raise ValidationError(f"config key {key!r} must be {wanted}, got {config_value(value)}")


@cache
def value_rule(hint) -> tuple[Callable[[object], bool], str]:
    """(does a JSON value fit annotation `hint`, what it must be), for config, rows and docs"""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return lambda v: isinstance(v, str) and v in args, " or ".join(map(config_value, args))
    if origin in (Union, UnionType):
        rules = [value_rule(arg) for arg in args]
        return lambda v: any(fits(v) for fits, _ in rules), " or ".join(w for _, w in rules)
    if origin is tuple and set(args) in ({str}, {int}, {float}):  # e.g. "three numbers"
        fits, wanted = value_rule(args[0])
        count = ("no", "one", "two", "three")[len(args)] if len(args) < 4 else len(args)
        return (lambda v: isinstance(v, tuple) and len(v) == len(args) and all(map(fits, v)),
                f"{count} {wanted.split()[-1]}s")
    if is_dataclass(hint):
        return lambda v: isinstance(v, hint), f"{hint.__name__} settings"
    if hint is float:  # a finite number: JSON's non-standard NaN and Infinity are not
        return (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                and (isinstance(v, int) or math.isfinite(v))), "a number"
    scalars = {str: (str, "a string"), int: (int, "an integer"), type(None): (type(None), "null"),
               list: (list, "a list"), dict: (dict, "an object")}
    if hint not in scalars:
        raise TypeError(f"cannot check a value against {hint!r}")
    kind, wanted = scalars[hint]
    return lambda v: isinstance(v, kind) and not isinstance(v, bool), wanted


def check_range(key: str, value, least, strict: bool = False) -> None:
    """Require a value check_fields has typed to be >= `least`, or > `least` if `strict`."""
    if not (value > least if strict else value >= least):
        raise ValidationError(f"config key {key!r} must be {'>' if strict else '>='} {least}, "
                              f"got {config_value(value)}")
