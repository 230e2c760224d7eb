"""Exception hierarchy shared across the toolkit.

The CLI maps ValidationError to exit code 1 and BackendError to exit
code 2; everything raised by the library derives from one of them.
"""

import json


class PipelineError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PipelineError):
    """Bad inputs, malformed artifacts, or violated contracts."""


class BackendError(PipelineError):
    """A model backend failed or produced unusable output."""


class EmptyInput(ValidationError):
    """A required text argument was empty."""


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
    """Quote a config value as the JSON config spells it, a tuple made from a list as the list."""
    return json.dumps(value, ensure_ascii=False, default=repr)


def check_int(key: str, value, least: int | None = None) -> None:
    """Require an int (not a bool), at least `least` when given, naming the config key."""
    bound = "" if least is None else f" >= {least}"
    if not isinstance(value, int) or isinstance(value, bool) or (bound and value < least):
        raise ValidationError(f"config key {key!r} must be an integer{bound}, "
                              f"got {config_value(value)}")


def check_number(key: str, value, positive: bool = False) -> None:
    """Require an int or float (not a bool), positive when asked, naming the config key."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or (positive and not value > 0)):
        kind = "a positive number" if positive else "a number"
        raise ValidationError(f"config key {key!r} must be {kind}, got {config_value(value)}")


def check_str(key: str, value) -> None:
    """Require a string, naming the config key."""
    if not isinstance(value, str):
        raise ValidationError(f"config key {key!r} must be a string, got {config_value(value)}")
