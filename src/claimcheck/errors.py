"""Exception hierarchy shared across the toolkit.

The CLI maps ValidationError to exit code 1 and BackendError to exit
code 2; everything raised by the library derives from one of them.
A subclass exists only where the package catches it or reads its data;
every other raise site raises one of the two with its own message.

This module also holds call_backend, the one wrap of a backend call, and config_value, how
an error message quotes a value. The schema rules of the config and the artifacts
(value_rule, check_fields, check_range) live in store.py, with the codec that applies them.
"""

import copyreg
import json


class PipelineError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # Unpickled without calling __init__, which would format the message a second time:
        # an error raised in an explain worker process crosses to the parent as it was.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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


QUOTE_LIMIT = 200  # characters of a value an error message quotes


def config_value(value) -> str:
    """Quote a value as a JSON file spells it, a tuple made from a list as the list; past
    QUOTE_LIMIT characters, cut short and followed by its full length."""
    try:
        text = json.dumps(value, ensure_ascii=False, default=repr)
    except RecursionError:  # json.loads admits nesting a few calls short of the limit
        return "a value nested too deep to quote"
    except ValueError:  # an integer of over 4,300 digits, which only a library caller can pass
        return "a value too long to quote"
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}… ({len(text)} characters)"
