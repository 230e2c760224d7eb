"""Artifact stores with provenance headers.

Every artifact file opens with {"kind", "config_hash"}; readers verify
both, so artifacts produced under a different configuration can never be
mixed into a run. Stores contain no timestamps, which keeps reruns
byte-identical (timestamps live only in the run manifest).

Writes go to a temporary file in the same directory that replaces the
artifact only once it is complete, so a write that fails part-way leaves
the previous artifact, or none, never a truncated one. Every writer returns
the sha256 of the bytes it wrote, hashed as they are written; every other
sha256 is taken by digest. read_bytes is the one way an artifact's bytes are
read, open_input the one way an input from outside the output directory is.
A file that cannot be read or written is a ValidationError naming it.

Only parse_json (an input: the config, a corpus line) and _parse_object (an artifact, which
must hold an object) call json.loads. A text it refuses (malformed, an integer of over 4,300
digits, nested past the recursion limit) is a ValidationError naming its file.

A dataclass's annotations are its row schema: to_row and from_row encode
and decode every record class and every document class.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Literal, get_args, get_origin

from .errors import ValidationError, config_value, field_hints, value_rule


class CorruptArtifact(ValidationError):
    """An artifact that cannot be decoded: truncated, garbled, or hand-edited."""

    def __init__(self, path: Path, detail: str, line: int | None = None):
        where = path.name if line is None else f"{path.name} line {line}"
        super().__init__(f"{where}: {detail}; rerun the stage that writes it")


class _Misfit(Exception):
    """(path, wanted, got): the JSON value at `path` is `got`, not `wanted`; (path, None, key):
    the object at `path` has a key its class does not declare."""


def _convert(hint, value, path: str, decode: bool = True):
    """Decode JSON `value` at `path` as annotation `hint` (else _Misfit), or encode it back. An
    enum is one of its values, a dataclass an object of its fields and no other key (a field
    with a default may be missing), a list or tuple[X, ...] a list, a fixed-length tuple a list
    checked whole (errors.value_rule), a dict an object, `X | None` X or null."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        return value.value if not decode else hint(
            _convert(Literal[tuple(member.value for member in hint)], value, path))
    if not decode and (hint in (str, int, float, dict) or is_dataclass(hint)):
        return to_row(value) if is_dataclass(hint) else value
    if is_dataclass(hint) and isinstance(value, dict):  # a missing field's value is ..., a misfit
        hints = field_hints(hint)
        unknown = [key for key in value if key not in hints]
        if unknown:
            raise _Misfit(path, None, unknown[0])
        # a field whose default and default factory are both MISSING has no default
        return hint(**{f.name: _convert(hints[f.name], value.get(f.name, ...), f"{path}.{f.name}")
                       for f in fields(hint) if f.name in value or f.default is f.default_factory})
    origin, args = get_origin(hint), get_args(hint)
    if decode and origin is tuple and ... not in args:  # fixed length: checked whole, below
        value, origin = tuple(value) if isinstance(value, list) else value, None
    if origin in (list, tuple) and (isinstance(value, list) or not decode):
        items = value if not decode and args[0] in (str, int, float) else (
            _convert(args[0], item, f"{path}[{i}]", decode) for i, item in enumerate(value))
        return (origin if decode else list)(items)
    if origin is dict and isinstance(value, dict):
        return {_convert(args[0], key, f"{path}.{key}", decode):
                _convert(args[1], item, f"{path}.{key}", decode) for key, item in value.items()}
    if args[1:] == (type(None),):  # X | None
        return None if value is None else _convert(args[0], value, path, decode)
    fits, wanted = value_rule(dict if origin is dict or is_dataclass(hint) else
                              list if origin in (list, tuple) else hint)
    if decode and not fits(value):
        raise _Misfit(path, wanted, "nothing" if value is ... else config_value(value))
    return value


# dataclass -> (its field names in order, (name, annotation, defaults to None) of each field
# to_row encodes). Rows are built from the names: an instance asked for its __dict__ keeps one.
_row_plan = cache(lambda cls: (tuple(f.name for f in fields(cls)), [
    (f.name, hint, f.default is None) for f in fields(cls)
    if (hint := field_hints(cls)[f.name]) not in (str, int, float, dict)]))


def to_row(record) -> dict:
    """A dataclass as its row: its fields in order, each encoded (see _convert), and a field
    that defaults to None left out while it is None."""
    names, encoded = _row_plan(type(record))
    row = {name: getattr(record, name) for name in names}
    for name, hint, optional in encoded:
        if optional and row[name] is None:
            del row[name]
        else:
            row[name] = _convert(hint, row[name], "", decode=False)
    return row


def from_row(cls, row: dict, noun: str = "field"):
    """Decode a row into dataclass `cls` (see _convert). A value that does not fit, a missing
    field or an unknown key is a ValidationError naming the {noun} path to it."""
    try:
        return _convert(cls, row, "")
    except _Misfit as misfit:
        path, wanted, got = misfit.args
        if wanted is None and not path:
            raise ValidationError(f"unknown {noun} {got!r}") from None
        detail = f"has unknown key {got!r}" if wanted is None else f"must be {wanted}, got {got}"
        raise ValidationError(f"{noun} {path[1:]!r} {detail}") from None


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False)


_DOC_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)


def parse_json(text: str, where: str):
    """An input's JSON value; a text json.loads refuses is a ValidationError naming `where`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ValidationError(f"{where} is not valid JSON: {exc}") from exc


def _parse_object(path: Path, text: str, line: int = 1) -> dict:
    """The object of an artifact's `text`, from line `line` of `path`, or a CorruptArtifact."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError names the line at fault
        line += exc.lineno - 1 if isinstance(exc, json.JSONDecodeError) else 0
        raise CorruptArtifact(path, f"not valid JSON ({getattr(exc, 'msg', exc)})", line) from exc
    if not isinstance(value, dict):
        raise CorruptArtifact(path, "not a JSON object", line)
    return value


def digest(data: bytes) -> str:
    """The sha256 of `data`, as hex."""
    return hashlib.sha256(data).hexdigest()


@contextmanager
def os_errors(verb: str, path: str | Path):
    """Turn an OSError on `path` into a ValidationError naming the file."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot {verb} {path}: {exc}") from exc


def read_bytes(path: str | Path) -> bytes:
    """A file's bytes."""
    with os_errors("read", path):
        return Path(path).read_bytes()


@contextmanager
def open_input(path: str | Path, what: str, newline: str = "\n"):
    """Yield a file from outside the output directory, open as UTF-8 text with lines ending at
    `newline`; an OSError, UnicodeDecodeError or csv.Error (a CSV field longer than
    csv.field_size_limit, 131,072 characters) opening or reading it is a ValidationError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


# Text chunks (store lines) encoded, hashed and written together.
WRITE_BATCH = 256


def write_text(path: str | Path, chunks: Iterable[str]) -> str:
    """Write the text `chunks` as UTF-8 to a file that appears at `path` only once complete;
    return the sha256 of the bytes written. Chunks are encoded and hashed in batches, so the
    whole file is never held as one string."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    hasher, chunks = hashlib.sha256(), iter(chunks)
    with os_errors("write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("wb") as fh:
                for batch in iter(lambda: list(islice(chunks, WRITE_BATCH)), []):
                    data = "".join(batch).encode("utf-8")
                    hasher.update(data)
                    fh.write(data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return hasher.hexdigest()


def write_records(path: str | Path, kind: str, config_hash: str, records: Iterable[dict]) -> str:
    """Write a line-delimited store: one header line, then one record per line. Returns the
    file's sha256."""
    header = {"kind": kind, "config_hash": config_hash}
    return write_text(path, (_dump(row) + "\n" for row in chain((header,), records)))


def _read_text(path: Path) -> tuple[str, str]:
    """Read a file's bytes once; return their sha256 and their UTF-8 text."""
    data = read_bytes(path)
    try:
        return digest(data), data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptArtifact(path, f"not UTF-8 text ({exc.reason})") from exc


def read_records(path: str | Path, kind: str, config_hash: str) -> tuple[str, list]:
    """Return the store's sha256 and its (file line number, record) pairs, skipping blank lines."""
    path = Path(path)
    sha, text = _read_text(path)
    header, *lines = text.split("\n")
    _check_header(path, _parse_object(path, header), kind, config_hash)
    return sha, [(number, _parse_object(path, line, number))
                 for number, line in enumerate(lines, start=2) if line.strip()]


def write_doc(path: str | Path, kind: str, config_hash: str, payload: dict) -> str:
    """Write a single-document JSON artifact with embedded provenance. Returns the file's
    sha256."""
    doc = {"kind": kind, "config_hash": config_hash, **payload}
    return write_text(path, chain(_DOC_ENCODER.iterencode(doc), ("\n",)))


def read_doc(path: str | Path, kind: str, config_hash: str) -> tuple[str, dict]:
    """Return the document's sha256 and the document."""
    path = Path(path)
    sha, text = _read_text(path)
    doc = _parse_object(path, text)
    _check_header(path, doc, kind, config_hash)
    return sha, doc


def _check_header(path: Path, header: dict, kind: str, config_hash: str) -> None:
    if header.get("kind") != kind:
        raise ValidationError(f"{path.name}: expected kind {kind!r}, found {header.get('kind')!r}")
    if header.get("config_hash") != config_hash:
        raise ValidationError(
            f"{path.name}: artifact was produced under config {header.get('config_hash')!r}, "
            f"current config is {config_hash!r}"
        )


def file_sha256(path: str | Path) -> str:
    return digest(read_bytes(path))
