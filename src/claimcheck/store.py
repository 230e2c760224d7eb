"""Artifact stores with provenance headers.

Every artifact file opens with {"kind", "config_hash"}; readers verify
both, so artifacts produced under a different configuration can never be
mixed into a run. Stores contain no timestamps, which keeps reruns
byte-identical (timestamps live only in the run manifest).

Writes go to a temporary file in the same directory that replaces the
artifact only once it is complete, so a write that fails part-way leaves
the previous artifact, or none, never a truncated one. Every writer returns
the sha256 of the bytes it wrote, hashed as they are written.

A record dataclass's annotations are its row schema: to_row and from_row
encode and decode every record class.
"""

from __future__ import annotations

import hashlib
import json
import os
from enum import Enum
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Literal

from .errors import ValidationError, config_value, field_hints, value_rule


class MissingUpstreamArtifact(ValidationError):
    def __init__(self, stage: str, path: Path):
        super().__init__(f"stage {stage!r} needs missing artifact {path.name}; run earlier stages first")
        self.stage = stage
        self.path = path


class ArtifactMismatch(ValidationError):
    """Artifact kind or config hash does not match the current run."""


class CorruptArtifact(ValidationError):
    """An artifact that cannot be decoded: truncated, garbled, or hand-edited."""

    def __init__(self, path: Path, detail: str, line: int | None = None):
        where = path.name if line is None else f"{path.name} line {line}"
        super().__init__(f"{where}: {detail}; rerun the stage that writes it")


@cache
def _plan(cls) -> tuple[dict[str, dict], dict]:
    """Record dataclass `cls`'s enum fields, each with its {value: member} map, and each field
    with its value_rule; a row holds an enum field as one of its members' values."""
    hints = field_hints(cls)
    enums = {name: {member.value: member for member in hint} for name, hint in hints.items()
             if isinstance(hint, type) and issubclass(hint, Enum)}
    return enums, {name: value_rule(Literal[tuple(enums[name])] if name in enums else hint)
                   for name, hint in hints.items()}


def to_row(record) -> dict:
    """A record dataclass as its store row: its fields in order, an enum field by its value."""
    row = {**vars(record)}
    for name in _plan(type(record))[0]:
        row[name] = row[name].value
    return row


def from_row(cls, row: dict):
    """Decode a store row into record dataclass `cls`. A value that does not fit its field's
    annotation is a ValidationError; a missing field is a KeyError, an unknown one a TypeError."""
    enums, rules = _plan(cls)
    for name, (fits, wanted) in rules.items():
        if not fits(row[name]):
            raise ValidationError(f"field {name!r} must be {wanted}, got {config_value(row[name])}")
    if enums:
        row = {**row, **{name: members[row[name]] for name, members in enums.items()}}
    return cls(**row)


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False)


_DOC_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)


def _loads(path: Path, text: str, first_line: int):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptArtifact(path, f"not valid JSON ({exc.msg})",
                              first_line + exc.lineno - 1) from exc


# Text chunks (store lines) encoded, hashed and written together.
WRITE_BATCH = 256


def write_text(path: str | Path, chunks: Iterable[str]) -> str:
    """Write the text `chunks` as UTF-8 to a file that appears at `path` only once complete;
    return the sha256 of the bytes written. Chunks are encoded and hashed in batches, so the
    whole file is never held as one string."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    digest, chunks = hashlib.sha256(), iter(chunks)
    try:
        with tmp.open("wb") as fh:
            for batch in iter(lambda: list(islice(chunks, WRITE_BATCH)), []):
                data = "".join(batch).encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return digest.hexdigest()


def write_records(path: str | Path, kind: str, config_hash: str, records: Iterable[dict]) -> str:
    """Write a line-delimited store: one header line, then one record per line. Returns the
    file's sha256."""
    header = {"kind": kind, "config_hash": config_hash}
    return write_text(path, (_dump(row) + "\n" for row in chain((header,), records)))


def _read_text(path: Path) -> tuple[str, str]:
    """Read a file's bytes once; return their sha256 and their UTF-8 text."""
    data = path.read_bytes()
    try:
        return hashlib.sha256(data).hexdigest(), data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptArtifact(path, f"not UTF-8 text ({exc.reason})") from exc


def read_records(path: str | Path, kind: str, config_hash: str) -> tuple[str, list]:
    """Return the store's sha256 and its (file line number, record) pairs, skipping blank lines."""
    path = Path(path)
    digest, text = _read_text(path)
    header, *lines = text.split("\n")
    _check_header(path, _loads(path, header, 1), kind, config_hash)
    return digest, [(number, _loads(path, line, number))
                    for number, line in enumerate(lines, start=2) if line.strip()]


def write_doc(path: str | Path, kind: str, config_hash: str, payload: dict) -> str:
    """Write a single-document JSON artifact with embedded provenance. Returns the file's
    sha256."""
    doc = {"kind": kind, "config_hash": config_hash, **payload}
    return write_text(path, chain(_DOC_ENCODER.iterencode(doc), ("\n",)))


def read_doc(path: str | Path, kind: str, config_hash: str) -> tuple[str, dict]:
    """Return the document's sha256 and the document."""
    path = Path(path)
    digest, text = _read_text(path)
    doc = _loads(path, text, 1)
    _check_header(path, doc, kind, config_hash)
    return digest, doc


def _check_header(path: Path, header, kind: str, config_hash: str) -> None:
    if not isinstance(header, dict):
        raise CorruptArtifact(path, f"expected a JSON object header, found {type(header).__name__}", 1)
    if header.get("kind") != kind:
        raise ArtifactMismatch(f"{path.name}: expected kind {kind!r}, found {header.get('kind')!r}")
    if header.get("config_hash") != config_hash:
        raise ArtifactMismatch(
            f"{path.name}: artifact was produced under config {header.get('config_hash')!r}, "
            f"current config is {config_hash!r}"
        )


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
