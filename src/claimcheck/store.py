"""Artifact stores with provenance headers.

Every artifact file opens with {"kind", "config_hash"}; readers verify both, so artifacts produced
under a different configuration can never be mixed into a run. Stores contain no timestamps, which
keeps reruns byte-identical (timestamps live only in the run manifest).

Writes go to a temporary file in the same directory that replaces the artifact only once it is
complete, so a write that fails part-way leaves the previous artifact, or none, never a truncated
one; only append_lines, the manifest's writer, appends. The others return the sha256 of the bytes
they wrote, hashed as they are written. file_sha256 streams a file the engine hashes but does not
decode, and file_digests hashes several such files at once, the first in the calling thread and
the others in a thread pool; every other sha256 is taken by digest, of the bytes _read_text reads
whole to decode an artifact. open_input is the one way an input from outside the output directory
is read. A file that cannot be read or written is a ValidationError naming it.

No other module imports hashlib or json. Only parse_json (an input: the config, a corpus line) and
_parse_object (an artifact, which must hold an object) parse JSON, both through _DECODER. A text
it refuses (malformed, a key repeated in one object, an integer of over 4,300 digits, nested past
the recursion limit) is a ValidationError naming its file. Four encoders, built once, write every
JSON text: _ROW_ENCODER a store's header, the manifest's lines and each store value row_text
does not quote itself, DOC_ENCODER documents and the summaries the CLI prints, CANONICAL_ENCODER
the text config_hash hashes, _QUOTE_ENCODER a quote.

A dataclass's annotations are its schema, and this module holds every rule about them:
value_rule says which JSON values fit an annotation; from_row decodes a row, a document or the
config with the function _decoder builds for its class, and to_row encodes a document with the
functions _encoder builds for its fields; row_text writes a store's record straight to its line,
the text _ROW_ENCODER writes of its to_row, with no row built; check_fields and check_range
check settings built in code, and check_utf8 refuses a str that UTF-8 cannot encode. _decoder,
_encoder and row_text build one function per annotation or class, once per process, so no value
is decoded or encoded by looking its annotation up again.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import chain, islice, repeat
from operator import attrgetter
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Literal, Union, get_args, get_origin, get_type_hints

from .errors import ValidationError


class CorruptArtifact(ValidationError):
    """An artifact that cannot be decoded: truncated, garbled, or hand-edited."""

    def __init__(self, path: Path, detail: str, line: int | None = None):
        where = path.name if line is None else f"{path.name} line {line}"
        super().__init__(f"{where}: {detail}; rerun the stage that writes it")


class _Misfit(Exception):
    """(path, wanted, got): the JSON value at `path` is `got`, not `wanted`; (path, None, key):
    the object at `path` has a key its class does not declare. A decoder raises it with the path
    below itself, and each decoder above it puts its own step in front."""


# Built once: json.dumps given a setting builds an encoder on every call.
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)
DOC_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)
CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True)
_QUOTE_ENCODER = json.JSONEncoder(ensure_ascii=False, default=repr)
QUOTE_LIMIT = 200  # characters of a value an error message quotes


def config_value(value) -> str:
    """Quote a value as a JSON file spells it, a tuple made from a list as the list; past
    QUOTE_LIMIT characters, cut short and followed by its full length."""
    try:
        text = _QUOTE_ENCODER.encode(value)
    except RecursionError:  # json.loads admits nesting a few calls short of the limit
        return "a value nested too deep to quote"
    except ValueError:  # an integer of over 4,300 digits, which only a library caller can pass
        return "a value too long to quote"
    return text if len(text) <= QUOTE_LIMIT else f"{text[:QUOTE_LIMIT]}… ({len(text)} characters)"


field_hints = cache(get_type_hints)  # dataclass -> its field annotations, resolved
JSON_INT_BOUND = 10 ** 4300  # JSON spells an integer of at most 4,300 digits, the int-to-text limit


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
    if hint in (int, float):  # one JSON spells: not its non-standard NaN or Infinity
        return (lambda v: isinstance(v, (int, hint)) and not isinstance(v, bool)
                and (-JSON_INT_BOUND < v < JSON_INT_BOUND if isinstance(v, int)
                     else math.isfinite(v))), "an integer" if hint is int else "a number"
    scalars = {str: (str, "a string"), type(None): (type(None), "null"),
               list: (list, "a list"), dict: (dict, "an object")}
    if hint not in scalars:
        raise TypeError(f"cannot check a value against {hint!r}")
    kind, wanted = scalars[hint]
    return lambda v: isinstance(v, kind) and not isinstance(v, bool), wanted


def check_fields(settings, section: str = "") -> None:
    """Check each field of dataclass `settings` against its annotation, the config's type schema.

    A mismatch is a ValidationError naming the key `section.field`. A bool is never an int or
    a float; a float is finite and may be an int; a str is one UTF-8 can encode (check_utf8).
    `X | None`, tuples of one scalar type, `Literal` of strings and nested settings classes are
    understood, others are a TypeError."""
    for name, hint in field_hints(type(settings)).items():
        (fits, wanted), value = value_rule(hint), getattr(settings, name)
        key = f"{section}.{name}" if section else name
        if not fits(value):
            raise ValidationError(f"config key {key!r} must be {wanted}, got {config_value(value)}")
        if isinstance(value, str):  # a path, or a name the engine writes
            check_utf8(value, f"config key {key!r}")


def check_utf8(text: str, what: str) -> None:
    """Refuse a str that UTF-8 cannot encode, one holding a lone surrogate, with a
    ValidationError naming `what`: every file name and text the engine writes is UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{what} holds {text[exc.start]!r} at character {exc.start}, "
                              "which UTF-8 cannot encode") from None


def check_range(key: str, value, least, strict: bool = False) -> None:
    """Require a value check_fields has typed to be >= `least`, or > `least` if `strict`."""
    if not (value > least if strict else value >= least):
        raise ValidationError(f"config key {key!r} must be {'>' if strict else '>='} {least}, "
                              f"got {config_value(value)}")


def _leaf(fits, wanted):
    """The decoder of a value_rule: the value itself, if it fits."""
    def decode_leaf(value):
        if fits(value):
            return value
        raise _Misfit("", wanted, "nothing" if value is ... else config_value(value))
    return decode_leaf


def _object_decoder(cls):
    """A dataclass: an object of its fields and no other key; a field with a default may be
    missing, and a missing field without one is ..., which no rule fits."""
    hints, check = field_hints(cls), _leaf(*value_rule(dict))
    # a field whose default and default factory are both MISSING has no default
    plan = [(f.name, _decoder(hints[f.name]), f.default is f.default_factory) for f in fields(cls)]

    def decode_object(value):
        if not check(value).keys() <= hints.keys():
            raise _Misfit("", None, next(key for key in value if key not in hints))
        decoded = {}
        try:
            for name, decode, required in plan:
                if required or name in value:
                    decoded[name] = decode(value.get(name, ...))
        except _Misfit as misfit:
            path, wanted, got = misfit.args
            raise _Misfit(f".{name}{path}", wanted, got) from None
        return cls(**decoded)
    return decode_object


def _list_decoder(origin, decode):
    """A list or tuple[X, ...]: a list, each item decoded."""
    check = _leaf(*value_rule(list))

    def decode_list(value):
        items, decoded = check(value), []
        try:
            for i, item in enumerate(items):
                decoded.append(decode(item))
        except _Misfit as misfit:
            path, wanted, got = misfit.args
            raise _Misfit(f"[{i}]{path}", wanted, got) from None
        return origin(decoded)
    return decode_list


def _dict_decoder(decode_key, decode):
    """A dict: an object, each key and value decoded."""
    check = _leaf(*value_rule(dict))

    def decode_dict(value):
        items, decoded = check(value).items(), {}
        try:
            for key, item in items:
                decoded[decode_key(key)] = decode(item)
        except _Misfit as misfit:
            path, wanted, got = misfit.args
            raise _Misfit(f".{key}{path}", wanted, got) from None
        return decoded
    return decode_dict


@cache
def _decoder(hint) -> Callable[[object], object]:
    """The function that decodes a JSON value as annotation `hint`, or raises _Misfit with the
    path below it: built once per annotation. An enum is one of its values, a dataclass an
    object (_object_decoder), a list or tuple[X, ...] a list, a fixed-length tuple a list
    checked whole (value_rule), a dict an object, `X | None` X or null."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {member.value: member for member in hint}
        check = _decoder(Literal[tuple(members)])
        return lambda value: members[check(value)]
    if is_dataclass(hint):
        return _object_decoder(hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and ... not in args:  # fixed length
        check = _leaf(*value_rule(hint))
        return lambda value: check(tuple(value) if isinstance(value, list) else value)
    if origin in (list, tuple):
        return _list_decoder(origin, _decoder(args[0]))
    if origin is dict:
        return _dict_decoder(_decoder(args[0]), _decoder(args[1]))
    if args[1:] == (type(None),):  # X | None
        decode = _decoder(args[0])
        return lambda value: None if value is None else decode(value)
    return _leaf(*value_rule(hint))


def _as_is(value):
    return value


@cache
def _encoder(hint) -> Callable[[object], object]:
    """The function that encodes a value fitting annotation `hint` as the JSON value its decoder
    takes back, built once per annotation; _as_is where the value is its own JSON value."""
    if is_dataclass(hint):
        return to_row
    if isinstance(hint, type) and issubclass(hint, Enum):
        return attrgetter("value")
    origin, args = get_origin(hint), get_args(hint)
    if origin in (list, tuple):
        encode = _encoder(args[0])
        return list if encode is _as_is else lambda value: list(map(encode, value))
    if origin is dict:
        encode_key, encode = _encoder(args[0]), _encoder(args[1])
        if encode_key is encode is _as_is:
            return dict
        return lambda value: {encode_key(key): encode(item) for key, item in value.items()}
    if args[1:] == (type(None),):  # X | None
        encode = _encoder(args[0])
        return encode if encode is _as_is else (
            lambda value: None if value is None else encode(value))
    return _as_is


# dataclass -> (its field names in order, (name, encoder, defaults to None) of each field to_row
# encodes or may leave out). Rows are built from the names: an instance asked for its __dict__
# keeps one.
_row_plan = cache(lambda cls: (tuple(f.name for f in fields(cls)), [
    (f.name, encode, f.default is None) for f in fields(cls)
    if (encode := _encoder(field_hints(cls)[f.name])) is not _as_is or f.default is None]))


def to_row(record) -> dict:
    """A dataclass as its row: its fields in order, each encoded (see _encoder), and a field
    that defaults to None left out while it is None."""
    names, encoded = _row_plan(type(record))
    row = {name: getattr(record, name) for name in names}
    for name, encode, optional in encoded:
        if optional and row[name] is None:
            del row[name]
        else:
            row[name] = encode(row[name])
    return row


_QUOTE = json.encoder.encode_basestring  # how _ROW_ENCODER, with ensure_ascii=False, quotes a str


def _exact_text(hint) -> tuple[type | None, Callable[[object], str] | None]:
    """(type, function): a value of exactly that type, in a field annotated `hint`, is written as
    the function's text, the text _ROW_ENCODER writes of it; (None, None) where every value goes
    through _ROW_ENCODER."""
    if hint in (str, int):
        return hint, _QUOTE if hint is str else int.__repr__
    if isinstance(hint, type) and issubclass(hint, Enum) \
            and all(type(member.value) is str for member in hint):
        return hint, lambda member: _QUOTE(member._value_)
    return None, None


@cache
def row_text(cls) -> Callable[..., str]:
    """The function that writes a `cls` record as its store line, built once per class:
    `text(record)` is `_ROW_ENCODER.encode(to_row(record)) + "\\n"`, and `text(record, stamp)`
    the same with the key "config_hash" last, holding `stamp`. A value of exactly a str, an int
    or an enum of str values is written by one call (_exact_text); any other value, a bool, a
    subclass, a float or a nested value, is encoded (_encoder) and handed to _ROW_ENCODER, so
    its rules stay the one encoder's."""
    names, encoded = _row_plan(cls)
    encoders = {name: (encode, optional) for name, encode, optional in encoded}
    plan = [(name, f"{_QUOTE(name)}: ", *_exact_text(field_hints(cls)[name]),
             *encoders.get(name, (_as_is, False))) for name in names]
    stamp_key = f'{_QUOTE("config_hash")}: '

    def text(record, stamp: str | None = None) -> str:
        parts = []
        for name, key, exact, quote, encode, optional in plan:
            value = getattr(record, name)
            if type(value) is exact:
                parts.append(key + quote(value))
            elif not (optional and value is None):
                parts.append(key + _ROW_ENCODER.encode(encode(value)))
        if stamp is not None:
            parts.append(stamp_key + _QUOTE(stamp))
        return "{" + ", ".join(parts) + "}\n"
    return text


def from_row(cls, row: dict, noun: str = "field"):
    """Decode a row into dataclass `cls` (see _decoder). A value that does not fit, a missing
    field or an unknown key is a ValidationError naming the {noun} path to it."""
    try:
        return _decoder(cls)(row)
    except _Misfit as misfit:
        path, wanted, got = misfit.args
        if wanted is None and not path:
            raise ValidationError(f"unknown {noun} {got!r}") from None
        detail = f"has unknown key {got!r}" if wanted is None else f"must be {wanted}, got {got}"
        raise ValidationError(f"{noun} {path[1:]!r} {detail}") from None


def _json_object(pairs: list) -> dict:
    """An object's key-value pairs as a dict; a repeated key, whose last value json.loads keeps,
    is a ValueError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


# Built once: json.loads given a hook builds a decoder on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_json_object)


def parse_json(text: str, where: str):
    """An input's JSON value; a text _DECODER refuses is a ValidationError naming `where`."""
    try:
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ValidationError(f"{where} is not valid JSON: {exc}") from exc


def _parse_object(path: Path, text: str, line: int = 1) -> dict:
    """The object of an artifact's `text`, from line `line` of `path`, or a CorruptArtifact."""
    try:
        value = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError names the line at fault
        line += exc.lineno - 1 if isinstance(exc, json.JSONDecodeError) else 0
        raise CorruptArtifact(path, f"not valid JSON ({getattr(exc, 'msg', exc)})", line) from exc
    if not isinstance(value, dict):
        raise CorruptArtifact(path, "not a JSON object", line)
    return value


def digest(data: bytes) -> str:
    """The sha256 of `data`, as hex."""
    return hashlib.sha256(data).hexdigest()


# Bytes file_sha256 reads and hashes at a time.
HASH_BUFFER = 64 * 1024


def file_sha256(path: str | Path) -> str:
    """The sha256 of the file at `path`, as hex, streamed through one HASH_BUFFER; hashlib
    releases the GIL while it hashes, so threads running this hash in parallel."""
    hasher, buffer = hashlib.sha256(), bytearray(HASH_BUFFER)
    view = memoryview(buffer)
    with os_errors("read", path), open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            hasher.update(view[:size])
    return hasher.hexdigest()


def file_digests(paths: Iterable[str | Path]) -> list[str]:
    """file_sha256 of each file in `paths`, in order. The first is hashed in this thread and the
    others in a thread pool that is shut down, every thread joined, before this returns or
    raises; an unreadable file is the ValidationError of the first such path."""
    paths = list(paths)
    if len(paths) < 2:
        return list(map(file_sha256, paths))
    from concurrent.futures import ThreadPoolExecutor  # its import costs start-up time

    with ThreadPoolExecutor(len(paths) - 1) as pool:
        others = pool.map(file_sha256, paths[1:])
        return [file_sha256(paths[0]), *others]


@contextmanager
def os_errors(verb: str, path: str | Path):
    """Turn an OSError on `path` into a ValidationError naming the file."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot {verb} {path}: {exc}") from exc


@contextmanager
def open_input(path: str | Path, what: str, newline: str = "\n"):
    """Yield a file from outside the output directory, open as UTF-8 text, less one leading byte
    order mark, with lines ending at `newline`; an OSError, UnicodeDecodeError or csv.Error (a
    CSV field longer than csv.field_size_limit, 131,072 characters) opening or reading it is a
    ValidationError."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


# Text chunks (store lines) encoded, hashed and written together.
WRITE_BATCH = 256


def write_text(path: str | Path, chunks: Iterable[str]) -> str:
    """Write the text `chunks` as UTF-8 to a file that appears at `path` only once complete;
    return the sha256 of the bytes written. Chunks are encoded and hashed in batches, so the
    whole file is never held as one string. The temporary file is `.<name>.<pid>.tmp`; any
    other writer's, left by a killed process, is deleted first, so a writer running at the
    same time on the same path fails to replace it and no mixed file appears."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    hasher, chunks = hashlib.sha256(), iter(chunks)
    with os_errors("write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        for stale in path.parent.glob(f".{path.name}.*.tmp"):
            stale.unlink(missing_ok=True)
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


@contextmanager
def append_lines(path: str | Path):
    """Open the headerless line-delimited file at `path` for append, creating its directory, and
    yield a function that writes one row, a dict, to it as one line, encoded by _ROW_ENCODER.
    An OSError in the with block is a ValidationError naming this file (the other writers name
    their own files first); the file is closed on every path."""
    path = Path(path)
    with os_errors("write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as fh:
            yield lambda row: fh.write(_ROW_ENCODER.encode(row) + "\n")


def write_records(path: str | Path, kind: str, config_hash: str, records: Iterable, cls: type,
                  stamped: bool) -> str:
    """Write a line-delimited store: one header line, then one line per record of dataclass
    `cls` (row_text), each ending with the header's config hash if `stamped`. Returns the
    file's sha256."""
    header = _ROW_ENCODER.encode({"kind": kind, "config_hash": config_hash}) + "\n"
    lines = map(row_text(cls), records, repeat(config_hash if stamped else None))
    return write_text(path, chain((header,), lines))


def _read_text(path: Path) -> tuple[str, str]:
    """Read a file's bytes once; return their sha256 and their UTF-8 text."""
    with os_errors("read", path):
        data = path.read_bytes()
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
    return write_text(path, chain(DOC_ENCODER.iterencode(doc), ("\n",)))


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
