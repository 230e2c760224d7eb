from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import pipeline
from claimcheck.corpus import ClaimRecord, VerdictLabel
from claimcheck.errors import ValidationError
from claimcheck.rationale import Rationale
from claimcheck.store import (
    _ROW_ENCODER,
    HASH_BUFFER,
    WRITE_BATCH,
    CorruptArtifact,
    field_hints,
    file_digests,
    file_sha256,
    parse_json,
    read_doc,
    read_records,
    row_text,
    to_row,
    value_rule,
    write_doc,
    write_records,
    write_text,
)


@dataclass(frozen=True)
class Row:
    n: int
    s: str | None = None


def write_rows(path, rows) -> str:
    """write_records of Row records, unstamped."""
    return write_records(path, "rows", "h", rows, Row, False)


def test_interrupted_write_leaves_previous_store_intact(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_rows(path, [Row(1), Row(2)])
    before = path.read_bytes()

    def failing_rows():
        yield Row(3)
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_rows(path, failing_rows())
    assert path.read_bytes() == before
    assert read_records(path, "rows", "h") == (file_sha256(path), [(2, {"n": 1}), (3, {"n": 2})])
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]  # no temporary file left


def test_a_write_deletes_stale_temporary_files_and_fails_a_writer_it_overlaps(tmp_path):
    path = tmp_path / "text.txt"
    (tmp_path / ".text.txt.12345.tmp").write_text("left by a killed writer")

    def chunks():
        yield "first writer\n"
        write_text(path, ["second writer\n"])  # starts and ends while the first one writes
        yield "first writer again\n"

    with pytest.raises(ValidationError, match=r"^cannot write .*text\.txt: \[Errno 2\]"):
        write_text(path, chunks())
    assert path.read_text() == "second writer\n"  # whole: the first writer replaced nothing
    assert [p.name for p in tmp_path.iterdir()] == ["text.txt"]


def test_write_text_returns_the_sha256_of_exactly_the_bytes_written(tmp_path):
    path = tmp_path / "text.txt"
    chunks = [f"line {n}: é\n" for n in range(3 * WRITE_BATCH + 1)] + ["", "end"]
    assert write_text(path, chunks) == file_sha256(path)
    assert path.read_bytes() == "".join(chunks).encode("utf-8")


def test_store_writers_return_the_digest_their_readers_see(tmp_path):
    rows, doc = tmp_path / "rows.jsonl", tmp_path / "doc.json"
    digest = write_rows(rows, (Row(n, "ü") for n in range(WRITE_BATCH + 2)))
    assert read_records(rows, "rows", "h")[0] == digest == file_sha256(rows)
    digest = write_doc(doc, "doc", "h", {"nested": {"xs": [1, 2.5, None]}, "s": "ü"})
    assert read_doc(doc, "doc", "h") == (digest, {"kind": "doc", "config_hash": "h",
                                                 "nested": {"xs": [1, 2.5, None]}, "s": "ü"})
    assert doc.read_text(encoding="utf-8").endswith("}\n")


def test_a_document_that_is_not_json_is_refused_at_the_line_of_the_fault(tmp_path):
    path = tmp_path / "doc.json"
    write_doc(path, "doc", "h", {"a": 1, "b": 2})
    path.write_text(path.read_text().replace('"b": 2', '"b": ]'))  # line 5 of the document
    message = r"^doc\.json line 5: not valid JSON \(Expecting value\); rerun the stage that"
    with pytest.raises(CorruptArtifact, match=message):
        read_doc(path, "doc", "h")


def test_a_row_that_is_not_json_is_refused_at_its_own_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_rows(path, [Row(1), Row(2)])
    path.write_text(path.read_text().replace('{"n": 2}', '{"n": '))
    with pytest.raises(CorruptArtifact, match=r"^rows\.jsonl line 3: not valid JSON \(Expecting"):
        read_records(path, "rows", "h")


def test_an_input_may_hold_any_json_value_and_is_refused_with_its_own_name():
    # Only an artifact must hold an object, and only its error is a CorruptArtifact.
    assert parse_json("[5]", "input x") == [5]
    with pytest.raises(ValidationError, match=r"^input x is not valid JSON: Expecting value: "
                                              r"line 2") as caught:
        parse_json('[5,\n]', "input x")
    assert type(caught.value) is ValidationError


def test_value_rule_refuses_an_annotation_it_does_not_know():
    with pytest.raises(TypeError, match=r"^cannot check a value against <class 'set'>$"):
        value_rule(set)


def test_file_digests_streams_each_file_in_order_and_joins_every_thread(tmp_path):
    sizes = (0, 1, HASH_BUFFER - 1, HASH_BUFFER, 2 * HASH_BUFFER + 1)
    paths = [tmp_path / f"file{size}" for size in sizes]
    for size, path in zip(sizes, paths):
        path.write_bytes(bytes(range(256)) * (size // 256) + b"x" * (size % 256))
    threads = threading.active_count()
    assert file_digests(paths) == [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    assert threading.active_count() == threads
    assert file_digests([]) == []


# (files, the unreadable ones): one hashed in this thread, in another, two, and one alone
@pytest.mark.parametrize("files, unreadable", [(3, [0]), (3, [2]), (3, [1, 2]), (1, [0])],
                         ids=["0", "2", "1-2", "alone"])
def test_file_digests_names_a_file_it_cannot_read_once_every_thread_is_joined(tmp_path, files,
                                                                             unreadable):
    paths = [tmp_path / f"file{n}" for n in range(files)]
    for path in paths:
        path.write_text("text")
    for n in unreadable:
        paths[n].unlink()
        paths[n].mkdir()
    threads, named = threading.active_count(), re.escape(str(paths[unreadable[0]]))
    with pytest.raises(ValidationError, match=rf"^cannot read {named}: \[Errno 21\]"):
        file_digests(paths)
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# row_text: a store's line without building its row


RECORD_CLASSES = {spec.cls.__name__: spec.cls for spec in pipeline.ARTIFACTS.values() if spec.key}
# Any character at all: surrogates, control characters, quotes and backslashes included.
ANY_TEXT = st.text(st.characters())


def field_values(hint):
    """Values of a record-store field's annotation, and for a str or int field also values of
    other types, which row_text hands to _ROW_ENCODER."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(hint)
    others = st.booleans() | st.floats() | st.none() | st.lists(st.integers(), max_size=2)
    return {str: ANY_TEXT, int: st.integers()}[hint] | others


def unchecked(cls, values: dict):
    """A `cls` record holding `values`, built past its __post_init__ checks, which row_text and
    to_row do not repeat."""
    record = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


@pytest.mark.parametrize("name", sorted(RECORD_CLASSES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), stamp=ANY_TEXT)
def test_row_text_writes_what_the_row_encoder_writes_of_to_row(name, data, stamp):
    cls = RECORD_CLASSES[name]
    record = unchecked(cls, {field: data.draw(field_values(hint), label=field)
                             for field, hint in field_hints(cls).items()})
    assert row_text(cls)(record) == _ROW_ENCODER.encode(to_row(record)) + "\n"
    assert row_text(cls)(record, stamp) == _ROW_ENCODER.encode(
        {**to_row(record), "config_hash": stamp}) + "\n"


class Colour(Enum):
    RED = "red"


class Level(Enum):
    LOW = 1


@dataclass(frozen=True)
class Mixed:
    score: float
    pair: tuple[int, ...]
    colour: Colour
    level: Level
    note: str | None = None


class Text(str):
    pass


@pytest.mark.parametrize("record, line", [
    # a str field holding an int, and one holding a str subclass
    (ClaimRecord(5, "c", "d", Text("s"), VerdictLabel.REFUTES, "e\n\"q\"", "u"),
     r'{"id": 5, "claim": "c", "date": "d", "source": "s", "verdict": "Refutes", '
     r'"evidence": "e\n\"q\"", "url": "u"}'),
    (Rationale("r", "word", True, "b"),  # an int field holding a bool
     '{"record_id": "r", "text": "word", "token_length": true, "backend_id": "b"}'),
    # a float, a tuple, an enum of str values, one of int values, an optional field left out
    (Mixed(1.5, (1, 2), Colour.RED, Level.LOW),
     '{"score": 1.5, "pair": [1, 2], "colour": "red", "level": 1}'),
    (Mixed(float("nan"), (), Colour.RED, Level.LOW, "ü"),
     '{"score": NaN, "pair": [], "colour": "red", "level": 1, "note": "ü"}'),
], ids=["str field", "int field", "optional None", "optional given"])
def test_row_text_writes_a_value_of_any_type_as_the_row_encoder_does(record, line):
    text = row_text(type(record))
    assert text(record) == line + "\n" == _ROW_ENCODER.encode(to_row(record)) + "\n"
    assert text(record, "h") == line[:-1] + ', "config_hash": "h"}\n'
