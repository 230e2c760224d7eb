from __future__ import annotations

import pytest

from claimcheck.errors import ValidationError
from claimcheck.store import (
    WRITE_BATCH,
    CorruptArtifact,
    file_sha256,
    parse_json,
    read_doc,
    read_records,
    value_rule,
    write_doc,
    write_records,
    write_text,
)


def test_interrupted_write_leaves_previous_store_intact(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_records(path, "rows", "h", [{"n": 1}, {"n": 2}])
    before = path.read_bytes()

    def failing_rows():
        yield {"n": 3}
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_records(path, "rows", "h", failing_rows())
    assert path.read_bytes() == before
    assert read_records(path, "rows", "h") == (file_sha256(path), [(2, {"n": 1}), (3, {"n": 2})])
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]  # no temporary file left


def test_write_text_returns_the_sha256_of_exactly_the_bytes_written(tmp_path):
    path = tmp_path / "text.txt"
    chunks = [f"line {n}: é\n" for n in range(3 * WRITE_BATCH + 1)] + ["", "end"]
    assert write_text(path, chunks) == file_sha256(path)
    assert path.read_bytes() == "".join(chunks).encode("utf-8")


def test_store_writers_return_the_digest_their_readers_see(tmp_path):
    rows, doc = tmp_path / "rows.jsonl", tmp_path / "doc.json"
    digest = write_records(rows, "rows", "h", ({"n": n, "s": "ü"} for n in range(WRITE_BATCH + 2)))
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
    write_records(path, "rows", "h", [{"n": 1}, {"n": 2}])
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
