from __future__ import annotations

import pytest

from claimcheck.store import (
    WRITE_BATCH,
    file_sha256,
    read_doc,
    read_records,
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
