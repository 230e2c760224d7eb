from __future__ import annotations

import pytest

from claimcheck.store import file_sha256, read_records, write_records


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
