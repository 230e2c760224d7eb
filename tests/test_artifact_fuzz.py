"""Artifact fuzzer: a damaged artifact never gives a traceback or a half-written file.

One run of the pipeline on the 20-record fixture leaves every artifact a command reads. Each
example cuts one of them short, replaces one byte, or deletes a span, then runs every command
that reads it through `cli.main`, and puts the run's files back afterwards.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from claimcheck import pipeline
from claimcheck.cli import main
from claimcheck.corpus import default_blocklist_path

from conftest import FIXTURES
from helpers import run_steps, write_config

# {artifact file name: the commands that read it}; report also reads the annotation summary
READERS = {name: [command for command, stage in pipeline.COMMANDS.items() if name in stage.needs]
           for name in pipeline.ARTIFACTS}
READERS[pipeline.ANNOTATION_SUMMARY] = ["report"]
READERS = {name: commands for name, commands in READERS.items() if commands}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """(config path, output directory, {file name: bytes} of every file the run left there)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    out = tmp / "out"
    config = write_config(tmp / "config.json", FIXTURES / "corpus20.jsonl", out,
                          blocklist_path=str(default_blocklist_path()),
                          explain={"records": 1, "permutations": 8},
                          annotation={"n": 2, "seed": 1})
    run_steps(config)
    assert main(["annotate-export", "--config", str(config)]) == 0
    filled = tmp / "filled.tsv"
    filled.write_text((out / pipeline.ANNOTATION_TASKS).read_text().replace(
        "\t\t\t\t\t", "\t4\t5\t3\ta1\t"), encoding="utf-8")
    assert main(["annotate-aggregate", "--config", str(config), str(filled)]) == 0
    assert READERS.keys() <= {path.name for path in out.iterdir()}
    return config, out, {path.name: path.read_bytes() for path in out.iterdir()}


def _damage(data: bytes, kind: str, draw) -> bytes:
    if kind == "cut short":
        return data[:draw(st.integers(0, len(data) - 1))]
    start = draw(st.integers(0, len(data) - 1))
    if kind == "replace a byte":
        return data[:start] + bytes([draw(st.integers(0, 255))]) + data[start + 1:]
    return data[:start] + data[start + draw(st.integers(1, 64)):]  # delete a span


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(READERS)),
       kind=st.sampled_from(["cut short", "replace a byte", "delete a span"]), data=st.data())
def test_a_damaged_artifact_ends_each_reader_cleanly(run, capsys, name, kind, data):
    config, out, pristine = run
    (out / name).write_bytes(_damage(pristine[name], kind, data.draw))
    try:
        for command in READERS[name]:
            status = main([command, "--config", str(config)])  # an escaping exception fails here
            err = capsys.readouterr().err
            # Exit 0 stays allowed: a damaged file can still decode to a valid artifact, and no
            # command yet refuses an input modified since its write (ROADMAP.md, lineage).
            assert status in (0, 1, 2), (command, status)
            assert status == 0 or any(line.startswith(("error: ", "backend error: "))
                                      for line in err.splitlines()), (command, status, err)
            assert "Traceback" not in err
            assert not [path.name for path in out.iterdir() if path.name.endswith(".tmp")]
    finally:
        for path in out.iterdir():
            if path.name not in pristine:
                path.unlink()
        for file_name, content in pristine.items():
            (out / file_name).write_bytes(content)
