from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path
from typing import Literal, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from claimcheck import pipeline
from claimcheck.cli import main
from claimcheck.corpus import default_blocklist_path
from claimcheck.errors import ValidationError
from claimcheck.store import (
    ArtifactMismatch,
    CorruptArtifact,
    MissingUpstreamArtifact,
    file_sha256,
    write_doc,
)
from claimcheck.verdict import MemorizingBackend, Text2TextBackend

from helpers import make_rows, write_config, write_corpus

# Store hashes of the checked-in 20-record fixture under the default
# config, frozen after first generation. They move only when a template,
# stub backend, or serialization rule changes, which is exactly what
# they are here to catch.
PINNED_FIXTURE_HASHES = {
    "predictions.jsonl": "303a1f999010621edf577e12ef7f061e1140acd634698cb8f229e4908bb6ccd5",
    "nles.jsonl": "d0817594ebd48dbb8e276990d93f362c05eda83da2ccee7b97b5328e77004557",
    "rationales.jsonl": "a6b3bac72eba9d164876ddeccf7bd508b4fbc07f6ca2d7946836458d929f9102",
}


@pytest.fixture
def fixture_config(tmp_path, corpus20_path):
    out = tmp_path / "out"
    out.mkdir()
    path = write_config(tmp_path / "config.json", corpus20_path, out,
                        blocklist_path=str(default_blocklist_path()))
    return pipeline.load_config(path)


# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults_and_hash_ignores_paths(tmp_path, corpus20_path):
    a = pipeline.load_config(write_config(tmp_path / "a.json", corpus20_path, tmp_path / "o1"))
    b = pipeline.load_config(write_config(tmp_path / "b.json", "elsewhere.jsonl", tmp_path / "o2"))
    assert a.ratios == (0.70, 0.15, 0.15)
    assert a.train.batch_size == 8
    assert a.config_hash == b.config_hash  # paths are not semantic
    c = pipeline.load_config(write_config(tmp_path / "c.json", corpus20_path, tmp_path / "o3",
                                          split_seed=7))
    assert c.config_hash != a.config_hash


def test_config_env_and_flag_overrides(tmp_path, corpus20_path, monkeypatch):
    path = write_config(tmp_path / "cfg.json", corpus20_path, tmp_path / "out")
    monkeypatch.setenv("CLAIMCHECK_NLI", "env-nli")
    config = pipeline.load_config(path)
    assert config.backends.nli == "env-nli"
    config = pipeline.load_config(path, nli="flag-nli", seed=99)
    assert config.backends.nli == "flag-nli"  # flags beat env
    assert config.split_seed == 99


def test_config_missing_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"corpus_path": "x"}))
    with pytest.raises(ValidationError):
        pipeline.load_config(path)


def test_readme_quick_start_config_loads_as_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start.*?```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    config = pipeline.load_config(path)
    defaults = pipeline.load_config(write_config(tmp_path / "min.json", "c.jsonl", "out"))
    assert config.config_hash == defaults.config_hash


@pytest.mark.parametrize("key, value", [
    ("records", -1), ("records", 2.5), ("records", True), ("permutations", 0),
    ("permutations", "200"), ("granularity", "paragraph"),
])
def test_config_invalid_explain_settings_name_the_key(tmp_path, corpus20_path, key, value):
    path = write_config(tmp_path / "cfg.json", corpus20_path, tmp_path / "out",
                        explain={key: value})
    with pytest.raises(ValidationError, match=f"'explain.{key}'"):
        pipeline.load_config(path)


@pytest.mark.parametrize("section, key, value", [
    ("summary", "max_tokens", "120"), ("summary", "backend_max_input", 1024.0),
    ("train", "batch_size", True), ("train", "seed", None), ("train", "eval_every_steps", 0),
])
def test_config_non_integer_settings_name_the_key(tmp_path, corpus20_path, section, key, value):
    path = write_config(tmp_path / "cfg.json", corpus20_path, tmp_path / "out",
                        **{section: {key: value}})
    with pytest.raises(ValidationError, match=f"'{section}.{key}'"):
        pipeline.load_config(path)


# The JSON types a config value may have, per settings annotation, decided here apart from
# errors.check_fields. A field whose annotation is missing fails the schema fuzz test below.
JSON_TYPES = {
    str: {"string"}, int: {"int"}, float: {"int", "float"},
    str | None: {"string", "null"}, int | None: {"int", "null"},
    tuple[float, float, float]: {"list"},
    Literal["sentence", "token"]: {"string"}, Literal["json-lines", "delimited"]: {"string"},
}
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-2, 2000),
    "float": st.floats(-2.0, 2000.0),
    "string": st.sampled_from(["token", "delimited"]) | st.text(max_size=8),
    "list": st.lists(st.integers(0, 1) | st.floats(0.0, 1.0), max_size=4),
    "object": st.dictionaries(st.sampled_from(["n", "x"]), st.integers(0, 3), max_size=2),
}
CONFIG_HINTS = get_type_hints(pipeline.PipelineConfig)
# (section or "", field name, annotation) for every field of PipelineConfig and of its sections
SETTINGS_FIELDS = [("", name, hint) for name, hint in CONFIG_HINTS.items()] + [
    (section, name, hint) for section, cls in CONFIG_HINTS.items() if is_dataclass(cls)
    for name, hint in get_type_hints(cls).items()]


def _expect_built_or_named(build, key: str, section: str, fits: bool, value) -> None:
    """`build()` returns settings only for a value whose JSON type fits; otherwise, or when a
    fitting value fails a range check, it raises a ValidationError naming the key (a range
    check across two fields of one section may name the other one)."""
    try:
        build()
    except ValidationError as exc:
        named = f"'{key}'" in str(exc) or (fits and section and f"'{section}." in str(exc))
        assert named, f"{key} = {value!r}: {exc}"
        return
    assert fits, f"{key} = {value!r} was accepted"


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_schema_fuzz_every_key_with_every_json_type(tmp_path, monkeypatch, data):
    for name in pipeline.ENV_OVERRIDES:
        monkeypatch.delenv(name, raising=False)
    assert len({section for section, _, _ in SETTINGS_FIELDS}) == 1 + 5
    base = {"corpus_path": "c.jsonl", "output_dir": "out"}
    default = pipeline.PipelineConfig(**base)
    path = tmp_path / "config.json"
    for section, name, hint in SETTINGS_FIELDS:
        key = f"{section}.{name}" if section else name
        json_types = {"object"} if is_dataclass(hint) else JSON_TYPES[hint]
        for json_type, values in JSON_VALUES.items():
            value = data.draw(values, label=f"{key} as {json_type}")
            path.write_text(json.dumps({**base, **({section: {name: value}} if section
                                                   else {name: value})}))
            _expect_built_or_named(lambda: pipeline.load_config(path), key, section,
                                   json_type in json_types, value)
            # through replace, a JSON value is never a settings section and a list no tuple
            in_replace = json_type in json_types and json_type not in ("object", "list")

            def build():
                if not section:
                    return replace(default, **{name: value})
                changed = replace(getattr(default, section), **{name: value})
                return replace(default, **{section: changed})
            _expect_built_or_named(build, key, section, in_replace, value)


def test_settings_are_frozen(fixture_config):
    sections = [fixture_config] + [getattr(fixture_config, f.name) for f in fields(fixture_config)
                                   if is_dataclass(f.default_factory)]
    assert len(sections) == 6
    for section in sections:
        first = fields(section)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(section, first, getattr(section, first))


def test_unknown_backend_id_is_validation_error(fixture_config):
    config = replace(fixture_config,
                     backends=replace(fixture_config.backends, summarizer="no-such-backend"))
    pipeline.stage_ingest(config)
    pipeline.stage_split(config)
    with pytest.raises(ValidationError, match="no-such-backend"):
        pipeline.stage_rationales(config)


# ---------------------------------------------------------------------------
# Stage DAG and provenance


def test_stage_requires_upstream_artifacts(fixture_config):
    pipeline.stage_ingest(fixture_config)
    with pytest.raises(MissingUpstreamArtifact):
        pipeline.run_stage(fixture_config, "predict")


def test_unknown_stage_rejected(fixture_config):
    with pytest.raises(ValidationError):
        pipeline.run_stage(fixture_config, "frobnicate")


def test_artifacts_from_other_config_rejected(tmp_path, corpus20_path):
    out = tmp_path / "out"
    out.mkdir()
    first = pipeline.load_config(write_config(tmp_path / "a.json", corpus20_path, out))
    pipeline.stage_ingest(first)
    second = pipeline.load_config(write_config(tmp_path / "b.json", corpus20_path, out,
                                               split_seed=7))
    with pytest.raises(ArtifactMismatch):
        pipeline.stage_split(second)


def test_manifest_records_stages_and_input_hashes(fixture_config):
    pipeline.stage_ingest(fixture_config)
    pipeline.stage_split(fixture_config)
    entries = [json.loads(line) for line in
               fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines()]
    assert [e["stage"] for e in entries] == ["ingest", "split"]
    assert all(e["config_hash"] == fixture_config.config_hash for e in entries)
    assert entries[1]["input_hashes"]["corpus_clean"] == \
        file_sha256(fixture_config.artifact(pipeline.CORPUS_CLEAN))


# ---------------------------------------------------------------------------
# Full fixture run


def test_full_run_counts_and_pinned_hashes(fixture_config):
    summaries = pipeline.run_all(fixture_config)
    assert summaries["ingest"]["total"] == 20
    assert summaries["split"]["sizes"] == (14, 3, 3)
    assert summaries["rationales"]["generated"] == 20
    assert summaries["predict"]["predicted"] == 20
    assert summaries["nle"]["explanations"] == 20
    assert set(summaries["eval"]["macro_f1"]) == {"validation", "test"}
    for name, expected in PINNED_FIXTURE_HASHES.items():
        assert file_sha256(fixture_config.artifact(name)) == expected, name


def test_ingest_rerun_is_byte_identical(fixture_config):
    pipeline.stage_ingest(fixture_config)
    first = fixture_config.artifact(pipeline.CORPUS_CLEAN).read_bytes()
    stats_first = fixture_config.artifact(pipeline.CORPUS_STATS).read_bytes()
    pipeline.stage_ingest(fixture_config)
    assert fixture_config.artifact(pipeline.CORPUS_CLEAN).read_bytes() == first
    assert fixture_config.artifact(pipeline.CORPUS_STATS).read_bytes() == stats_first


def test_ingest_drops_fully_blocklisted_records(tmp_path):
    rows = make_rows(3, 2)
    rows[1]["evidence"] = "As CNN reported, this happened."
    corpus = write_corpus(tmp_path / "c.jsonl", rows)
    out = tmp_path / "out"
    out.mkdir()
    config = pipeline.load_config(write_config(tmp_path / "cfg.json", corpus, out,
                                               blocklist_path=str(default_blocklist_path())))
    summary = pipeline.stage_ingest(config)
    assert summary["total"] == 2
    assert summary["dropped_ids"] == [rows[1]["id"]]


def test_limit_restricts_ingest(fixture_config):
    assert pipeline.stage_ingest(replace(fixture_config, limit=5))["total"] == 5


# ---------------------------------------------------------------------------
# CLI surface


def cli_config(tmp_path, corpus, **extra):
    """Write a config with the default blocklist; `extra` keys replace any key, paths included."""
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    path = write_config(tmp_path / "config.json", corpus, out,
                        blocklist_path=str(default_blocklist_path()))
    path.write_text(json.dumps({**json.loads(path.read_text()), **extra}))
    return path


def test_cli_ingest_prints_stats(tmp_path, corpus20_path, capsys):
    assert main(["ingest", "--config", str(cli_config(tmp_path, corpus20_path))]) == 0
    output = capsys.readouterr().out
    assert "records: 20" in output
    assert "Supports: 11" in output


def test_cli_stats_reads_artifact(tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path)
    assert main(["ingest", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["stats", "--config", str(config)]) == 0
    assert '"total": 20' in capsys.readouterr().out


def test_cli_unlabeled_row_exits_one_naming_row(tmp_path, capsys):
    rows = make_rows(3, 2)
    rows[2]["verdict"] = "Half True"
    corpus = write_corpus(tmp_path / "c.jsonl", rows)
    assert main(["ingest", "--config", str(cli_config(tmp_path, corpus))]) == 1
    err = capsys.readouterr().err
    assert "row 3" in err and "Half True" in err


def test_cli_stage_order_violation_exits_one(tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["predict", "--config", str(config)]) == 1
    assert "run earlier stages first" in capsys.readouterr().err


class JunkNliBackend(Text2TextBackend):
    identity = "stub-junk"

    def generate(self, prompt):
        return "banana"


class OutOfMemoryClassifier(MemorizingBackend):
    def __init__(self):
        super().__init__("stub-oom")

    def generate(self, prompt):
        raise RuntimeError("model OOM")


def _missing_weights():
    raise RuntimeError("weights missing")


# case: (registry, config role, backend id, factory, failing command, error text)
BACKEND_FAILURES = {
    "undecodable NLI output": ("NLI_BACKENDS", "nli", "stub-junk", JunkNliBackend, "eval-nli",
                               "banana"),
    "classifier raising in train": ("CLASSIFIER_BACKENDS", "classifier", "stub-oom",
                                    OutOfMemoryClassifier, "train",
                                    "classifier 'stub-oom': model OOM"),
    "summarizer factory raising": ("SUMMARIZER_BACKENDS", "summarizer", "stub-no-weights",
                                   _missing_weights, "rationales",
                                   "summarizer 'stub-no-weights': weights missing"),
}


@pytest.mark.parametrize("case", list(BACKEND_FAILURES))
def test_cli_backend_failure_exits_two(case, tmp_path, corpus20_path, capsys, monkeypatch):
    # The failing backend is only reached at the failing command; the whole
    # run uses its config so the provenance hashes line up.
    registry, role, backend_id, factory, command, message = BACKEND_FAILURES[case]
    monkeypatch.setitem(getattr(pipeline, registry), backend_id, factory)
    config = cli_config(tmp_path, corpus20_path, backends={role: backend_id})
    commands = ["ingest", "split", "rationales", "train", "predict", "nle", "eval-nli"]
    for cmd in commands[: commands.index(command)]:
        assert main([cmd, "--config", str(config)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("backend error: ") and message in err


def test_cli_bad_usage_exits_one(capsys):
    assert main(["ingest"]) == 1  # --config is required
    assert main(["no-such-command", "--config", "x"]) == 1


def test_cli_run_stage_flag(tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--stage", "split"]) == 0
    assert (tmp_path / "out" / pipeline.SPLITS).exists()
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--stage", "predict"]) == 1  # DAG enforced


def test_cli_annotation_round_trip_and_report(tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path, annotation={"n": 3, "seed": 1})
    for cmd in ("ingest", "split", "rationales", "train", "predict", "nle",
                "eval-f1", "eval-nli"):
        assert main([cmd, "--config", str(config)]) == 0
    assert main(["annotate-export", "--config", str(config), "--n", "2"]) == 0

    # Fill the exported tasks as one annotator would.
    tasks_path = tmp_path / "out" / pipeline.ANNOTATION_TASKS
    lines = tasks_path.read_text().splitlines()
    filled = []
    for line in lines:
        if line.startswith("#") or line.startswith("item_id"):
            filled.append(line)
            continue
        cols = line.split("\t")
        cols[3:7] = ["4", "5", "3", "a1"]
        filled.append("\t".join(cols))
    filled_path = tmp_path / "filled.tsv"
    filled_path.write_text("\n".join(filled) + "\n")

    assert main(["annotate-aggregate", "--config", str(config), str(filled_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / pipeline.EVAL_REPORT).read_text())
    assert report["annotation"]["per_system"]["claimcheck"]["fluency"] == 5.0
    assert "macro_f1" in report and "nli" in report


def test_manifest_hashes_exactly_each_stages_declared_inputs(fixture_config):
    pipeline.run_all(fixture_config)
    out = Path(fixture_config.output_dir)
    entries = [json.loads(line) for line in (out / pipeline.MANIFEST).read_text().splitlines()]
    assert [e["stage"] for e in entries] == [
        "ingest", "split", "rationales", "train", "predict", "nle", "explain",
        "eval-f1", "eval-nli", "report",
    ]
    for entry in entries:
        expected = {Path(name).stem: file_sha256(out / name)
                    for name in pipeline.COMMANDS[entry["stage"]].needs}
        if entry["stage"] == "ingest":  # reads the two inputs named by the config
            expected = {"corpus": file_sha256(fixture_config.corpus_path),
                        "blocklist": file_sha256(fixture_config.blocklist_path)}
        assert entry["input_hashes"] == expected, entry["stage"]


def test_manifest_hashes_the_bytes_the_stage_decoded(fixture_config, monkeypatch):
    pipeline.stage_ingest(fixture_config)
    corpus = fixture_config.artifact(pipeline.CORPUS_CLEAN)
    original = corpus.read_bytes()
    split = pipeline.COMMANDS["split"]

    def split_then_edit_input(config, config_hash, records):
        result = split.fn(config, config_hash, records)
        corpus.write_bytes(original + b"\n")  # the file changes after it was decoded
        return result

    monkeypatch.setitem(pipeline.COMMANDS, "split", split._replace(fn=split_then_edit_input))
    pipeline.stage_split(fixture_config)
    entry = json.loads(fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines()[-1])
    assert entry["input_hashes"]["corpus_clean"] == hashlib.sha256(original).hexdigest()


def test_file_sha256_hashes_only_inputs_from_outside_the_output_dir(fixture_config, monkeypatch):
    hashed = []
    monkeypatch.setattr(pipeline, "file_sha256",
                        lambda path: hashed.append(path) or file_sha256(path))
    pipeline.run_all(fixture_config)
    assert hashed == [fixture_config.corpus_path, fixture_config.blocklist_path]


# ---------------------------------------------------------------------------
# run_all decodes nothing it wrote, and never hides a rewrite


def _run_all_reads():
    """artifact name -> how many commands of run_all read it."""
    return Counter(need for names in pipeline.STEPS.values() for name in names
                   for need in pipeline.COMMANDS[name].needs)


def test_run_all_decodes_nothing_it_wrote(fixture_config, monkeypatch):
    decoded, read = Counter(), Counter()
    for reader in ("read_records", "read_doc"):
        original = getattr(pipeline, reader)
        monkeypatch.setattr(pipeline, reader, lambda path, *rest, original=original:
                            decoded.update([Path(path).name]) or original(path, *rest))
    table_read = pipeline.RunTable.read
    monkeypatch.setattr(pipeline.RunTable, "read", lambda self, config, name, config_hash:
                        read.update([name]) or table_read(self, config, name, config_hash))
    pipeline.run_all(fixture_config)
    assert max(_run_all_reads().values()) > 1  # several commands read the same file
    assert read == _run_all_reads()
    assert decoded == {}


def test_run_all_holds_what_decoding_the_written_bytes_gives(fixture_config, monkeypatch):
    held = {}
    write = pipeline._write
    monkeypatch.setattr(pipeline, "_write", lambda config, name, config_hash, payload:
                        held.setdefault(name, write(config, name, config_hash, payload)))
    pipeline.run_all(fixture_config)
    with_header = {name for name, spec in pipeline.ARTIFACTS.items() if spec.kind is not None}
    assert set(held) & with_header == with_header - {pipeline.ANNOTATION_SUMMARY}
    assert {pipeline.CORPUS_CLEAN, pipeline.CORPUS_STATS} <= set(held)  # ingest's included
    config_hash = fixture_config.config_hash
    for name in sorted(set(held) & with_header):
        digest, value = pipeline._read(fixture_config, name, config_hash)
        assert held[name][0] == digest, name
        assert held[name][1] == value, name
        assert type(held[name][1]) is type(value), name
        for key, item in value.items():
            assert type(held[name][1][key]) is type(item), (name, key)


def test_manifest_output_hashes_are_the_digests_of_the_files_written(fixture_config):
    pipeline.run_all(fixture_config)
    entries = [json.loads(line) for line in
               fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines()]
    assert [e["stage"] for e in entries] == [
        "ingest", *(name for names in pipeline.STEPS.values() for name in names)]
    for entry in entries:
        assert entry["output_hashes"], entry["stage"]
        for name, digest in entry["output_hashes"].items():
            assert digest == file_sha256(fixture_config.artifact(name)), (entry["stage"], name)
    written = {p.name for p in Path(fixture_config.output_dir).iterdir()} - {pipeline.MANIFEST}
    assert {name for e in entries for name in e["output_hashes"]} == written


def test_run_table_holds_an_artifact_only_until_its_last_reader(fixture_config, monkeypatch):
    tables, held = [], {}

    class RecordingTable(pipeline.RunTable):
        def __init__(self, commands):
            super().__init__(commands)
            tables.append(self)

        def read(self, config, name, config_hash):
            result = super().read(config, name, config_hash)
            held.setdefault(name, []).append(name in self.entries)
            return result

    monkeypatch.setattr(pipeline, "RunTable", RecordingTable)
    pipeline.run_all(fixture_config)
    assert {name: len(after_each_read) for name, after_each_read in held.items()} \
        == _run_all_reads()
    for name, after_each_read in held.items():
        assert after_each_read == [True] * (len(after_each_read) - 1) + [False], name
    assert len(tables) == 1 and tables[0].entries == {}


def _damage_corpus_after(command, damage, monkeypatch):
    """Make `command` damage corpus_clean.jsonl once it has written its own outputs."""
    stage = pipeline.COMMANDS[command]

    def run_then_damage(config, config_hash, *inputs):
        result = stage.fn(config, config_hash, *inputs)
        damage(config.artifact(pipeline.CORPUS_CLEAN))
        return result

    monkeypatch.setitem(pipeline.COMMANDS, command, stage._replace(fn=run_then_damage))


def _edit_first_claim(path):
    """Rewrite the first cleaned record's claim in place; return the record's id."""
    header, first, *rest = path.read_text().splitlines(keepends=True)
    row = json.loads(first)
    row["claim"] = "an edited claim."
    path.write_text(header + json.dumps(row) + "\n" + "".join(rest))
    return row["id"]


def _damage_corpus_once_ingest_wrote_it(damage, monkeypatch):
    """Make `damage` hit corpus_clean.jsonl after ingest writes it, before split reads it."""
    append_manifest = pipeline.append_manifest

    def append_then_damage(config, stage, *rest):
        append_manifest(config, stage, *rest)
        if stage == "ingest":
            damage(config.artifact(pipeline.CORPUS_CLEAN))

    monkeypatch.setattr(pipeline, "append_manifest", append_then_damage)


def test_run_all_decodes_an_artifact_edited_between_its_write_and_first_read(
        fixture_config, monkeypatch):
    edited, seen = [], {}
    split = pipeline.COMMANDS["split"]

    def record_claims(config, config_hash, records):
        seen.update({i: r.claim for i, r in records.items()})
        return split.fn(config, config_hash, records)

    _damage_corpus_once_ingest_wrote_it(lambda path: edited.append(_edit_first_claim(path)),
                                        monkeypatch)
    monkeypatch.setitem(pipeline.COMMANDS, "split", split._replace(fn=record_claims))
    pipeline.run_all(fixture_config)
    assert seen[edited[0]] == "an edited claim."
    entries = {e["stage"]: e for e in map(
        json.loads, fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines())}
    on_disk = file_sha256(fixture_config.artifact(pipeline.CORPUS_CLEAN))
    assert entries["split"]["input_hashes"]["corpus_clean"] == on_disk
    assert entries["ingest"]["output_hashes"][pipeline.CORPUS_CLEAN] != on_disk


def test_run_all_rejects_an_artifact_truncated_between_its_write_and_first_read(
        fixture_config, monkeypatch):
    _damage_corpus_once_ingest_wrote_it(_cut_in_half, monkeypatch)
    with pytest.raises(CorruptArtifact, match="corpus_clean.jsonl line"):
        pipeline.run_all(fixture_config)


def test_run_all_decodes_an_artifact_rewritten_between_commands(fixture_config, monkeypatch):
    def edit_first_claim(path):
        edited.update(id=_edit_first_claim(path),
                      digest=hashlib.sha256(path.read_bytes()).hexdigest())

    edited, seen = {}, {}
    eval_nli = pipeline.COMMANDS["eval-nli"]

    def record_claims(config, config_hash, records, splits, nles):
        seen.update({i: r.claim for i, r in records.items()})
        return eval_nli.fn(config, config_hash, records, splits, nles)

    _damage_corpus_after("nle", edit_first_claim, monkeypatch)
    monkeypatch.setitem(pipeline.COMMANDS, "eval-nli", eval_nli._replace(fn=record_claims))
    pipeline.run_all(fixture_config)
    assert seen[edited["id"]] == "an edited claim."
    entries = [json.loads(line) for line in
               fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines()]
    stamped = {e["stage"]: e["input_hashes"].get("corpus_clean") for e in entries}
    assert stamped["eval-nli"] == stamped["explain"] == edited["digest"]
    assert stamped["predict"] != edited["digest"]


def test_run_all_rejects_an_artifact_truncated_between_commands(fixture_config, monkeypatch):
    _damage_corpus_after("nle", _cut_in_half, monkeypatch)
    with pytest.raises(CorruptArtifact, match="corpus_clean.jsonl line"):
        pipeline.run_all(fixture_config)


def test_stages_get_read_only_inputs(fixture_config, monkeypatch):
    eval_f1 = pipeline.COMMANDS["eval-f1"]

    def assign_into_inputs(config, config_hash, records, splits, predictions):
        for store in (records, predictions):
            with pytest.raises(TypeError):
                store["c99999"] = next(iter(store.values()))
        with pytest.raises(TypeError):
            splits["test"] = []
        assigned.append(True)
        return eval_f1.fn(config, config_hash, records, splits, predictions)

    assigned = []
    monkeypatch.setitem(pipeline.COMMANDS, "eval-f1", eval_f1._replace(fn=assign_into_inputs))
    pipeline.run_all(fixture_config)
    pipeline.STAGES["eval"](fixture_config)  # the path without a table
    assert assigned == [True, True]


def test_run_all_matches_stages_run_one_by_one_through_the_cli(fixture_config, tmp_path):
    pipeline.run_all(fixture_config)
    out = tmp_path / "cli-out"
    config = write_config(tmp_path / "cli.json", fixture_config.corpus_path, out,
                          blocklist_path=fixture_config.blocklist_path)
    assert main(["ingest", "--config", str(config)]) == 0
    for stage in pipeline.STAGES:
        assert main(["run", "--stage", stage, "--config", str(config)]) == 0

    def artifacts(directory):
        return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
                if p.name != pipeline.MANIFEST}

    def stamps(directory):
        return [(e["stage"], e["input_hashes"]) for e in map(
            json.loads, (Path(directory) / pipeline.MANIFEST).read_text().splitlines())]

    assert artifacts(out) == artifacts(fixture_config.output_dir)
    assert stamps(out) == stamps(fixture_config.output_dir)


def test_run_all_refuses_a_stale_annotation_summary_before_writing(fixture_config):
    pipeline.run_all(fixture_config)
    write_doc(fixture_config.artifact(pipeline.ANNOTATION_SUMMARY), "annotation-summary",
              fixture_config.config_hash, {"per_system": {}, "per_annotator": {}})
    kept = {name: fixture_config.artifact(name).read_bytes()
            for name in (pipeline.CORPUS_CLEAN, pipeline.MANIFEST)}
    with pytest.raises(ArtifactMismatch, match="annotation_summary.json"):
        pipeline.run_all(replace(fixture_config, split_seed=7))
    assert {name: fixture_config.artifact(name).read_bytes() for name in kept} == kept


# ---------------------------------------------------------------------------
# Malformed inputs end as exit 1 with an error line, never a traceback


def _cut_in_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _drop_claim_of_first_row(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    row = json.loads(first)
    del row["claim"]
    path.write_text(header + json.dumps(row) + "\n" + "".join(rest))


def _drop_backend_id(path):
    doc = json.loads(path.read_text())
    del doc["backend_id"]
    path.write_text(json.dumps(doc))


def _set_key(key, value):
    def damage(path):
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    return damage


def _set_in_first_row(**values):
    def damage(path):
        header, first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text(header + json.dumps({**json.loads(first), **values}) + "\n" + "".join(rest))
    return damage


def _drop_from_first_row(key):
    def damage(path):
        header, first, *rest = path.read_text().splitlines(keepends=True)
        row = json.loads(first)
        del row[key]
        path.write_text(header + json.dumps(row) + "\n" + "".join(rest))
    return damage


def _stamp_first_row(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    stamp = {"config_hash": json.loads(header)["config_hash"]}
    path.write_text(header + json.dumps({**json.loads(first), **stamp}) + "\n" + "".join(rest))


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _blank_line_then_drop_claim_of_file_line_7(path):
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(2, "\n")
    row = json.loads(lines[6])
    del row["claim"]
    lines[6] = json.dumps(row) + "\n"
    path.write_text("".join(lines))


def _repeat_last_row(path):
    text = path.read_text()
    path.write_text(text + text.splitlines(keepends=True)[-1])


UPSTREAM = ("ingest", "split", "rationales", "train", "predict")

# case: (config keys, commands run first, artifact to damage, damage, command and flags,
#        error text)
MALFORMED_INPUTS = {
    "empty splits": ({}, UPSTREAM[:2], pipeline.SPLITS, lambda p: p.write_text(""),
                     "rationales", "splits.json line 1"),
    "truncated cleaned corpus": ({}, UPSTREAM[:1], pipeline.CORPUS_CLEAN, _cut_in_half,
                                 "split", "corpus_clean.jsonl line 11"),
    "splits holding a list": ({}, UPSTREAM[:2], pipeline.SPLITS, lambda p: p.write_text("[]"),
                              "rationales", "splits.json line 1"),
    "cleaned row missing claim": ({}, UPSTREAM[:1], pipeline.CORPUS_CLEAN,
                                  _drop_claim_of_first_row, "split",
                                  "corpus_clean.jsonl line 2"),
    "unknown summary key": ({"summary": {"min_tok": 5}}, (), None, None, "ingest", "'summary'"),
    "scalar ratios": ({"ratios": 0.7}, (), None, None, "ingest", "'ratios'"),
    "explain not an object": ({"explain": [1]}, (), None, None, "ingest", "'explain'"),
    "prediction without rationale": ({}, UPSTREAM, pipeline.RATIONALES, _drop_last_row,
                                     "nle", "no rationale for record"),
    "model state without backend_id": ({}, UPSTREAM[:4], pipeline.MODEL_STATE, _drop_backend_id,
                                       "predict", "model_state.json: key 'backend_id'"),
    "negative explain records": ({"explain": {"records": -1}}, (), None, None, "ingest",
                                 "'explain.records'"),
    "model state without memory": ({}, UPSTREAM[:4], pipeline.MODEL_STATE, _set_key("state", {}),
                                   "predict", "model_state.json: cannot restore the state"),
    "model state null": ({}, UPSTREAM[:4], pipeline.MODEL_STATE, _set_key("state", None),
                         "predict", "model_state.json: key 'state'"),
    "negative annotation n": ({"annotation": {"n": -2}}, (), None, None, "ingest",
                              "'annotation.n'"),
    "string annotation n": ({"annotation": {"n": "5"}}, (), None, None, "ingest",
                            "'annotation.n'"),
    "misspelled split_seed": ({"split_sed": 7}, (), None, None, "ingest", "'split_sed'"),
    "misspelled blocklist_path": ({"blocklist": "x.txt"}, (), None, None, "ingest",
                                  "'blocklist'"),
    "negative limit": ({"limit": -3}, (), None, None, "ingest", "'limit'"),
    "string limit": ({"limit": "5"}, (), None, None, "ingest", "'limit'"),
    "list split_seed": ({"split_seed": [1]}, (), None, None, "ingest", "'split_seed'"),
    "non-numeric ratios": ({"ratios": ["a", "b", "c"]}, (), None, None, "ingest", "'ratios'"),
    "fractional epochs": ({"train": {"epochs": 2.5}}, (), None, None, "ingest",
                          "'train.epochs'"),
    "negative limit flag": ({}, (), None, None, "ingest --limit -1", "'limit'"),
    "row after a blank line missing claim": ({}, UPSTREAM[:1], pipeline.CORPUS_CLEAN,
                                             _blank_line_then_drop_claim_of_file_line_7, "split",
                                             "corpus_clean.jsonl line 7: bad record"),
    "repeated rationale": ({}, UPSTREAM[:3], pipeline.RATIONALES, _repeat_last_row, "train",
                           "rationales.jsonl line 22: repeated record_id"),
    "integer output_dir": ({"output_dir": 5}, (), None, None, "ingest", "'output_dir'"),
    "list corpus_path": ({"corpus_path": []}, (), None, None, "ingest", "'corpus_path'"),
    "integer blocklist_path": ({"blocklist_path": 7}, (), None, None, "ingest",
                               "'blocklist_path'"),
    "object summarizer id": ({"backends": {"summarizer": {}}}, (), None, None, "rationales",
                             "'backends.summarizer'"),
    "empty list corpus_path quoted as written": ({"corpus_path": []}, (), None, None, "ingest",
                                                 "'corpus_path' must be a string, got []"),
    "mixed ratios quoted as written": ({"ratios": ["a", 1, None]}, (), None, None, "ingest",
                                       "'ratios' must be three numbers, got [\"a\", 1, null]"),
    "boolean learning_rate": ({"train": {"learning_rate": True}}, (), None, None, "ingest",
                              "'train.learning_rate' must be a number, got true"),
    "boolean weight_decay": ({"train": {"weight_decay": False}}, (), None, None, "ingest",
                             "'train.weight_decay' must be a number, got false"),
    "list explain seed": ({"explain": {"seed": [1]}}, (), None, None, "ingest",
                          "'explain.seed' must be an integer, got [1]"),
    "object train loss": ({"train": {"loss": {}}}, (), None, None, "ingest",
                          "'train.loss' must be a string, got {}"),
    "null lr_schedule": ({"train": {"lr_schedule": None}}, (), None, None, "ingest",
                         "'train.lr_schedule' must be a string, got null"),
    "object annotation system": ({"annotation": {"system": {}}}, (), None, None, "ingest",
                                 "'annotation.system' must be a string, got {}"),
    "unknown corpus_format": ({"corpus_format": "csv"}, (), None, None, "ingest",
                              "'corpus_format' must be \"json-lines\" or \"delimited\", "
                              "got \"csv\""),
    "infinite learning_rate": ({"train": {"learning_rate": float("inf")}}, (), None, None,
                               "ingest", "'train.learning_rate' must be a number, got Infinity"),
    "NaN weight_decay": ({"train": {"weight_decay": float("nan")}}, (), None, None, "ingest",
                         "'train.weight_decay' must be a number, got NaN"),
    "integer claim": ({}, UPSTREAM[:4], pipeline.CORPUS_CLEAN, _set_in_first_row(claim=5),
                      "predict", "corpus_clean.jsonl line 2: bad record (ValidationError: "
                      "field 'claim' must be a string, got 5)"),
    "null claim": ({}, (*UPSTREAM, "nle"), pipeline.CORPUS_CLEAN, _set_in_first_row(claim=None),
                   "eval-nli", "corpus_clean.jsonl line 2: bad record (ValidationError: "
                   "field 'claim' must be a string, got null)"),
    "integer evidence before rationales": ({}, UPSTREAM[:2], pipeline.CORPUS_CLEAN,
                                           _set_in_first_row(evidence=7), "rationales",
                                           "corpus_clean.jsonl line 2: bad record "
                                           "(ValidationError: field 'evidence' must be"),
    "integer evidence before explain": ({}, UPSTREAM[:3], pipeline.CORPUS_CLEAN,
                                        _set_in_first_row(evidence=7), "explain",
                                        "corpus_clean.jsonl line 2: bad record "
                                        "(ValidationError: field 'evidence' must be"),
    "integer rationale text": ({}, UPSTREAM[:4], pipeline.RATIONALES, _set_in_first_row(text=3),
                               "predict", "rationales.jsonl line 2: bad record "
                               "(ValidationError: field 'text' must be a string, got 3)"),
    "integer explanation text": ({}, (*UPSTREAM, "nle"), pipeline.NLES, _set_in_first_row(text=5),
                                 "eval-nli", "nles.jsonl line 2: bad record (ValidationError: "
                                 "record_id and text must be strings"),
    "null rationale text": ({}, UPSTREAM, pipeline.RATIONALES, _set_in_first_row(text=None),
                            "nle", "rationales.jsonl line 2: bad record "
                            "(ValidationError: field 'text' must be a string, got null)"),
    "integer record id": ({}, UPSTREAM[:1], pipeline.CORPUS_CLEAN, _set_in_first_row(id=3),
                          "split", "corpus_clean.jsonl line 2: bad record "
                          "(ValidationError: field 'id' must be a string, got 3)"),
    "boolean stats total": ({}, UPSTREAM[:1], pipeline.CORPUS_STATS, _set_key("total", True),
                            "stats", "corpus_stats.json: key 'total' must be an integer, got true"),
    "rationale stamped by another config": ({}, UPSTREAM[:4], pipeline.RATIONALES,
                                            _set_in_first_row(config_hash="0" * 64), "predict",
                                            "rationales.jsonl line 2: stamped with config"),
    "rationale without its stamp": ({}, UPSTREAM, pipeline.RATIONALES,
                                    _drop_from_first_row("config_hash"), "nle",
                                    "rationales.jsonl line 2: bad record "
                                    "(KeyError: 'config_hash')"),
    "stamp on a cleaned row": ({}, UPSTREAM[:1], pipeline.CORPUS_CLEAN, _stamp_first_row, "split",
                               "corpus_clean.jsonl line 2: bad record (TypeError"),
    "explanation with an extra field": ({}, (*UPSTREAM, "nle"), pipeline.NLES,
                                        _set_in_first_row(verdict="made up"), "eval-nli",
                                        "nles.jsonl line 2: bad record (TypeError"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_cli_malformed_input_exits_one(case, tmp_path, corpus20_path, capsys):
    extra, upstream, artifact, damage, command, message = MALFORMED_INPUTS[case]
    config = cli_config(tmp_path, corpus20_path, **extra)
    for cmd in upstream:
        assert main([cmd, "--config", str(config)]) == 0
    if damage is not None:
        damage(tmp_path / "out" / artifact)
    capsys.readouterr()
    assert main([*command.split(), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
