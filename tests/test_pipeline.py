from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import multiprocessing
import os
import re
import threading
from collections import Counter
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace
from functools import partial, reduce
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from claimcheck import errors, pipeline
from claimcheck.attribution import evidence_features, polarity
from claimcheck.cli import build_parser, main
from claimcheck.corpus import FIELD_ORDER, VerdictLabel, default_blocklist_path
from claimcheck.errors import ValidationError
from claimcheck.evaluation import CRITERIA, NLI_CHOICES, AnnotationSummary
from claimcheck.rationale import LeadSummarizer, SummarizationBackend
from claimcheck.store import (CorruptArtifact, config_value, file_sha256, from_row, to_row,
                              write_doc)
from claimcheck.textutil import tokenize
from claimcheck.verdict import MemorizingBackend, Text2TextBackend, TrainConfig

from conftest import FIXTURES
from helpers import benchmark_shaped_rows, make_rows, run_steps, write_config, write_corpus

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


def test_an_empty_override_variable_is_ignored(tmp_path, corpus20_path, monkeypatch):
    path = write_config(tmp_path / "cfg.json", corpus20_path, tmp_path / "out",
                        backends={"nli": "file-nli"})
    monkeypatch.setenv("CLAIMCHECK_NLI", "")
    assert pipeline.load_config(path).backends.nli == "file-nli"


def test_config_unknown_override_rejected(tmp_path, corpus20_path):
    path = write_config(tmp_path / "cfg.json", corpus20_path, tmp_path / "out")
    with pytest.raises(ValidationError, match="^unknown config override 'bogus'$"):
        pipeline.load_config(path, bogus=1)


def test_every_override_flag_is_an_option_of_every_command_and_sets_its_key(tmp_path,
                                                                            corpus20_path):
    # cli.main takes each OVERRIDES flag from the parsed arguments: a flag some command lacked
    # would end in a KeyError, not exit 1
    path = write_config(tmp_path / "cfg.json", corpus20_path, tmp_path / "out")
    values = {flag: str(number) for number, flag in enumerate(pipeline.OVERRIDES, start=7)}
    flags = [arg for flag, value in values.items() for arg in (f"--{flag}", value)]
    for command in pipeline.COMMANDS:
        files = ["filled.tsv"] if command == "annotate-aggregate" else []
        args = vars(build_parser().parse_args([command, "--config", str(path), *flags, *files]))
        config = pipeline.load_config(path, **{flag: args[flag] for flag in pipeline.OVERRIDES})
        for flag, (key, _, _) in pipeline.OVERRIDES.items():
            assert args[flag] in (values[flag], int(values[flag])), (command, flag)
            assert reduce(getattr, key.split("."), config) == args[flag], (command, flag)


def test_a_value_nested_too_deep_to_quote_is_named_not_quoted():
    # JSON parses a few calls short of the recursion limit, so a value that parsed may still
    # be too deep to quote back in an error message.
    value = []
    for _ in range(100_000):
        value = [value]
    assert config_value(value) == "a value nested too deep to quote"


@pytest.mark.parametrize("settings, message", [
    ({"seed": [10**5000]}, "'explain.seed' must be an integer"),
    # check_fields refuses it before check_range could: JSON cannot spell it
    ({"records": -10**5000}, "'explain.records' must be an integer"),
])
def test_a_settings_value_too_long_to_quote_is_named_not_quoted(settings, message):
    # json.dumps refuses an integer of over 4,300 digits; only a library caller can pass one.
    with pytest.raises(ValidationError, match=f"^config key {message}, got a value too long to "
                                              "quote$"):
        pipeline.ExplainSettings(**settings)


@pytest.mark.parametrize("key, wanted, config", [
    ("explain.seed", "an integer",
     lambda n: pipeline.PipelineConfig("c.jsonl", "out", explain=pipeline.ExplainSettings(seed=n))),
    ("train.learning_rate", "a number",
     lambda n: pipeline.PipelineConfig("c.jsonl", "out", train=TrainConfig(learning_rate=n))),
    ("ratios", "three numbers", lambda n: pipeline.PipelineConfig("c.jsonl", "out",
                                                                  ratios=(n, 0.5, 0.5))),
])
def test_an_integer_json_cannot_spell_is_refused_by_check_fields(key, wanted, config):
    # config_hash hashes the settings' JSON text, which cannot hold an integer of 4,301 digits
    for n in (10**4300, -10**4300):
        with pytest.raises(ValidationError, match=f"^config key {key!r} must be {wanted}, got a "
                                                  "value too long to quote$"):
            config(n)
    assert len(config(10**4300 - 1).config_hash) == 64


def test_config_saved_with_a_byte_order_mark_loads_as_without(tmp_path, corpus20_path):
    plain = write_config(tmp_path / "cfg.json", corpus20_path, tmp_path / "out", split_seed=7)
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())  # UTF-8's byte order mark
    assert pipeline.load_config(marked) == pipeline.load_config(plain)


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
# store.check_fields. A field whose annotation is missing fails the schema fuzz test below.
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


def _dataclasses_under(hint, found: set) -> set:
    """Add to `found` every dataclass that annotation `hint` names, and those their fields name."""
    if is_dataclass(hint) and hint not in found:
        found.add(hint)
        for field_hint in get_type_hints(hint).values():
            _dataclasses_under(field_hint, found)
    for arg in get_args(hint):
        _dataclasses_under(arg, found)
    return found


def test_no_artifact_field_has_a_default_but_none():
    # from_row lets a field with a default be missing from its file, and to_row leaves out only
    # a None that is the field's default; any other default would let a file omit the field.
    found = set()
    for spec in pipeline.ARTIFACTS.values():
        _dataclasses_under(spec.cls, found)
    assert {pipeline.EvalReport, pipeline.HighlightRecord, pipeline.CorpusStats} <= found
    defaults = sorted(f"{cls.__name__}.{f.name}" for cls in found for f in fields(cls)
                      if f.default_factory is not MISSING or f.default not in (MISSING, None))
    assert defaults == []


@pytest.fixture(scope="module")
def run_values(tmp_path_factory):
    """{artifact file name: decoded value} of each artifact with a header, after run_all on the
    20-record fixture and a report that merges annotation means."""
    tmp = tmp_path_factory.mktemp("codec")
    config = pipeline.load_config(cli_config(tmp, FIXTURES / "corpus20.jsonl"))
    pipeline.run_all(config)
    pipeline.run_command(config, "annotate-export", n=2)
    filled = _fill_annotation_tasks(config.artifact(pipeline.ANNOTATION_TASKS), tmp / "filled.tsv")
    pipeline.run_command(config, "annotate-aggregate", files=[str(filled)])
    pipeline.run_command(config, "report")
    return {name: pipeline._read(config, name, config.config_hash)[1]
            for name, spec in pipeline.ARTIFACTS.items() if spec.kind is not None}


def _instances(value, found: dict) -> dict:
    """Add to `found` the first instance of each dataclass in `value`, searched depth first."""
    if is_dataclass(value):
        found.setdefault(type(value), value)
        value = [getattr(value, f.name) for f in fields(value)]
    elif isinstance(value, Mapping):
        value = list(value.values())
    for item in value if isinstance(value, (list, tuple)) else ():
        _instances(item, found)
    return found


# The JSON types an artifact value may have, per field annotation, decided here apart from
# store.value_rule: a dataclass or a dict is an object, a list or tuple a list, and the rest
# as below. A field whose annotation is not covered fails the codec fuzz test.
ARTIFACT_JSON_TYPES = {
    str: {"string"}, int: {"int"}, float: {"int", "float"}, dict: {"object"},
    int | None: {"int", "null"}, float | None: {"int", "float", "null"},
    VerdictLabel: {"string"}, Literal["sentence", "token"]: {"string"},
    Literal["exact", "sampled"]: {"string"}, AnnotationSummary | None: {"object", "null"},
}


def _artifact_json_types(hint) -> set:
    if is_dataclass(hint) or get_origin(hint) is dict:
        return {"object"}
    if get_origin(hint) in (list, tuple):
        return {"list"}
    return ARTIFACT_JSON_TYPES[hint]


ARTIFACT_VALUES = {
    **JSON_VALUES,
    "string": st.sampled_from(["Supports", "Refutes", "exact", "token", "c00001"])
    | st.text(max_size=8),
    "list": st.lists(st.integers(0, 1) | st.floats(0.0, 1.0) | st.sampled_from(["c00001", "x"]),
                     max_size=4),
    "object": st.dictionaries(st.sampled_from(["n", "Supports", "Entailment", "test"]),
                              st.integers(0, 3) | st.none(), max_size=2),
}


def _expect_decoded_or_named(cls, row: dict, name: str, fits: bool) -> None:
    """from_row returns an instance only when the value of field `name` fits its annotation, and
    then to_row gives the row back; otherwise it raises a ValidationError naming the path to
    the value. A fitting value may also fail the class's invariants, or a check below it."""
    try:
        decoded = from_row(cls, row)
    except ValidationError as exc:
        named = re.match(rf"field '{re.escape(name)}['.\[]", str(exc))
        invariant = not str(exc).startswith(("field '", "unknown field"))
        assert named or fits and invariant, f"{cls.__name__}.{name}: {row.get(name, '…')!r}: {exc}"
        return
    assert fits, f"{cls.__name__}.{name} = {row.get(name, 'nothing')!r} was accepted"
    left_out = {f.name for f in fields(cls) if f.default is None and row.get(f.name) is None}
    assert to_row(decoded) == {key: item for key, item in row.items() if key not in left_out}, \
        f"{cls.__name__}.{name} = {row.get(name, 'nothing')!r}"


# No shrinking: a failing example is reported as drawn, which keeps a failing run short.
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(data=st.data())
def test_artifact_codec_fuzz_every_field_with_every_json_type(run_values, data):
    found = {}
    for name, value in run_values.items():
        spec = pipeline.ARTIFACTS[name]
        for record in value.values() if spec.key else (value,):
            assert from_row(spec.cls, to_row(record)) == record, name
        _instances(value, found)
    reachable = set()
    for spec in pipeline.ARTIFACTS.values():
        _dataclasses_under(spec.cls, reachable)
    assert set(found) == reachable
    for cls, instance in found.items():
        row = to_row(instance)
        with pytest.raises(ValidationError, match="^unknown field 'undeclared'$"):
            from_row(cls, {**row, "undeclared": 0})
        for f in fields(cls):
            json_types = _artifact_json_types(get_type_hints(cls)[f.name])
            for json_type, values in ARTIFACT_VALUES.items():
                value = data.draw(values, label=f"{cls.__name__}.{f.name} as {json_type}")
                _expect_decoded_or_named(cls, {**row, f.name: value}, f.name,
                                         json_type in json_types)
            missing = {key: item for key, item in row.items() if key != f.name}
            _expect_decoded_or_named(cls, missing, f.name, f.default is not MISSING)


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
    pipeline.run_command(config, "ingest")
    pipeline.run_command(config, "split")
    with pytest.raises(ValidationError, match="no-such-backend"):
        pipeline.run_command(config, "rationales")


# ---------------------------------------------------------------------------
# Stage DAG and provenance


def test_stage_requires_upstream_artifacts(fixture_config):
    pipeline.run_command(fixture_config, "ingest")
    with pytest.raises(ValidationError, match="^stage 'predict' needs missing artifact "
                                              "rationales.jsonl; run earlier stages first$"):
        pipeline.run_command(fixture_config, "predict")


def test_unknown_stage_rejected(fixture_config):
    with pytest.raises(ValidationError, match="'frobnicate'; commands: ingest, stats, split"):
        pipeline.run_command(fixture_config, "frobnicate")


def test_artifacts_from_other_config_rejected(tmp_path, corpus20_path):
    out = tmp_path / "out"
    out.mkdir()
    first = pipeline.load_config(write_config(tmp_path / "a.json", corpus20_path, out))
    pipeline.run_command(first, "ingest")
    second = pipeline.load_config(write_config(tmp_path / "b.json", corpus20_path, out,
                                               split_seed=7))
    with pytest.raises(ValidationError, match="^corpus_clean.jsonl: artifact was produced under "
                                              "config '[0-9a-f]{64}', current config is "
                                              "'[0-9a-f]{64}'$"):
        pipeline.run_command(second, "split")


def test_manifest_records_stages_and_input_hashes(fixture_config):
    pipeline.run_command(fixture_config, "ingest")
    pipeline.run_command(fixture_config, "split")
    entries = [json.loads(line) for line in
               fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines()]
    assert [e["stage"] for e in entries] == ["ingest", "split"]
    assert all(e["config_hash"] == fixture_config.config_hash for e in entries)
    assert entries[1]["input_hashes"]["corpus_clean"] == \
        file_sha256(fixture_config.artifact(pipeline.CORPUS_CLEAN))


def test_manifest_lines_keep_their_keys_and_encoding(tmp_path, fixture_config):
    pipeline.run_all(fixture_config)
    filled = tmp_path / "évaluation-評価" / "filled.tsv"
    filled.parent.mkdir()
    filled.write_text("item_id\tclaim\tnle\tplausibility\tfluency\tcorrectness\tannotator_id"
                      "\tsystem_id\nc1\tclaim\tnle\t4\t4\t4\ta1\tsys\n", encoding="utf-8")
    pipeline.run_command(fixture_config, "annotate-aggregate", files=[str(filled)])
    data = fixture_config.artifact(pipeline.MANIFEST).read_bytes()
    lines = data.decode("utf-8").splitlines()
    assert len(lines) == 11 and data.endswith(b"\n")
    for line in lines:
        entry = json.loads(line)
        assert line == json.dumps(entry, ensure_ascii=False)
        assert list(entry) == ["stage", "config_hash", "input_hashes", "output_hashes",
                               "timestamp"]
    assert list(json.loads(lines[-1])["input_hashes"]) == [str(filled)]
    assert str(filled).encode("utf-8") in data and b"\\u" not in data  # raw UTF-8, unescaped


def test_readme_names_every_manifest_key_in_order(fixture_config):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.search(r"\| key \| value \|\n\| --- \| --- \|\n((?:\|.*\n)+)", readme).group(1)
    documented = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert len(documented) == len(table.splitlines())
    pipeline.run_all(fixture_config)
    for line in fixture_config.artifact(pipeline.MANIFEST).read_text(encoding="utf-8").splitlines():
        assert list(json.loads(line)) == documented


def test_readme_quick_start_runs_the_commands_of_steps_in_order():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"then run the stages in order:\n\n```sh\n(.*?)```", readme, re.S).group(1)
    documented = re.findall(r"^claimcheck (\S+) +--config config\.json$", block, re.M)
    assert len(documented) == len(block.splitlines())
    assert documented == [name for names in pipeline.STEPS.values() for name in names]


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


def test_token_explain_attributes_each_evidence_token(tmp_path, corpus20_path):
    config = pipeline.load_config(cli_config(tmp_path, corpus20_path,
                                             explain={"granularity": "token", "permutations": 5}))
    pipeline.run_all(config)
    records = {r["id"]: r for r in map(json.loads, config.artifact(pipeline.CORPUS_CLEAN)
                                       .read_text().splitlines()[1:])}
    explained = json.loads(config.artifact(pipeline.HIGHLIGHTS).read_text())["records"]
    assert explained
    for record in explained:
        assert record["granularity"] == "token"
        assert record["features"] == evidence_features(records[record["record_id"]]["evidence"],
                                                       "token")
        assert record["polarity"] == list(map(polarity, record["phi"]))


FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture
def explain_cpus(monkeypatch):
    """use(cpus, cpus_from) sets the CPUs explain may use, through os.sched_getaffinity or,
    with that deleted as on macOS, through os.cpu_count, and returns the worker count of each
    pool explain has started; the value-call threshold of the pool is lifted."""
    pools = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(errors, "EXPLAIN_POOL_MIN_VALUE_CALLS", 0)

    def use(cpus, cpus_from="sched_getaffinity"):
        if cpus_from == "sched_getaffinity":
            monkeypatch.setattr(os, cpus_from, lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return pools
    return use


def _explain_inputs(tmp_path, **extra):
    """A config over 40 records of 8-12 sentences, run up to rationales; explain takes 6."""
    corpus = write_corpus(tmp_path / "corpus.jsonl", make_rows(40, 20))
    config = cli_config(tmp_path, corpus, **extra)
    for cmd in UPSTREAM[:3]:
        assert main([cmd, "--config", str(config)]) == 0
    return config


@pytest.mark.skipif(not FORK, reason="explain starts worker processes by fork only")
@pytest.mark.filterwarnings("error::DeprecationWarning")  # a fork while threads run, on 3.12+
@pytest.mark.parametrize("granularity, methods, cpus_from", [
    ("sentence", ["exact", "sampled"], "sched_getaffinity"),
    ("token", ["sampled"], "sched_getaffinity"),
    ("sentence", ["exact", "sampled"], "cpu_count"),
])
def test_explain_in_worker_processes_writes_the_same_bytes(granularity, methods, cpus_from,
                                                          tmp_path, explain_cpus):
    config = _explain_inputs(tmp_path, explain={"records": 6, "granularity": granularity,
                                                "permutations": 10})
    written, in_process = {}, 1 if cpus_from == "sched_getaffinity" else None
    for cpus in (in_process, 2):
        pools = explain_cpus(cpus, cpus_from)
        assert main(["explain", "--config", str(config)]) == 0
        written[cpus] = [(tmp_path / "out" / name).read_bytes()
                         for name in (pipeline.HIGHLIGHTS, pipeline.HIGHLIGHTS_HTML)]
    assert pools == [2]  # one CPU, or a count unknown: in this process; two: two workers
    assert written[in_process] == written[2]
    explained = json.loads(written[2][0])["records"]
    assert len(explained) == 6
    assert sorted({record["method"] for record in explained}) == methods


class FailingSummarizer(LeadSummarizer):
    """Fails on one coalition, the evidence text `fail_on`: raises, or, if `die` is set and it
    runs in another process than `parent`, ends that process."""

    identity = "stub-failing"
    fail_on = None
    die = False
    parent = None

    def summarize(self, evidence, config):
        if evidence == self.fail_on:
            if self.die and os.getpid() != self.parent:
                os._exit(1)
            raise RuntimeError("model OOM")
        return super().summarize(evidence, config)


@pytest.fixture
def failing_explain(tmp_path, monkeypatch):
    """A config whose summarizer fails on one coalition of the second record explain takes:
    its first sentence alone, which exact enumeration values."""
    monkeypatch.setitem(pipeline.SUMMARIZER_BACKENDS, FailingSummarizer.identity,
                        FailingSummarizer)
    monkeypatch.setattr(FailingSummarizer, "parent", os.getpid())
    config = _explain_inputs(tmp_path, backends={"summarizer": FailingSummarizer.identity},
                             explain={"records": 6})
    evidence = {r["id"]: r["evidence"] for r in map(json.loads, (
        tmp_path / "out" / pipeline.CORPUS_CLEAN).read_text().splitlines()[1:])}
    test_ids = json.loads((tmp_path / "out" / pipeline.SPLITS).read_text())["test"]
    features = [evidence_features(evidence[i]) for i in test_ids[:6]]
    assert len(features[1]) <= 10
    monkeypatch.setattr(FailingSummarizer, "fail_on", features[1][0])
    return config


@pytest.mark.skipif(not FORK, reason="explain starts worker processes by fork only")
def test_explain_worker_backend_failure_exits_two_as_in_process(failing_explain, tmp_path,
                                                               explain_cpus, capsys):
    # the failed record is named, the other five are written, the same way in both
    capsys.readouterr()
    failed = json.loads((tmp_path / "out" / pipeline.SPLITS).read_text())["test"][1]
    err, written = {}, {}
    for cpus in (1, 2):
        pools = explain_cpus(cpus)
        assert main(["explain", "--config", str(failing_explain)]) == 2
        err[cpus] = capsys.readouterr().err.splitlines()[-1]
        written[cpus] = [(tmp_path / "out" / name).read_bytes()
                         for name in (pipeline.HIGHLIGHTS, pipeline.HIGHLIGHTS_HTML)]
        assert multiprocessing.active_children() == []
    assert pools == [2]
    assert err[1] == err[2] == f"backend error: explain: 1 of its records failed and the others " \
                               f"were written; the first, {failed!r}: backend failure: summarizer " \
                               "'stub-failing': model OOM"
    assert written[1] == written[2]
    explained = [r["record_id"] for r in json.loads(written[2][0])["records"]]
    assert len(explained) == 5 and failed not in explained


@pytest.mark.skipif(not FORK, reason="explain starts worker processes by fork only")
def test_explain_worker_that_dies_exits_two(failing_explain, tmp_path, explain_cpus, capsys,
                                            monkeypatch):
    monkeypatch.setattr(FailingSummarizer, "die", True)
    pools = explain_cpus(2)
    capsys.readouterr()
    assert main(["explain", "--config", str(failing_explain)]) == 2
    err = capsys.readouterr().err
    assert pools == [2]
    assert err.startswith("backend error: an explain worker process died: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / pipeline.HIGHLIGHTS).exists()
    assert multiprocessing.active_children() == []


FAIL_ON: list[str] = []  # the FailOn stubs raise on an input that holds one of these texts


def _fail_on(text):
    if any(marker in text for marker in FAIL_ON):
        raise RuntimeError("model OOM")


class FailOnSummarizer(LeadSummarizer):
    identity = "stub-fail-on"

    def summarize(self, evidence, config):
        _fail_on(evidence)
        return super().summarize(evidence, config)


class FailOnModel(MemorizingBackend):
    def generate(self, prompt):
        _fail_on(prompt)
        return super().generate(prompt)


@pytest.fixture
def fail_on_record(tmp_path, monkeypatch):
    """A config over 40 records whose three backends are FailOn stubs, run up to split, and the
    first test record's id and its texts that FAIL_ON may hold: its claim, which the classifier
    and NLI prompts quote, and its first evidence sentence, which its whole evidence holds: what
    rationales summarizes, and what explain summarizes first for the record's reference."""
    for registry, factory in (("SUMMARIZER_BACKENDS", FailOnSummarizer),
                              ("CLASSIFIER_BACKENDS", partial(FailOnModel, "stub-fail-on")),
                              ("NLI_BACKENDS", partial(FailOnModel, "stub-fail-on", NLI_CHOICES))):
        monkeypatch.setitem(getattr(pipeline, registry), "stub-fail-on", factory)
    backends = {role: "stub-fail-on" for role in ("summarizer", "classifier", "nli")}
    config = cli_config(tmp_path, write_corpus(tmp_path / "corpus.jsonl", make_rows(40, 20)),
                        backends=backends)
    for cmd in ("ingest", "split"):
        assert main([cmd, "--config", str(config)]) == 0
    records = {r["id"]: r for r in map(json.loads, (
        tmp_path / "out" / pipeline.CORPUS_CLEAN).read_text().splitlines()[1:])}
    chosen = json.loads((tmp_path / "out" / pipeline.SPLITS).read_text())["test"][0]
    markers = [records[chosen]["claim"], evidence_features(records[chosen]["evidence"])[0]]
    assert not any(m in r["claim"] + r["evidence"] for i, r in records.items() if i != chosen
                   for m in markers)
    yield config, chosen, markers
    FAIL_ON.clear()


def _record_ids(text):
    return [json.loads(line)["record_id"] for line in text.splitlines()[1:]]


# stage: (the commands before it, the file it writes, what that file holds of the records, the
# backend role that fails)
PER_RECORD_STAGES = {
    "rationales": ((), pipeline.RATIONALES, _record_ids, "summarizer"),
    "predict": (("rationales", "train"), pipeline.PREDICTIONS, _record_ids, "classifier"),
    "explain": (("rationales",), pipeline.HIGHLIGHTS,
                lambda text: [r["record_id"] for r in json.loads(text)["records"]], "summarizer"),
    "eval-nli": (("rationales", "train", "predict", "nle"), pipeline.EVAL_NLI,
                 lambda text: json.loads(text)["total"], "NLI"),
}


def test_explain_attributes_no_test_record_whose_rationale_failed(tmp_path, corpus20_path,
                                                                 monkeypatch):
    # the summarizer fails on the first test record's evidence while rationales runs, and no
    # longer when explain runs: explain takes the next test record instead
    monkeypatch.setitem(pipeline.SUMMARIZER_BACKENDS, FailingSummarizer.identity,
                        FailingSummarizer)
    config = cli_config(tmp_path, corpus20_path, explain={"records": 1, "permutations": 8},
                        backends={"summarizer": FailingSummarizer.identity})
    for cmd in UPSTREAM[:2]:
        assert main([cmd, "--config", str(config)]) == 0
    out = tmp_path / "out"
    test_ids = json.loads((out / pipeline.SPLITS).read_text())["test"]
    evidence = {r["id"]: r["evidence"] for r in map(json.loads, (
        out / pipeline.CORPUS_CLEAN).read_text().splitlines()[1:])}
    monkeypatch.setattr(FailingSummarizer, "fail_on", evidence[test_ids[0]])
    assert main(["rationales", "--config", str(config)]) == 2
    monkeypatch.setattr(FailingSummarizer, "fail_on", None)
    assert main(["explain", "--config", str(config)]) == 0
    explained = json.loads((out / pipeline.HIGHLIGHTS).read_text())["records"]
    assert [record["record_id"] for record in explained] == [test_ids[1]]


@pytest.mark.parametrize("stage", list(PER_RECORD_STAGES))
def test_a_failed_record_is_named_and_the_others_written_before_exit_two(stage, fail_on_record,
                                                                        tmp_path, capsys, caplog):
    config, chosen, markers = fail_on_record
    before, output, held, role = PER_RECORD_STAGES[stage]
    reason = f"backend failure: {role} 'stub-fail-on': model OOM"
    for cmd in (*before, stage):
        assert main([cmd, "--config", str(config)]) == 0
    path, manifest = tmp_path / "out" / output, tmp_path / "out" / pipeline.MANIFEST
    clean = held(path.read_text())
    capsys.readouterr()
    FAIL_ON[:] = markers
    assert main([stage, "--config", str(config)]) == 2
    written = held(path.read_text())
    if stage == "eval-nli":
        assert written == clean - 1
    else:
        assert chosen in clean and written == [i for i in clean if i != chosen]
    assert capsys.readouterr().err == (f"backend error: {stage}: 1 of its records failed and "
                                       f"the others were written; the first, {chosen!r}: "
                                       f"{reason}\n")
    assert f"record {chosen} failed: {reason}" in caplog.text

    # every record fails: the first error, and nothing written
    entries = manifest.read_text().count("\n")
    path.unlink()
    FAIL_ON[:] = [""]
    assert main([stage, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"backend error: {reason}\n"
    assert not path.exists()
    assert manifest.read_text().count("\n") == entries


def test_a_record_without_a_rationale_is_skipped_downstream_with_warnings(fail_on_record,
                                                                         tmp_path, caplog):
    config, chosen, markers = fail_on_record
    FAIL_ON[:] = markers
    assert main(["rationales", "--config", str(config)]) == 2
    FAIL_ON.clear()
    for cmd in ("train", "predict", "nle", "eval-f1"):
        assert main([cmd, "--config", str(config)]) == 0
    assert f"no rationale for 1 records; skipped: {chosen}" in caplog.text
    assert "test split: 1 records lack predictions" in caplog.text
    predicted = _record_ids((tmp_path / "out" / pipeline.PREDICTIONS).read_text())
    assert len(predicted) == 39 and chosen not in predicted


def test_records_of_ids_a_later_ingest_replaced_are_refused(tmp_path, corpus20_path, capsys):
    # Rationales made before rows 10-19 were replaced by records of new ids: train refuses
    # them, rather than fit on the records the two corpora share.
    rows = [json.loads(line) for line in corpus20_path.read_text().splitlines()]
    corpus = write_corpus(tmp_path / "corpus.jsonl", rows)
    config = cli_config(tmp_path, corpus)
    for cmd in ("ingest", "split", "rationales"):
        assert main([cmd, "--config", str(config)]) == 0
    write_corpus(corpus, rows[:10] + [{**row, "id": f"n{row['id']}"} for row in rows[10:]])
    for cmd in ("ingest", "split"):
        assert main([cmd, "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr().err == ("error: rationales.jsonl: record id 'c00010' is not in "
                                       "corpus_clean.jsonl; rerun the stage that writes it\n")
    assert not (tmp_path / "out" / pipeline.MODEL_STATE).exists()


def test_a_killed_writers_temporary_file_is_deleted_by_the_next_write(tmp_path, corpus20_path):
    config = cli_config(tmp_path, corpus20_path)
    for cmd in UPSTREAM[:4]:
        assert main([cmd, "--config", str(config)]) == 0
    stale = tmp_path / "out" / ".predictions.jsonl.12345.tmp"
    stale.write_text("half a store")
    assert main(["predict", "--config", str(config)]) == 0
    assert not stale.exists()


def test_ingest_rerun_is_byte_identical(fixture_config):
    pipeline.run_command(fixture_config, "ingest")
    first = fixture_config.artifact(pipeline.CORPUS_CLEAN).read_bytes()
    stats_first = fixture_config.artifact(pipeline.CORPUS_STATS).read_bytes()
    pipeline.run_command(fixture_config, "ingest")
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
    summary = pipeline.run_command(config, "ingest")
    assert summary["total"] == 2
    assert summary["dropped_ids"] == [rows[1]["id"]]


def test_limit_restricts_ingest(fixture_config):
    assert pipeline.run_command(replace(fixture_config, limit=5), "ingest")["total"] == 5


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


def test_cli_stats_appends_no_manifest_entry(tmp_path, corpus20_path):
    # a command that writes nothing leaves the manifest as it was
    config = cli_config(tmp_path, corpus20_path)
    assert main(["ingest", "--config", str(config)]) == 0
    manifest = tmp_path / "out" / pipeline.MANIFEST
    before = manifest.read_bytes()
    assert main(["stats", "--config", str(config)]) == 0
    assert manifest.read_bytes() == before


def test_cli_eval_f1_scores_no_split_without_records(tmp_path, corpus20_path):
    # ratios [1, 0, 0] leave validation and test empty: nothing is scored, and that is no error
    config = cli_config(tmp_path, corpus20_path, ratios=[1, 0, 0])
    for cmd in (*UPSTREAM, "eval-f1"):
        assert main([cmd, "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / pipeline.EVAL_F1).read_text())
    assert report["macro_f1"] == {"validation": None, "test": None}
    assert report["scored"] == {"validation": 0, "test": 0}


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


class UnconfigurableClassifier(MemorizingBackend):
    def __init__(self):
        super().__init__("stub-no-loss")

    def configure(self, settings):
        raise RuntimeError(f"no loss named {settings.loss!r}")


def _missing_weights():
    raise RuntimeError("weights missing")


# case: (registry, config role, backend id, factory, failing command, error text)
BACKEND_FAILURES = {
    "undecodable NLI output": ("NLI_BACKENDS", "nli", "stub-junk", JunkNliBackend, "eval-nli",
                               "banana"),
    "classifier raising in train": ("CLASSIFIER_BACKENDS", "classifier", "stub-oom",
                                    OutOfMemoryClassifier, "train",
                                    "classifier 'stub-oom': model OOM"),
    "classifier refusing its settings": ("CLASSIFIER_BACKENDS", "classifier", "stub-no-loss",
                                         UnconfigurableClassifier, "train",
                                         "classifier 'stub-no-loss': no loss named "
                                         "'cross-entropy'"),
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


def test_cli_train_refuses_a_classifier_that_is_not_trainable(tmp_path, corpus20_path, capsys,
                                                              monkeypatch):
    monkeypatch.setitem(pipeline.CLASSIFIER_BACKENDS, "stub-junk", JunkNliBackend)
    config = cli_config(tmp_path, corpus20_path, backends={"classifier": "stub-junk"})
    for cmd in ("ingest", "split", "rationales"):
        assert main([cmd, "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 1
    assert "error: classifier backend 'stub-junk' is not trainable" in capsys.readouterr().err
    assert not (tmp_path / "out" / pipeline.MODEL_STATE).exists()


def test_train_hands_the_classifier_its_settings_before_the_first_step(tmp_path, corpus20_path,
                                                                      monkeypatch):
    # fine_tune runs batch_size, epochs, eval_every_steps and seed itself; the other settings,
    # such as loss, reach the backend only through configure
    calls = []

    class RecordingClassifier(MemorizingBackend):
        def configure(self, settings):
            calls.append(settings)

        def train_step(self, batch):
            calls.append("train_step")
            return super().train_step(batch)

    monkeypatch.setitem(pipeline.CLASSIFIER_BACKENDS, "stub-recording",
                        partial(RecordingClassifier, "stub-recording"))
    config = cli_config(tmp_path, corpus20_path, train={"loss": "hinge"},
                        backends={"classifier": "stub-recording"})
    for cmd in ("ingest", "split", "rationales", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    settings, *steps = calls
    assert settings == pipeline.load_config(config).train and settings.loss == "hinge"
    assert steps and set(steps) == {"train_step"}


class FrozenClassifier(Text2TextBackend):
    """A classifier that cannot be fine-tuned, registered under the trained one's id."""

    identity = "stub-memorizing"

    def generate(self, prompt):
        return "Supports"


def test_cli_predict_refuses_a_classifier_that_is_not_trainable(tmp_path, corpus20_path, capsys,
                                                                monkeypatch):
    # predict restores the state train wrote; a classifier that cannot take it would predict
    # with the trained state silently dropped
    config = cli_config(tmp_path, corpus20_path)
    for cmd in ("ingest", "split", "rationales", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    monkeypatch.setitem(pipeline.CLASSIFIER_BACKENDS, "stub-memorizing", FrozenClassifier)
    capsys.readouterr()
    assert main(["predict", "--config", str(config)]) == 1
    assert "error: classifier backend 'stub-memorizing' is not trainable" in capsys.readouterr().err
    assert not (tmp_path / "out" / pipeline.PREDICTIONS).exists()


def test_predict_refuses_a_model_state_written_for_another_registered_classifier(
        fixture_config, monkeypatch):
    # predict builds the config's classifier, and a model state trained for another one,
    # even one that is registered, is refused before anything is written.
    monkeypatch.setitem(pipeline.CLASSIFIER_BACKENDS, "other", partial(MemorizingBackend, "other"))
    pipeline.run_all(fixture_config)
    model, predictions = (fixture_config.artifact(name)
                          for name in (pipeline.MODEL_STATE, pipeline.PREDICTIONS))
    before = predictions.read_bytes()
    _set_key("backend_id", "other")(model)
    with pytest.raises(CorruptArtifact, match="^model_state.json: written for classifier 'other', "
                                              "not the config's 'stub-memorizing'; rerun"):
        pipeline.run_command(fixture_config, "predict")
    assert predictions.read_bytes() == before


class UnnamedSummarizer(LeadSummarizer):
    identity = SummarizationBackend.identity  # the interface's default, "unspecified"


def test_cli_refuses_a_backend_registered_under_another_id(tmp_path, corpus20_path, capsys,
                                                           monkeypatch):
    # A rationale records its summarizer's identity, which every later command checks
    # against the config; a mismatch must stop the run before rationales.jsonl is written.
    monkeypatch.setitem(pipeline.SUMMARIZER_BACKENDS, "my-summarizer", UnnamedSummarizer)
    config = cli_config(tmp_path, corpus20_path, backends={"summarizer": "my-summarizer"})
    for cmd in ("ingest", "split"):
        assert main([cmd, "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["rationales", "--config", str(config)]) == 1
    assert ("error: summarizer backend 'my-summarizer' has identity 'unspecified'; register it "
            "under its identity") in capsys.readouterr().err
    assert not (tmp_path / "out" / pipeline.RATIONALES).exists()


def test_cli_ingest_prints_the_ids_it_dropped_and_only_then(tmp_path, capsys):
    rows = make_rows(3, 2)
    blocked = {**rows[1], "evidence": "As CNN reported, this happened."}
    config = cli_config(tmp_path, write_corpus(tmp_path / "c.jsonl", [rows[0], blocked, rows[2]]))
    assert main(["ingest", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "records: 2\n" in out
    assert f"dropped (evidence fully blocklisted): {blocked['id']}\n" in out
    write_corpus(tmp_path / "c.jsonl", rows)
    assert main(["ingest", "--config", str(config)]) == 0
    assert "dropped" not in capsys.readouterr().out


# Any JSON value; and objects of the seven corpus fields, each field a JSON value, often one
# that a record may hold (text, a number or a boolean), so that some lines are records.
JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
CORPUS_ROWS = st.fixed_dictionaries({
    name: st.sampled_from(["True", "Refutes", "A claim. Its evidence."]) | st.booleans()
    | st.integers() | JSON_ANY for name in FIELD_ORDER})


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=JSON_ANY | CORPUS_ROWS)
def test_cli_ingest_of_any_json_value_on_a_corpus_line_exits_zero_or_one(tmp_path, capsys, line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(line) + "\n", encoding="utf-8")
    status = main(["ingest", "--config", str(cli_config(tmp_path, corpus))])  # never raises
    err = capsys.readouterr().err
    assert status == 0 or status == 1 and "error: " in err, (status, err)
    assert "Traceback" not in err


def test_cli_bad_usage_exits_one(capsys):
    assert main(["ingest"]) == 1  # --config is required
    assert main(["no-such-command", "--config", "x"]) == 1


def test_cli_run_stage_flag(tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["split", "--config", str(config)]) == 0
    assert (tmp_path / "out" / pipeline.SPLITS).exists()
    capsys.readouterr()
    assert main(["predict", "--config", str(config)]) == 1  # DAG enforced
    assert main(["run", "--config", str(config), "--stage", "split"]) == 1  # no such command


def test_cli_subcommands_are_exactly_the_commands():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(pipeline.COMMANDS)


def _fill_annotation_tasks(tasks_path, filled_path):
    """Fill the exported tasks as one annotator would; return the filled file's path."""
    filled = []
    for line in tasks_path.read_text().splitlines():
        if line.startswith("#") or line.startswith("item_id"):
            filled.append(line)
            continue
        cols = line.split("\t")
        cols[3:7] = ["4", "5", "3", "a1"]
        filled.append("\t".join(cols))
    filled_path.write_text("\n".join(filled) + "\n")
    return filled_path


def test_cli_annotation_round_trip_and_report(tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path, annotation={"n": 3, "seed": 1})
    for cmd in ("ingest", "split", "rationales", "train", "predict", "nle",
                "eval-f1", "eval-nli"):
        assert main([cmd, "--config", str(config)]) == 0
    assert main(["annotate-export", "--config", str(config), "--n", "2"]) == 0
    filled_path = _fill_annotation_tasks(tmp_path / "out" / pipeline.ANNOTATION_TASKS,
                                         tmp_path / "filled.tsv")

    assert main(["annotate-aggregate", "--config", str(config), str(filled_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / pipeline.EVAL_REPORT).read_text())
    assert report["annotation"]["per_system"]["claimcheck"]["fluency"] == 5.0
    assert "macro_f1" in report and "nli" in report


def test_report_carries_the_annotation_summary_as_aggregated(fixture_config, tmp_path):
    pipeline.run_all(fixture_config)
    pipeline.run_command(fixture_config, "annotate-export", n=2)
    filled = _fill_annotation_tasks(fixture_config.artifact(pipeline.ANNOTATION_TASKS),
                                    tmp_path / "filled.tsv")
    pipeline.run_command(fixture_config, "annotate-aggregate", files=[str(filled)])
    pipeline.run_command(fixture_config, "report")
    report, summary = (json.loads(fixture_config.artifact(name).read_text())
                       for name in (pipeline.EVAL_REPORT, pipeline.ANNOTATION_SUMMARY))
    del summary["kind"], summary["config_hash"]
    assert report["annotation"] == summary
    assert (summary["n_items"], summary["n_annotators"]) == (2, 1)


ANNOTATION_HEADER = "item_id\tclaim\tnle\tplausibility\tfluency\tcorrectness\tannotator_id\tsystem_id"
ANNOTATION_ROWS = ["c1\tclaim\tnle\t4\t5\t3\ta1\tsys", "c2\tclaim\tnle\t2\t2\t2\ta1\tsys"]
NOT_THE_COLUMNS = ("the header row must name each of the columns item_id, claim, nle, "
                   "plausibility, fluency, correctness, annotator_id, system_id exactly once")
RATED_TWICE = "item 'c1' is rated twice by annotator {!r} for system 'sys'"
C1_FIVES, C2_ONES = "c1\tclaim\tnle\t5\t5\t5\ta1\tsys", "c2\tclaim\tnle\t1\t1\t1\ta1\tsys"


# each case: the lines of each file given, in order; the message names the last file
@pytest.mark.parametrize("files, message", [
    ([ANNOTATION_ROWS[:1]], NOT_THE_COLUMNS),  # its one row read as the header: no rating at all
    ([[line.rsplit("\t", 1)[0] for line in (ANNOTATION_HEADER, *ANNOTATION_ROWS)]],
     NOT_THE_COLUMNS),
    ([[ANNOTATION_HEADER.replace("fluency", "fluence"), *ANNOTATION_ROWS]], NOT_THE_COLUMNS),
    ([[f"{ANNOTATION_HEADER}\tsystem_id", *(f"{row}\tsys" for row in ANNOTATION_ROWS)]],
     NOT_THE_COLUMNS),
    ([[ANNOTATION_HEADER, ANNOTATION_ROWS[0], ANNOTATION_ROWS[1].replace("\ta1", "")]],
     "row 2 holds 7 values, not one per column (8)"),
    ([[ANNOTATION_HEADER, ANNOTATION_ROWS[0], f"{ANNOTATION_ROWS[1]}\tnote"]],
     "row 2 holds 9 values, not one per column (8)"),
    # 5, 5 and 1 would aggregate to a mean of 3.67 where the one rating per item gives 3.0
    ([[ANNOTATION_HEADER, C1_FIVES, C1_FIVES, C2_ONES]], RATED_TWICE.format("a1")),
    ([[ANNOTATION_HEADER, C1_FIVES, C2_ONES], [ANNOTATION_HEADER, C1_FIVES]],
     RATED_TWICE.format("a1")),
    ([[ANNOTATION_HEADER, C1_FIVES.replace("\ta1", "\t"), C1_FIVES.replace("a1", "unknown")]],
     RATED_TWICE.format("unknown")),
], ids=["header row deleted", "system_id column deleted", "misspelled column",
        "column named twice", "row missing a value", "row with an extra value",
        "item rated twice in one file", "item rated again in another file",
        "blank annotator cell rated as unknown"])
def test_annotate_aggregate_refuses_a_file_off_the_exported_columns(tmp_path, corpus20_path,
                                                                   capsys, files, message):
    config = cli_config(tmp_path, corpus20_path)
    paths = [tmp_path / f"filled{number}.tsv" for number in range(len(files))]
    for path, lines in zip(paths, files):
        path.write_text("# legend\n" + "\n".join(lines) + "\n", encoding="utf-8")
    assert main(["annotate-aggregate", "--config", str(config), *map(str, paths)]) == 1
    assert f"error: {paths[-1]}: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / pipeline.ANNOTATION_SUMMARY).exists()


def test_annotate_aggregate_averages_two_annotators_of_one_item(tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path)
    path = tmp_path / "filled.tsv"
    path.write_text("\n".join([ANNOTATION_HEADER, C1_FIVES, "c1\tclaim\tnle\t1\t1\t1\ta2\tsys"])
                    + "\n", encoding="utf-8")
    assert main(["annotate-aggregate", "--config", str(config), str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["n_items"], summary["n_annotators"]) == (1, 2)
    assert summary["per_system"]["sys"] == dict.fromkeys(CRITERIA, 3.0)


def test_annotate_aggregate_takes_the_columns_in_any_order_and_skips_empty_lines(
        tmp_path, corpus20_path, capsys):
    config = cli_config(tmp_path, corpus20_path)
    plain, shuffled = tmp_path / "plain.tsv", tmp_path / "shuffled.tsv"
    plain.write_text("\n".join([ANNOTATION_HEADER, *ANNOTATION_ROWS]) + "\n", encoding="utf-8")
    reversed_lines = ["\t".join(line.split("\t")[::-1]) for line in (ANNOTATION_HEADER,
                                                                      *ANNOTATION_ROWS)]
    shuffled.write_text("\n\n".join(reversed_lines) + "\n\n", encoding="utf-8")
    printed = []
    for path in (plain, shuffled):
        assert main(["annotate-aggregate", "--config", str(config), str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and '"n_items": 2' in printed[0]


def test_annotate_aggregate_hashes_each_filled_file_under_its_given_path(tmp_path, corpus20_path):
    config = cli_config(tmp_path, corpus20_path)
    header = "item_id\tclaim\tnle\tplausibility\tfluency\tcorrectness\tannotator_id\tsystem_id\n"
    given = []
    for folder, rating in (("a", "4"), ("b", "2")):
        path = tmp_path / folder / "filled.tsv"
        path.parent.mkdir()
        path.write_text(f"{header}c1\tclaim\tnle\t{rating}\t{rating}\t{rating}\t{folder}\tsys\n")
        given.append(str(path))
    assert main(["annotate-aggregate", "--config", str(config), *given]) == 0
    entry = json.loads((tmp_path / "out" / pipeline.MANIFEST).read_text().splitlines()[-1])
    assert entry["input_hashes"] == {path: file_sha256(path) for path in given}
    assert len(set(entry["input_hashes"].values())) == 2


def test_cli_prints_a_summary_indented_by_two_in_raw_utf8(tmp_path, corpus20_path, capsys):
    # the exact bytes of a printed summary: a 2-space indent, and non-ASCII text not escaped
    config = cli_config(tmp_path, corpus20_path)
    filled = tmp_path / "filled.tsv"
    filled.write_text("item_id\tclaim\tnle\tplausibility\tfluency\tcorrectness\tannotator_id\t"
                      "system_id\nc1\tclaim\tnle\t4\t5\t3\ta1\tsystème\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["annotate-aggregate", "--config", str(config), str(filled)]) == 0
    assert capsys.readouterr().out == """\
{
  "per_system": {
    "système": {
      "plausibility": 4.0,
      "fluency": 5.0,
      "correctness": 3.0
    }
  },
  "per_annotator": {
    "a1": {
      "plausibility": 4.0,
      "fluency": 5.0,
      "correctness": 3.0
    }
  },
  "n_items": 1,
  "n_annotators": 1
}
"""


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
    pipeline.run_command(fixture_config, "ingest")
    corpus = fixture_config.artifact(pipeline.CORPUS_CLEAN)
    original = corpus.read_bytes()
    split = pipeline.COMMANDS["split"]

    def split_then_edit_input(config, config_hash, records):
        result = split.fn(config, config_hash, records)
        corpus.write_bytes(original + b"\n")  # the file changes after it was decoded
        return result

    monkeypatch.setitem(pipeline.COMMANDS, "split", split._replace(fn=split_then_edit_input))
    pipeline.run_command(fixture_config, "split")
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


def test_a_shared_table_decodes_a_value_held_under_another_config(fixture_config):
    # the file still hashes as when ingest held it, but split runs under another config: the
    # held value must not stand in for the file, which was written under ingest's config
    table = pipeline.RunTable(["split"])
    pipeline.run_command(fixture_config, "ingest", table=table)
    with pytest.raises(ValidationError, match="^corpus_clean.jsonl: artifact was produced under "
                                              "config "):
        pipeline.run_command(replace(fixture_config, split_seed=7), "split", table=table)
    assert not fixture_config.artifact(pipeline.SPLITS).exists()


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


def _assert_same(held, decoded, where):
    """`held` equals `decoded` type for type, recursively: a dataclass field by field, a tuple
    as a tuple, a list as a list, and a mapping with the same (enum or string) keys."""
    assert type(held) is type(decoded), (where, type(held), type(decoded))
    if is_dataclass(held):
        for f in fields(held):
            _assert_same(getattr(held, f.name), getattr(decoded, f.name), f"{where}.{f.name}")
    elif isinstance(held, (list, tuple)):
        assert len(held) == len(decoded), where
        for i, (item, decoded_item) in enumerate(zip(held, decoded)):
            _assert_same(item, decoded_item, f"{where}[{i}]")
    elif isinstance(held, Mapping):
        assert list(held) == list(decoded), where
        for (key, item), (decoded_key, decoded_item) in zip(held.items(), decoded.items()):
            _assert_same(key, decoded_key, f"{where} key {key!r}")
            _assert_same(item, decoded_item, f"{where}[{key!r}]")
    else:
        assert held == decoded, where


def test_run_all_holds_what_decoding_the_written_bytes_gives(fixture_config, monkeypatch,
                                                            tmp_path):
    held = {}
    write = pipeline._write
    monkeypatch.setattr(pipeline, "_write", lambda config, name, config_hash, payload:
                        held.update({name: write(config, name, config_hash, payload)})
                        or held[name])
    pipeline.run_all(fixture_config)
    pipeline.run_command(fixture_config, "annotate-export", n=2)
    filled = _fill_annotation_tasks(fixture_config.artifact(pipeline.ANNOTATION_TASKS),
                                    tmp_path / "filled.tsv")
    pipeline.run_command(fixture_config, "annotate-aggregate", files=[str(filled)])
    pipeline.run_command(fixture_config, "report")  # now with the annotation means
    with_header = {name for name, spec in pipeline.ARTIFACTS.items() if spec.kind is not None}
    assert set(held) & with_header == with_header
    assert {pipeline.CORPUS_CLEAN, pipeline.CORPUS_STATS} <= set(held)  # ingest's included
    assert held[pipeline.EVAL_REPORT][1].annotation is not None
    config_hash = fixture_config.config_hash
    for name in sorted(with_header):
        digest, value = pipeline._read(fixture_config, name, config_hash)
        assert held[name][0] == digest, name
        _assert_same(held[name][1], value, name)


def test_manifest_output_hashes_are_the_digests_of_the_files_written(fixture_config):
    pipeline.run_all(fixture_config)
    entries = [json.loads(line) for line in
               fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines()]
    assert [e["stage"] for e in entries] == [
        name for names in pipeline.STEPS.values() for name in names]
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


def _damage_after(command, name, damage, monkeypatch):
    """Make `command` damage artifact `name` once it has written its own outputs."""
    stage = pipeline.COMMANDS[command]

    def run_then_damage(config, config_hash, *inputs):
        result = stage.fn(config, config_hash, *inputs)
        damage(config.artifact(name))
        return result

    monkeypatch.setitem(pipeline.COMMANDS, command, stage._replace(fn=run_then_damage))


def _damage_corpus_after(command, damage, monkeypatch):
    """Make `command` damage corpus_clean.jsonl once it has written its own outputs."""
    _damage_after(command, pipeline.CORPUS_CLEAN, damage, monkeypatch)


def _edit_first_claim(path):
    """Rewrite the first cleaned record's claim in place; return the record's id."""
    header, first, *rest = path.read_text().splitlines(keepends=True)
    row = json.loads(first)
    row["claim"] = "an edited claim."
    path.write_text(header + json.dumps(row) + "\n" + "".join(rest))
    return row["id"]


def _damage_corpus_once_ingest_wrote_it(config, damage, monkeypatch):
    """Make `damage` hit corpus_clean.jsonl after ingest writes it, before split reads it."""
    append_manifest = pipeline.append_manifest

    def append_then_damage(append, stage, *rest):
        append_manifest(append, stage, *rest)
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

    _damage_corpus_once_ingest_wrote_it(
        fixture_config, lambda path: edited.append(_edit_first_claim(path)), monkeypatch)
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
    _damage_corpus_once_ingest_wrote_it(fixture_config, _cut_in_half, monkeypatch)
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


def test_run_all_checks_splits_rewritten_between_commands_against_the_corpus(
        fixture_config, monkeypatch):
    nle = pipeline.COMMANDS["nle"]

    def run_then_drop_a_test_id(config, config_hash, *inputs):
        result = nle.fn(config, config_hash, *inputs)
        _edit_doc(lambda d: d["test"].pop())(config.artifact(pipeline.SPLITS))
        return result

    monkeypatch.setitem(pipeline.COMMANDS, "nle", nle._replace(fn=run_then_drop_a_test_id))
    with pytest.raises(CorruptArtifact, match="splits.json: record id 'c00003' is in no split"):
        pipeline.run_all(fixture_config)


def _record_checks(monkeypatch):
    """The names of the inputs of each _check_inputs call, in order."""
    checked, check_inputs = [], pipeline._check_inputs
    monkeypatch.setattr(pipeline, "_check_inputs", lambda config, held:
                        checked.append(tuple(held)) or check_inputs(config, held))
    return checked


def _edit_first_rationale(path):
    """Rewrite the first rationale's text in place; return the record's id."""
    header, first, *rest = path.read_text().splitlines(keepends=True)
    row = json.loads(first)
    row.update(text="an edited rationale.", token_length=len(tokenize("an edited rationale.")))
    path.write_text(header + json.dumps(row) + "\n" + "".join(rest))
    return row["record_id"]


def test_run_all_decodes_a_rewritten_input_that_another_thread_verifies(fixture_config,
                                                                      monkeypatch):
    # explain hashes its first need in its own thread, and rationales.jsonl in another
    explain = pipeline.COMMANDS["explain"]
    assert explain.needs.index(pipeline.RATIONALES) > 0

    def edit_first_rationale(path):
        edited.update(id=_edit_first_rationale(path),
                      digest=hashlib.sha256(path.read_bytes()).hexdigest())

    def record_rationales(config, config_hash, records, splits, rationales):
        seen.update({i: r.text for i, r in rationales.items()})
        return explain.fn(config, config_hash, records, splits, rationales)

    edited, seen, checked = {}, {}, _record_checks(monkeypatch)
    _damage_after("nle", pipeline.RATIONALES, edit_first_rationale, monkeypatch)
    monkeypatch.setitem(pipeline.COMMANDS, "explain", explain._replace(fn=record_rationales))
    pipeline.run_all(fixture_config)
    assert seen[edited["id"]] == "an edited rationale."
    entries = [json.loads(line) for line in
               fixture_config.artifact(pipeline.MANIFEST).read_text().splitlines()]
    stamped = {e["stage"]: e["input_hashes"].get("rationales") for e in entries}
    assert stamped["explain"] == edited["digest"] != stamped["nle"]
    # train's checks passed on other bytes, so explain checks its inputs again
    assert checked.count(explain.needs) == 2


@pytest.mark.parametrize("need", pipeline.COMMANDS["explain"].needs)
def test_run_all_names_a_held_input_it_cannot_read_whichever_thread_hashes_it(
        fixture_config, monkeypatch, need):
    def replace_with_a_directory(path):
        path.unlink()
        path.mkdir()

    decoded = Counter()
    for reader in ("read_records", "read_doc"):
        original = getattr(pipeline, reader)
        monkeypatch.setattr(pipeline, reader, lambda path, *rest, original=original:
                            decoded.update([Path(path).name]) or original(path, *rest))
    _damage_after("nle", need, replace_with_a_directory, monkeypatch)
    threads, named = threading.active_count(), re.escape(str(fixture_config.artifact(need)))
    with pytest.raises(ValidationError, match=rf"^cannot read {named}: \[Errno 21\]") as caught:
        pipeline.run_all(fixture_config)
    assert type(caught.value) is ValidationError  # exit 1
    assert threading.active_count() == threads
    assert decoded == {}  # refused as explain verified it, before any input was read
    assert not fixture_config.artifact(pipeline.HIGHLIGHTS).exists()


def test_no_verify_thread_is_running_when_a_stage_maps_its_records(fixture_config, monkeypatch):
    # explain may fork its workers in the map, and a fork copies no thread but the caller's
    seen, attempts = [], errors._attempts
    monkeypatch.setattr(errors, "EXPLAIN_POOL_MIN_VALUE_CALLS", 0)
    monkeypatch.setattr(errors, "_attempts", lambda fn, items, value_calls:
                        seen.append(threading.active_count()) or attempts(fn, items, value_calls))
    threads = threading.active_count()
    pipeline.run_all(fixture_config)
    assert seen == [threads] * 4  # rationales, predict, explain, eval-nli


def test_run_all_checks_the_same_input_bytes_once_and_a_command_alone_always(fixture_config,
                                                                             monkeypatch):
    checked = _record_checks(monkeypatch)
    pipeline.run_all(fixture_config)
    commands = [name for names in pipeline.STEPS.values() for name in names]
    # explain reads the bytes train read, whose checks passed
    assert pipeline.COMMANDS["explain"].needs == pipeline.COMMANDS["train"].needs
    assert checked == [pipeline.COMMANDS[name].needs for name in commands if name != "explain"]
    checked.clear()
    for name in ("train", "explain"):
        pipeline.run_command(fixture_config, name)
    assert checked == [pipeline.COMMANDS["explain"].needs] * 2


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


@pytest.mark.parametrize("corpus", ["corpus20", "benchmark-shaped"])
def test_run_all_matches_stages_run_one_by_one_through_the_cli(corpus, tmp_path):
    """run_all decodes nothing it wrote, so only the staged commands decode what they read;
    at the benchmark's 4,006 rows, they decode stores of that size."""
    path = (FIXTURES / "corpus20.jsonl" if corpus == "corpus20"
            else write_corpus(tmp_path / "corpus.jsonl", benchmark_shaped_rows(1)))
    run_all, staged = tmp_path / "run_all", tmp_path / "staged"
    configs = [write_config(tmp_path / f"{out.name}.json", path, out,
                            blocklist_path=str(default_blocklist_path()))
               for out in (run_all, staged)]
    pipeline.run_all(pipeline.load_config(configs[0]))
    commands = run_steps(configs[1])

    def artifacts(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != pipeline.MANIFEST}

    def entries(directory):  # each manifest entry without its timestamp
        return [{key: value for key, value in json.loads(line).items() if key != "timestamp"}
                for line in (directory / pipeline.MANIFEST).read_text().splitlines()]

    expected, got = artifacts(run_all), artifacts(staged)
    assert sorted(got) == sorted(expected)
    assert sorted(name for name in expected if got[name] != expected[name]) == []
    assert [entry["stage"] for entry in entries(run_all)] == commands
    assert entries(staged) == entries(run_all)


def test_run_all_refuses_a_stale_annotation_summary_before_writing(fixture_config):
    pipeline.run_all(fixture_config)
    write_doc(fixture_config.artifact(pipeline.ANNOTATION_SUMMARY), "annotation-summary",
              fixture_config.config_hash, {"per_system": {}, "per_annotator": {}})
    kept = {name: fixture_config.artifact(name).read_bytes()
            for name in (pipeline.CORPUS_CLEAN, pipeline.MANIFEST)}
    with pytest.raises(ValidationError, match="^annotation_summary.json: artifact was produced "
                                              "under config "):
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


def _edit_doc(edit):
    """Damage a document by `edit(doc)`, which changes its decoded JSON in place."""
    def damage(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return damage


def _flip_first_label(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    row = json.loads(first)
    row["label"] = {"Supports": "Refutes", "Refutes": "Supports"}[row["label"]]
    path.write_text(header + json.dumps(row) + "\n" + "".join(rest))


def _stamp_first_row(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    stamp = {"config_hash": json.loads(header)["config_hash"]}
    path.write_text(header + json.dumps({**json.loads(first), **stamp}) + "\n" + "".join(rest))


def _first_row_replaced_by(line):
    def damage(path):
        header, _, *rest = path.read_text().splitlines(keepends=True)
        path.write_text(header + line + "\n" + "".join(rest))
    return damage


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _blank_line_then_drop_claim_of_file_line_7(path):
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(2, "\n")
    row = json.loads(lines[6])
    del row["claim"]
    lines[6] = json.dumps(row) + "\n"
    path.write_text("".join(lines))


def _blank_line_then_backend_id_of_second_row(backend_id):
    """Insert a blank line after the header and set the second row's backend_id, so that row
    is on file line 4 though it is the store's second record."""
    def damage(path):
        header, first, second, *rest = path.read_text().splitlines(keepends=True)
        second = json.dumps({**json.loads(second), "backend_id": backend_id}) + "\n"
        path.write_text(header + "\n" + first + second + "".join(rest))
    return damage


def _repeat_last_row(path):
    text = path.read_text()
    path.write_text(text + text.splitlines(keepends=True)[-1])


def _directory_in_place(path):
    path.unlink()
    path.mkdir()


def _append_byte_0xff(path):
    path.write_bytes(path.read_bytes() + b"\xff")


def _non_utf8_blocklist(config):
    blocklist = config.with_name("blocklist.txt")
    blocklist.write_bytes(b"Example Outlet\n\xff\n")
    raw = {**json.loads(config.read_text()), "blocklist_path": str(blocklist)}
    config.write_text(json.dumps(raw))


def _long_field_csv_corpus(config):
    """Point the config at a one-row CSV corpus whose evidence has 150,000 characters."""
    corpus = config.with_name("corpus.csv")
    row = {**make_rows(1, 1)[0], "evidence": "word " * 30_000}
    with corpus.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    raw = {**json.loads(config.read_text()), "corpus_path": str(corpus),
           "corpus_format": "delimited"}
    config.write_text(json.dumps(raw))


def _long_claim_filled_file(path):
    """Write a filled annotation file whose one row quotes a claim of 140,000 characters."""
    header = "item_id\tclaim\tnle\tplausibility\tfluency\tcorrectness\tannotator_id\tsystem_id\n"
    path.write_text(f'{header}c1\t"{"a" * 140_000}"\tnle\t4\t4\t4\ta1\tsys\n')


def _corpus_with_second_line(line):
    """Point the config at a corpus whose second line is `line` (the first is a record)."""
    def damage(config):
        corpus = config.with_name("corpus.jsonl")
        corpus.write_text(json.dumps(make_rows(1, 1)[0]) + "\n" + line + "\n", encoding="utf-8")
        config.write_text(json.dumps({**json.loads(config.read_text()), "corpus_path": str(corpus)}))
    return damage


def _comment_only_blocklist(config):
    blocklist = config.with_name("blocklist.txt")
    blocklist.write_text("# outlets to drop\n  # none yet\n")
    config.write_text(json.dumps({**json.loads(config.read_text()),
                                  "blocklist_path": str(blocklist)}))


def _copy_of(name):
    """Damage an artifact by copying artifact `name` over it."""
    return lambda path: path.write_bytes(path.with_name(name).read_bytes())


def _replace_text(old, new):
    """Damage a file by replacing the text `old`, which it must hold, with `new`."""
    def damage(path):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return damage


def _nudge_entailment_percentage(doc):
    doc["percentages"]["Entailment"] += 0.1


UPSTREAM = ("ingest", "split", "rationales", "train", "predict")
EVALUATED = (*UPSTREAM, "nle", "eval-f1", "eval-nli")
# The config file cli_config writes, named from inside the output directory.
CONFIG = "../config.json"
# No directory can be made under this module, a regular file.
UNDER_A_FILE = Path(__file__) / "out"
# Filled annotation files that cannot be read: one missing, one holding the byte 0xff.
MISSING_FILLED = FIXTURES / "missing_filled.tsv"
NON_UTF8_FILLED = FIXTURES / "filled_not_utf8.tsv"

# JSON nested past the interpreter's recursion limit.
TOO_DEEP = "[" * 100_000 + "]" * 100_000

# case: (config keys, commands run first, artifact to damage, damage, command and flags, in
#        which {tmp} stands for the test's temporary directory, error text, artifacts the
#        failing command must not have written...)
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
    "backends a string, with a backend flag": ({"backends": "x"}, (), None, None,
                                               "ingest --nli stub-nli", "config key 'backends' "
                                               "must be an object, got \"x\""),
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
                                 "field 'text' must be a string, got 5)"),
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
                               "corpus_clean.jsonl line 2: bad record (ValidationError: "
                               "unknown field 'config_hash')"),
    "explanation with an extra field": ({}, (*UPSTREAM, "nle"), pipeline.NLES,
                                        _set_in_first_row(verdict="made up"), "eval-nli",
                                        "nles.jsonl line 2: bad record (ValidationError: "
                                        "unknown field 'verdict')"),
    "output_dir under a regular file": ({"output_dir": str(UNDER_A_FILE)}, (), None, None,
                                        "ingest", f"cannot write {UNDER_A_FILE}/manifest.jsonl:"
                                        " [Errno 20] Not a directory"),
    "splits a directory": ({}, UPSTREAM[:2], pipeline.SPLITS, _directory_in_place, "rationales",
                           "splits.json: [Errno 21] Is a directory"),
    "manifest a directory": ({}, UPSTREAM[:1], pipeline.MANIFEST, _directory_in_place, "split",
                             "manifest.jsonl: [Errno 21] Is a directory", pipeline.SPLITS),
    "non-UTF-8 config": ({}, (), CONFIG, _append_byte_0xff, "ingest",
                         "config.json: 'utf-8' codec can't decode byte 0xff"),
    "non-UTF-8 blocklist": ({}, (), CONFIG, _non_utf8_blocklist, "ingest",
                            "blocklist.txt: 'utf-8' codec can't decode byte 0xff"),
    "missing filled file": ({}, (), None, None, f"annotate-aggregate {MISSING_FILLED}",
                            f"cannot read annotation file {MISSING_FILLED}: [Errno 2]",
                            pipeline.ANNOTATION_SUMMARY),
    "non-UTF-8 filled file": ({}, (), None, None, f"annotate-aggregate {NON_UTF8_FILLED}",
                              f"cannot read annotation file {NON_UTF8_FILLED}: 'utf-8' codec "
                              "can't decode byte 0xff", pipeline.ANNOTATION_SUMMARY),
    "CSV corpus field over the csv limit": ({}, (), CONFIG, _long_field_csv_corpus, "ingest",
                                            "corpus.csv: field larger than field limit (131072)",
                                            pipeline.CORPUS_CLEAN),
    "filled file field over the csv limit": ({}, (), "../long_claim.tsv", _long_claim_filled_file,
                                             "annotate-aggregate {tmp}/long_claim.tsv",
                                             "long_claim.tsv: field larger than field limit "
                                             "(131072)", pipeline.ANNOTATION_SUMMARY),
    "test id also in train": ({}, UPSTREAM[:3], pipeline.SPLITS,
                              _edit_doc(lambda d: d["train"].append(d["test"][0])), "train",
                              "splits.json: record id 'c00008' is listed twice"),
    "train id listed twice": ({}, UPSTREAM[:3], pipeline.SPLITS,
                              _edit_doc(lambda d: d["train"].append(d["train"][0])), "train",
                              "splits.json: record id 'c00019' is listed twice"),
    "unknown id in test": ({}, UPSTREAM, pipeline.SPLITS,
                           _edit_doc(lambda d: d["test"].append("c99999")), "eval-f1",
                           "splits.json: record id 'c99999' is not in corpus_clean.jsonl",
                           pipeline.EVAL_F1),
    "test id removed": ({}, UPSTREAM, pipeline.SPLITS, _edit_doc(lambda d: d["test"].pop()),
                        "eval-f1", "splits.json: record id 'c00003' is in no split",
                        pipeline.EVAL_F1),
    "integer id in test": ({}, UPSTREAM[:3], pipeline.SPLITS,
                           _edit_doc(lambda d: d["test"].insert(0, 8)), "explain",
                           "splits.json: key 'test[0]' must be a string, got 8",
                           pipeline.HIGHLIGHTS),
    "stats total off the label counts": ({}, UPSTREAM[:1], pipeline.CORPUS_STATS,
                                         _set_key("total", 999), "stats",
                                         "corpus_stats.json: the per-label counts sum to 20, "
                                         "not to the total 999"),
    "macro-F1 above one": ({}, EVALUATED, pipeline.EVAL_F1,
                           _edit_doc(lambda d: d["macro_f1"].update(test=7.5)), "report",
                           "eval_f1.json: the macro-F1 of 'test' is 7.5, not in [0, 1]",
                           pipeline.EVAL_REPORT),
    "negative entailment count": ({}, EVALUATED, pipeline.EVAL_NLI,
                                  _edit_doc(lambda d: d["counts"].update(Entailment=-4)), "report",
                                  "eval_nli.json: counts {'Entailment': -4, 'Neutral': 2, "
                                  "'Contradiction': 0} must be >= 0", pipeline.EVAL_REPORT),
    "prediction label flipped": ({}, UPSTREAM, pipeline.PREDICTIONS, _flip_first_label, "eval-f1",
                                 "predictions.jsonl line 2: bad record (ValidationError: label "
                                 "'Refutes' is not what raw_generation 'Supports' decodes to)",
                                 pipeline.EVAL_F1),
    "splits drawn with another seed": ({}, UPSTREAM[:3], pipeline.SPLITS, _set_key("seed", 7),
                                       "train", "splits.json: drawn with split_seed 7, not the "
                                       "config's", pipeline.MODEL_STATE),
    "splits drawn with other ratios": ({}, UPSTREAM, pipeline.SPLITS,
                                       _set_key("ratios", [0.1, 0.1, 0.8]), "eval-f1",
                                       "splits.json: drawn with ratios [0.1, 0.1, 0.8], not the "
                                       "config's [0.7, 0.15, 0.15]", pipeline.EVAL_F1),
    "rationale token_length off its text": ({}, UPSTREAM[:3], pipeline.RATIONALES,
                                            _set_in_first_row(token_length=9999), "train",
                                            "rationales.jsonl line 2: bad record (ValidationError: "
                                            "token_length 9999 is not the", pipeline.MODEL_STATE),
    "corpus row 5": ({}, (), CONFIG, _corpus_with_second_line("5"), "ingest",
                     "corpus.jsonl: row 2 is not a JSON object", pipeline.CORPUS_CLEAN),
    "corpus row null": ({}, (), CONFIG, _corpus_with_second_line("null"), "ingest",
                        "corpus.jsonl: row 2 is not a JSON object", pipeline.CORPUS_CLEAN),
    "corpus row a 5,000-digit integer": ({}, (), CONFIG, _corpus_with_second_line("7" * 5000),
                                         "ingest", "corpus.jsonl: row 2 is not",
                                         pipeline.CORPUS_CLEAN),
    "corpus evidence an array": ({}, (), CONFIG, _corpus_with_second_line(
                                     json.dumps({**make_rows(2, 1)[1], "evidence": ["x"]})),
                                 "ingest", "row 2: field 'evidence' must be text, not an array",
                                 pipeline.CORPUS_CLEAN),
    "config not JSON": ({}, (), CONFIG, lambda p: p.write_text('{"corpus_path": '), "ingest",
                        "config.json is not valid JSON"),
    "config a JSON array": ({}, (), CONFIG, lambda p: p.write_text("[1]"), "ingest",
                            "config.json must be a JSON object, got [1]"),
    "blocklist of comments only": ({}, (), CONFIG, _comment_only_blocklist, "ingest",
                                   "blocklist.txt is empty", pipeline.CORPUS_CLEAN),
    "non-UTF-8 splits": ({}, UPSTREAM[:2], pipeline.SPLITS, _append_byte_0xff, "rationales",
                         "splits.json: not UTF-8 text", pipeline.RATIONALES),
    "stats copied over splits": ({}, UPSTREAM[:2], pipeline.SPLITS, _copy_of(pipeline.CORPUS_STATS),
                                 "rationales", "splits.json: expected kind 'splits', found 'stats'",
                                 pipeline.RATIONALES),
    "entailment percentage off its count": ({}, EVALUATED, pipeline.EVAL_NLI,
                                            _edit_doc(_nudge_entailment_percentage), "report",
                                            "eval_nli.json: each percentage must be its count's "
                                            "share of the total", pipeline.EVAL_REPORT),
    "undecodable raw_generation": ({}, UPSTREAM, pipeline.PREDICTIONS,
                                   _set_in_first_row(raw_generation="maybe"), "eval-f1",
                                   "is not what raw_generation 'maybe' decodes to",
                                   pipeline.EVAL_F1),
    "config split_seed of 5,000 digits": ({"split_seed": 5}, (), CONFIG,
                                          _replace_text('"split_seed": 5',
                                                        '"split_seed": ' + "7" * 5000),
                                          "ingest", "config.json is not valid JSON: Exceeds the "
                                          "limit (4300 digits)", pipeline.CORPUS_CLEAN),
    "splits seed of 5,000 digits": ({}, UPSTREAM[:2], pipeline.SPLITS,
                                    _replace_text('"seed": 42', '"seed": ' + "7" * 5000),
                                    "rationales", "splits.json line 1: not valid JSON (Exceeds "
                                    "the limit (4300 digits)", pipeline.RATIONALES),
    "config nested too deep": ({}, (), CONFIG, lambda p: p.write_text(TOO_DEEP), "ingest",
                               "config.json is not valid JSON: maximum recursion depth exceeded",
                               pipeline.CORPUS_CLEAN),
    "corpus id nested too deep": ({}, (), CONFIG,
                                  _corpus_with_second_line(f'{{"id": {TOO_DEEP}}}'), "ingest",
                                  "corpus.jsonl: row 2 is not valid JSON: maximum recursion "
                                  "depth exceeded", pipeline.CORPUS_CLEAN),
    "splits seed nested too deep": ({}, UPSTREAM[:2], pipeline.SPLITS,
                                    _replace_text('"seed": 42', '"seed": ' + TOO_DEEP),
                                    "rationales", "splits.json line 1: not valid JSON (maximum "
                                    "recursion depth exceeded", pipeline.RATIONALES),
    "rationale row 5": ({}, UPSTREAM[:3], pipeline.RATIONALES, _first_row_replaced_by("5"),
                        "train", "rationales.jsonl line 2: not a JSON object",
                        pipeline.MODEL_STATE),
    "split_seed a list of 5,000 numbers": ({"split_seed": list(range(5000))}, (), None, None,
                                           "ingest", "'split_seed' must be an integer, got "
                                           + json.dumps(list(range(5000)))[:200]
                                           + "… (28890 characters)\n", pipeline.CORPUS_CLEAN),
    "config key repeated": ({"explain": {"records": 2}}, (), CONFIG,
                            _replace_text('"records": 2', '"records": 2, "records": 5'),
                            "ingest", "config.json is not valid JSON: repeated key 'records'",
                            pipeline.CORPUS_CLEAN),
    "corpus row key repeated": ({}, (), CONFIG, _corpus_with_second_line(
                                    json.dumps(make_rows(2, 1)[1])[:-1] + ', "claim": "again"}'),
                                "ingest", "corpus.jsonl: row 2 is not valid JSON: repeated key "
                                "'claim'", pipeline.CORPUS_CLEAN),
    "rationale key repeated": ({}, UPSTREAM[:3], pipeline.RATIONALES,
                               _replace_text('"text": ', '"text": "", "text": '), "train",
                               "rationales.jsonl line 2: not valid JSON (repeated key 'text')",
                               pipeline.MODEL_STATE),
    "model state from another classifier": ({}, UPSTREAM[:4], pipeline.MODEL_STATE,
                                            _set_key("backend_id", "other-classifier"), "predict",
                                            "model_state.json: written for classifier "
                                            "'other-classifier', not the config's "
                                            "'stub-memorizing'", pipeline.PREDICTIONS),
    "rationale from another summarizer": ({}, UPSTREAM[:3], pipeline.RATIONALES,
                                          _set_in_first_row(backend_id="other-summarizer"),
                                          "train", "rationales.jsonl line 2: written by summarizer "
                                          "'other-summarizer', not the config's 'stub-lead'",
                                          pipeline.MODEL_STATE),
    "rationale from another summarizer after a blank line": (
        {}, UPSTREAM[:3], pipeline.RATIONALES, _blank_line_then_backend_id_of_second_row("other"),
        "train", "rationales.jsonl line 4: written by summarizer 'other', not the config's "
        "'stub-lead'", pipeline.MODEL_STATE),
    "rationale of no cleaned record": ({}, UPSTREAM[:3], pipeline.RATIONALES,
                                       _set_in_first_row(record_id="c99999"), "train",
                                       "rationales.jsonl: record id 'c99999' is not in "
                                       "corpus_clean.jsonl", pipeline.MODEL_STATE),
    "prediction of no cleaned record": ({}, UPSTREAM, pipeline.PREDICTIONS,
                                        _set_in_first_row(record_id="c99999"), "eval-f1",
                                        "predictions.jsonl: record id 'c99999' is not in "
                                        "corpus_clean.jsonl", pipeline.EVAL_F1),
    "explanation of no cleaned record": ({}, (*UPSTREAM, "nle"), pipeline.NLES,
                                         _set_in_first_row(record_id="c99999"), "eval-nli",
                                         "nles.jsonl: record id 'c99999' is not in "
                                         "corpus_clean.jsonl", pipeline.EVAL_NLI),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_cli_malformed_input_exits_one(case, tmp_path, corpus20_path, capsys):
    extra, upstream, artifact, damage, command, message, *unwritten = MALFORMED_INPUTS[case]
    config = cli_config(tmp_path, corpus20_path, **extra)
    for cmd in upstream:
        assert main([cmd, "--config", str(config)]) == 0
    if damage is not None:
        damage(tmp_path / "out" / artifact)
    capsys.readouterr()
    assert main([*command.replace("{tmp}", str(tmp_path)).split(), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not [name for name in unwritten if (tmp_path / "out" / name).exists()]
