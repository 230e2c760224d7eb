"""Stage-wise pipeline engine.

One table, COMMANDS, declares every stage: the artifacts it needs and the
function that turns them into new artifacts; ARTIFACTS declares each file.
For each stage the engine checks that the needed artifacts exist, reads each
one's bytes once, refusing artifacts of a different configuration, decodes
them, encodes and writes what the stage returns, and appends a manifest entry
with the sha256 of the bytes it decoded and of the bytes it wrote. Stages get
read-only inputs. Within run_all a RunTable holds each artifact from its write,
as the value decoding its bytes would give, so the run decodes nothing it wrote;
a later reader gets the held value only if the file's bytes still hash the same.
Artifact files carry no timestamps, so a rerun with the same config and inputs
is byte-identical.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from functools import partial
from hashlib import sha256
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Literal, Mapping, NamedTuple

from . import attribution, evaluation, nle, rationale, verdict
from .corpus import (
    ClaimRecord,
    SourceBlocklist,
    VerdictLabel,
    compute_stats,
    filter_evidence,
    parse_corpus,
    split_corpus,
    EmptyEvidenceAfterFilter,
)
from .errors import (
    BackendFailure,
    ValidationError,
    call_backend,
    check_fields,
    check_range,
    config_value,
    value_rule,
)
from .store import (
    CorruptArtifact,
    MissingUpstreamArtifact,
    file_sha256,
    from_row,
    read_doc,
    read_records,
    to_row,
    write_doc,
    write_records,
    write_text,
)

logger = logging.getLogger(__name__)

# Artifact file names within the output directory.
CORPUS_CLEAN = "corpus_clean.jsonl"
CORPUS_STATS = "corpus_stats.json"
SPLITS = "splits.json"
RATIONALES = "rationales.jsonl"
MODEL_STATE = "model_state.json"
TRAIN_LOG = "train_log.json"
PREDICTIONS = "predictions.jsonl"
NLES = "nles.jsonl"
HIGHLIGHTS = "highlights.json"
HIGHLIGHTS_HTML = "highlights.html"
EVAL_F1 = "eval_f1.json"
EVAL_NLI = "eval_nli.json"
EVAL_REPORT = "eval_report.json"
ANNOTATION_TASKS = "annotation_tasks.tsv"
ANNOTATION_SUMMARY = "annotation_summary.json"
MANIFEST = "manifest.jsonl"

SPLIT_NAMES = ("train", "validation", "test")

# Published shape of the benchmark release; ingest prints a comparison
# when the cleaned corpus reproduces it.
BENCHMARK_TOTAL = 4006
BENCHMARK_PER_LABEL = {VerdictLabel.SUPPORTS: 2013, VerdictLabel.REFUTES: 1993}
BENCHMARK_SPLIT_SIZES = (2804, 601, 601)

# Backend registries; real backends plug in by id.
SUMMARIZER_BACKENDS: dict[str, Callable[[], rationale.SummarizationBackend]] = {
    "stub-lead": rationale.LeadSummarizer,
}
CLASSIFIER_BACKENDS: dict[str, Callable[[], verdict.Text2TextBackend]] = {
    "stub-memorizing": verdict.MemorizingBackend,
}
NLI_BACKENDS: dict[str, Callable[[], verdict.Text2TextBackend]] = {
    "stub-nli": partial(verdict.MemorizingBackend, "stub-nli", evaluation.NLI_CHOICES),
}

# CLI flag (load_config keyword) -> the config key it overrides.
OVERRIDES = {
    "seed": "split_seed",
    "limit": "limit",
    "summarizer": "backends.summarizer",
    "classifier": "backends.classifier",
    "nli": "backends.nli",
}
# Environment variable -> the flag it stands in for.
ENV_OVERRIDES = {
    "CLAIMCHECK_SUMMARIZER": "summarizer",
    "CLAIMCHECK_CLASSIFIER": "classifier",
    "CLAIMCHECK_NLI": "nli",
}


@dataclass(frozen=True)
class BackendIds:
    summarizer: str = "stub-lead"
    classifier: str = "stub-memorizing"
    nli: str = "stub-nli"

    def __post_init__(self):
        check_fields(self, "backends")


@dataclass(frozen=True)
class ExplainSettings:
    records: int = 3  # how many test records to attribute
    permutations: int = 200
    seed: int = 7
    granularity: Literal["sentence", "token"] = "sentence"

    def __post_init__(self):
        check_fields(self, "explain")
        check_range("explain.records", self.records, 0)
        check_range("explain.permutations", self.permutations, 1)


@dataclass(frozen=True)
class AnnotationSettings:
    n: int = 100
    seed: int = 13
    system: str = "claimcheck"

    def __post_init__(self):
        check_fields(self, "annotation")
        check_range("annotation.n", self.n, 0)


@dataclass(frozen=True)
class PipelineConfig:
    """Single flat configuration for a pipeline run."""

    corpus_path: str
    output_dir: str
    blocklist_path: str | None = None
    corpus_format: Literal["json-lines", "delimited"] = "json-lines"
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    split_seed: int = 42
    summary: rationale.SummaryConfig = field(default_factory=rationale.SummaryConfig)
    train: verdict.TrainConfig = field(default_factory=verdict.TrainConfig)
    backends: BackendIds = field(default_factory=BackendIds)
    explain: ExplainSettings = field(default_factory=ExplainSettings)
    annotation: AnnotationSettings = field(default_factory=AnnotationSettings)
    limit: int | None = None  # fixture runs: keep only the first N records

    def __post_init__(self):
        check_fields(self)
        if self.limit is not None:
            check_range("limit", self.limit, 0)

    @property
    def config_hash(self) -> str:
        """Digest of the semantic parameters.

        Filesystem locations are excluded so the same run in a different
        directory hashes identically; input content is covered separately
        by the manifest's input hashes.
        """
        payload = asdict(self)
        for key in ("corpus_path", "blocklist_path", "output_dir"):
            payload.pop(key)
        canonical = json.dumps(payload, sort_keys=True)
        return sha256(canonical.encode("utf-8")).hexdigest()

    def artifact(self, name: str) -> Path:
        return Path(self.output_dir) / name


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    """Read a JSON config file, apply the overrides, and build it.

    Keyword overrides are OVERRIDES flags; ENV_OVERRIDES variables stand in
    for the backend flags. Flags beat the environment, which beats the file.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc

    env = {flag: os.environ[name] for name, flag in ENV_OVERRIDES.items() if os.environ.get(name)}
    flags = {flag: value for flag, value in overrides.items() if value is not None}
    for flag, value in {**env, **flags}.items():
        if flag not in OVERRIDES:
            raise ValidationError(f"unknown config override {flag!r}")
        section, _, key = OVERRIDES[flag].rpartition(".")
        target = raw.setdefault(section, {}) if section and isinstance(raw, dict) else raw
        if isinstance(target, dict):  # otherwise _build rejects the section itself
            target[key] = value
    return _build(PipelineConfig, raw, f"config {path}")


def _build(cls, raw, where: str):
    """Build settings class `cls` from its config mapping `raw`.

    Nested settings come from each field's default_factory and JSON lists
    become tuples; an unknown or missing key is a ValidationError naming
    `where`. Each class's __post_init__ checks the values.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{where} must be a JSON object, got {config_value(raw)}")
    nested = {f.name: f.default_factory for f in fields(cls) if is_dataclass(f.default_factory)}
    values = {
        key: _build(nested[key], value, f"config key {key!r}") if key in nested
        else tuple(value) if isinstance(value, list) else value
        for key, value in raw.items()
    }
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _create(registry: dict, backend_id: str, role: str):
    factory = registry.get(backend_id)
    if factory is None:
        known = ", ".join(sorted(registry))
        raise ValidationError(f"unknown {role} backend {backend_id!r}; registered: {known}")
    return call_backend(role, backend_id, factory)


def create_summarizer(backend_id: str) -> rationale.SummarizationBackend:
    return _create(SUMMARIZER_BACKENDS, backend_id, "summarizer")


def create_classifier(backend_id: str) -> verdict.Text2TextBackend:
    return _create(CLASSIFIER_BACKENDS, backend_id, "classifier")


def create_nli(backend_id: str) -> verdict.Text2TextBackend:
    return _create(NLI_BACKENDS, backend_id, "NLI")


def append_manifest(config: PipelineConfig, stage: str, config_hash: str,
                    input_hashes: dict[str, str], output_hashes: dict[str, str]) -> None:
    entry = {
        "stage": stage,
        "config_hash": config_hash,
        "input_hashes": input_hashes,
        "output_hashes": output_hashes,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = config.artifact(MANIFEST)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Artifacts


class Artifact(NamedTuple):
    kind: str | None = None  # header kind; None: no header, the text is written as given
    key: str | None = None  # record stores decode into {row[key]: from_row(row)}, in file order
    from_row: Callable[[dict], object] | None = None
    to_row: Callable[[object], dict] = to_row  # record stores: a record's row
    keys: Mapping[str, type] = {}  # documents: each required key and its annotation
    stamped: bool = False  # record stores: each row ends with the header's config hash


ARTIFACTS: dict[str, Artifact] = {
    CORPUS_CLEAN: Artifact("corpus", "id", partial(from_row, ClaimRecord)),
    CORPUS_STATS: Artifact("stats", keys={"total": int, "per_label": dict, "mean_claim_tokens":
                                          float, "mean_evidence_tokens": float}),
    SPLITS: Artifact("splits", keys=dict.fromkeys(SPLIT_NAMES, list)),
    RATIONALES: Artifact("rationales", "record_id", partial(from_row, rationale.Rationale),
                         stamped=True),
    MODEL_STATE: Artifact("model", keys={"backend_id": str, "state": dict}),
    TRAIN_LOG: Artifact("train-log"),
    PREDICTIONS: Artifact("predictions", "record_id", partial(from_row, verdict.VerdictPrediction)),
    NLES: Artifact("nles", "record_id", lambda row: nle.nle_from_row(**row),
                   lambda e: {"record_id": e.record_id, "text": e.text}),
    HIGHLIGHTS: Artifact("highlights"),
    HIGHLIGHTS_HTML: Artifact(),
    EVAL_F1: Artifact("eval-f1", keys={"macro_f1": dict, "scored": dict}),
    EVAL_NLI: Artifact("eval-nli", keys={"total": int, "counts": dict, "percentages": dict}),
    EVAL_REPORT: Artifact("eval-report"),
    ANNOTATION_TASKS: Artifact(),
    ANNOTATION_SUMMARY: Artifact("annotation-summary",
                                 keys={"per_system": dict, "per_annotator": dict}),
}


def _read(config: PipelineConfig, name: str, config_hash: str) -> tuple[str, Mapping]:
    """Read one artifact's bytes once; return their sha256 and the checked, read-only value."""
    path, spec = config.artifact(name), ARTIFACTS[name]
    if spec.key is None:
        digest, doc = read_doc(path, spec.kind, config_hash)
        for key, hint in spec.keys.items():
            fits, wanted = value_rule(hint)
            if key not in doc or not fits(doc[key]):
                got = config_value(doc[key]) if key in doc else "nothing"
                raise CorruptArtifact(path, f"key {key!r} must be {wanted}, got {got}")
        return digest, MappingProxyType(doc)
    digest, rows = read_records(path, spec.kind, config_hash)
    decoded = {}
    for line, row in rows:
        try:
            record_id = row[spec.key]
            stamp = row.pop("config_hash") if spec.stamped else config_hash
            record, repeated = spec.from_row(row), record_id in decoded
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise CorruptArtifact(path, f"bad record ({type(exc).__name__}: {exc})", line) from exc
        if stamp != config_hash:
            raise CorruptArtifact(path, f"stamped with config {stamp!r}, not the header's", line)
        if repeated:
            raise CorruptArtifact(path, f"repeated {spec.key} {record_id!r}", line)
        decoded[record_id] = record
    return digest, MappingProxyType(decoded)


def _write(config: PipelineConfig, name: str, config_hash: str, payload) -> tuple[str, object]:
    """Encode and write one artifact; return the sha256 of the bytes written and the value.

    The value is what _read returns for those bytes: a read-only {key: record} for a
    store of records, the read-only document with its header for a document, and
    the text itself for a file without a header.
    """
    path, spec = config.artifact(name), ARTIFACTS[name]
    if spec.kind is None:
        return write_text(path, (payload,)), payload
    if spec.key is None:
        return (write_doc(path, spec.kind, config_hash, payload),
                MappingProxyType({"kind": spec.kind, "config_hash": config_hash, **payload}))
    records = MappingProxyType({getattr(record, spec.key): record for record in payload})
    rows = map(spec.to_row, records.values())
    if spec.stamped:
        rows = ({**row, "config_hash": config_hash} for row in rows)
    return write_records(path, spec.kind, config_hash, rows), records


# ---------------------------------------------------------------------------
# Stage functions: fn(config, config_hash, *decoded needs, **command args)
# returns (summary, {artifact file name: payload}) plus, for stages that read
# files outside the output directory, {manifest key: sha256}. A store's payload
# is its records, a document's its keys after the header, a plain file's its text.


def _ingest(config: PipelineConfig, config_hash: str):
    """Parse, clean, and summarize the corpus; write the cleaned store."""
    records = parse_corpus(config.corpus_path, config.corpus_format)
    if config.limit is not None:
        records = records[: config.limit]

    sources = {"corpus": file_sha256(config.corpus_path)}
    dropped: list[str] = []
    if config.blocklist_path:
        blocklist = SourceBlocklist.from_file(config.blocklist_path)
        if not blocklist.outlets:
            raise ValidationError(f"blocklist {config.blocklist_path} is empty")
        sources["blocklist"] = file_sha256(config.blocklist_path)
        kept = []
        for record in records:
            try:
                kept.append(filter_evidence(record, blocklist))
            except EmptyEvidenceAfterFilter:
                dropped.append(record.id)
        if dropped:
            logger.warning("dropped %d records with fully blocklisted evidence: %s",
                           len(dropped), ", ".join(dropped))
        records = kept

    stats = compute_stats(records)
    stats_payload = {
        "total": stats.total,
        "per_label": {label.value: count for label, count in stats.per_label.items()},
        "mean_claim_tokens": stats.mean_claim_tokens,
        "mean_evidence_tokens": stats.mean_evidence_tokens,
        "dropped_ids": dropped,
    }
    matches_benchmark = stats.total == BENCHMARK_TOTAL and stats.per_label == BENCHMARK_PER_LABEL
    summary = {**stats_payload, "matches_benchmark": matches_benchmark}
    outputs = {CORPUS_CLEAN: records, CORPUS_STATS: stats_payload}
    return summary, outputs, sources


def _stats(config, config_hash, stats):
    return {k: stats[k] for k in
            ("total", "per_label", "mean_claim_tokens", "mean_evidence_tokens")}, {}


def _split(config, config_hash, records):
    splits = split_corpus(list(records.values()), config.ratios, config.split_seed)
    payload = {
        "seed": splits.seed,
        "ratios": list(config.ratios),
        **{name: [r.id for r in getattr(splits, name)] for name in SPLIT_NAMES},
    }
    return {"sizes": splits.sizes(), "seed": splits.seed}, {SPLITS: payload}


def _rationales(config, config_hash, records, _splits):
    # splits is read only to check that it was made under this config
    backend = create_summarizer(config.backends.summarizer)
    result = rationale.batch_generate(list(records.values()), backend, config.summary)
    generated = list(result.rationales.values())
    return {"generated": len(generated), "failures": result.failures}, {RATIONALES: generated}


def _train(config, config_hash, records, splits, rationales):
    train_records = [records[i] for i in splits["train"] if i in rationales]
    val_records = [records[i] for i in splits["validation"] if i in rationales]
    pairs = verdict.make_training_pairs(train_records, rationales)
    validation_pairs = verdict.make_training_pairs(val_records, rationales) or None

    backend = create_classifier(config.backends.classifier)
    if not isinstance(backend, verdict.TrainableBackend):
        raise ValidationError(
            f"classifier backend {config.backends.classifier!r} is not trainable"
        )
    state, log = verdict.fine_tune(pairs, config.train, backend, validation_pairs)

    summary = {
        "pairs": len(pairs),
        "steps": log.final_step,
        "best_validation_f1": log.best_validation_f1,
        "final_validation_f1": log.final_validation_f1,
    }
    model = {"backend_id": config.backends.classifier, "state": state}
    return summary, {MODEL_STATE: model, TRAIN_LOG: asdict(log)}


def _predict(config, config_hash, records, rationales, model):
    backend = create_classifier(model["backend_id"])
    if isinstance(backend, verdict.TrainableBackend):
        try:
            call_backend("classifier", backend.identity, backend.restore, model["state"])
        except BackendFailure as exc:
            raise CorruptArtifact(config.artifact(MODEL_STATE),
                                  f"cannot restore the state: {exc.detail}") from exc

    predictions = [verdict.classify(r.claim, rationales[r.id], backend)
                   for r in records.values() if r.id in rationales]
    skipped = [i for i in records if i not in rationales]
    if skipped:
        logger.warning("no rationale for %d records; skipped: %s", len(skipped), ", ".join(skipped))
    return {"predicted": len(predictions), "skipped": skipped}, {PREDICTIONS: predictions}


def _nle(config, config_hash, rationales, predictions):
    explanations = []
    for prediction in predictions.values():
        if prediction.record_id not in rationales:
            raise verdict.MissingRationale(prediction.record_id)
        explanations.append(nle.compose_nle(prediction, rationales[prediction.record_id]))
    return {"explanations": len(explanations)}, {NLES: explanations}


def _explain(config, config_hash, records, splits, rationales):
    """Attribute rationale generation for the first few test records."""
    backend = create_summarizer(config.backends.summarizer)
    target_ids = [i for i in splits["test"] if i in rationales][: config.explain.records]
    out_records = []
    docs = []
    for record_id in target_ids:
        record = records[record_id]
        features = attribution.evidence_features(record.evidence, config.explain.granularity)
        value_fn = attribution.rationale_value_fn(
            record, backend, config.summary, config.explain.granularity
        )
        result = attribution.attribute(
            features, value_fn, config.explain.permutations, config.explain.seed
        )
        doc = attribution.export_highlights(result, title=f"record {record_id}")
        docs.append(doc)
        out_records.append({
            "record_id": record_id,
            "granularity": config.explain.granularity,
            "method": result.method,
            "features": [f.text for f in result.features],
            "phi": list(result.phi),
            "polarity": [e.polarity for e in doc.entries],
        })
    page = f"<!-- config_hash: {config_hash} -->\n{attribution.render_highlight_page(docs)}"
    return {"explained": target_ids}, {HIGHLIGHTS: {"records": out_records}, HIGHLIGHTS_HTML: page}


def _eval_f1(config, config_hash, records, splits, predictions):
    """Macro-F1 of stored predictions against gold labels, per split."""
    payload: dict = {"macro_f1": {}, "scored": {}}
    for split_name in ("validation", "test"):
        ids = [i for i in splits[split_name] if i in predictions]
        missing = len(splits[split_name]) - len(ids)
        if missing:
            logger.warning("%s split: %d records lack predictions", split_name, missing)
        golds = [records[i].verdict for i in ids]
        preds = [predictions[i].label for i in ids]
        payload["macro_f1"][split_name] = evaluation.macro_f1(preds, golds) if ids else None
        payload["scored"][split_name] = len(ids)
    return payload, {EVAL_F1: payload}


def _eval_nli(config, config_hash, records, splits, nles):
    """Entailment audit of the test-split explanations."""
    pairs = [(records[i].claim, nles[i]) for i in splits["test"] if i in nles]
    report = evaluation.evaluate_nli(pairs, create_nli(config.backends.nli))
    payload = {
        "total": report.total,
        "counts": {label.value: report.counts[label] for label in evaluation.NliVerdict},
        "percentages": {label.value: report.percentages[label] for label in evaluation.NliVerdict},
    }
    return payload, {EVAL_NLI: payload}


def _annotate_export(config, config_hash, records, splits, nles, n=None):
    items = [(i, records[i].claim, nles[i].text) for i in splits["test"] if i in nles]
    tasks, text = evaluation.render_annotation_tasks(
        items,
        n=config.annotation.n if n is None else n,
        seed=config.annotation.seed,
        system_id=config.annotation.system,
    )
    summary = {"tasks": len(tasks), "path": str(config.artifact(ANNOTATION_TASKS))}
    return summary, {ANNOTATION_TASKS: text}


def _annotate_aggregate(config, config_hash, files):
    payload = asdict(evaluation.aggregate_annotations(files))
    return payload, {ANNOTATION_SUMMARY: payload}, {Path(f).name: file_sha256(f) for f in files}


def _report(config, config_hash, f1, nli):
    """Merge the evaluation artifacts (and annotation means, if present)."""
    payload = {"macro_f1": f1["macro_f1"], "scored": f1["scored"],
               "nli": {k: nli[k] for k in ("total", "counts", "percentages")}}
    sources = {}
    if config.artifact(ANNOTATION_SUMMARY).exists():
        sources["annotation_summary"], annotation = _read(config, ANNOTATION_SUMMARY, config_hash)
        payload["annotation"] = {k: annotation[k] for k in ("per_system", "per_annotator")}
    return payload, {EVAL_REPORT: payload}, sources


# ---------------------------------------------------------------------------
# Engine


class Stage(NamedTuple):
    name: str
    needs: tuple[str, ...]  # artifacts read, decoded and passed to fn in this order
    fn: Callable[..., tuple]
    help: str  # CLI help


COMMANDS: dict[str, Stage] = {stage.name: stage for stage in (
    Stage("ingest", (), _ingest, "parse, clean, and store the corpus with statistics"),
    Stage("stats", (CORPUS_STATS,), _stats, "print statistics of the cleaned corpus"),
    Stage("split", (CORPUS_CLEAN,), _split, "write the train/validation/test split manifest"),
    Stage("rationales", (CORPUS_CLEAN, SPLITS), _rationales, "generate one rationale per record"),
    Stage("train", (CORPUS_CLEAN, SPLITS, RATIONALES), _train,
          "fine-tune the verdict classifier on the train split"),
    Stage("predict", (CORPUS_CLEAN, RATIONALES, MODEL_STATE), _predict,
          "classify every record with the trained backend"),
    Stage("nle", (RATIONALES, PREDICTIONS), _nle, "assemble the natural-language explanations"),
    Stage("explain", (CORPUS_CLEAN, SPLITS, RATIONALES), _explain,
          "attribute rationale generation over evidence features"),
    Stage("eval-f1", (CORPUS_CLEAN, SPLITS, PREDICTIONS), _eval_f1,
          "score predictions with macro-F1 per split"),
    Stage("eval-nli", (CORPUS_CLEAN, SPLITS, NLES), _eval_nli,
          "audit test-split explanations with entailment checks"),
    Stage("annotate-export", (CORPUS_CLEAN, SPLITS, NLES), _annotate_export,
          "export a seeded sample of annotation tasks"),
    Stage("annotate-aggregate", (), _annotate_aggregate, "aggregate filled annotation files"),
    Stage("report", (EVAL_F1, EVAL_NLI), _report, "merge evaluation artifacts into one report"),
)}


class RunTable:
    """The artifacts one run_all holds: name -> (sha256 of the bytes, config hash, value).

    Each artifact is held from its write, as the value _write returned, so nothing the
    run wrote is decoded again. A later reader re-hashes the file and gets the held value
    only if both hashes are the same; other bytes are decoded and checked afresh, so a
    file rewritten after its write is never hidden. An artifact is held only if a
    command in `commands` reads it, and is dropped after its last reader.
    """

    def __init__(self, commands: Iterable[str]):
        self.readers = Counter(need for name in commands for need in COMMANDS[name].needs)
        self.entries: dict[str, tuple[str, str, Mapping]] = {}

    def read(self, config: PipelineConfig, name: str, config_hash: str) -> tuple[str, Mapping]:
        """Like _read: the sha256 of the bytes read and the read-only value."""
        digest, held_hash, value = self.entries.pop(name, (None, None, None))
        if (held_hash != config_hash  # the file may have changed since it was held
                or sha256(config.artifact(name).read_bytes()).hexdigest() != digest):
            digest, value = _read(config, name, config_hash)
        self.readers[name] -= 1
        self.hold(name, digest, config_hash, value)
        return digest, value

    def hold(self, name: str, digest: str, config_hash: str, value) -> None:
        """Hold `name`'s value, if a later command reads it."""
        if self.readers[name] > 0:
            self.entries[name] = digest, config_hash, value


def run_command(config: PipelineConfig, name: str, *, table: RunTable | None = None,
                **args) -> dict:
    """Run one table entry: check, read and decode its needs (through `table` if
    given), write its outputs (held in `table`), and stamp a manifest entry with the
    sha256 of every file it read and wrote."""
    stage = COMMANDS[name]
    for need in stage.needs:
        if not config.artifact(need).exists():
            raise MissingUpstreamArtifact(stage.name, config.artifact(need))
    config_hash = config.config_hash
    read = _read if table is None else table.read
    input_hashes, inputs = {}, []
    for need in stage.needs:
        input_hashes[Path(need).stem], value = read(config, need, config_hash)
        inputs.append(value)
    summary, outputs, *sources = stage.fn(config, config_hash, *inputs, **args)
    output_hashes = {}
    for output, payload in outputs.items():
        output_hashes[output], value = _write(config, output, config_hash, payload)
        if table is not None:
            table.hold(output, output_hashes[output], config_hash, value)
    if outputs:
        input_hashes.update(*sources)
        append_manifest(config, stage.name, config_hash, input_hashes, output_hashes)
    return summary


def _run_commands(config: PipelineConfig, names: tuple[str, ...],
                  table: RunTable | None = None) -> dict:
    """Run the named commands in order; return the last one's summary."""
    for name in names:
        summary = run_command(config, name, table=table)
    return summary


stage_ingest = partial(run_command, name="ingest")

# run_all's steps after ingest, in order, and the commands each runs: eval runs
# both evaluation halves, then the report that merges them.
STEPS: dict[str, tuple[str, ...]] = {
    **{name: (name,) for name in ("split", "rationales", "train", "predict", "nle", "explain")},
    "eval": ("eval-f1", "eval-nli", "report"),
}
# Each value is f(config, table=None).
STAGES: dict[str, Callable[..., dict]] = {
    step: partial(_run_commands, names=names) for step, names in STEPS.items()}
stage_split = STAGES["split"]
stage_rationales = STAGES["rationales"]


def run_stage(config: PipelineConfig, stage: str) -> dict:
    """Run one named stage; upstream artifacts must already exist."""
    if stage not in STAGES:
        raise ValidationError(f"unknown stage {stage!r}; stages: {', '.join(STAGES)}")
    return STAGES[stage](config)


def run_all(config: PipelineConfig) -> dict[str, dict]:
    """Ingest followed by every stage, in dependency order, sharing one RunTable."""
    if config.artifact(ANNOTATION_SUMMARY).exists():  # report reads it; refuse a stale one first
        _read(config, ANNOTATION_SUMMARY, config.config_hash)
    table = RunTable(name for names in STEPS.values() for name in names)
    summaries = {"ingest": stage_ingest(config, table=table)}
    for stage in STEPS:
        summaries[stage] = STAGES[stage](config, table=table)
    return summaries
