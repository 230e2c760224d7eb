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
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Literal, NamedTuple

from . import attribution, evaluation, nle, rationale, verdict
from .corpus import (
    ClaimRecord,
    CorpusSplits,
    CorpusStats,
    SourceBlocklist,
    VerdictLabel,
    compute_stats,
    filter_evidence,
    parse_corpus,
    split_corpus,
    EmptyEvidenceAfterFilter,
)
from .errors import (
    BackendError,
    BackendFailure,
    ValidationError,
    call_backend,
    check_fields,
    check_range,
    config_value,
)
from .store import (
    CorruptArtifact,
    digest,
    file_sha256,
    from_row,
    open_input,
    os_errors,
    parse_json,
    read_bytes,
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
        return digest(json.dumps(payload, sort_keys=True).encode("utf-8"))

    def artifact(self, name: str) -> Path:
        return Path(self.output_dir) / name


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    """Read a JSON config file, apply the overrides, and decode it through store.from_row.

    Keyword overrides are OVERRIDES flags; ENV_OVERRIDES variables stand in
    for the backend flags. Flags beat the environment, which beats the file.
    """
    with open_input(path, "config") as fh:
        raw = parse_json(fh.read(), f"config {path}")
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path} must be a JSON object, got {config_value(raw)}")

    env = {flag: os.environ[name] for name, flag in ENV_OVERRIDES.items() if os.environ.get(name)}
    flags = {flag: value for flag, value in overrides.items() if value is not None}
    for flag, value in {**env, **flags}.items():
        if flag not in OVERRIDES:
            raise ValidationError(f"unknown config override {flag!r}")
        section, _, key = OVERRIDES[flag].rpartition(".")
        target = raw.setdefault(section, {}) if section else raw
        if isinstance(target, dict):  # otherwise from_row rejects the section itself
            target[key] = value
    return from_row(PipelineConfig, raw, "config key")


def _create(registry: dict, backend_id: str, role: str):
    factory = registry.get(backend_id)
    if factory is None:
        known = ", ".join(sorted(registry))
        raise ValidationError(f"unknown {role} backend {backend_id!r}; registered: {known}")
    backend = call_backend(role, backend_id, factory)
    if backend.identity != backend_id:  # a rationale records its summarizer's identity
        raise ValidationError(f"{role} backend {backend_id!r} has identity "
                              f"{backend.identity!r}; register it under its identity")
    return backend


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
    with os_errors("write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


def _check_manifest(config: PipelineConfig) -> None:
    """Raise now if a manifest entry could not be appended later. Without an
    output directory there is no artifact to replace, so nothing is checked."""
    path = config.artifact(MANIFEST)
    if path.parent.is_dir():
        with os_errors("write", path):
            path.open("a", encoding="utf-8").close()


# ---------------------------------------------------------------------------
# Artifacts


@dataclass(frozen=True)
class ModelState:
    backend_id: str
    state: dict  # the classifier backend's snapshot


@dataclass(frozen=True)
class F1Report:
    macro_f1: dict[str, float | None]  # per split; null for a split with no prediction
    scored: dict[str, int]

    def __post_init__(self):
        for split, f1 in self.macro_f1.items():
            if f1 is not None and not 0 <= f1 <= 1:
                raise ValidationError(f"the macro-F1 of {split!r} is {f1}, not in [0, 1]")


@dataclass(frozen=True)
class HighlightRecord:
    record_id: str
    granularity: Literal["sentence", "token"]
    method: Literal["exact", "sampled"]
    features: tuple[str, ...]
    phi: tuple[float, ...]
    polarity: tuple[str, ...]


@dataclass(frozen=True)
class Highlights:
    records: tuple[HighlightRecord, ...]


@dataclass(frozen=True)
class EvalReport(F1Report):
    nli: evaluation.NliReport
    annotation: evaluation.AnnotationMeans | None = None  # present once annotations are aggregated


class Artifact(NamedTuple):
    kind: str | None = None  # header kind; None: no header, the text is written as given
    key: str | None = None  # record stores decode into {row[key]: record}, in file order
    cls: type | None = None  # the dataclass a document, or a store's row, decodes into
    stamped: bool = False  # record stores: each row ends with the header's config hash


ARTIFACTS: dict[str, Artifact] = {
    CORPUS_CLEAN: Artifact("corpus", "id", ClaimRecord),
    CORPUS_STATS: Artifact("stats", None, CorpusStats),
    SPLITS: Artifact("splits", None, CorpusSplits),
    RATIONALES: Artifact("rationales", "record_id", rationale.Rationale, stamped=True),
    MODEL_STATE: Artifact("model", None, ModelState),
    TRAIN_LOG: Artifact("train-log", None, verdict.TrainLog),
    PREDICTIONS: Artifact("predictions", "record_id", verdict.VerdictPrediction),
    NLES: Artifact("nles", "record_id", nle.NleText),
    HIGHLIGHTS: Artifact("highlights", None, Highlights),
    HIGHLIGHTS_HTML: Artifact(),
    EVAL_F1: Artifact("eval-f1", None, F1Report),
    EVAL_NLI: Artifact("eval-nli", None, evaluation.NliReport),
    EVAL_REPORT: Artifact("eval-report", None, EvalReport),
    ANNOTATION_TASKS: Artifact(),
    ANNOTATION_SUMMARY: Artifact("annotation-summary", None, evaluation.AnnotationSummary),
}


def _read(config: PipelineConfig, name: str, config_hash: str) -> tuple[str, object]:
    """Read one artifact's bytes once; return their sha256 and the checked, read-only value."""
    path, spec = config.artifact(name), ARTIFACTS[name]
    if spec.key is None:
        digest, doc = read_doc(path, spec.kind, config_hash)
        del doc["kind"], doc["config_hash"]  # read_doc has checked them
        try:
            return digest, from_row(spec.cls, doc, "key")
        except ValidationError as exc:
            raise CorruptArtifact(path, str(exc)) from exc
    digest, rows = read_records(path, spec.kind, config_hash)
    decoded = {}
    for line, row in rows:
        try:
            record_id = row[spec.key]
            stamp = row.pop("config_hash") if spec.stamped else config_hash
            record, repeated = from_row(spec.cls, row), record_id in decoded
        except (KeyError, ValidationError) as exc:  # a missing key, or a misfit
            raise CorruptArtifact(path, f"bad record ({type(exc).__name__}: {exc})", line) from exc
        if stamp != config_hash:
            raise CorruptArtifact(path, f"stamped with config {stamp!r}, not the header's", line)
        if name == RATIONALES and record.backend_id != config.backends.summarizer:
            raise CorruptArtifact(path, f"written by summarizer {record.backend_id!r}, not the "
                                        f"config's {config.backends.summarizer!r}", line)
        if repeated:
            raise CorruptArtifact(path, f"repeated {spec.key} {record_id!r}", line)
        decoded[record_id] = record
    return digest, MappingProxyType(decoded)


def _write(config: PipelineConfig, name: str, config_hash: str, payload) -> tuple[str, object]:
    """Encode and write one artifact; return the sha256 of the bytes written and the value.

    The value is what _read returns for those bytes: a read-only {key: record} for a
    store of records, and the payload itself for a document or a file without a header.
    """
    path, spec = config.artifact(name), ARTIFACTS[name]
    if spec.kind is None:
        return write_text(path, (payload,)), payload
    if spec.key is None:
        return write_doc(path, spec.kind, config_hash, to_row(payload)), payload
    records = MappingProxyType({getattr(record, spec.key): record for record in payload})
    rows = map(to_row, records.values())
    if spec.stamped:
        rows = ({**row, "config_hash": config_hash} for row in rows)
    return write_records(path, spec.kind, config_hash, rows), records


# ---------------------------------------------------------------------------
# Stage functions: fn(config, config_hash, *decoded needs, **command args)
# returns (summary, {artifact file name: payload}) plus, for stages that read
# files outside the output directory, {manifest key: sha256}. A store's payload
# is its records, a document's its dataclass value, a plain file's its text.


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

    stats = replace(compute_stats(records), dropped_ids=tuple(dropped))
    matches_benchmark = stats.total == BENCHMARK_TOTAL and stats.per_label == BENCHMARK_PER_LABEL
    summary = {**to_row(stats), "matches_benchmark": matches_benchmark}
    return summary, {CORPUS_CLEAN: records, CORPUS_STATS: stats}, sources


def _stats(config, config_hash, stats):  # the cleaned corpus; ingest names what it dropped
    return {key: value for key, value in to_row(stats).items() if key != "dropped_ids"}, {}


def _split(config, config_hash, records):
    splits = split_corpus(list(records.values()), config.ratios, config.split_seed)
    return {"sizes": splits.sizes(), "seed": splits.seed}, {SPLITS: splits}


def _rationales(config, config_hash, records, _splits):
    # splits is read only to check that it was made under this config
    backend = create_summarizer(config.backends.summarizer)
    result = rationale.batch_generate(list(records.values()), backend, config.summary)
    generated = list(result.rationales.values())
    return {"generated": len(generated), "failures": result.failures}, {RATIONALES: generated}


def _train(config, config_hash, records, splits, rationales):
    train_records = [records[i] for i in splits.train if i in rationales]
    val_records = [records[i] for i in splits.validation if i in rationales]
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
    return summary, {MODEL_STATE: ModelState(config.backends.classifier, state), TRAIN_LOG: log}


def _predict(config, config_hash, records, rationales, model):
    backend = create_classifier(model.backend_id)
    if isinstance(backend, verdict.TrainableBackend):
        try:
            call_backend("classifier", backend.identity, backend.restore, model.state)
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
            raise ValidationError(f"no rationale for record {prediction.record_id!r}")
        explanations.append(nle.compose_nle(prediction, rationales[prediction.record_id]))
    return {"explanations": len(explanations)}, {NLES: explanations}


def _explain(config, config_hash, records, splits, rationales):
    """Attribute rationale generation for the first few test records."""
    backend = create_summarizer(config.backends.summarizer)
    explain = config.explain
    target_ids = [i for i in splits.test if i in rationales][: explain.records]
    targets = [records[i] for i in target_ids]
    features = [attribution.evidence_features(r.evidence, explain.granularity) for r in targets]
    results = _attribute_all(targets, features, backend, config.summary, explain)
    out_records = []
    docs = []
    for record_id, result in zip(target_ids, results):
        docs.append(attribution.export_highlights(result, title=f"record {record_id}"))
        out_records.append(HighlightRecord(record_id, explain.granularity, result.method,
                                           result.features, result.phi,
                                           tuple(map(attribution.polarity, result.phi))))
    page = f"<!-- config_hash: {config_hash} -->\n{attribution.render_highlight_page(docs)}"
    return {"explained": target_ids}, {HIGHLIGHTS: Highlights(tuple(out_records)),
                                       HIGHLIGHTS_HTML: page}


# explain attributes its records in forked worker processes only when their value calls,
# as attribution.plan_attribution bounds them, exceed this many: below it, starting the
# workers costs about what they save. On a 2-CPU host with the stub summarizer, 2
# long-evidence records (2,713 calls) broke even and 3 (5,114 calls) ran 1.3x faster.
EXPLAIN_POOL_MIN_VALUE_CALLS = 4096

# In an explain worker process: (summarizer, SummaryConfig, ExplainSettings), set once by
# _start_explain_worker, so no task pickles the backend.
_worker_job: tuple = ()


def _attribute_record(record, features, backend, summary, explain):
    # attribution's functions are looked up at each call, where a tracer may have wrapped them
    value_fn = attribution.rationale_value_fn(record, features, backend, summary)
    return attribution.attribute(features, value_fn, explain.permutations, explain.seed)


def _start_explain_worker(*job) -> None:
    global _worker_job
    _worker_job = job


def _attribute_in_worker(record, features):
    return _attribute_record(record, features, *_worker_job)


def _attribute_all(targets, features, backend, summary, explain) -> list:
    """The AttributionResult of each target record, in order: in min(CPUs, records) forked
    worker processes when there are two of each, fork exists and the records' value calls
    exceed EXPLAIN_POOL_MIN_VALUE_CALLS; in this process otherwise. Every record's
    attribution is deterministic and independent of the others, so both give the same bytes."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(targets))
    calls = sum(attribution.plan_attribution(len(f), explain.permutations)[1] for f in features)
    job = backend, summary, explain
    if workers > 1 and calls > EXPLAIN_POOL_MIN_VALUE_CALLS:
        import multiprocessing  # the pool's modules cost start-up time and memory

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # Fork, not spawn: a worker inherits the backend, so one registered at run time,
            # or one that cannot be pickled, works in it too.
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_start_explain_worker, initargs=job) as pool:
                try:
                    return list(pool.map(_attribute_in_worker, targets, features, chunksize=1))
                except BrokenProcessPool as exc:
                    raise BackendError(f"an explain worker process died: {exc}") from exc
    return [_attribute_record(record, f, *job) for record, f in zip(targets, features)]


def _eval_f1(config, config_hash, records, splits, predictions):
    """Macro-F1 of stored predictions against gold labels, per split."""
    macro_f1, scored = {}, {}
    for split_name in ("validation", "test"):
        ids = [i for i in getattr(splits, split_name) if i in predictions]
        missing = len(getattr(splits, split_name)) - len(ids)
        if missing:
            logger.warning("%s split: %d records lack predictions", split_name, missing)
        golds = [records[i].verdict for i in ids]
        preds = [predictions[i].label for i in ids]
        macro_f1[split_name] = evaluation.macro_f1(preds, golds) if ids else None
        scored[split_name] = len(ids)
    report = F1Report(macro_f1, scored)
    return to_row(report), {EVAL_F1: report}


def _eval_nli(config, config_hash, records, splits, nles):
    """Entailment audit of the test-split explanations."""
    pairs = [(records[i].claim, nles[i].text) for i in splits.test if i in nles]
    report = evaluation.evaluate_nli(pairs, create_nli(config.backends.nli))
    return to_row(report), {EVAL_NLI: report}


def _annotate_export(config, config_hash, records, splits, nles, n=None):
    items = [(i, records[i].claim, nles[i].text) for i in splits.test if i in nles]
    n = config.annotation.n if n is None else n
    text = evaluation.render_annotation_tasks(
        items, n=n, seed=config.annotation.seed, system_id=config.annotation.system
    )
    summary = {"tasks": n, "path": str(config.artifact(ANNOTATION_TASKS))}
    return summary, {ANNOTATION_TASKS: text}


def _annotate_aggregate(config, config_hash, files):
    summary = evaluation.aggregate_annotations(files)
    return to_row(summary), {ANNOTATION_SUMMARY: summary}, {str(f): file_sha256(f) for f in files}


def _report(config, config_hash, f1, nli):
    """Merge the evaluation artifacts (and annotation means, if present)."""
    sources, means = {}, None
    if config.artifact(ANNOTATION_SUMMARY).exists():
        sources["annotation_summary"], annotation = _read(config, ANNOTATION_SUMMARY, config_hash)
        means = evaluation.AnnotationMeans(annotation.per_system, annotation.per_annotator)
    report = EvalReport(f1.macro_f1, f1.scored, nli, means)
    return to_row(report), {EVAL_REPORT: report}, sources


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
    """The artifacts one run holds: name -> (sha256 of the bytes, config hash, value).

    Every command reads its needs through a RunTable. run_all shares one across its
    commands, so each artifact is held from its write, as the value _write returned,
    and nothing the run wrote is decoded again; a single command gets an empty one,
    which holds nothing. A reader re-hashes the file and gets the held value only if
    both hashes are the same; other bytes are decoded and checked afresh, so a file
    rewritten after its write is never hidden. An artifact is held only if a command
    in `commands` reads it, and is dropped after its last reader.
    """

    def __init__(self, commands: Iterable[str] = ()):
        self.readers = Counter(need for name in commands for need in COMMANDS[name].needs)
        self.entries: dict[str, tuple[str, str, object]] = {}

    def read(self, config: PipelineConfig, name: str, config_hash: str) -> tuple[str, object]:
        """Like _read: the sha256 of the bytes read and the read-only value."""
        sha, held_hash, value = self.entries.pop(name, (None, None, None))
        if (held_hash != config_hash  # the file may have changed since it was held
                or digest(read_bytes(config.artifact(name))) != sha):
            sha, value = _read(config, name, config_hash)
        self.readers[name] -= 1
        self.hold(name, sha, config_hash, value)
        return sha, value

    def hold(self, name: str, sha: str, config_hash: str, value) -> None:
        """Hold `name`'s value, if a later command reads it."""
        if self.readers[name] > 0:
            self.entries[name] = sha, config_hash, value


def _check_splits(config: PipelineConfig, splits: CorpusSplits, records) -> None:
    """Refuse splits drawn with another seed or other ratios than the config's, or whose three
    lists together do not hold exactly the cleaned corpus's ids."""
    path = config.artifact(SPLITS)
    for key, drawn, configured in (("split_seed", splits.seed, config.split_seed),
                                   ("ratios", splits.ratios, config.ratios)):
        if drawn != configured:
            raise CorruptArtifact(path, f"drawn with {key} {config_value(drawn)}, "
                                        f"not the config's {config_value(configured)}")
    listed = {*splits.train, *splits.validation, *splits.test}
    if listed == records.keys():
        return
    for ids, detail in ((listed - records.keys(), f"is not in {CORPUS_CLEAN}"),
                        (records.keys() - listed, "is in no split")):
        if ids:
            raise CorruptArtifact(path, f"record id {min(ids)!r} {detail}")


def run_command(config: PipelineConfig, name: str, *, table: RunTable | None = None,
                **args) -> dict:
    """Run one COMMANDS entry: check its needs exist, read and decode them through
    `table` (run_all's, or an empty one), check splits.json against the config and the
    cleaned corpus when it reads both (_check_splits), write its outputs and hold them in
    `table`, and stamp a manifest entry with the sha256 of every file it read and wrote.
    The manifest is checked appendable before the first output is written."""
    stage = COMMANDS.get(name)
    if stage is None:
        raise ValidationError(f"unknown command {name!r}; commands: {', '.join(COMMANDS)}")
    for need in stage.needs:
        if not config.artifact(need).exists():
            raise ValidationError(f"stage {stage.name!r} needs missing artifact {need}; "
                                  "run earlier stages first")
    config_hash = config.config_hash
    table = table or RunTable()
    input_hashes, inputs = {}, []
    for need in stage.needs:
        input_hashes[Path(need).stem], value = table.read(config, need, config_hash)
        inputs.append(value)
    if {SPLITS, CORPUS_CLEAN} <= set(stage.needs):
        _check_splits(config, inputs[stage.needs.index(SPLITS)],
                      inputs[stage.needs.index(CORPUS_CLEAN)])
    summary, outputs, *sources = stage.fn(config, config_hash, *inputs, **args)
    if outputs:  # new files must not stand without the entry that records them
        _check_manifest(config)
    output_hashes = {}
    for output, payload in outputs.items():
        output_hashes[output], value = _write(config, output, config_hash, payload)
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


def run_all(config: PipelineConfig) -> dict[str, dict]:
    """Ingest followed by every stage, in dependency order, sharing one RunTable."""
    if config.artifact(ANNOTATION_SUMMARY).exists():  # report reads it; refuse a stale one first
        _read(config, ANNOTATION_SUMMARY, config.config_hash)
    table = RunTable(name for names in STEPS.values() for name in names)
    summaries = {"ingest": stage_ingest(config, table=table)}
    for stage in STEPS:
        summaries[stage] = STAGES[stage](config, table=table)
    return summaries
