"""Stage-wise pipeline engine.

One table, COMMANDS, declares every stage: the artifacts it needs and the
function that turns them into new artifacts; ARTIFACTS declares each file.
For each stage the engine checks that the needed artifacts exist, reads each
one's bytes once, refusing artifacts of a different configuration, decodes
them, checks how they relate to the config and to each other, encodes and
writes what the stage returns, and appends a manifest entry with the sha256 of
the bytes it decoded and wrote. Stages get read-only inputs. Within run_all a
RunTable holds each artifact from its write, as the value decoding its bytes
would give, so the run decodes nothing it wrote; a later reader gets the held
value only if the file's bytes still hash the same. Artifact files carry no
timestamps, so a rerun with the same config and inputs is byte-identical.
"""

from __future__ import annotations

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
    map_records,
)
from .store import (
    CANONICAL_ENCODER,
    CorruptArtifact,
    append_lines,
    check_fields,
    check_range,
    config_value,
    digest,
    file_digests,
    file_sha256,
    from_row,
    open_input,
    parse_json,
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

# CLI flag (load_config keyword) -> (the config key it overrides, its type, its help).
OVERRIDES = {
    "seed": ("split_seed", int, "override the split seed"),
    "limit": ("limit", int, "ingest only the first N records (fixture runs)"),
    "summarizer": ("backends.summarizer", str, "override the summarizer backend id"),
    "classifier": ("backends.classifier", str, "override the classifier backend id"),
    "nli": ("backends.nli", str, "override the NLI backend id"),
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
        return digest(CANONICAL_ENCODER.encode(payload).encode("utf-8"))

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
        section, _, key = OVERRIDES[flag][0].rpartition(".")
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


def create_classifier(backend_id: str) -> verdict.TrainableBackend:
    """train fine-tunes the classifier and predict restores its state: both need it trainable."""
    backend = _create(CLASSIFIER_BACKENDS, backend_id, "classifier")
    if not isinstance(backend, verdict.TrainableBackend):
        raise ValidationError(f"classifier backend {backend_id!r} is not trainable")
    return backend


def create_nli(backend_id: str) -> verdict.Text2TextBackend:
    return _create(NLI_BACKENDS, backend_id, "NLI")


def append_manifest(append: Callable[[dict], None], stage: str, config_hash: str,
                    input_hashes: dict[str, str], output_hashes: dict[str, str]) -> None:
    """Append one manifest entry through `append`, a store.append_lines function."""
    append({"stage": stage, "config_hash": config_hash, "input_hashes": input_hashes,
            "output_hashes": output_hashes, "timestamp": datetime.now(timezone.utc).isoformat()})


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
    annotation: evaluation.AnnotationSummary | None = None  # once annotations are aggregated


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
    """Read one artifact's bytes once; return their sha256 and the decoded, read-only value. A
    document is one row at no line. Checks the artifact alone: header, stamps, codec, repeats."""
    path, spec = config.artifact(name), ARTIFACTS[name]
    if spec.key is None:
        sha, doc = read_doc(path, spec.kind, config_hash)
        del doc["kind"], doc["config_hash"]  # read_doc has checked them
        rows = [(None, doc)]
    else:
        sha, rows = read_records(path, spec.kind, config_hash)
    decoded = {}
    for line, row in rows:
        try:
            record_id = row[spec.key] if spec.key else None
            stamp = row.pop("config_hash") if spec.stamped else config_hash
            record = from_row(spec.cls, row, "key" if line is None else "field")
        except (KeyError, ValidationError) as exc:  # a missing key, or a misfit
            detail = str(exc) if line is None else f"bad record ({type(exc).__name__}: {exc})"
            raise CorruptArtifact(path, detail, line) from exc
        if stamp != config_hash:
            raise CorruptArtifact(path, f"stamped with config {stamp!r}, not the header's", line)
        if record_id in decoded:
            raise CorruptArtifact(path, f"repeated {spec.key} {record_id!r}", line)
        decoded[record_id] = record
    return sha, decoded[None] if spec.key is None else MappingProxyType(decoded)


def _write(config: PipelineConfig, name: str, config_hash: str, payload) -> tuple[str, object]:
    """Encode and write one artifact; return the sha256 of the bytes written and the value.

    The value is what _read returns for those bytes: the payload itself, read-only for a
    store of records.
    """
    path, spec = config.artifact(name), ARTIFACTS[name]
    if spec.kind is None:
        return write_text(path, (payload,)), payload
    if spec.key is None:
        return write_doc(path, spec.kind, config_hash, to_row(payload)), payload
    records = MappingProxyType(payload)

    def rows():
        for record in records.values():
            row = to_row(record)
            if spec.stamped:  # to_row built the row, so the stamp goes into it, not a copy
                row["config_hash"] = config_hash
            yield row
    return write_records(path, spec.kind, config_hash, rows()), records


# ---------------------------------------------------------------------------
# Stage functions: fn(config, config_hash, *decoded needs, **command args)
# returns (summary, {artifact file name: payload}) plus, for stages that read
# files outside the output directory, {manifest key: sha256}. A store's payload
# is {key: record}, a document's its dataclass value, a plain file's its text. A
# stage that maps over its records names the failed ones in summary["failures"].


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
    return summary, {CORPUS_CLEAN: {r.id: r for r in records}, CORPUS_STATS: stats}, sources


def _stats(config, config_hash, stats):  # the cleaned corpus; ingest names what it dropped
    return {key: value for key, value in to_row(stats).items() if key != "dropped_ids"}, {}


def _split(config, config_hash, records):
    splits = split_corpus(list(records.values()), config.ratios, config.split_seed)
    return {"sizes": splits.sizes(), "seed": splits.seed}, {SPLITS: splits}


def _rationales(config, config_hash, records, _splits):
    # splits is read only to check that it was made under this config
    backend = create_summarizer(config.backends.summarizer)
    generated, failures = map_records(lambda record: rationale.generate_rationale(
        record.evidence, backend, config.summary, record.id), records)
    return {"generated": len(generated), "failures": failures}, {RATIONALES: generated}


def _train(config, config_hash, records, splits, rationales):
    train_records = [records[i] for i in splits.train if i in rationales]
    val_records = [records[i] for i in splits.validation if i in rationales]
    pairs = verdict.make_training_pairs(train_records, rationales)
    validation_pairs = verdict.make_training_pairs(val_records, rationales) or None

    backend = create_classifier(config.backends.classifier)
    state, log = verdict.fine_tune(pairs, config.train, backend, validation_pairs)

    summary = {
        "pairs": len(pairs),
        "steps": log.final_step,
        "best_validation_f1": log.best_validation_f1,
        "final_validation_f1": log.final_validation_f1,
    }
    return summary, {MODEL_STATE: ModelState(config.backends.classifier, state), TRAIN_LOG: log}


def _predict(config, config_hash, records, rationales, model):
    backend = create_classifier(config.backends.classifier)
    try:
        call_backend("classifier", backend.identity, backend.restore, model.state)
    except BackendFailure as exc:
        raise CorruptArtifact(config.artifact(MODEL_STATE),
                              f"cannot restore the state: {exc.detail}") from exc

    predictions, failures = map_records(
        lambda r: verdict.classify(r.claim, rationales[r.id], backend),
        {i: r for i, r in records.items() if i in rationales})
    skipped = [i for i in records if i not in rationales]
    if skipped:
        logger.warning("no rationale for %d records; skipped: %s", len(skipped), ", ".join(skipped))
    summary = {"predicted": len(predictions), "skipped": skipped, "failures": failures}
    return summary, {PREDICTIONS: predictions}


def _nle(config, config_hash, rationales, predictions):
    explanations = {i: nle.compose_nle(p, rationales[i]) for i, p in predictions.items()}
    return {"explanations": len(explanations)}, {NLES: explanations}


def _explain(config, config_hash, records, splits, rationales):
    """Attribute rationale generation for the first few test records."""
    backend = create_summarizer(config.backends.summarizer)
    explain = config.explain
    targets = {i: (records[i], attribution.evidence_features(records[i].evidence,
                                                             explain.granularity))
               for i in [i for i in splits.test if i in rationales][: explain.records]}
    calls = sum(attribution.plan_attribution(len(f), explain.permutations)[1]
                for _, f in targets.values())

    def attribute(target):  # attribution.* is looked up at each call, where a tracer may wrap it
        record, features = target
        value_fn = attribution.rationale_value_fn(record, features, backend, config.summary)
        return attribution.attribute(features, value_fn, explain.permutations, explain.seed)

    results, failures = map_records(attribute, targets, calls)
    out_records = [HighlightRecord(i, explain.granularity, r.method, r.features, r.phi,
                                   tuple(map(attribution.polarity, r.phi)))
                   for i, r in results.items()]
    docs = [attribution.export_highlights(r, title=f"record {i}") for i, r in results.items()]
    page = f"<!-- config_hash: {config_hash} -->\n{attribution.render_highlight_page(docs)}"
    return {"explained": list(results), "failures": failures}, {
        HIGHLIGHTS: Highlights(tuple(out_records)), HIGHLIGHTS_HTML: page}


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
    pairs = {i: (records[i].claim, nles[i].text) for i in splits.test if i in nles}
    report, failures = evaluation.evaluate_nli(pairs, create_nli(config.backends.nli))
    return {**to_row(report), "failures": failures}, {EVAL_NLI: report}


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
    """Merge the evaluation artifacts (and the annotation summary, if present)."""
    sources, annotation = {}, None
    if config.artifact(ANNOTATION_SUMMARY).exists():
        sources["annotation_summary"], annotation = _read(config, ANNOTATION_SUMMARY, config_hash)
    report = EvalReport(f1.macro_f1, f1.scored, nli, annotation)
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
    which holds nothing. A command first verifies its held needs, hashing their files
    at once (store.file_digests), and a reader gets the held value only if the file's
    digest is the held one; other bytes are decoded and checked afresh, so a file
    rewritten after its write is never hidden. An artifact is held only if a command
    in `commands` reads it, and is dropped after its last reader. `checked` holds the
    (config hash, input hashes) whose inputs have passed _check_inputs.
    """

    def __init__(self, commands: Iterable[str] = ()):
        self.readers = Counter(need for name in commands for need in COMMANDS[name].needs)
        self.entries: dict[str, tuple[str, str, object]] = {}
        self.digests: dict[str, str] = {}  # name -> its file's digest, taken by verify
        self.checked: set[tuple[str, frozenset]] = set()

    def verify(self, config: PipelineConfig, names: Iterable[str], config_hash: str) -> None:
        """Hash the files of those of `names` held under `config_hash`, all at once, for read
        to compare with what is held."""
        held = [name for name in names
                if name in self.entries and self.entries[name][1] == config_hash]
        self.digests = dict(zip(held, file_digests(map(config.artifact, held))))

    def read(self, config: PipelineConfig, name: str, config_hash: str) -> tuple[str, object]:
        """Like _read: the sha256 of the bytes read and the read-only value."""
        sha, held_hash, value = self.entries.pop(name, (None, None, None))
        # not held under this config, or its file was not verified to hash the same
        if held_hash != config_hash or self.digests.pop(name, None) != sha:
            sha, value = _read(config, name, config_hash)
        self.readers[name] -= 1
        self.hold(name, sha, config_hash, value)
        return sha, value

    def hold(self, name: str, sha: str, config_hash: str, value) -> None:
        """Hold `name`'s value, if a later command reads it."""
        if self.readers[name] > 0:
            self.entries[name] = sha, config_hash, value


def _check_inputs(config: PipelineConfig, held: dict[str, object]) -> None:
    """Refuse inputs, `held` by artifact name, that do not fit the config or each other: a model
    state or a rationale of another backend than the config's; splits of another seed or other
    ratios, or listing other ids than the cleaned corpus's; a rationale, prediction or NLE of a
    record the cleaned corpus lacks; a prediction without a rationale."""
    backends, rationales = config.backends, held.get(RATIONALES, {})
    model, splits, records = map(held.get, (MODEL_STATE, SPLITS, CORPUS_CLEAN))
    if model is not None and model.backend_id != backends.classifier:
        raise CorruptArtifact(config.artifact(MODEL_STATE), f"written for classifier "
                              f"{model.backend_id!r}, not the config's {backends.classifier!r}")
    for record in rationales.values():
        if record.backend_id != backends.summarizer:  # its rows are read again to name the line
            path, kind = config.artifact(RATIONALES), ARTIFACTS[RATIONALES].kind
            line = next((n for n, row in read_records(path, kind, config.config_hash)[1]
                         if row["record_id"] == record.record_id), None)
            raise CorruptArtifact(path, f"written by summarizer {record.backend_id!r}, not the "
                                        f"config's {backends.summarizer!r}", line)
    for record_id in held.get(PREDICTIONS, ()) if RATIONALES in held else ():  # in file order
        if record_id not in rationales:
            raise ValidationError(f"no rationale for record {record_id!r}")
    if records is None:
        return
    named = {name: held[name].keys() for name in (RATIONALES, PREDICTIONS, NLES) if name in held}
    if splits is not None:
        path = config.artifact(SPLITS)
        for key, drawn, configured in (("split_seed", splits.seed, config.split_seed),
                                       ("ratios", splits.ratios, config.ratios)):
            if drawn != configured:
                raise CorruptArtifact(path, f"drawn with {key} {config_value(drawn)}, "
                                            f"not the config's {config_value(configured)}")
        listed = {*splits.train, *splits.validation, *splits.test}
        if listed < records.keys():
            raise CorruptArtifact(path, f"record id {min(records.keys() - listed)!r} "
                                        "is in no split")
        named = {SPLITS: listed, **named}
    for name, ids in named.items():  # every id another input names is a cleaned record's
        if not ids <= records.keys():
            raise CorruptArtifact(config.artifact(name), f"record id "
                                  f"{min(ids - records.keys())!r} is not in {CORPUS_CLEAN}")


def run_command(config: PipelineConfig, name: str, *, table: RunTable | None = None,
                **args) -> dict:
    """Run one COMMANDS entry: check its needs exist, read and decode them through `table`
    (run_all's, or an empty one), check how they relate (_check_inputs, unless inputs of the
    same config hash and input hashes passed in `table` already), write its outputs and
    hold them in `table`, and stamp a manifest entry with the sha256 of every file it read and
    wrote. A command that writes nothing opens no manifest; any other opens it before its
    first output is written. If records failed, it then raises a BackendError naming them."""
    stage = COMMANDS.get(name)
    if stage is None:
        raise ValidationError(f"unknown command {name!r}; commands: {', '.join(COMMANDS)}")
    for need in stage.needs:
        if not config.artifact(need).exists():
            raise ValidationError(f"stage {stage.name!r} needs missing artifact {need}; "
                                  "run earlier stages first")
    config_hash = config.config_hash
    table = table or RunTable()
    input_hashes, held = {}, {}
    table.verify(config, stage.needs, config_hash)
    for need in stage.needs:
        input_hashes[Path(need).stem], held[need] = table.read(config, need, config_hash)
    # inputs of one config hash and the same bytes pass the same checks: check them once
    checked = config_hash, frozenset(input_hashes.items())
    if checked not in table.checked:
        _check_inputs(config, held)
        table.checked.add(checked)
    summary, outputs, *sources = stage.fn(config, config_hash, *held.values(), **args)
    if not outputs:
        return summary
    # opened before the first output is written, so no new file stands without its entry
    with append_lines(config.artifact(MANIFEST)) as append:
        output_hashes = {}
        for output, payload in outputs.items():
            output_hashes[output], value = _write(config, output, config_hash, payload)
            table.hold(output, output_hashes[output], config_hash, value)
        input_hashes.update(*sources)
        append_manifest(append, stage.name, config_hash, input_hashes, output_hashes)
    failures = summary.get("failures", {})  # errors.map_records' policy
    for record_id, reason in failures.items():
        logger.warning("record %s failed: %s", record_id, reason)
    if failures:
        record_id, reason = next(iter(failures.items()))
        raise BackendError(f"{stage.name}: {len(failures)} of its records failed and the others "
                           f"were written; the first, {record_id!r}: {reason}")
    return summary


def _run_commands(config: PipelineConfig, names: tuple[str, ...],
                  table: RunTable | None = None) -> dict:
    """Run the named commands in order; return the last one's summary."""
    for name in names:
        summary = run_command(config, name, table=table)
    return summary


# run_all's steps, in order, and the commands each runs: eval runs both evaluation
# halves, then the report that merges them.
STEPS: dict[str, tuple[str, ...]] = {
    **{name: (name,) for name in ("ingest", "split", "rationales", "train", "predict", "nle",
                                  "explain")},
    "eval": ("eval-f1", "eval-nli", "report"),
}
# Each value is f(config, table=None).
STAGES: dict[str, Callable[..., dict]] = {
    step: partial(_run_commands, names=names) for step, names in STEPS.items()}
stage_ingest = STAGES["ingest"]  # the name bench/tracing.py wraps


def run_all(config: PipelineConfig) -> dict[str, dict]:
    """Every stage of STEPS, from ingest on, in order, sharing one RunTable."""
    if config.artifact(ANNOTATION_SUMMARY).exists():  # report reads it; refuse a stale one first
        _read(config, ANNOTATION_SUMMARY, config.config_hash)
    table = RunTable(name for names in STEPS.values() for name in names)
    return {step: STAGES[step](config, table=table) for step in STEPS}
