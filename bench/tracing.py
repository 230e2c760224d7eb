"""Span tracing of claimcheck from outside the package.

``Tracer.install`` replaces public functions at the names their callers
look them up under (``pipeline.read_records``, ``attribution.token_f1``,
the ``pipeline.STAGES`` table, ...) with wrappers that record one span per
call; ``uninstall`` puts the originals back. Nothing is wrapped unless a
traced run asks for it. Spans stay in memory until ``write``.

A span is ``(name, start, end, parent, iteration, error)``: ``parent`` is
the index of the enclosing span (-1 at top level), ``iteration`` the pass
it belongs to, and ``error`` whether the call raised. Self time is a
span's duration minus the durations of its direct children; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from claimcheck import attribution, cli, corpus, evaluation, nle, pipeline, rationale, verdict

STAGES = ("ingest", "split", "rationales", "train", "predict", "nle", "explain", "eval")
BACKEND_SPANS = ("backend.summarizer", "backend.classifier.generate",
                 "backend.classifier.train_step", "backend.nli")

# Per-layer metrics, in output order, with their units.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"pipeline.stage.{name}.s": "s" for name in STAGES},
    "pipeline.glue_self_s": "s",
    "pipeline.config_hash.calls": "count",
    "pipeline.config_hash.s": "s",
    "pipeline.manifest.s": "s",
    "store.read.calls": "count",
    "store.read.s": "s",
    "store.read.bytes": "bytes",
    "store.write.calls": "count",
    "store.write.s": "s",
    "store.write.bytes": "bytes",
    "store.hash.calls": "count",
    "store.hash.s": "s",
    "cli.self_ms": "ms",
    "corpus.parse.s": "s",
    "corpus.filter.s": "s",
    "corpus.split.s": "s",
    "corpus.stats.s": "s",
    "corpus.blocklist.calls": "count",
    "corpus.paragraphs_dropped": "count",
    "corpus.records_dropped": "count",
    "rationale.generate.calls": "count",
    "rationale.generate.s": "s",
    "rationale.failures": "count",
    "backend.summarizer.calls": "count",
    "backend.summarizer.s": "s",
    "backend.classifier.generate.calls": "count",
    "backend.classifier.generate.s": "s",
    "backend.classifier.train_step.calls": "count",
    "backend.classifier.train_step.s": "s",
    "backend.nli.calls": "count",
    "backend.nli.s": "s",
    "backend.failures": "count",
    "verdict.classify.calls": "count",
    "verdict.classify.s": "s",
    "verdict.fine_tune.s": "s",
    "nle.compose.calls": "count",
    "nle.compose.s": "s",
    "attribution.exact.calls": "count",
    "attribution.sampled.calls": "count",
    "attribution.value.calls": "count",
    "attribution.value.s": "s",
    "attribution.kernel_self_s": "s",
    "attribution.value_calls_per_record": "calls/record",
    "attribution.distinct_summary_ratio": "ratio",
    "attribution.token_f1.calls": "count",
    "attribution.token_f1.s": "s",
    "evaluation.nli.s": "s",
    "evaluation.macro_f1.s": "s",
    "trace.untraced_records_per_s": "1/s",
    "trace.traced_records_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

# (span name, owner, attribute): plain spans at the callers' names.
_SPAN_TARGETS = (
    ("pipeline.stage.ingest", pipeline, "stage_ingest"),
    ("pipeline.manifest", pipeline, "append_manifest"),
    ("store.hash", pipeline, "file_sha256"),
    ("corpus.parse", pipeline, "parse_corpus"),
    ("corpus.filter", pipeline, "filter_evidence"),
    ("corpus.split", pipeline, "split_corpus"),
    ("corpus.stats", pipeline, "compute_stats"),
    ("rationale.generate", rationale, "generate_rationale"),
    ("rationale.generate", attribution, "generate_rationale"),
    ("verdict.classify", verdict, "classify"),
    ("verdict.fine_tune", verdict, "fine_tune"),
    ("nle.compose", nle, "compose_nle"),
    ("attribution.exact", attribution, "exact_shapley"),
    ("attribution.sampled", attribution, "sampled_shapley"),
    ("evaluation.nli", evaluation, "evaluate_nli"),
    ("evaluation.macro_f1", evaluation, "macro_f1"),
    ("cli.main", cli, "main"),
)
_STORE_TARGETS = (
    ("store.read", "read_records"),
    ("store.read", "read_doc"),
    ("store.write", "write_records"),
    ("store.write", "write_doc"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.iteration = 0
        self.counts: Counter = Counter()  # (name, iteration) -> count
        self._stack: list[int] = []
        self._restore: list = []  # (setter, attr, original) in install order
        # (iteration, reference, summary) triples seen by attribution.token_f1
        self._summaries: set = set()

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` runs untimed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration, error)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_bytes(self, name: str):
        def after(args, _result):
            self.counts[(name, self.iteration)] += os.path.getsize(args[0])
        return after

    def _patch(self, owner, attr: str, wrapper_for) -> None:
        is_dict = isinstance(owner, dict)
        exists = attr in owner if is_dict else hasattr(owner, attr)
        if not exists:
            print(f"trace: {getattr(owner, '__name__', 'table')}.{attr} not found; "
                  "its layer reads 0", file=sys.stderr)
            return
        original = owner[attr] if is_dict else getattr(owner, attr)
        setter = owner.__setitem__ if is_dict else (lambda key, value: setattr(owner, key, value))
        setter(attr, wrapper_for(original))
        self._restore.append((setter, attr, original))

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for name, owner, attr in _SPAN_TARGETS:
            self._patch(owner, attr, lambda fn, name=name: self.span(name, fn))
        for name, attr in _STORE_TARGETS:
            after = self._count_bytes(f"{name}.bytes")
            self._patch(pipeline, attr, lambda fn, name=name, after=after:
                        self.span(name, fn, after=after))
        for stage in list(pipeline.STAGES):
            self._patch(pipeline.STAGES, stage,
                        lambda fn, stage=stage: self.span(f"pipeline.stage.{stage}", fn))
        self._patch(pipeline.PipelineConfig, "config_hash",
                    lambda prop: property(self.span("pipeline.config_hash", prop.fget)))
        self._patch(corpus.SourceBlocklist, "matches", self._count_matches)
        self._patch(attribution, "rationale_value_fn", self._trace_value_fn)
        self._patch(attribution, "token_f1", self._trace_token_f1)
        self._patch(pipeline, "create_summarizer",
                    lambda fn: self._trace_backend(fn, {"summarize": "backend.summarizer"}))
        self._patch(pipeline, "create_classifier",
                    lambda fn: self._trace_backend(fn, {
                        "generate": "backend.classifier.generate",
                        "train_step": "backend.classifier.train_step",
                    }))
        self._patch(pipeline, "create_nli",
                    lambda fn: self._trace_backend(fn, {"generate": "backend.nli"}))

    def uninstall(self) -> None:
        while self._restore:
            setter, attr, original = self._restore.pop()
            setter(attr, original)

    def _count_matches(self, matches):
        def counted(blocklist, paragraph):
            hit = matches(blocklist, paragraph)
            self.counts[("corpus.blocklist.calls", self.iteration)] += 1
            self.counts[("corpus.paragraphs_dropped", self.iteration)] += hit
            return hit
        return counted

    def _trace_value_fn(self, make_value_fn):
        def traced(*args, **kwargs):
            return self.span("attribution.value", make_value_fn(*args, **kwargs))
        return traced

    def _trace_token_f1(self, token_f1):
        timed = self.span("attribution.token_f1", token_f1)

        def traced(candidate, reference):
            self._summaries.add((self.iteration, hash(reference), hash(candidate)))
            return timed(candidate, reference)
        return traced

    def _trace_backend(self, create, methods: dict[str, str]):
        def traced(backend_id):
            backend = create(backend_id)
            # Instance attributes shadow the class methods, so calls the
            # backend makes on itself (train_step -> generate) are traced too.
            for method, name in methods.items():
                setattr(backend, method, self.span(name, getattr(backend, method)))
            return backend
        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "iteration", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, iterations: list[int]) -> dict[str, float]:
        """Per-layer metrics: the median over ``iterations`` of each per-pass value."""
        per_pass = [self._pass_metrics(i) for i in iterations]
        return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

    def _pass_metrics(self, iteration: int) -> dict[str, float]:
        spans = [(index, span) for index, span in enumerate(self.spans) if span[4] == iteration]
        child_time = defaultdict(float)
        for _, (name, start, end, parent, _, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_time, errors = Counter(), defaultdict(float), defaultdict(float), Counter()
        cli_self = []
        for index, (name, start, end, parent, _, error) in spans:
            duration = end - start
            own = duration - child_time[index]
            calls[name] += 1
            total[name] += duration
            self_time[name] += own
            errors[name] += error
            if name == "cli.main":
                cli_self.append(own)
        count = lambda name: self.counts[(name, iteration)]  # noqa: E731
        kernel_calls = calls["attribution.exact"] + calls["attribution.sampled"]
        value_calls = calls["attribution.value"]
        f1_calls = calls["attribution.token_f1"]
        distinct = sum(1 for s in self._summaries if s[0] == iteration)
        metrics = {f"pipeline.stage.{name}.s": total[f"pipeline.stage.{name}"] for name in STAGES}
        metrics.update({
            "pipeline.glue_self_s": sum(v for k, v in self_time.items()
                                        if k.startswith("pipeline.stage.")),
            "pipeline.config_hash.calls": calls["pipeline.config_hash"],
            "pipeline.config_hash.s": total["pipeline.config_hash"],
            "pipeline.manifest.s": total["pipeline.manifest"],
            "store.read.calls": calls["store.read"],
            "store.read.s": total["store.read"],
            "store.read.bytes": count("store.read.bytes"),
            "store.write.calls": calls["store.write"],
            "store.write.s": total["store.write"],
            "store.write.bytes": count("store.write.bytes"),
            "store.hash.calls": calls["store.hash"],
            "store.hash.s": total["store.hash"],
            "cli.self_ms": 1000 * statistics.median(cli_self) if cli_self else 0.0,
            "corpus.parse.s": total["corpus.parse"],
            "corpus.filter.s": total["corpus.filter"],
            "corpus.split.s": total["corpus.split"],
            "corpus.stats.s": total["corpus.stats"],
            "corpus.blocklist.calls": count("corpus.blocklist.calls"),
            "corpus.paragraphs_dropped": count("corpus.paragraphs_dropped"),
            # filter_evidence raises when nothing is left and ingest drops the record
            "corpus.records_dropped": errors["corpus.filter"],
            "rationale.generate.calls": calls["rationale.generate"],
            "rationale.generate.s": total["rationale.generate"],
            "rationale.failures": errors["rationale.generate"],
            "backend.failures": sum(errors[name] for name in BACKEND_SPANS),
            "verdict.classify.calls": calls["verdict.classify"],
            "verdict.classify.s": total["verdict.classify"],
            "verdict.fine_tune.s": total["verdict.fine_tune"],
            "nle.compose.calls": calls["nle.compose"],
            "nle.compose.s": total["nle.compose"],
            "attribution.exact.calls": calls["attribution.exact"],
            "attribution.sampled.calls": calls["attribution.sampled"],
            "attribution.value.calls": value_calls,
            "attribution.value.s": total["attribution.value"],
            "attribution.kernel_self_s": self_time["attribution.exact"]
            + self_time["attribution.sampled"],
            "attribution.value_calls_per_record": value_calls / kernel_calls if kernel_calls else 0.0,
            # Empty coalitions return before token_f1, so token_f1 calls, not
            # value calls, are the calls that can repeat a summary.
            "attribution.distinct_summary_ratio": distinct / f1_calls if f1_calls else 0.0,
            "attribution.token_f1.calls": f1_calls,
            "attribution.token_f1.s": total["attribution.token_f1"],
            "evaluation.nli.s": total["evaluation.nli"],
            "evaluation.macro_f1.s": total["evaluation.macro_f1"],
        })
        for name in BACKEND_SPANS:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = total[name]
        return metrics
