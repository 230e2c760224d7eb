"""Outcome evaluation: macro-F1 scoring, entailment auditing of the
explanations, and export/aggregation of manual-annotation files.

Percentages in the entailment report are truncated (not rounded) to one
decimal so they reproduce the published benchmark rendering exactly.
"""

from __future__ import annotations

import csv
import io
import random
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import dropwhile
from pathlib import Path
from statistics import fmean
from typing import Mapping, Sequence

from .corpus import VerdictLabel
from .errors import ValidationError, call_backend, map_records
from .store import open_input
from .verdict import Text2TextBackend, UndecodableGeneration


# ---------------------------------------------------------------------------
# Verdict scoring


def confusion_counts(
    predictions: Sequence[VerdictLabel], golds: Sequence[VerdictLabel]
) -> dict[tuple[VerdictLabel, VerdictLabel], int]:
    """Counts per (gold, predicted) label pair; total equals len(golds)."""
    counts = {(g, p): 0 for g in VerdictLabel for p in VerdictLabel}
    for gold, pred in zip(golds, predictions):
        counts[(gold, pred)] += 1
    return counts


def macro_f1(predictions: Sequence[VerdictLabel], golds: Sequence[VerdictLabel]) -> float:
    """Unweighted mean of per-class F1 over the two verdict classes.

    A class absent from both golds and predictions contributes F1 = 0 by
    convention (with a warning) rather than being dropped from the mean.
    """
    if len(predictions) != len(golds):
        raise ValidationError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValidationError("nothing to score")
    counts = confusion_counts(predictions, golds)
    f1s = []
    for label in VerdictLabel:
        tp = counts[(label, label)]
        fp = sum(counts[(g, label)] for g in VerdictLabel if g != label)
        fn = sum(counts[(label, p)] for p in VerdictLabel if p != label)
        if tp + fp + fn == 0:
            warnings.warn(f"class {label.value} absent from golds and predictions; F1 := 0")
            f1s.append(0.0)
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / len(f1s)


# ---------------------------------------------------------------------------
# Entailment audit of the explanations


class NliVerdict(Enum):
    ENTAILMENT = "Entailment"
    NEUTRAL = "Neutral"
    CONTRADICTION = "Contradiction"


_NLI_DECODE = {label.value.casefold(): label for label in NliVerdict}
# The closed choice set of the stub entailment backend, in NliVerdict order.
NLI_CHOICES = tuple(label.value for label in NliVerdict)

NLI_PROMPT_PREFIX = "cb hypothesis: "
NLI_PREMISE_MARKER = " premise: "


def one_decimal_pct(count: int, total: int) -> float:
    """Percentage truncated to one decimal (integer arithmetic, no drift)."""
    return (count * 1000) // total / 10


@dataclass(frozen=True)
class NliReport:
    total: int
    counts: dict[NliVerdict, int]
    percentages: dict[NliVerdict, float]

    def __post_init__(self):
        counts = {label.value: count for label, count in self.counts.items()}
        if (self.total < 1 or sum(counts.values()) != self.total
                or min(counts.values(), default=0) < 0):
            raise ValidationError(f"counts {counts} must be >= 0 and sum to the total "
                                  f"{self.total}, which is at least 1")
        if self.percentages != {label: one_decimal_pct(count, self.total)
                                for label, count in self.counts.items()}:
            raise ValidationError("each percentage must be its count's share of the total, "
                                  "truncated to one decimal")

    @classmethod
    def from_verdicts(cls, verdicts: Sequence[NliVerdict]) -> "NliReport":
        if not verdicts:
            raise ValidationError("no entailment verdicts to report")
        counts = {label: 0 for label in NliVerdict}
        for verdict in verdicts:
            counts[verdict] += 1
        total = len(verdicts)
        percentages = {label: one_decimal_pct(counts[label], total) for label in NliVerdict}
        return cls(total=total, counts=counts, percentages=percentages)


def build_nli_prompt(claim: str, explanation: str) -> str:
    """Serialize the entailment query: can the claim be deduced from the explanation text."""
    if not claim.strip():
        raise ValidationError("claim is empty")
    if not explanation.strip():
        raise ValidationError("explanation text is empty")
    return f"{NLI_PROMPT_PREFIX}{claim}{NLI_PREMISE_MARKER}{explanation}"


def decode_nli(raw: str) -> NliVerdict:
    verdict = _NLI_DECODE.get(raw.strip().casefold()) if isinstance(raw, str) else None
    if verdict is None:
        raise UndecodableGeneration(f"cannot decode NLI output {raw!r}", raw)
    return verdict


def evaluate_nli(records: Mapping[str, tuple[str, str]],
                 nli_backend: Text2TextBackend) -> tuple[NliReport, dict[str, str]]:
    """The entailment audit of {record id: (claim, explanation)}: (report, failed records)."""
    if not records:
        raise ValidationError("no records to evaluate")
    verdicts, failures = map_records(lambda pair: decode_nli(call_backend(
        "NLI", nli_backend.identity, nli_backend.generate, build_nli_prompt(*pair))),
        records)
    return NliReport.from_verdicts(list(verdicts.values())), failures


# ---------------------------------------------------------------------------
# Manual-evaluation schema

CRITERIA = ("plausibility", "fluency", "correctness")

RATING_SCALES: dict[str, dict[int, str]] = {
    "plausibility": {
        5: "Very Convincing",
        4: "Slightly Convincing",
        3: "Slightly Not Convincing",
        2: "Not Convincing",
        1: "Can Not Judge",
    },
    "fluency": {
        5: "Flawless English",
        4: "Good English",
        3: "Non-native English",
        2: "Disfluent English",
        1: "Incomprehensible",
    },
    "correctness": {
        5: "Absolutely True",
        4: "Probably True",
        3: "Probably Not True",
        2: "Absolutely Not True",
        1: "Can Not Judge",
    },
}

# The annotation file's columns: the exporter writes them and the reader holds files to them.
_COLUMNS = ("item_id", "claim", "nle", *CRITERIA, "annotator_id", "system_id")


def _flatten(text: str) -> str:
    # Annotation files are flat tabular text; collapse line/tab structure.
    return " ".join(text.split())


def _legend_lines() -> list[str]:
    lines = ["# Rate each item on the three criteria using the integer scales below."]
    for criterion in CRITERIA:
        scale = " | ".join(
            f"{rating}={label}" for rating, label in sorted(RATING_SCALES[criterion].items(), reverse=True)
        )
        lines.append(f"# {criterion}: {scale}")
    lines.append("# Fill in your annotator_id and leave the other columns untouched.")
    return lines


def render_annotation_tasks(
    items: Sequence[tuple[str, str, str]],
    n: int = 100,
    seed: int = 0,
    system_id: str = "claimcheck",
) -> str:
    """The annotation file text of a seeded sample of (item_id, claim, nle) triples.

    The file is tab-separated with a '#' legend embedding the rating
    scales; the rating and annotator columns start empty.
    """
    if n < 0:
        raise ValidationError(f"annotation sample size n must be >= 0, got {n}")
    if n > len(items):
        raise ValidationError(f"asked for {n} tasks but only {len(items)} items available")
    sampled = random.Random(seed).sample(list(items), n)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, _COLUMNS, delimiter="\t", lineterminator="\n")
    writer.writeheader()
    for item_id, claim, nle_text in sampled:
        writer.writerow({"item_id": item_id, "claim": _flatten(claim), "nle": _flatten(nle_text),
                         "system_id": system_id})
    return "\n".join(_legend_lines()) + "\n" + buffer.getvalue()


def read_annotation_file(path: str | Path) -> list[dict[str, str]]:
    """Read a (possibly filled) annotation file into row dicts keyed by _COLUMNS. '#' and blank
    lines are skipped only before the header row, which must name each column exactly once, in
    any order; after it each non-empty line is a row of one value per column (ids may begin '#')."""
    with open_input(path, "annotation file", "") as fh:
        rows = csv.reader(dropwhile(lambda ln: ln[0] == "#" or ln.isspace(), fh), delimiter="\t")
        header = next(rows, [])
        if sorted(header) != sorted(_COLUMNS):
            raise ValidationError(f"{path}: the header row must name each of the columns "
                                  f"{', '.join(_COLUMNS)} exactly once")
        records = []
        for number, row in enumerate(filter(None, rows), start=1):
            if len(row) != len(header):
                raise ValidationError(f"{path}: row {number} holds {len(row)} values, "
                                      f"not one per column ({len(header)})")
            records.append(dict(zip(header, row)))
    return records


@dataclass(frozen=True)
class AnnotationSummary:
    """Mean ratings per criterion, grouped by system and by annotator."""

    per_system: dict[str, dict[str, float]]
    per_annotator: dict[str, dict[str, float]]
    n_items: int
    n_annotators: int


def _parse_rating(file: str, item: str, value: str) -> int:
    try:
        rating = int(value.strip())
    except ValueError:
        raise ValidationError(f"{file}: item {item!r} has rating {value!r} "
                              "outside 1..5") from None
    if not 1 <= rating <= 5:
        raise ValidationError(f"{file}: item {item!r} has rating {str(rating)!r} outside 1..5")
    return rating


def aggregate_annotations(files: Sequence[str | Path]) -> AnnotationSummary:
    """Arithmetic means per criterion across annotators and items.

    Grouped by the system column so externally produced files can be
    compared side by side; per-annotator means are reported as well. A
    blank system or annotator cell is grouped under "unknown". An item
    rated twice by one annotator for one system, in one file or across
    files, is refused. No file, like files with no rated row, gives a
    summary of nothing.
    """
    groups: dict[str, dict[str, list[tuple[int, ...]]]] = {"system_id": {}, "annotator_id": {}}
    seen: set[tuple[str, ...]] = set()  # (item, system, annotator)
    for file in files:
        for row in read_annotation_file(file):
            item = row["item_id"]
            ratings = tuple(_parse_rating(str(file), item, row[c]) for c in CRITERIA)
            names = {column: row[column] or "unknown" for column in groups}
            key = (item, *names.values())
            if key in seen:
                raise ValidationError(f"{file}: item {item!r} is rated twice by annotator "
                                      f"{names['annotator_id']!r} for system "
                                      f"{names['system_id']!r}")
            seen.add(key)
            for column, by_name in groups.items():
                by_name.setdefault(names[column], []).append(ratings)
    per_system, per_annotator = (
        {name: dict(zip(CRITERIA, map(fmean, zip(*rated)))) for name, rated in by_name.items()}
        for by_name in groups.values())
    n_items = len({item for item, *_ in seen})
    return AnnotationSummary(per_system, per_annotator, n_items, len(per_annotator))
