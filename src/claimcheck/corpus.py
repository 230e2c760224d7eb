"""Claim/evidence corpus ingestion, cleaning, splitting, and statistics.

A corpus row carries {id, claim, date, source, verdict, evidence, url}.
Only binary-labelled rows are admitted: the raw "True"/"False" verdicts
map to Supports/Refutes, already-canonical labels pass through, and
everything else (Half True, Pants on Fire, ...) is rejected loudly.

Evidence cleaning removes paragraphs that cite any outlet on a
user-editable blocklist, keeping only primary-source material.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, fields, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from statistics import fmean
from typing import Iterable, Sequence

from .errors import ValidationError
from .store import open_input, parse_json
from .textutil import split_paragraphs, stats_tokenize

REQUIRED_NONEMPTY = ("id", "claim", "verdict", "evidence")


class VerdictLabel(Enum):
    """The closed two-value verdict set. There is no third state."""

    SUPPORTS = "Supports"
    REFUTES = "Refutes"


_RAW_LABEL_MAP = {"true": VerdictLabel.SUPPORTS, "false": VerdictLabel.REFUTES}
_CANONICAL_LABELS = {label.value: label for label in VerdictLabel}


class EmptyEvidenceAfterFilter(ValidationError):
    """Every evidence paragraph was blocklisted; the record must be dropped."""

    def __init__(self, record_id: str):
        super().__init__(f"record {record_id!r}: no evidence left after outlet filtering")
        self.record_id = record_id


@dataclass(frozen=True)
class ClaimRecord:
    """One claim with its evidence document, source metadata, and gold verdict."""

    id: str
    claim: str
    date: str
    source: str
    verdict: VerdictLabel
    evidence: str
    url: str


# The seven fields of a corpus row, each required.
FIELD_ORDER = tuple(f.name for f in fields(ClaimRecord))


@dataclass(frozen=True)
class SourceBlocklist:
    """Outlet names matched case-insensitively as substrings of a paragraph."""

    outlets: tuple[str, ...]

    def __post_init__(self):
        folded = [name.casefold() for name in self.outlets]
        if len(set(folded)) != len(folded):
            raise ValidationError("blocklist contains duplicate outlet names")

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "SourceBlocklist":
        """Normalize (strip, dedupe case-insensitively) while keeping order."""
        seen: set[str] = set()
        outlets: list[str] = []
        for name in names:
            name = name.strip()
            if not name or name.casefold() in seen:
                continue
            seen.add(name.casefold())
            outlets.append(name)
        return cls(tuple(outlets))

    @classmethod
    def from_file(cls, path: str | Path) -> "SourceBlocklist":
        """Plain-text list, one outlet per line, '#' comments allowed."""
        with open_input(path, "blocklist") as fh:
            return cls.from_names(ln for ln in fh if not ln.lstrip().startswith("#"))

    def matches(self, paragraph: str) -> bool:
        folded = paragraph.casefold()
        return any(name.casefold() in folded for name in self.outlets)


@dataclass(frozen=True)
class CorpusSplits:
    seed: int  # the seed and ratios that drew the record ids of each split
    ratios: tuple[float, ...]
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for record_id in self.train + self.validation + self.test:
            if record_id in seen:
                raise ValidationError(f"record id {record_id!r} is listed twice")
            seen.add(record_id)

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


@dataclass(frozen=True)
class CorpusStats:
    total: int
    per_label: dict[VerdictLabel, int]
    mean_claim_tokens: float
    mean_evidence_tokens: float
    dropped_ids: tuple[str, ...]  # records dropped, their evidence fully blocklisted

    def __post_init__(self):
        if sum(self.per_label.values()) != self.total:
            raise ValidationError(f"the per-label counts sum to {sum(self.per_label.values())}, "
                                  f"not to the total {self.total}")


def map_verdict_label(raw: str) -> VerdictLabel:
    """Map a raw binary verdict string: True -> Supports, False -> Refutes.

    Anything else, including the four excluded multi-grade classes, raises
    ValidationError; the corpus keeps only binary-labelled rows.
    """
    normalized = raw.strip().casefold()
    if normalized in _RAW_LABEL_MAP:
        return _RAW_LABEL_MAP[normalized]
    raise ValidationError(f"unsupported verdict label {raw!r}; only True/False rows are kept")


def _record_from_mapping(row_num: int, row: dict, seen_ids: set[str]) -> ClaimRecord:
    for name in FIELD_ORDER:
        if name not in row or row[name] is None:
            raise ValidationError(f"row {row_num}: missing or empty field {name!r}")
        if isinstance(row[name], (list, dict)):  # a number or a boolean is read as its text
            found = "an array" if isinstance(row[name], list) else "an object"
            raise ValidationError(f"row {row_num}: field {name!r} must be text, not {found}")
    for name in REQUIRED_NONEMPTY:
        if not str(row[name]).strip():
            raise ValidationError(f"row {row_num}: missing or empty field {name!r}")
    raw_verdict = str(row["verdict"]).strip()
    # Canonical labels (a raw corpus that spells Supports/Refutes) pass through; raw
    # labels go through the binary mapping, which rejects everything else.
    verdict = _CANONICAL_LABELS.get(raw_verdict)
    if verdict is None:
        try:
            verdict = map_verdict_label(raw_verdict)
        except ValidationError as exc:
            raise ValidationError(f"row {row_num}: {exc}") from None
    record_id = str(row["id"])
    if record_id in seen_ids:
        raise ValidationError(f"duplicate record id {record_id!r}")
    seen_ids.add(record_id)
    return ClaimRecord(
        id=record_id,
        claim=str(row["claim"]),
        date=str(row["date"]),
        source=str(row["source"]),
        verdict=verdict,
        evidence=str(row["evidence"]),
        url=str(row["url"]),
    )


def parse_corpus(path: str | Path, format: str = "json-lines") -> list[ClaimRecord]:
    """Load a corpus file into validated records.

    format is "json-lines" (one JSON object per line) or "delimited" (CSV/TSV
    with a header row naming the seven fields; quoted fields may hold line breaks).
    """
    if format not in ("json-lines", "delimited"):
        raise ValidationError(f"unknown corpus format {format!r}")
    records: list[ClaimRecord] = []
    seen_ids: set[str] = set()
    with open_input(path, "corpus", "" if format == "delimited" else "\n") as fh:
        if format == "delimited":
            delimiter = "\t" if "\t" in fh.readline() else ","
            fh.seek(0)
            for row_num, row in enumerate(csv.DictReader(fh, delimiter=delimiter), start=2):
                records.append(_record_from_mapping(row_num, row, seen_ids))
            return records
        # Lines end at "\n" only; a JSON string may hold U+2028, U+0085 and the
        # other breaks that str.splitlines also splits on.
        for row_num, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            row = parse_json(line, f"{path}: row {row_num}")
            if not isinstance(row, dict):
                raise ValidationError(f"{path}: row {row_num} is not a JSON object")
            records.append(_record_from_mapping(row_num, row, seen_ids))
    return records


def filter_evidence(record: ClaimRecord, blocklist: SourceBlocklist) -> ClaimRecord:
    """Drop every evidence paragraph citing a blocklisted outlet.

    Returns the record unchanged when nothing matches, otherwise a copy
    with the surviving paragraphs rejoined by blank lines. Raises
    EmptyEvidenceAfterFilter when nothing survives; callers drop (and
    log) such records.
    """
    paragraphs = split_paragraphs(record.evidence)
    kept = [p for p in paragraphs if not blocklist.matches(p)]
    if paragraphs and not kept:
        raise EmptyEvidenceAfterFilter(record.id)
    if len(kept) == len(paragraphs):
        return record
    return replace(record, evidence="\n\n".join(kept))


def split_corpus(
    records: Sequence[ClaimRecord],
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 42,
) -> CorpusSplits:
    """Seeded shuffle then contiguous slicing of the record ids into train/validation/test.

    Cumulative rounding keeps every split within one record of its exact
    ratio share; the three splits partition the input.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValidationError(f"need three non-negative ratios, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1.0, got {sum(ratios)!r}")
    shuffled = [record.id for record in records]
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    cut1 = round(n * ratios[0])
    cut2 = round(n * (ratios[0] + ratios[1]))
    return CorpusSplits(seed, tuple(ratios), tuple(shuffled[:cut1]), tuple(shuffled[cut1:cut2]),
                        tuple(shuffled[cut2:]))


def compute_stats(records: Sequence[ClaimRecord]) -> CorpusStats:
    """Per-label counts plus mean token lengths of claim and evidence.

    Token counts use whitespace tokenization after punctuation stripping,
    so they are backend-independent.
    """
    if not records:
        raise ValidationError("cannot compute statistics of an empty corpus")
    per_label = {label: 0 for label in VerdictLabel}
    for record in records:
        per_label[record.verdict] += 1
    return CorpusStats(
        total=len(records),
        per_label=per_label,
        mean_claim_tokens=fmean(len(stats_tokenize(r.claim)) for r in records),
        mean_evidence_tokens=fmean(len(stats_tokenize(r.evidence)) for r in records),
        dropped_ids=(),
    )


def default_blocklist_path() -> Path:
    """Path of the bundled 30-outlet starter blocklist (editable copy advised)."""
    return Path(str(resources.files("claimcheck").joinpath("data/blocklist.txt")))
