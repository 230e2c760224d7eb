"""Seeded workload inputs for the claimcheck benchmark.

Each workload writes a corpus, a copy of the shipped blocklist and a
pipeline config into a work directory; the package only ever sees those
files. Corpora come from the unmodified factories in ``tests/helpers.py``.
Every workload also states the counts its cleaned corpus must have, so the
benchmark can check the program's outputs against numbers it did not
compute with the program.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import helpers

RATIOS = (0.70, 0.15, 0.15)
SUPPORTS, REFUTES = "Supports", "Refutes"

# Outlets from the shipped blocklist that long-evidence paragraphs cite.
CITED_OUTLETS = ("CNN", "Reuters", "Associated Press", "Politico", "Bloomberg", "NPR")


@dataclass(frozen=True)
class Expected:
    total: int
    per_label: dict[str, int]
    splits: tuple[int, int, int]
    explained: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_rows: Callable[[int], list[dict]]
    expected: Expected
    # Fixed per workload, so the tail means the same thing however fast a pass is.
    tail_percentile: int
    explain: dict = field(default_factory=dict)


def split_sizes(total: int) -> tuple[int, int, int]:
    """Train/validation/test sizes by cumulative rounding of RATIOS."""
    cut1 = round(total * RATIOS[0])
    cut2 = round(total * (RATIOS[0] + RATIOS[1]))
    return (cut1, cut2 - cut1, total - cut2)


# -- long-evidence -----------------------------------------------------------

LONG_RAW = 1010
LONG_SUPPORTS = 505
LONG_DROP_EVERY = 101  # rows i with i % 101 == 100 cite blocklisted outlets only


def _dropped(i: int) -> bool:
    return i % LONG_DROP_EVERY == LONG_DROP_EVERY - 1


def _citation(rng: random.Random) -> str:
    words = " ".join(rng.choice(helpers.WORDS) for _ in range(rng.randint(4, 8)))
    return f"According to {rng.choice(CITED_OUTLETS)}, the {words} changed."


def long_rows(seed: int, raw: int = LONG_RAW, supports: int = LONG_SUPPORTS) -> list[dict]:
    """make_rows corpus regrouped into paragraphs, some citing blocklisted outlets.

    Row i keeps 8 + i % 5 sentences. The sentence count decides whether
    explain enumerates (<= 10 features) or samples, and the cleaned corpus
    always has the same size, so the records explain picks (the first 50 of
    the test split) have the same feature mix on every seed. A seeded share
    of rows gets extra paragraphs that cite an outlet, which ingest drops;
    every 101st row cites outlets only, so ingest drops the whole record.
    """
    rows = helpers.make_rows(raw, supports, seed=seed, sentences=(12, 12))
    rng = random.Random(seed)
    for i, row in enumerate(rows):
        if _dropped(i):
            row["evidence"] = "\n\n".join(_citation(rng) for _ in range(2))
            continue
        sentences = _sentences(row["evidence"])[: 8 + i % 5]
        paragraphs = []
        while sentences:
            take = rng.randint(2, 4)
            paragraphs.append(" ".join(sentences[:take]))
            sentences = sentences[take:]
        if rng.random() < 0.4:
            for _ in range(rng.randint(1, 2)):
                paragraphs.insert(rng.randint(0, len(paragraphs)), _citation(rng))
        row["evidence"] = "\n\n".join(paragraphs)
    return rows


def _sentences(evidence: str) -> list[str]:
    # make_rows ends every sentence with "." and joins them with one space.
    return [s + "." for s in evidence.rstrip(".").split(". ")]


def long_expected(raw: int = LONG_RAW, supports: int = LONG_SUPPORTS,
                  explained: int = 50) -> Expected:
    kept = [i for i in range(raw) if not _dropped(i)]
    kept_supports = sum(1 for i in kept if i < supports)
    return Expected(
        total=len(kept),
        per_label={SUPPORTS: kept_supports, REFUTES: len(kept) - kept_supports},
        splits=split_sizes(len(kept)),
        explained=explained,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk-4006",
            why="published corpus shape, one run_all per pass: per-row store, "
                "config-hash, prompt-hash and blocklist overheads dominate",
            make_rows=helpers.benchmark_shaped_rows,
            expected=Expected(4006, {SUPPORTS: 2013, REFUTES: 1993}, (2804, 601, 601), 3),
            tail_percentile=90,
        ),
        Workload(
            name="long-evidence",
            why="1000 rows of 8-12 sentences with blocklisted paragraphs, explain on 50 "
                "records: Shapley attribution dominates and ingest takes the drop path",
            make_rows=long_rows,
            expected=long_expected(),
            explain={"records": 50},
            # Stage latencies fall in clusters (explain takes about 85% of a pass);
            # p80 lies inside the rationales cluster, not in a gap between two.
            tail_percentile=80,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, work: Path, blocklist: Path) -> Path:
    """Write corpus, blocklist and config under ``work``; return the config path."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    corpus = helpers.write_corpus(work / "corpus.jsonl", workload.make_rows(seed))
    blocklist_copy = work / "blocklist.txt"
    shutil.copyfile(blocklist, blocklist_copy)
    extra = {"blocklist_path": str(blocklist_copy)}
    if workload.explain:
        extra["explain"] = workload.explain
    return helpers.write_config(work / "config.json", corpus, work / "out", **extra)
