"""Tokenization and text segmentation shared by the pipeline.

The sentence splitter is a deliberately simple punctuation/newline rule:
good enough for lead-sentence summaries and sentence-level attribution
without pulling in an NLP dependency.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from functools import lru_cache
from itertools import repeat

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+|\n+")
_PARAGRAPH_BOUNDARY = re.compile(r"\n\s*\n")


def tokenize(text: str) -> list[str]:
    """Whitespace tokens; the token unit of the bundled stub backends."""
    return text.split()


def stats_tokenize(text: str) -> list[str]:
    """Whitespace tokens after punctuation stripping, for corpus statistics."""
    return text.translate(_PUNCT_TABLE).split()


def split_sentences(text: str) -> list[str]:
    """Split after terminal punctuation or at line breaks, keeping punctuation."""
    return [p.strip() for p in _SENTENCE_BOUNDARY.split(text) if p and p.strip()]


def split_paragraphs(text: str) -> list[str]:
    """Split on blank lines, falling back to single newlines when there are none."""
    parts = [p.strip() for p in _PARAGRAPH_BOUNDARY.split(text) if p.strip()]
    if len(parts) <= 1 and "\n" in text.strip():
        parts = [p.strip() for p in text.split("\n") if p.strip()]
    return parts


@lru_cache(maxsize=64)
def _reference_counts(reference: str) -> tuple[int, Counter]:
    """Token count and multiset of a reference; shared across calls, never mutated."""
    tokens = tokenize(reference)
    return len(tokens), Counter(tokens)


def token_f1(candidate: str, reference: str) -> float:
    """Token-overlap F1 between two texts (multiset intersection).

    Attribution scores many candidates against one reference, so the
    reference is tokenized and counted once.
    """
    ref_len, ref_counts = _reference_counts(reference)
    cand = tokenize(candidate)
    if not cand and not ref_len:
        return 1.0
    counts = Counter(cand)
    overlap = sum(map(min, counts.values(), map(ref_counts.get, counts, repeat(0))))
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (len(cand) + ref_len)
