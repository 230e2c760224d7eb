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
def _reference_counts(reference: str) -> tuple[int, dict[str, int]]:
    """Token count and {token: count} of a reference; shared across calls, never mutated."""
    tokens = tokenize(reference)
    return len(tokens), dict(Counter(tokens))


def token_f1(candidate: str, reference: str) -> float:
    """Token-overlap F1 between two texts (multiset intersection).

    Attribution scores many candidates against one reference, so the
    reference is tokenized and counted once. Each call copies those counts
    and spends them in one pass over the candidate's tokens: a token counts
    toward the overlap while its reference count lasts.
    """
    ref_len, ref_counts = _reference_counts(reference)
    cand = tokenize(candidate)
    if not cand and not ref_len:
        return 1.0
    unspent = ref_counts.copy()
    overlap = 0
    for token in cand:
        left = unspent.get(token)
        if left:
            unspent[token] = left - 1
            overlap += 1
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (len(cand) + ref_len)
