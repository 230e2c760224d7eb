"""Rationale generation: distill evidence into a bounded salient summary.

The generation path takes evidence text only. The claim never enters, by
signature, so rationales cannot lean toward either verdict. Summaries are
constrained to a [min_tokens, max_tokens] window in the backend's own
token unit (whitespace tokens for the bundled stub).
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import ValidationError, call_backend
from .store import check_fields, check_range
from .textutil import split_sentences, tokenize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SummaryConfig:
    """Token bounds for generated rationales.

    backend_max_input is the longest input the backend accepts; longer
    evidence is tail-truncated with a warning before summarization.
    """

    min_tokens: int = 75
    max_tokens: int = 120
    backend_max_input: int = 1024

    def __post_init__(self):
        check_fields(self, "summary")
        check_range("summary.min_tokens", self.min_tokens, 1)
        check_range("summary.max_tokens", self.max_tokens, self.min_tokens)
        check_range("summary.backend_max_input", self.backend_max_input, self.max_tokens)


@dataclass(frozen=True)
class Rationale:
    """Generated salient-evidence summary for one record."""

    record_id: str
    text: str
    token_length: int
    backend_id: str

    def __post_init__(self):
        if self.token_length != len(tokenize(self.text)):
            raise ValidationError(f"token_length {self.token_length} is not the "
                                  f"{len(tokenize(self.text))} tokens of the text")


class SummarizationBackend(ABC):
    """Abstractive summarizer plug-in point.

    Implementations must be deterministic for fixed state and input
    (decoding randomness disabled) so audits are reproducible.
    `explain` may call `summarize` in worker processes forked from the
    caller's (see errors.EXPLAIN_POOL_MIN_VALUE_CALLS): each holds a
    copy of the backend made at the fork, and what a call changes in it
    stays in that worker.
    """

    identity: str = "unspecified"

    @abstractmethod
    def summarize(self, evidence: str, config: SummaryConfig) -> str:
        """The summary text of `evidence`, within config's token bounds."""


def stub_summarize(evidence: str, config: SummaryConfig) -> str:
    """Deterministic lead-sentence summary.

    Accumulates leading sentences until the token count reaches
    min_tokens, then hard-truncates at max_tokens. Evidence shorter than
    min_tokens passes through unmodified.
    """
    if len(tokenize(evidence)) < config.min_tokens:
        return evidence
    picked: list[str] = []
    count = 0
    for sentence in split_sentences(evidence):
        picked.append(sentence)
        count += len(tokenize(sentence))
        if count >= config.min_tokens:
            break
    text = " ".join(picked)
    tokens = tokenize(text)
    if len(tokens) > config.max_tokens:
        text = " ".join(tokens[: config.max_tokens])
    return text


class LeadSummarizer(SummarizationBackend):
    """Desk-scale stub backend wrapping stub_summarize."""

    identity = "stub-lead"

    def summarize(self, evidence: str, config: SummaryConfig) -> str:
        return stub_summarize(evidence, config)


def summarize_evidence(
    evidence: str,
    backend: SummarizationBackend,
    config: SummaryConfig,
    record_id: str = "",
) -> str:
    """Summarize one evidence document into the backend's summary text.

    Inputs longer than config.backend_max_input tokens are truncated at
    the tail (a warning is logged). Backend exceptions surface as
    BackendFailure.
    """
    if not evidence or not evidence.strip():
        raise ValidationError(f"record {record_id!r}: evidence is empty")
    # k whitespace tokens span at least 2k - 1 characters, so evidence of at
    # most 2 * backend_max_input characters is within the limit uncounted.
    tokens = tokenize(evidence) if len(evidence) > 2 * config.backend_max_input else ()
    if len(tokens) > config.backend_max_input:
        logger.warning(
            "evidence for record %s has %d tokens; tail-truncating to %d",
            record_id or "<unknown>",
            len(tokens),
            config.backend_max_input,
        )
        evidence = " ".join(tokens[: config.backend_max_input])
    return call_backend("summarizer", backend.identity, backend.summarize, evidence, config)


def generate_rationale(
    evidence: str,
    backend: SummarizationBackend,
    config: SummaryConfig,
    record_id: str = "",
) -> Rationale:
    """Summarize one evidence document into a Rationale (see summarize_evidence)."""
    text = summarize_evidence(evidence, backend, config, record_id)
    return Rationale(
        record_id=record_id,
        text=text,
        token_length=len(tokenize(text)),
        backend_id=backend.identity,
    )
