from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.corpus import parse_corpus
from claimcheck.errors import BackendFailure, ValidationError, map_records
from claimcheck.rationale import (
    LeadSummarizer,
    SummarizationBackend,
    SummaryConfig,
    generate_rationale,
    stub_summarize,
    summarize_evidence,
)
from claimcheck.textutil import tokenize

from helpers import make_rows, write_corpus

BACKEND = LeadSummarizer()


def sentences_of(sentence_lengths, seed=0):
    rng = random.Random(seed)
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    return [
        " ".join(rng.choice(words) for _ in range(k)) + "." for k in sentence_lengths
    ]


def evidence_of(sentence_lengths, seed=0):
    return " ".join(sentences_of(sentence_lengths, seed=seed))


# ---------------------------------------------------------------------------
# Stub summarizer


def test_stub_truncates_to_max_tokens():
    config = SummaryConfig(min_tokens=5, max_tokens=5, backend_max_input=10)
    assert stub_summarize("a b c d e f", config) == "a b c d e"


def test_stub_accumulates_leading_sentences():
    # Two 40-token sentences reach the 75-token floor; the third is never taken.
    sentences = sentences_of([40, 40, 40])
    result = stub_summarize(" ".join(sentences), SummaryConfig())
    assert result == " ".join(sentences[:2])
    assert 75 <= len(tokenize(result)) <= 120


def test_stub_single_sentence_at_max_is_unchanged():
    evidence = evidence_of([120])
    assert stub_summarize(evidence, SummaryConfig()) == evidence


def test_stub_short_evidence_passes_through():
    evidence = "only ten tokens of evidence are present right here now"
    assert stub_summarize(evidence, SummaryConfig()) == evidence


def test_stub_deterministic():
    evidence = evidence_of([30, 30, 30, 30], seed=3)
    config = SummaryConfig()
    assert stub_summarize(evidence, config) == stub_summarize(evidence, config)


def test_typical_length_evidence_lands_in_bounds():
    # A 449-token document, the average evidence length in the benchmark.
    lengths = [15] * 29 + [14]
    evidence = evidence_of(lengths, seed=8)
    assert len(tokenize(evidence)) == 449
    out = stub_summarize(evidence, SummaryConfig())
    assert 75 <= len(tokenize(out)) <= 120


def test_stub_bound_compliance_over_varied_evidence():
    config = SummaryConfig()
    for seed in range(25):
        rng = random.Random(seed)
        lengths = [rng.randint(8, 40) for _ in range(rng.randint(3, 15))]
        evidence = evidence_of(lengths, seed=seed)
        if len(tokenize(evidence)) < config.min_tokens:
            continue
        out_len = len(tokenize(stub_summarize(evidence, config)))
        assert config.min_tokens <= out_len <= config.max_tokens


# ---------------------------------------------------------------------------
# generate_rationale


def test_generate_sets_metadata():
    evidence = evidence_of([40, 40, 40])
    r = generate_rationale(evidence, BACKEND, SummaryConfig(), record_id="r7")
    assert r.record_id == "r7"
    assert r.backend_id == "stub-lead"
    assert r.token_length == len(tokenize(r.text))


def test_generate_empty_evidence_raises():
    with pytest.raises(ValidationError, match="^record 'r1': evidence is empty$"):
        generate_rationale("   ", BACKEND, SummaryConfig(), record_id="r1")


def test_generate_tail_truncates_overlong_input(caplog):
    config = SummaryConfig(min_tokens=3, max_tokens=5, backend_max_input=8)
    evidence = "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t12"
    with caplog.at_level("WARNING"):
        r = generate_rationale(evidence, BACKEND, config, record_id="r1")
    assert r.text == "t1 t2 t3 t4 t5"
    assert any("tail-truncating" in m for m in caplog.messages)


class FailingBackend(SummarizationBackend):
    identity = "stub-failing"

    def summarize(self, evidence, config):
        raise RuntimeError("synthetic outage")


def test_backend_exception_wrapped():
    with pytest.raises(BackendFailure, match="synthetic outage"):
        generate_rationale("e1 e2 e3", FailingBackend(), SummaryConfig(min_tokens=1, max_tokens=5))


class EchoBackend(SummarizationBackend):
    identity = "stub-echo"

    def summarize(self, evidence, config):
        return evidence


def test_summarize_evidence_is_the_rationale_path(caplog):
    config = SummaryConfig(min_tokens=3, max_tokens=5, backend_max_input=8)
    evidence = "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t12"
    with caplog.at_level("WARNING"):
        text = summarize_evidence(evidence, EchoBackend(), config, record_id="r1")
    # the backend sees the input tail-truncated at backend_max_input
    assert text == "t1 t2 t3 t4 t5 t6 t7 t8"
    assert text == generate_rationale(evidence, EchoBackend(), config, record_id="r1").text
    assert sum("tail-truncating" in m for m in caplog.messages) == 2
    with pytest.raises(ValidationError, match="^record 'r1': evidence is empty$"):
        summarize_evidence("   ", BACKEND, SummaryConfig(), record_id="r1")
    with pytest.raises(BackendFailure, match="synthetic outage"):
        summarize_evidence("e1 e2 e3", FailingBackend(), SummaryConfig(min_tokens=1, max_tokens=5))


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(["a", "bb", "c.", "ddd"]), min_size=1, max_size=14),
    separators=st.lists(st.sampled_from([" ", "\n", " \t", "  "]), min_size=14, max_size=14),
    limit=st.integers(min_value=1, max_value=8),
)
def test_summarize_evidence_truncates_exactly_past_the_limit(tokens, separators, limit):
    # The length shortcut must agree with counting tokens at and around the limit.
    evidence = tokens[0] + "".join(sep + tok for sep, tok in zip(separators, tokens[1:]))
    config = SummaryConfig(min_tokens=1, max_tokens=1, backend_max_input=limit)
    expected = evidence if len(tokens) <= limit else " ".join(tokens[:limit])
    assert summarize_evidence(evidence, EchoBackend(), config) == expected


def test_summary_config_validation():
    with pytest.raises(Exception):
        SummaryConfig(min_tokens=0)
    with pytest.raises(Exception):
        SummaryConfig(min_tokens=10, max_tokens=5)
    with pytest.raises(Exception):
        SummaryConfig(max_tokens=120, backend_max_input=100)


# ---------------------------------------------------------------------------
# Batch generation: the rationales stage maps generate_rationale over its records


def records_from(rows, tmp_path):
    return parse_corpus(write_corpus(tmp_path / "c.jsonl", rows))


def batch_generate(records, backend=BACKEND, config=SummaryConfig()):
    """(rationales, failures) by record id, as errors.map_records returns them."""
    return map_records(lambda r: generate_rationale(r.evidence, backend, config, r.id),
                       {r.id: r for r in records})


def test_batch_one_rationale_per_record(tmp_path):
    records = records_from(make_rows(3, 2), tmp_path)
    rationales, failures = batch_generate(records)
    assert set(rationales) == {r.id for r in records}
    assert failures == {}


def test_batch_empty_split():
    assert batch_generate([]) == ({}, {})


class FlakyBackend(SummarizationBackend):
    """Fails only on evidence carrying a marker token."""

    identity = "stub-flaky"

    def summarize(self, evidence, config):
        if "XFAIL" in evidence:
            raise RuntimeError("marked record")
        return stub_summarize(evidence, config)


def test_batch_reports_partial_failures(tmp_path):
    rows = make_rows(3, 2)
    rows[1]["evidence"] = "XFAIL " + rows[1]["evidence"]
    records = records_from(rows, tmp_path)
    rationales, failures = batch_generate(records, FlakyBackend())
    assert list(rationales) == [rows[0]["id"], rows[2]["id"]]
    assert failures == {rows[1]["id"]: "backend failure: summarizer 'stub-flaky': marked record"}


def test_batch_of_only_failing_records_raises_the_first_error(tmp_path):
    rows = make_rows(3, 2)
    for row in rows:
        row["evidence"] = "XFAIL " + row["evidence"]
    with pytest.raises(BackendFailure, match="^backend failure: summarizer 'stub-flaky': "
                                             "marked record$"):
        batch_generate(records_from(rows, tmp_path), FlakyBackend())


# ---------------------------------------------------------------------------
# Claim-blindness and compression


def test_claim_perturbation_leaves_rationales_identical(tmp_path):
    rows = make_rows(5, 3, seed=9)
    records = records_from(rows, tmp_path)
    baseline, _ = batch_generate(records)
    for row in rows:
        row["claim"] = "a completely different claim."
    perturbed, _ = batch_generate(records_from(rows, tmp_path))
    for record_id, r in baseline.items():
        assert perturbed[record_id].text == r.text


def test_mean_compression_ratio_on_benchmark_shaped_corpus(tmp_path):
    # Long evidence compresses to well under a third of its length.
    rows = make_rows(40, 20, seed=4, sentences=(30, 34), sentence_tokens=(12, 16))
    records = records_from(rows, tmp_path)
    rationales, _ = batch_generate(records)
    ratios = [
        rationales[r.id].token_length / len(tokenize(r.evidence)) for r in records
    ]
    assert sum(ratios) / len(ratios) <= 0.30
