from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.corpus import VerdictLabel, parse_corpus
from claimcheck.errors import ValidationError
from claimcheck.evaluation import decode_nli
from claimcheck.rationale import LeadSummarizer, Rationale, SummaryConfig, generate_rationale
from claimcheck.verdict import (
    PROMPT_PREFIX,
    QUESTION_MARKER,
    MemorizingBackend,
    TrainConfig,
    TrainableBackend,
    UndecodableGeneration,
    build_copa_prompt,
    classify,
    decode_verdict,
    fine_tune,
    make_training_pairs,
)

from conftest import golden_text
from helpers import make_rows, write_corpus


def rationale_of(text, record_id="r1"):
    return Rationale(record_id=record_id, text=text, token_length=len(text.split()),
                     backend_id="stub-lead")


# ---------------------------------------------------------------------------
# Prompt grammar


def test_prompt_matches_golden_file():
    assert build_copa_prompt("C0", rationale_of("R0")) == golden_text("copa_prompt.txt")


def test_prompt_preserves_newlines_in_premise():
    prompt = build_copa_prompt("C0", rationale_of("line one\nline two"))
    assert "premise: line one\nline two question: C0" in prompt


def test_prompt_empty_claim_rejected():
    with pytest.raises(ValidationError, match="^claim is empty$"):
        build_copa_prompt("  ", rationale_of("R0"))
    with pytest.raises(ValidationError, match="^rationale text is empty$"):
        build_copa_prompt("C0", rationale_of("  "))


def parse_copa_prompt(text: str) -> tuple[str, str]:
    """Recover (claim, rationale_text) from a serialized prompt.

    Exact inverse of build_copa_prompt for inputs free of the literal
    markers "premise:" and "question:"; inputs containing the markers are
    out of contract.
    """
    if not text.startswith(PROMPT_PREFIX):
        raise ValidationError("not a two-choice prompt: bad prefix")
    body = text[len(PROMPT_PREFIX):]
    rationale_text, sep, claim = body.rpartition(QUESTION_MARKER)
    if not sep:
        raise ValidationError("not a two-choice prompt: no question marker")
    return claim, rationale_text


_marker_free = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "Zs"), whitelist_characters="\n.,"),
    min_size=1,
    max_size=60,
).filter(lambda s: s.strip() and "premise:" not in s and "question:" not in s)


@settings(max_examples=80, deadline=None)
@given(claim=_marker_free, rationale_text=_marker_free)
def test_prompt_round_trip(claim, rationale_text):
    prompt = build_copa_prompt(claim, rationale_of(rationale_text))
    assert parse_copa_prompt(prompt) == (claim, rationale_text)


# ---------------------------------------------------------------------------
# Decoding


@pytest.mark.parametrize("raw,label", [
    (" Supports ", VerdictLabel.SUPPORTS),
    ("REFUTES", VerdictLabel.REFUTES),
    ("choice1", VerdictLabel.SUPPORTS),
    ("choice2", VerdictLabel.REFUTES),
])
def test_decode_normalizes_and_aliases(raw, label):
    assert decode_verdict(raw) is label


def test_decode_rejects_anything_else():
    with pytest.raises(UndecodableGeneration) as exc_info:
        decode_verdict("maybe")
    assert exc_info.value.raw == "maybe"


@pytest.mark.parametrize("raw", [None, 3, b"Supports"])
@pytest.mark.parametrize("decode, message", [
    pytest.param(decode_verdict, "cannot decode generation {!r} into a verdict",
                 id="decode_verdict-UndecodableGeneration"),
    pytest.param(decode_nli, "cannot decode NLI output {!r}", id="decode_nli-UndecodableNliOutput"),
])
def test_non_string_generation_is_undecodable(decode, message, raw):
    message = message.format(raw)
    with pytest.raises(UndecodableGeneration, match=f"^{re.escape(message)}$") as exc_info:
        decode(raw)
    assert exc_info.value.raw is raw


# ---------------------------------------------------------------------------
# Classification


def test_classify_with_programmed_backend():
    backend = MemorizingBackend()
    rationale = rationale_of("R0")
    prompt = build_copa_prompt("C0", rationale)
    backend.train_step([(prompt, "Supports")])
    prediction = classify("C0", rationale, backend)
    assert prediction.label is VerdictLabel.SUPPORTS
    assert prediction.raw_generation == "Supports"
    assert prediction.record_id == "r1"
    assert prediction.prompt_hash == hashlib.sha256(prompt.encode()).hexdigest()


def test_classify_deterministic():
    backend = MemorizingBackend()
    rationale = rationale_of("R0")
    assert classify("C0", rationale, backend) == classify("C0", rationale, backend)


def test_classify_refutes_preserves_raw():
    backend = MemorizingBackend()
    rationale = rationale_of("R0")
    backend.train_step([(build_copa_prompt("C0", rationale), "Refutes")])
    prediction = classify("C0", rationale, backend)
    assert prediction.label is VerdictLabel.REFUTES
    assert prediction.raw_generation == "Refutes"


def test_classify_total_over_choice_only_backend():
    # The fallback layer only emits choice words, so decoding never fails.
    backend = MemorizingBackend()
    for i in range(50):
        classify(f"claim {i}", rationale_of(f"rationale {i}", record_id=f"r{i}"), backend)


# ---------------------------------------------------------------------------
# Training pairs


def test_training_pairs_full_train_split(tmp_path):
    rows = make_rows(2804, 1402, sentences=(2, 3), sentence_tokens=(4, 6))
    records = parse_corpus(write_corpus(tmp_path / "c.jsonl", rows))
    config = SummaryConfig(min_tokens=1, max_tokens=30)
    rationales = {r.id: generate_rationale(r.evidence, LeadSummarizer(), config, r.id)
                  for r in records}
    pairs = make_training_pairs(records, rationales)
    assert len(pairs) == 2804
    assert pairs[0][1] == "Supports"
    assert pairs[-1][1] == "Refutes"


def test_training_pairs_missing_rationale_raises(tmp_path):
    rows = make_rows(2, 1)
    records = parse_corpus(write_corpus(tmp_path / "c.jsonl", rows))
    rationales = {records[0].id: rationale_of("R0", record_id=records[0].id)}
    with pytest.raises(ValidationError, match=f"^no rationale for record {records[1].id!r}$"):
        make_training_pairs(records, rationales)


# ---------------------------------------------------------------------------
# Fine-tuning loop


def separable_pairs():
    return [(f"prompt {i}", "Supports" if i % 2 == 0 else "Refutes") for i in range(8)]


def test_fine_tune_zero_epochs_is_noop():
    backend = MemorizingBackend()
    before = backend.snapshot()
    state, log = fine_tune(separable_pairs(), TrainConfig(epochs=0), backend)
    assert state == before
    assert log.entries == []


def test_fine_tune_memorizes_training_set():
    backend = MemorizingBackend()
    pairs = separable_pairs()
    fine_tune(pairs, TrainConfig(epochs=2, seed=1), backend)
    # Exact-lookup oracle: every training pair must round-trip.
    assert all(backend.generate(prompt) == target for prompt, target in pairs)


def test_fine_tune_empty_training_set():
    with pytest.raises(ValidationError, match="^no training pairs$"):
        fine_tune([], TrainConfig(), MemorizingBackend())


def test_fine_tune_periodic_validation_entries():
    # 8 pairs at batch 8 is one step per epoch; 400 epochs crosses the
    # 350-step evaluation boundary once, plus the final entry.
    backend = MemorizingBackend()
    pairs = separable_pairs()
    validation = [("vprompt", "Supports")]
    _, log = fine_tune(pairs, TrainConfig(epochs=400, eval_every_steps=350, seed=2),
                       backend, validation)
    assert [e.step for e in log.entries] == [350, 400]
    assert all(e.validation_macro_f1 is not None for e in log.entries)
    assert log.final_step == 400


def test_fine_tune_loss_reaches_zero_after_memorization():
    backend = MemorizingBackend()
    _, log = fine_tune(separable_pairs(), TrainConfig(epochs=3, eval_every_steps=1, seed=0),
                       backend)
    assert log.entries[-1].loss == 0.0


class DegradingBackend(TrainableBackend):
    """Scripted stub whose validation answers rot after a few steps."""

    identity = "stub-degrading"

    def __init__(self):
        self.steps = 0
        self.memory = {}

    def generate(self, prompt):
        if prompt in self.memory:
            return self.memory[prompt]
        return "Supports" if self.steps < 4 else "Refutes"

    def train_step(self, batch):
        self.steps += 1
        for prompt, target in batch:
            self.memory[prompt] = target
        return 0.0

    def snapshot(self):
        return {"steps": self.steps, "memory": dict(self.memory)}

    def restore(self, state):
        self.steps = state["steps"]
        self.memory = dict(state["memory"])


def test_fine_tune_keeps_best_validation_checkpoint():
    backend = DegradingBackend()
    pairs = [("train prompt", "Supports")]
    # Early all-Supports answers score macro 0.4 here; the later
    # all-Refutes answers score 0.25, so step 2 is the best checkpoint.
    validation = [("v1", "Supports"), ("v2", "Supports"), ("v3", "Refutes")]
    state, log = fine_tune(
        pairs, TrainConfig(batch_size=1, epochs=6, eval_every_steps=2, seed=0),
        backend, validation,
    )
    assert log.best_step == 2
    assert log.best_validation_f1 == pytest.approx(0.4)
    assert log.final_validation_f1 == pytest.approx(0.25)
    assert state["steps"] == 2  # returned state is the best checkpoint
    assert backend.generate("v1") == "Supports"  # backend restored to it


class CountingBackend(MemorizingBackend):
    def __init__(self):
        super().__init__()
        self.generate_calls = 0

    def generate(self, prompt):
        self.generate_calls += 1
        return super().generate(prompt)


def test_fine_tune_validates_each_state_once():
    # 8 pairs at batch 8 is one step per epoch, so the last of 4 steps is a periodic one.
    backend = CountingBackend()
    validation = [("v1", "Supports"), ("v2", "Refutes")]
    _, log = fine_tune(separable_pairs(), TrainConfig(epochs=4, eval_every_steps=2, seed=0),
                       backend, validation)
    assert [e.step for e in log.entries] == [2, 4]
    assert backend.generate_calls == len(log.entries) * len(validation)


class ImprovingBackend(DegradingBackend):
    """Scripted stub whose validation answers are right only after the last step."""

    restores = 0

    def generate(self, prompt):
        return "Supports" if self.steps < 5 or prompt != "v3" else "Refutes"

    def restore(self, state):
        self.restores += 1
        super().restore(state)


def test_fine_tune_keeps_the_final_state_when_it_scores_best():
    backend = ImprovingBackend()
    validation = [("v1", "Supports"), ("v2", "Supports"), ("v3", "Refutes")]
    state, log = fine_tune([("train prompt", "Supports")],
                           TrainConfig(batch_size=1, epochs=5, eval_every_steps=2, seed=0),
                           backend, validation)
    assert [e.step for e in log.entries] == [2, 4, 5]
    assert log.best_step == log.final_step == 5
    assert log.best_validation_f1 == log.final_validation_f1 == pytest.approx(1.0)
    assert backend.restores == 0
    assert state == backend.snapshot()


def test_train_config_defaults():
    config = TrainConfig()
    assert (config.batch_size, config.learning_rate, config.epochs, config.eval_every_steps) == \
        (8, 2e-5, 20, 350)
    assert config.loss == "cross-entropy"
    assert config.optimizer == "adamw"


def test_train_config_validation():
    with pytest.raises(Exception):
        TrainConfig(batch_size=0)
    with pytest.raises(Exception):
        TrainConfig(learning_rate=0)
    with pytest.raises(Exception):
        TrainConfig(epochs=-1)
