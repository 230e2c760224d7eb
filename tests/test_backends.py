"""Conformance of every registered backend to the rules the pipeline relies on.

Each rule is a plain function, so the author of a real backend can run it before registering
the backend, with the factory the registry would hold:

    from test_backends import check_generate_deterministic, check_identity, classifier_prompts
    check_identity("my-classifier", MyClassifier)
    check_generate_deterministic(MyClassifier, classifier_prompts())

- check_identity: a fresh instance's `identity` is the id it is registered under.
- check_summarize_deterministic, check_generate_deterministic: the same input gives the same
  output, across calls on one instance and across fresh instances.
- check_snapshot_encodes: a trained classifier's `snapshot()` is a dict that encodes through
  store.DOC_ENCODER, as train writes it into model_state.json.
- check_restore_reproduces: a fresh instance given `restore(decoded snapshot)` generates what
  the trained one does, as predict relies on.
- check_summary_within_bounds: a summary of evidence longer than `max_tokens` has between
  `min_tokens` and `max_tokens` tokens (textutil.tokenize, the unit of a rationale's
  `token_length`).
"""

from __future__ import annotations

import pytest

from claimcheck import evaluation, pipeline, verdict
from claimcheck.rationale import Rationale, SummaryConfig
from claimcheck.store import DOC_ENCODER, parse_json
from claimcheck.textutil import tokenize

from helpers import make_rows

# Evidence of 140 to 288 tokens: longer than the default max_tokens, 120.
ROWS = make_rows(8, 4, seed=5, sentences=(14, 18))
EVIDENCE = [row["evidence"] for row in ROWS]
BOUNDS = (SummaryConfig(), SummaryConfig(min_tokens=10, max_tokens=20))


def classifier_prompts() -> list[str]:
    return [verdict.build_copa_prompt(row["claim"], Rationale(
        row["id"], row["evidence"], len(tokenize(row["evidence"])), "any")) for row in ROWS]


def nli_prompts() -> list[str]:
    return [evaluation.build_nli_prompt(row["claim"], row["evidence"]) for row in ROWS]


def check_identity(backend_id, factory) -> None:
    assert factory().identity == backend_id


def check_summarize_deterministic(factory, evidence=EVIDENCE, configs=BOUNDS) -> None:
    first, fresh = factory(), factory()
    for config in configs:
        summaries = [first.summarize(text, config) for text in evidence]
        assert [first.summarize(text, config) for text in evidence] == summaries
        assert [fresh.summarize(text, config) for text in evidence] == summaries


def check_generate_deterministic(factory, prompts) -> None:
    first, fresh = factory(), factory()
    answers = [first.generate(prompt) for prompt in prompts]
    assert [first.generate(prompt) for prompt in prompts] == answers
    assert [fresh.generate(prompt) for prompt in prompts] == answers


def trained(factory, prompts, choices):
    """An instance fitted on one batch that pairs each prompt with a choice that a fresh
    instance does not answer, so the training changes what it generates."""
    untrained, backend = factory(), factory()
    batch = [(prompt, next(c for c in choices if c != untrained.generate(prompt)))
             for prompt in prompts]
    backend.train_step(batch)
    return backend


def check_snapshot_encodes(factory, prompts, choices) -> None:
    state = trained(factory, prompts, choices).snapshot()
    assert isinstance(state, dict)  # model_state.json's "state" is an object
    DOC_ENCODER.encode(state)


def check_restore_reproduces(factory, prompts, choices) -> None:
    backend, fresh = trained(factory, prompts, choices), factory()
    fresh.restore(parse_json(DOC_ENCODER.encode(backend.snapshot()), "the snapshot"))
    assert [fresh.generate(prompt) for prompt in prompts] == \
        [backend.generate(prompt) for prompt in prompts]


def check_summary_within_bounds(factory, evidence=EVIDENCE, configs=BOUNDS) -> None:
    backend = factory()
    for config in configs:
        for text in evidence:
            assert len(tokenize(text)) > config.max_tokens
            length = len(tokenize(backend.summarize(text, config)))
            assert config.min_tokens <= length <= config.max_tokens, (config, length)


# role -> (registry, the prompts and closed choices of its generate, if it has one)
ROLES = {
    "summarizer": (pipeline.SUMMARIZER_BACKENDS, None, None),
    "classifier": (pipeline.CLASSIFIER_BACKENDS, classifier_prompts, verdict.VERDICT_CHOICES),
    "NLI": (pipeline.NLI_BACKENDS, nli_prompts, evaluation.NLI_CHOICES),
}


def entries(*roles):
    return [pytest.param(role, backend_id, id=f"{role}-{backend_id}")
            for role in roles for backend_id in ROLES[role][0]]


@pytest.mark.parametrize("role, backend_id", entries(*ROLES))
def test_identity_is_the_registered_id(role, backend_id):
    check_identity(backend_id, ROLES[role][0][backend_id])


@pytest.mark.parametrize("role, backend_id", entries("summarizer"))
def test_summarize_is_deterministic_and_within_bounds(role, backend_id):
    factory = ROLES[role][0][backend_id]
    check_summarize_deterministic(factory)
    check_summary_within_bounds(factory)


@pytest.mark.parametrize("role, backend_id", entries("classifier", "NLI"))
def test_generate_is_deterministic(role, backend_id):
    registry, prompts, _ = ROLES[role]
    check_generate_deterministic(registry[backend_id], prompts())


@pytest.mark.parametrize("role, backend_id", entries("classifier"))
def test_a_classifier_state_survives_its_model_state_json(role, backend_id):
    registry, prompts, choices = ROLES[role]
    check_snapshot_encodes(registry[backend_id], prompts(), choices)
    check_restore_reproduces(registry[backend_id], prompts(), choices)
