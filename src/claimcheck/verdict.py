"""Verdict classification as a two-choice question-answer prompt.

The input sequence serializes the claim as the question and the rationale
as the premise, with the two verdict words as the answer choices. A
text-to-text backend generates the answer, which is decoded against a
closed set: ambiguity is surfaced as an error, never guessed away.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .corpus import ClaimRecord, VerdictLabel
from .errors import BackendError, ValidationError, call_backend
from .rationale import Rationale
from .store import check_fields, check_range, config_value, digest, value_rule

CHOICE_SUPPORTS = VerdictLabel.SUPPORTS.value
CHOICE_REFUTES = VerdictLabel.REFUTES.value
VERDICT_CHOICES = (CHOICE_SUPPORTS, CHOICE_REFUTES)

PROMPT_PREFIX = f"copa choice1: {CHOICE_SUPPORTS} choice2: {CHOICE_REFUTES} premise: "
QUESTION_MARKER = " question: "

_DECODE_TABLE = {
    "supports": VerdictLabel.SUPPORTS,
    "refutes": VerdictLabel.REFUTES,
    "choice1": VerdictLabel.SUPPORTS,
    "choice2": VerdictLabel.REFUTES,
}


class UndecodableGeneration(BackendError):
    """A generation outside its closed answer set; `raw` is what the backend returned."""

    def __init__(self, message: str, raw):
        super().__init__(message)
        self.raw = raw


def prompt_digest(text: str) -> str:
    return digest(text.encode("utf-8"))


@dataclass(frozen=True)
class VerdictPrediction:
    record_id: str
    label: VerdictLabel
    raw_generation: str
    prompt_hash: str

    def __post_init__(self):
        try:
            decoded = decode_verdict(self.raw_generation)
        except UndecodableGeneration:
            decoded = None
        if decoded is not self.label:
            raise ValidationError(f"label {self.label.value!r} is not what raw_generation "
                                  f"{self.raw_generation!r} decodes to")


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning hyperparameters.

    weight_decay and lr_schedule have no upstream-mandated values; the
    defaults here are echoed into every TrainLog for reproducibility.
    """

    batch_size: int = 8
    loss: str = "cross-entropy"
    optimizer: str = "adamw"
    learning_rate: float = 2e-5
    epochs: int = 20
    eval_every_steps: int = 350
    seed: int = 0
    weight_decay: float = 0.01
    lr_schedule: str = "constant"

    def __post_init__(self):
        check_fields(self, "train")
        check_range("train.batch_size", self.batch_size, 1)
        check_range("train.epochs", self.epochs, 0)
        check_range("train.eval_every_steps", self.eval_every_steps, 1)
        check_range("train.learning_rate", self.learning_rate, 0, strict=True)


@dataclass(frozen=True)
class TrainLogEntry:
    step: int
    loss: float
    validation_macro_f1: float | None


@dataclass(frozen=True)
class TrainLog:
    """Training trace: optimizer settings (from TrainConfig) plus periodic validation entries."""

    optimizer: str
    learning_rate: float
    weight_decay: float
    lr_schedule: str
    best_step: int | None
    best_validation_f1: float | None
    final_step: int
    final_validation_f1: float | None
    entries: list[TrainLogEntry]


class Text2TextBackend(ABC):
    """Prompt-in, text-out backend of the verdict and the NLI audit; generate is deterministic."""

    identity: str = "unspecified"

    @abstractmethod
    def generate(self, prompt: str) -> str:
        """The backend's answer to `prompt`."""


class TrainableBackend(Text2TextBackend):
    """Backend that can be fine-tuned on (input, target) text pairs."""

    def configure(self, settings: TrainConfig) -> None:
        """Take the training settings, once, before the first train_step. fine_tune runs
        batch_size, epochs, eval_every_steps and seed itself; loss, optimizer, learning_rate,
        weight_decay and lr_schedule are for the backend to interpret. The default ignores them."""

    @abstractmethod
    def train_step(self, batch: Sequence[tuple[str, str]]) -> float:
        """Fit one batch; returns the batch loss before the update."""

    @abstractmethod
    def snapshot(self) -> dict:
        """JSON-serializable copy of the trainable state."""

    @abstractmethod
    def restore(self, state: dict) -> None:
        """Load a state that snapshot returned."""


class MemorizingBackend(TrainableBackend):
    """Deterministic text-to-text stub for desk-scale pipeline runs.

    Responses come from two layers, in order: pairs memorized during
    fine-tuning, then a stable hash fallback that always emits one of the
    closed `choices` (so decoding stays total):
    choices[sha256(prompt) % len(choices)].
    """

    def __init__(self, identity: str = "stub-memorizing", choices: Sequence[str] = VERDICT_CHOICES):
        self.identity = identity
        self.choices = tuple(choices)
        self._memory: dict[str, str] = {}

    def generate(self, prompt: str) -> str:
        return self._respond(prompt_digest(prompt))

    def _respond(self, digest: str) -> str:
        if digest in self._memory:
            return self._memory[digest]
        return self.choices[int(digest, 16) % len(self.choices)]

    def train_step(self, batch: Sequence[tuple[str, str]]) -> float:
        pairs = [(prompt_digest(prompt), target) for prompt, target in batch]
        wrong = sum(1 for digest, target in pairs if self._respond(digest) != target)
        self._memory.update(pairs)
        return wrong / len(batch)

    def snapshot(self) -> dict:
        return {"memory": dict(self._memory)}

    def restore(self, state: dict) -> None:
        self._memory = dict(state["memory"])


def build_copa_prompt(claim: str, rationale: Rationale) -> str:
    """Serialize (claim, rationale) into the fixed two-choice grammar; return the prompt text.

    The rendering is a byte splice: rationale and claim are inserted
    verbatim, single-space joins, nothing appended after the claim.
    """
    if not claim.strip():
        raise ValidationError("claim is empty")
    if not rationale.text.strip():
        raise ValidationError("rationale text is empty")
    return f"{PROMPT_PREFIX}{rationale.text}{QUESTION_MARKER}{claim}"


def decode_verdict(raw: str) -> VerdictLabel:
    """Closed-set decode of a generation into a verdict label.

    Exact match after trim and case-fold against the two choice words or
    their positional aliases; anything else raises, carrying the raw text.
    """
    label = _DECODE_TABLE.get(raw.strip().casefold()) if isinstance(raw, str) else None
    if label is None:
        raise UndecodableGeneration(f"cannot decode generation {raw!r} into a verdict", raw)
    return label


def classify(claim: str, rationale: Rationale, backend: Text2TextBackend) -> VerdictPrediction:
    """Prompt the backend with (claim, rationale) and decode its verdict."""
    prompt = build_copa_prompt(claim, rationale)
    raw = call_backend("classifier", backend.identity, backend.generate, prompt)
    return VerdictPrediction(
        record_id=rationale.record_id,
        label=decode_verdict(raw),
        raw_generation=raw,
        prompt_hash=prompt_digest(prompt),
    )


def make_training_pairs(
    split: Sequence[ClaimRecord], rationales: dict[str, Rationale]
) -> list[tuple[str, str]]:
    """One (prompt text, gold choice word) pair per record."""
    pairs = []
    for record in split:
        rationale = rationales.get(record.id)
        if rationale is None:
            raise ValidationError(f"no rationale for record {record.id!r}")
        pairs.append((build_copa_prompt(record.claim, rationale), record.verdict.value))
    return pairs


def fine_tune(
    pairs: Sequence[tuple[str, str]],
    config: TrainConfig,
    backend: TrainableBackend,
    validation_pairs: Sequence[tuple[str, str]] | None = None,
) -> tuple[dict, TrainLog]:
    """Run the fine-tuning loop and return (backend state, TrainLog).

    Batches are reshuffled each epoch from config.seed. Validation
    macro-F1 is recorded every config.eval_every_steps steps and after the
    last step, each state once; a strictly better score keeps a snapshot of
    that state, and the state returned is the best kept one (the final state
    when validation is absent). Prompts are never truncated here; length
    handling belongs to the backend. A loss that is not a finite number, which
    train_log.json's reader would refuse, is a BackendError naming the backend.
    """
    # Imported here to avoid a module cycle: evaluation builds on verdict types.
    from .evaluation import macro_f1

    if not pairs:
        raise ValidationError("no training pairs")
    call = partial(call_backend, "classifier", backend.identity)
    call(backend.configure, config)
    fits_loss, wanted = value_rule(float)  # the rule train_log.json is read back with
    golds = [decode_verdict(target) for _, target in validation_pairs or ()]
    starts = range(0, len(pairs), config.batch_size)
    last_step = config.epochs * len(starts)
    rng = random.Random(config.seed)
    step = 0
    entries: list[TrainLogEntry] = []
    best, best_state = None, None  # the best validated entry and its state
    for _ in range(config.epochs):
        order = list(pairs)
        rng.shuffle(order)
        for start in starts:
            loss = call(backend.train_step, order[start : start + config.batch_size])
            if not fits_loss(loss):
                raise BackendError(f"classifier {backend.identity!r}: a training loss must be "
                                   f"{wanted}, got {config_value(loss)}")
            step += 1
            if step % config.eval_every_steps and step != last_step:
                continue
            f1 = None
            if golds:
                preds = [decode_verdict(call(backend.generate, prompt))
                         for prompt, _ in validation_pairs]
                f1 = macro_f1(preds, golds)
            entries.append(TrainLogEntry(step, loss, f1))
            if f1 is not None and (best is None or f1 > best.validation_macro_f1):
                best, best_state = entries[-1], call(backend.snapshot)

    final_f1 = entries[-1].validation_macro_f1 if entries else None  # the last step is validated
    log = TrainLog(config.optimizer, config.learning_rate, config.weight_decay, config.lr_schedule,
                   best and best.step, best and best.validation_macro_f1, step, final_f1, entries)
    if best is None:
        return call(backend.snapshot), log
    if best.step != step:
        call(backend.restore, best_state)
    return best_state, log
