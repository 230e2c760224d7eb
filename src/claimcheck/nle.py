"""Natural-language explanation assembly.

This module performs string assembly only. Any model-generated free text
here would be a defect: the explanation must contain exactly the verdict
word and the rationale, nothing invented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import VerdictLabel
from .errors import ValidationError
from .rationale import Rationale
from .verdict import VerdictPrediction

NLE_PREFIX = "The evidence "
NLE_CONNECTIVE = " the claim because "

# Lowercase third-person inflection for mid-sentence use.
VERDICT_WORDS = {VerdictLabel.SUPPORTS: "supports", VerdictLabel.REFUTES: "refutes"}
_WORD_TO_LABEL = {word: label for label, word in VERDICT_WORDS.items()}


@dataclass(frozen=True)
class NleText:
    """An assembled explanation: text is the template filled in (see parse_nle)."""

    record_id: str
    text: str

    def __post_init__(self):
        parse_nle(self.text)


def compose_nle(prediction: VerdictPrediction, rationale: Rationale) -> NleText:
    """Render "The evidence <verdict word> the claim because <rationale>".

    The rationale is spliced in verbatim, terminal punctuation and all.
    """
    if prediction.record_id != rationale.record_id:
        raise ValidationError(f"prediction is for record {prediction.record_id!r} "
                              f"but rationale is for {rationale.record_id!r}")
    word = VERDICT_WORDS[prediction.label]
    return NleText(prediction.record_id, f"{NLE_PREFIX}{word}{NLE_CONNECTIVE}{rationale.text}")


def parse_nle(text: str) -> tuple[str, str]:
    """Recover (verdict_word, rationale_text) from an explanation string."""
    if not text.startswith(NLE_PREFIX):
        raise ValidationError("not an assembled explanation: bad prefix")
    body = text[len(NLE_PREFIX):]
    word, sep, rationale_text = body.partition(NLE_CONNECTIVE)
    if not sep or word not in _WORD_TO_LABEL:
        raise ValidationError("not an assembled explanation: bad verdict word or connective")
    return word, rationale_text

