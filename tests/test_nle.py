from __future__ import annotations

import pytest

from claimcheck.corpus import VerdictLabel
from claimcheck.errors import ValidationError
from claimcheck.nle import NleText, compose_nle, parse_nle
from claimcheck.rationale import Rationale
from claimcheck.store import from_row, to_row
from claimcheck.verdict import VerdictPrediction

from conftest import golden_text


def prediction_of(label, record_id="r1"):
    return VerdictPrediction(record_id=record_id, label=label, raw_generation=label.value,
                             prompt_hash="0" * 64)


def rationale_of(text, record_id="r1"):
    return Rationale(record_id=record_id, text=text, token_length=len(text.split()),
                     backend_id="stub-lead")


def test_supports_matches_golden_file():
    nle = compose_nle(prediction_of(VerdictLabel.SUPPORTS), rationale_of("R0"))
    assert nle.text == golden_text("nle_supports.txt")
    assert parse_nle(nle.text)[0] == "supports"


def test_refutes_matches_golden_file():
    nle = compose_nle(prediction_of(VerdictLabel.REFUTES), rationale_of("R0"))
    assert nle.text == golden_text("nle_refutes.txt")
    assert parse_nle(nle.text)[0] == "refutes"


def test_record_mismatch():
    with pytest.raises(ValidationError,
                       match="^prediction is for record 'a' but rationale is for 'b'$"):
        compose_nle(prediction_of(VerdictLabel.SUPPORTS, record_id="a"),
                    rationale_of("R0", record_id="b"))


def test_rationale_punctuation_preserved():
    text = "It ended badly..."
    nle = compose_nle(prediction_of(VerdictLabel.SUPPORTS), rationale_of(text))
    assert nle.text.endswith(text)
    assert parse_nle(nle.text)[1] == text


def test_template_round_trip():
    rationale_text = "the filings show a 3% rise.\nTwo agencies concur."
    nle = compose_nle(prediction_of(VerdictLabel.REFUTES), rationale_of(rationale_text))
    assert parse_nle(nle.text) == ("refutes", rationale_text)


def test_parse_rejects_foreign_text():
    with pytest.raises(ValidationError):
        parse_nle("Totally unrelated sentence.")
    with pytest.raises(ValidationError):
        parse_nle("The evidence maybe the claim because x")


def test_parse_rejects_another_prefix_of_the_same_length():
    with pytest.raises(ValidationError, match="^not an assembled explanation: bad prefix$"):
        parse_nle("Our evidence supports the claim because x")


def test_row_round_trip():
    nle = compose_nle(prediction_of(VerdictLabel.SUPPORTS), rationale_of("R0"))
    assert to_row(nle) == {"record_id": "r1", "text": nle.text}
    assert from_row(NleText, to_row(nle)) == NleText(nle.record_id, nle.text) == nle


def test_nle_text_checks_the_template():
    with pytest.raises(ValidationError):
        NleText("r1", "N0")
