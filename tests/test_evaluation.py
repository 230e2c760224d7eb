from __future__ import annotations

import csv
import hashlib
import io
import random
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import pipeline, store
from claimcheck.corpus import VerdictLabel
from claimcheck.errors import ValidationError
from claimcheck.evaluation import (
    NLI_CHOICES,
    AnnotationSummary,
    NliReport,
    NliVerdict,
    RATING_SCALES,
    aggregate_annotations,
    build_nli_prompt,
    confusion_counts,
    decode_nli,
    evaluate_nli,
    macro_f1,
    read_annotation_file,
    render_annotation_tasks,
)
from claimcheck.verdict import MemorizingBackend, UndecodableGeneration

from conftest import golden_text

S, R = VerdictLabel.SUPPORTS, VerdictLabel.REFUTES


def oracle_macro_f1(preds, golds):
    """Brute-force confusion-matrix oracle using the direct F1 identity."""
    f1s = []
    for label in VerdictLabel:
        tp = sum(1 for p, g in zip(preds, golds) if p is label and g is label)
        fp = sum(1 for p, g in zip(preds, golds) if p is label and g is not label)
        fn = sum(1 for p, g in zip(preds, golds) if p is not label and g is label)
        f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return sum(f1s) / len(f1s)


# ---------------------------------------------------------------------------
# Macro F1


def test_perfect_predictions_score_one():
    golds = [S, R, S, R]
    assert macro_f1(golds, golds) == 1.0


def test_hand_worked_example():
    golds = [S, S, R, R]
    preds = [S, R, R, R]
    # Supports: P=1, R=1/2, F1=2/3. Refutes: P=2/3, R=1, F1=4/5. Macro=11/15.
    assert macro_f1(preds, golds) == pytest.approx(11 / 15, abs=1e-12)
    assert macro_f1(preds, golds) == pytest.approx(oracle_macro_f1(preds, golds), abs=1e-12)


def test_confusion_counts_total():
    golds = [S, S, R, R, R]
    preds = [S, R, R, R, S]
    counts = confusion_counts(preds, golds)
    assert sum(counts.values()) == 5
    assert counts[(S, R)] == 1 and counts[(R, S)] == 1


def test_length_mismatch_and_empty():
    with pytest.raises(ValidationError, match="^1 predictions vs 2 golds$"):
        macro_f1([S], [S, R])
    with pytest.raises(ValidationError, match="^nothing to score$"):
        macro_f1([], [])


def test_absent_class_contributes_zero_with_warning():
    with pytest.warns(UserWarning, match="Refutes"):
        assert macro_f1([S, S], [S, S]) == 0.5


def test_symmetric_under_class_relabeling():
    rng = random.Random(0)
    golds = [rng.choice((S, R)) for _ in range(40)]
    preds = [rng.choice((S, R)) for _ in range(40)]
    swap = {S: R, R: S}
    assert macro_f1(preds, golds) == pytest.approx(
        macro_f1([swap[p] for p in preds], [swap[g] for g in golds]), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([S, R]), st.sampled_from([S, R])), min_size=1, max_size=80))
def test_macro_f1_matches_oracle(pairs):
    preds = [p for p, _ in pairs]
    golds = [g for _, g in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # absent-class warning tested separately
        assert macro_f1(preds, golds) == pytest.approx(oracle_macro_f1(preds, golds), abs=1e-12)


# ---------------------------------------------------------------------------
# Entailment prompt and report


def test_nli_prompt_matches_golden_file():
    assert build_nli_prompt("C0", "N0") == golden_text("nli_prompt.txt")


def test_nli_prompt_rebuild_identical():
    nle = "The evidence supports the claim because data."
    assert build_nli_prompt("c", nle) == build_nli_prompt("c", nle)


def test_nli_prompt_empty_inputs():
    with pytest.raises(ValidationError, match="^claim is empty$"):
        build_nli_prompt("", "N0")
    with pytest.raises(ValidationError, match="^explanation text is empty$"):
        build_nli_prompt("C0", "  ")


def test_report_reproduces_published_percentages():
    verdicts = ([NliVerdict.ENTAILMENT] * 168 + [NliVerdict.NEUTRAL] * 253
                + [NliVerdict.CONTRADICTION] * 180)
    report = NliReport.from_verdicts(verdicts)
    assert report.total == 601
    assert report.percentages[NliVerdict.ENTAILMENT] == 27.9
    assert report.percentages[NliVerdict.NEUTRAL] == 42.0
    assert report.percentages[NliVerdict.CONTRADICTION] == 29.9


def test_report_of_no_verdicts_rejected():
    with pytest.raises(ValidationError, match="^no entailment verdicts to report$"):
        NliReport.from_verdicts([])


def test_report_all_entailment():
    report = NliReport.from_verdicts([NliVerdict.ENTAILMENT] * 7)
    assert report.percentages == {NliVerdict.ENTAILMENT: 100.0, NliVerdict.NEUTRAL: 0.0,
                                  NliVerdict.CONTRADICTION: 0.0}


def test_report_single_neutral():
    report = NliReport.from_verdicts([NliVerdict.NEUTRAL])
    assert report.counts == {NliVerdict.ENTAILMENT: 0, NliVerdict.NEUTRAL: 1,
                             NliVerdict.CONTRADICTION: 0}


def test_report_percentages_sum_close_to_100():
    # Truncation losses cannot all approach 0.1 at once (the residues sum
    # to a multiple of the total), so 0.2 covers the worst case.
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 400)
        verdicts = [rng.choice(list(NliVerdict)) for _ in range(n)]
        report = NliReport.from_verdicts(verdicts)
        assert sum(report.counts.values()) == n
        assert abs(sum(report.percentages.values()) - 100.0) <= 0.2 + 1e-9


@pytest.mark.parametrize("raw,verdict", [
    (" Entailment ", NliVerdict.ENTAILMENT),
    ("neutral", NliVerdict.NEUTRAL),
    ("CONTRADICTION", NliVerdict.CONTRADICTION),
])
def test_decode_nli(raw, verdict):
    assert decode_nli(raw) is verdict


def test_decode_nli_rejects_junk():
    with pytest.raises(UndecodableGeneration, match="^cannot decode NLI output 'sort of true'$"):
        decode_nli("sort of true")


def test_evaluate_nli_with_programmed_backend():
    backend = pipeline.create_nli("stub-nli")
    pairs = {f"r{i}": (f"claim {i}", f"explanation {i}") for i in range(3)}
    outputs = ["entailment", "neutral", "entailment"]
    backend.train_step([(build_nli_prompt(claim, nle), output)
                        for (claim, nle), output in zip(pairs.values(), outputs)])
    report, failures = evaluate_nli(pairs, backend)
    assert failures == {}
    assert report.counts[NliVerdict.ENTAILMENT] == 2
    assert report.counts[NliVerdict.NEUTRAL] == 1


def test_evaluate_nli_empty_input():
    with pytest.raises(ValidationError, match="^no records to evaluate$"):
        evaluate_nli({}, pipeline.create_nli("stub-nli"))


@given(st.text())
def test_stub_fallbacks_match_the_old_hash_rules(prompt):
    # Oracle: the two formulas of the separate classifier and NLI stubs
    # the one programmable stub replaced.
    digest = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), 16)
    parity = "Supports" if digest % 2 == 0 else "Refutes"
    assert MemorizingBackend().generate(prompt) == parity
    old_nli = [v.value for v in NliVerdict][digest % 3]
    assert MemorizingBackend("stub-nli", NLI_CHOICES).generate(prompt) == old_nli
    assert pipeline.create_nli("stub-nli").generate(prompt) == old_nli


# ---------------------------------------------------------------------------
# Annotation export


def items_of(n):
    return [(f"r{i}", f"claim {i}", f"The evidence supports the claim because fact {i}.")
            for i in range(n)]


def test_export_samples_requested_count(tmp_path):
    path = tmp_path / "tasks.tsv"
    path.write_text(render_annotation_tasks(items_of(601), n=100, seed=3))
    assert len(read_annotation_file(path)) == 100


def test_export_zero_tasks_valid_header(tmp_path):
    path = tmp_path / "tasks.tsv"
    path.write_text(render_annotation_tasks(items_of(5), n=0, seed=3))
    assert read_annotation_file(path) == []
    header = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][0]
    assert header.split("\t") == ["item_id", "claim", "nle", "plausibility", "fluency",
                                  "correctness", "annotator_id", "system_id"]


def test_export_deterministic_given_seed():
    a = render_annotation_tasks(items_of(50), n=10, seed=9)
    b = render_annotation_tasks(items_of(50), n=10, seed=9)
    assert a == b


def test_export_under_a_regular_file_names_it_and_leaves_nothing(tmp_path):
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "tasks.tsv"
    with pytest.raises(ValidationError, match=re.escape(f"cannot write {path}: ")):
        store.write_text(path, (render_annotation_tasks(items_of(5), n=2, seed=0),))
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_export_sample_too_large():
    with pytest.raises(ValidationError, match="^asked for 6 tasks but only 5 items available$"):
        render_annotation_tasks(items_of(5), n=6, seed=0)


def test_export_negative_sample_size_names_n():
    with pytest.raises(ValidationError, match="sample size n must be >= 0, got -1"):
        render_annotation_tasks(items_of(5), n=-1, seed=0)


def test_export_embeds_rating_scales_verbatim():
    text = render_annotation_tasks(items_of(3), n=2, seed=0)
    for scale in RATING_SCALES.values():
        for rating, label in scale.items():
            assert f"{rating}={label}" in text


# ---------------------------------------------------------------------------
# Annotation aggregation


def write_filled(path: Path, rows):
    """A filled annotation file: header plus rated rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter="\t", lineterminator="\n")
    writer.writerow(["item_id", "claim", "nle", "plausibility", "fluency", "correctness",
                     "annotator_id", "system_id"])
    for row in rows:
        writer.writerow(row)
    path.write_text(buffer.getvalue(), encoding="utf-8")
    return path


def filled_row(item, plausibility, fluency, correctness, annotator, system="claimcheck"):
    return [item, f"claim {item}", f"nle {item}", plausibility, fluency, correctness,
            annotator, system]


def test_aggregate_all_fives(tmp_path):
    files = []
    for annotator in ("a1", "a2", "a3"):
        rows = [filled_row(f"r{i}", 5, 5, 5, annotator) for i in range(4)]
        files.append(write_filled(tmp_path / f"{annotator}.tsv", rows))
    summary = aggregate_annotations(files)
    assert summary.per_system["claimcheck"] == {"plausibility": 5.0, "fluency": 5.0,
                                                "correctness": 5.0}
    assert summary.n_annotators == 3
    assert summary.n_items == 4


def test_aggregate_of_a_file_saved_with_a_byte_order_mark_is_as_without(tmp_path):
    plain = write_filled(tmp_path / "a1.tsv", [filled_row("r0", 4, 5, 3, "a1"),
                                                filled_row("r1", 2, 5, 3, "a1")])
    marked = tmp_path / "marked.tsv"
    # UTF-8's byte order mark, then a legend line as in an exported file, then the rows
    marked.write_bytes(b"\xef\xbb\xbf# legend\n" + plain.read_bytes())
    assert aggregate_annotations([marked]) == aggregate_annotations([plain])


def test_aggregate_skips_blank_lines_between_the_legend_and_the_header(tmp_path):
    plain = write_filled(tmp_path / "a1.tsv", [filled_row("r0", 4, 5, 3, "a1")])
    spaced = tmp_path / "spaced.tsv"
    spaced.write_text("# legend\n\n \t\n# more legend\n\n" + plain.read_text())
    assert read_annotation_file(spaced) == read_annotation_file(plain)
    assert aggregate_annotations([spaced]).n_items == 1


def test_aggregate_counts_an_item_whose_id_begins_with_a_hash(tmp_path):
    exported = render_annotation_tasks([("#7", "claim 7", "nle 7")], n=1)
    assert exported.startswith("# ") and exported.splitlines()[-1].startswith("#7\t")
    filled = tmp_path / "filled.tsv"  # the '#' legend, the header row, then '#7' and '8', rated
    filled.write_text(exported.replace("\t\t\t\t\t", "\t2\t2\t2\ta1\t")
                      + "8\tclaim 8\tnle 8\t4\t4\t4\ta1\tclaimcheck\n")
    assert [row["item_id"] for row in read_annotation_file(filled)] == ["#7", "8"]
    summary = aggregate_annotations([filled])
    assert summary.n_items == 2
    assert summary.per_annotator["a1"] == {"plausibility": 3.0, "fluency": 3.0,
                                           "correctness": 3.0}


def test_aggregate_hand_computed_means(tmp_path):
    # One item rated 4, 4, 5 across annotators: mean 4.333 to 3 decimals.
    files = [
        write_filled(tmp_path / "a1.tsv", [filled_row("r0", 4, 5, 3, "a1")]),
        write_filled(tmp_path / "a2.tsv", [filled_row("r0", 4, 5, 3, "a2")]),
        write_filled(tmp_path / "a3.tsv", [filled_row("r0", 5, 4, 3, "a3")]),
    ]
    summary = aggregate_annotations(files)
    means = summary.per_system["claimcheck"]
    assert means["plausibility"] == pytest.approx(4.333, abs=5e-4)
    assert means["fluency"] == pytest.approx(4.667, abs=5e-4)
    assert means["correctness"] == pytest.approx(3.0)
    assert summary.per_annotator["a3"]["plausibility"] == 5.0


def test_aggregate_of_no_file_is_that_of_a_file_with_no_rated_row(tmp_path):
    nothing = AnnotationSummary(per_system={}, per_annotator={}, n_items=0, n_annotators=0)
    assert aggregate_annotations([]) == nothing
    assert aggregate_annotations([write_filled(tmp_path / "header.tsv", [])]) == nothing


def test_aggregate_out_of_range_rating(tmp_path):
    path = write_filled(tmp_path / "bad.tsv", [filled_row("r0", 6, 5, 5, "a1")])
    message = f"{path}: item 'r0' has rating '6' outside 1..5"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        aggregate_annotations([path])


def test_aggregate_blank_rating_rejected(tmp_path):
    path = write_filled(tmp_path / "blank.tsv", [filled_row("r0", "", 5, 5, "a1")])
    message = f"{path}: item 'r0' has rating '' outside 1..5"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        aggregate_annotations([path])


def test_aggregate_permutation_invariant(tmp_path):
    rng = random.Random(5)
    rows = [filled_row(f"r{i}", rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5), "a1")
            for i in range(10)]
    forward = write_filled(tmp_path / "f.tsv", rows)
    backward = write_filled(tmp_path / "b.tsv", list(reversed(rows)))
    assert aggregate_annotations([forward]).per_system == \
        aggregate_annotations([backward]).per_system


def test_aggregate_groups_by_system(tmp_path):
    rows = [filled_row("r0", 5, 5, 5, "a1", system="ours"),
            filled_row("r0", 1, 1, 1, "a1", system="baseline")]
    summary = aggregate_annotations([write_filled(tmp_path / "mix.tsv", rows)])
    assert summary.per_system["ours"]["plausibility"] == 5.0
    assert summary.per_system["baseline"]["plausibility"] == 1.0
