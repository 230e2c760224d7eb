"""Acceptance suite: one test per numbered criterion, stated tolerances.

Criteria 1-9 run with the deterministic stub backends and fixtures.
Criterion 10 needs the reference large-model backends and accelerator
hours; it is skipped in the default suite.
"""

from __future__ import annotations

import itertools
import json
import random
import time
import warnings
from pathlib import Path

import pytest

from claimcheck import pipeline
from claimcheck.cli import main
from claimcheck.corpus import VerdictLabel, default_blocklist_path, parse_corpus, split_corpus
from claimcheck.evaluation import (
    NliReport,
    NliVerdict,
    RATING_SCALES,
    aggregate_annotations,
    build_nli_prompt,
    macro_f1,
    read_annotation_file,
    render_annotation_tasks,
)
from claimcheck.attribution import exact_shapley, sampled_shapley
from claimcheck.nle import compose_nle
from claimcheck.rationale import (LeadSummarizer, Rationale, SummaryConfig, generate_rationale,
                                  stub_summarize)
from claimcheck.store import file_sha256
from claimcheck.textutil import tokenize
from claimcheck.verdict import VerdictPrediction, build_copa_prompt

from conftest import golden_text
from helpers import benchmark_shaped_rows, make_rows, mask_game, write_config, write_corpus

S, R = VerdictLabel.SUPPORTS, VerdictLabel.REFUTES


def test_c01_corpus_fidelity(tmp_path, capsys):
    """Criterion 1: ingest reports 4006/2013/1993; splits are 2804/601/601.

    The published corpus file is not redistributable with the test suite,
    so a generated corpus with the released shape exercises the identical
    ingest and split paths; all assertions are exact integer matches.
    """
    start = time.monotonic()
    corpus = write_corpus(tmp_path / "benchmark.jsonl", benchmark_shaped_rows())
    out = tmp_path / "out"
    out.mkdir()
    config_path = write_config(tmp_path / "config.json", corpus, out,
                               blocklist_path=str(default_blocklist_path()))

    assert main(["ingest", "--config", str(config_path)]) == 0
    stdout = capsys.readouterr().out
    assert "records: 4006" in stdout
    assert "Supports: 2013" in stdout
    assert "Refutes: 1993" in stdout
    assert "matches the published benchmark release" in stdout

    stats = json.loads((out / pipeline.CORPUS_STATS).read_text())
    assert stats["total"] == 4006
    assert stats["per_label"] == {"Supports": 2013, "Refutes": 1993}

    records = parse_corpus(corpus)
    splits = split_corpus(records, (0.70, 0.15, 0.15), seed=42)
    assert splits.sizes() == (2804, 601, 601)
    assert time.monotonic() - start < 60


def test_c02_macro_f1_oracle_equivalence():
    """Criterion 2: macro_f1 equals a brute-force confusion oracle, 500 vectors."""

    def oracle(preds, golds):
        f1s = []
        for label in VerdictLabel:
            tp = sum(1 for p, g in zip(preds, golds) if p is label and g is label)
            fp = sum(1 for p, g in zip(preds, golds) if p is label and g is not label)
            fn = sum(1 for p, g in zip(preds, golds) if p is not label and g is label)
            f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        return sum(f1s) / len(f1s)

    start = time.monotonic()
    rng = random.Random(20240101)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-class vectors warn by design
        for _ in range(500):
            n = rng.randint(1, 200)
            golds = [rng.choice((S, R)) for _ in range(n)]
            preds = [rng.choice((S, R)) for _ in range(n)]
            assert abs(macro_f1(preds, golds) - oracle(preds, golds)) <= 1e-12
    assert time.monotonic() - start < 10


def test_c03_prompt_golden_files():
    """Criterion 3: the three templates are byte-identical to golden files."""
    rationale = Rationale(record_id="r1", text="R0", token_length=1, backend_id="stub-lead")
    assert build_copa_prompt("C0", rationale) == golden_text("copa_prompt.txt")

    prediction = VerdictPrediction(record_id="r1", label=S, raw_generation="Supports",
                                   prompt_hash="0" * 64)
    nle = compose_nle(prediction, rationale)
    assert nle.text == golden_text("nle_supports.txt")
    refuting = VerdictPrediction(record_id="r1", label=R, raw_generation="Refutes",
                                 prompt_hash="0" * 64)
    assert compose_nle(refuting, rationale).text == golden_text("nle_refutes.txt")

    assert build_nli_prompt("C0", "N0") == golden_text("nli_prompt.txt")


def features_of(n):
    return [f"f{i}" for i in range(n)]


def random_game(n, rng):
    table = {frozenset(): 0.0}
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            table[frozenset(combo)] = rng.random()
    return table.__getitem__


def test_c04_shapley_axioms():
    """Criterion 4: additive game recovers weights; efficiency on 100 games."""
    start = time.monotonic()
    rng = random.Random(99)
    weights = [rng.uniform(-2, 2) for _ in range(10)]
    result = exact_shapley(features_of(10), mask_game(lambda s: sum(weights[i] for i in s), 10))
    assert all(abs(p - w) <= 1e-9 for p, w in zip(result.phi, weights))

    for _ in range(100):
        n = rng.randint(1, 10)
        value_fn = random_game(n, rng)
        res = exact_shapley(features_of(n), mask_game(value_fn, n))
        assert abs(sum(res.phi) - (res.value_full - res.value_empty)) <= 1e-9
    assert time.monotonic() - start < 30


def test_c05_shapley_convergence():
    """Criterion 5: sampled (2000 permutations, fixed seed) vs exact, L-inf <= 0.05."""
    start = time.monotonic()
    value_fn = mask_game(random_game(8, random.Random(2024)), 8)
    features = features_of(8)
    exact = exact_shapley(features, value_fn)
    sampled = sampled_shapley(features, value_fn, num_permutations=2000, seed=7)
    linf = max(abs(s - e) for s, e in zip(sampled.phi, exact.phi))
    assert linf <= 0.05
    assert time.monotonic() - start < 30


def test_c06_rationale_bounds_and_claim_blindness(tmp_path):
    """Criterion 6: stub output within [75, 120] tokens; claims never leak."""
    start = time.monotonic()
    config = SummaryConfig()
    backend = LeadSummarizer()

    rng = random.Random(61)
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    for _ in range(40):
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(6, 30))) + "."
            for _ in range(rng.randint(4, 30))
        ]
        evidence = " ".join(sentences)
        if len(tokenize(evidence)) < 75:
            continue
        assert 75 <= len(tokenize(stub_summarize(evidence, config))) <= 120

    rows = make_rows(12, 6, seed=66)
    records = parse_corpus(write_corpus(tmp_path / "a.jsonl", rows))
    for row in rows:
        row["claim"] = "an entirely unrelated assertion."
    perturbed = parse_corpus(write_corpus(tmp_path / "b.jsonl", rows))
    base, after = ({r.id: generate_rationale(r.evidence, backend, config, r.id) for r in rs}
                   for rs in (records, perturbed))
    assert all(after[record_id].text == base[record_id].text for record_id in base)
    assert time.monotonic() - start < 10


def test_c07_nli_report_arithmetic():
    """Criterion 7: counts (168, 253, 180) over 601 render as 27.9/42.0/29.9."""
    verdicts = ([NliVerdict.ENTAILMENT] * 168 + [NliVerdict.NEUTRAL] * 253
                + [NliVerdict.CONTRADICTION] * 180)
    report = NliReport.from_verdicts(verdicts)
    assert report.counts[NliVerdict.ENTAILMENT] == 168
    assert report.percentages[NliVerdict.ENTAILMENT] == 27.9
    assert report.percentages[NliVerdict.NEUTRAL] == 42.0
    assert report.percentages[NliVerdict.CONTRADICTION] == 29.9


def test_c08_end_to_end_determinism(tmp_path, corpus20_path):
    """Criterion 8: two full stub runs agree on every artifact hash."""
    start = time.monotonic()

    def run(tag: str) -> tuple[dict[str, str], Path]:
        out = tmp_path / tag
        out.mkdir()
        config_path = write_config(tmp_path / f"{tag}.json", corpus20_path, out,
                                   blocklist_path=str(default_blocklist_path()))
        config = pipeline.load_config(config_path)
        pipeline.run_all(config)
        hashes = {p.name: file_sha256(p) for p in sorted(out.iterdir())
                  if p.name != pipeline.MANIFEST}
        return hashes, out

    first_hashes, out = run("one")
    second_hashes, _ = run("two")
    assert first_hashes == second_hashes

    predictions = (out / pipeline.PREDICTIONS).read_text().splitlines()[1:]
    nles = (out / pipeline.NLES).read_text().splitlines()[1:]
    assert len(predictions) == 20
    assert len(nles) == 20
    report = json.loads((out / pipeline.EVAL_REPORT).read_text())
    assert set(report["macro_f1"]) == {"validation", "test"}
    assert report["nli"]["total"] == 3  # test split of the 20-record fixture
    assert time.monotonic() - start < 60


def test_c09_annotation_schema(tmp_path):
    """Criterion 9: exported tasks embed the rating scales verbatim and
    synthetic ratings aggregate to hand-computed means."""
    items = [(f"r{i}", f"claim {i}", f"The evidence supports the claim because fact {i}.")
             for i in range(601)]
    path = tmp_path / "tasks.tsv"
    text = render_annotation_tasks(items, n=100, seed=17)
    path.write_text(text)
    assert len(read_annotation_file(path)) == 100
    for scale in RATING_SCALES.values():
        for rating, label in scale.items():
            assert f"{rating}={label}" in text
    assert "5=Very Convincing" in text and "1=Can Not Judge" in text
    assert "5=Flawless English" in text and "1=Incomprehensible" in text
    assert "5=Absolutely True" in text and "2=Absolutely Not True" in text

    # Three annotators fill every task with fixed ratings per criterion:
    # plausibility {4,4,5} -> 4.333, fluency {5,5,4} -> 4.667,
    # correctness {3,3,3} -> 3.000 (hand arithmetic).
    rows = read_annotation_file(path)
    files = []
    for annotator, (p, f, c) in zip(("a1", "a2", "a3"), ((4, 5, 3), (4, 5, 3), (5, 4, 3))):
        lines = ["\t".join(["item_id", "claim", "nle", "plausibility", "fluency",
                            "correctness", "annotator_id", "system_id"])]
        for row in rows:
            lines.append("\t".join([row["item_id"], row["claim"], row["nle"],
                                    str(p), str(f), str(c), annotator, row["system_id"]]))
        filled = tmp_path / f"{annotator}.tsv"
        filled.write_text("\n".join(lines) + "\n")
        files.append(filled)

    summary = aggregate_annotations(files)
    means = summary.per_system["claimcheck"]
    assert means["plausibility"] == pytest.approx(4.333, abs=5e-4)
    assert means["fluency"] == pytest.approx(4.667, abs=5e-4)
    assert means["correctness"] == pytest.approx(3.000, abs=5e-4)
    assert summary.n_annotators == 3 and summary.n_items == 100


@pytest.mark.skip(reason="GPU-scale: needs the reference summarization and text-to-text "
                         "backends fine-tuned for hours on one accelerator (batch 8, lr 2e-5, "
                         "20 epochs, eval every 350 steps); expected test macro-F1 >= 0.88")
def test_c10_reference_backend_macro_f1():
    """Criterion 10 (optional): full-scale run against the published corpus."""
    raise NotImplementedError("register the reference backends and drop the skip marker")
