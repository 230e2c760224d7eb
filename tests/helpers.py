"""Deterministic corpus factories, a coalition-game adapter and a staged-run driver shared by
the test modules."""

from __future__ import annotations

import json
import random
from pathlib import Path

from claimcheck import pipeline
from claimcheck.cli import main

WORDS = (
    "policy report agency data federal state program health census budget "
    "analysis record survey statute audit bureau labor commerce revenue "
    "population enrollment spending index filing transcript measure"
).split()

SOURCES = ("a governor", "a senator", "a mayor", "a candidate", "an advocacy group")


def make_rows(
    n: int,
    supports: int,
    seed: int = 0,
    claim_tokens: int = 8,
    sentences: tuple[int, int] = (8, 12),
    sentence_tokens: tuple[int, int] = (10, 16),
) -> list[dict]:
    """Synthetic corpus rows with raw True/False verdicts.

    The first `supports` rows are labelled True, the rest False. Claims
    and evidence are seeded word salad with sentence structure, so the
    sentence splitter and token bounds behave as on real text.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        claim_words = [rng.choice(WORDS) for _ in range(claim_tokens - 1)]
        evidence_sentences = []
        for _ in range(rng.randint(*sentences)):
            words = [rng.choice(WORDS) for _ in range(rng.randint(*sentence_tokens))]
            evidence_sentences.append(" ".join(words) + ".")
        rows.append({
            "id": f"c{i:05d}",
            "claim": " ".join(claim_words) + " increased.",
            "date": f"20{rng.randint(15, 23)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            "source": rng.choice(SOURCES),
            "verdict": "True" if i < supports else "False",
            "evidence": " ".join(evidence_sentences),
            "url": f"https://factcheck.example/item/{i}",
        })
    return rows


def write_corpus(path: str | Path, rows: list[dict]) -> Path:
    path = Path(path)
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                    encoding="utf-8")
    return path


def benchmark_shaped_rows(seed: int = 1) -> list[dict]:
    """A corpus with the published benchmark shape: 4006 rows, 2013/1993."""
    return make_rows(4006, 2013, seed=seed, sentences=(3, 4), sentence_tokens=(6, 9))


def mask_game(game, n: int):
    """Adapt a game on frozensets of feature indices to the Shapley kernels' bitmask argument."""
    return lambda mask: game(frozenset(i for i in range(n) if mask >> i & 1))


def write_config(path: str | Path, corpus_path: str | Path, output_dir: str | Path,
                 **extra) -> Path:
    """Write a pipeline config JSON and return its path."""
    payload = {
        "corpus_path": str(corpus_path),
        "output_dir": str(output_dir),
        **extra,
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def run_steps(config: str | Path) -> list[str]:
    """Run the commands of pipeline.STEPS one by one through the CLI, in order, each asserted
    to exit 0; return the commands run."""
    commands = [command for step in pipeline.STEPS.values() for command in step]
    for command in commands:
        assert main([command, "--config", str(config)]) == 0, command
    return commands
