"""Shapley-value attribution over evidence features.

A coalition value function scores any subset of features; each feature's
attribution is its average marginal contribution over all feature
orderings:

    phi_i = sum over S subset of N\\{i} of |S|!(n-|S|-1)!/n! * (v(S+{i}) - v(S))

Exact enumeration costs 2^n value calls and is used while that fits
EXACT_VALUE_CALL_BUDGET; a seeded permutation-sampling estimator is used
otherwise. For rationale generation the default value function
is the token-overlap F1 between the summary of the coalition-only
evidence and the reference rationale.
"""

from __future__ import annotations

import html
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import ClaimRecord
from .errors import ValidationError
from .rationale import SummarizationBackend, SummaryConfig, generate_rationale, summarize_evidence
from .textutil import split_sentences, token_f1, tokenize

# A coalition value function: coalition bitmask (bit i set: feature i is in
# the coalition) -> real value. Must be deterministic and defined on mask 0.
CoalitionValueFn = Callable[[int], float]

EXACT_FEATURE_LIMIT = 14  # 2^n subset enumeration guard
EXACT_VALUE_CALL_BUDGET = 1 << 10  # attribute() enumerates exactly up to this many value calls


@dataclass(frozen=True)
class AttributionResult:
    features: tuple[str, ...]
    phi: tuple[float, ...]
    value_empty: float
    value_full: float
    method: str  # "exact" or "sampled"
    num_permutations: int | None = None
    seed: int | None = None


def evidence_features(evidence: str, granularity: str = "sentence") -> list[str]:
    """Partition evidence into the ordered texts of its features (sentences or tokens)."""
    if granularity == "sentence":
        spans = split_sentences(evidence)
    elif granularity == "token":
        spans = tokenize(evidence)
    else:
        raise ValidationError(f"unknown granularity {granularity!r}")
    if not spans:
        raise ValidationError("evidence has no features")
    return spans


def exact_shapley(features: Sequence[str], value_fn: CoalitionValueFn) -> AttributionResult:
    """Exact values by full subset enumeration; n is capped at 14. With no features, phi is
    empty and efficiency holds: v(N) = v(empty)."""
    n = len(features)
    if n > EXACT_FEATURE_LIMIT:
        raise ValidationError(f"{n} features exceeds the exact-enumeration limit of "
                              f"{EXACT_FEATURE_LIMIT}; use sampled_shapley")

    values = [value_fn(mask) for mask in range(1 << n)]
    # weight[s] = s! (n-s-1)! / n!  for a coalition of size s joined by one player
    n_fact = math.factorial(n)
    weight = [math.factorial(s) * math.factorial(n - s - 1) / n_fact for s in range(n)]
    size = [0] * (1 << n)  # popcount of every mask
    for mask in range(1, 1 << n):
        size[mask] = size[mask >> 1] + (mask & 1)
    # every mask but the full one can be joined by a player
    mask_weight = [weight[s] for s in size[:-1]]

    phi = [0.0] * n
    for i in range(n):
        bit = 1 << i
        # the masks without bit i, in ascending order
        for block in range(0, 1 << n, bit << 1):
            for mask in range(block, block + bit):
                phi[i] += mask_weight[mask] * (values[mask | bit] - values[mask])

    return AttributionResult(
        features=tuple(features),
        phi=tuple(phi),
        value_empty=values[0],
        value_full=values[(1 << n) - 1],
        method="exact",
    )


def sampled_shapley(
    features: Sequence[str],
    value_fn: CoalitionValueFn,
    num_permutations: int,
    seed: int,
) -> AttributionResult:
    """Monte Carlo permutation estimator of the same attribution.

    Each sampled ordering contributes one marginal per feature; the
    estimate is the mean. Marginals telescope per permutation, so the
    efficiency identity sum(phi) = v(N) - v(empty) holds by construction.
    Deterministic given the seed.
    """
    n = len(features)
    if num_permutations < 1:
        raise ValidationError("num_permutations must be >= 1")

    cache: dict[int, float] = {}

    def value(mask: int) -> float:
        score = cache.get(mask)
        if score is None:
            score = cache[mask] = value_fn(mask)
        return score

    rng = random.Random(seed)
    totals = [0.0] * n
    value_empty = value(0)
    full_mask = (1 << n) - 1
    for _ in range(num_permutations):
        order = list(range(n))
        rng.shuffle(order)
        mask = 0
        previous = value_empty
        for i in order:
            mask |= 1 << i
            current = value(mask)
            totals[i] += current - previous
            previous = current

    return AttributionResult(
        features=tuple(features),
        phi=tuple(t / num_permutations for t in totals),
        value_empty=value_empty,
        value_full=value(full_mask),
        method="sampled",
        num_permutations=num_permutations,
        seed=seed,
    )


def attribute(
    features: Sequence[str],
    value_fn: CoalitionValueFn,
    num_permutations: int,
    seed: int,
) -> AttributionResult:
    """Exact values while 2^n value calls fit EXACT_VALUE_CALL_BUDGET, sampled otherwise."""
    if 1 << len(features) <= EXACT_VALUE_CALL_BUDGET:
        return exact_shapley(features, value_fn)
    return sampled_shapley(features, value_fn, num_permutations, seed)


def rationale_value_fn(
    record: ClaimRecord,
    features: Sequence[str],
    backend: SummarizationBackend,
    config: SummaryConfig,
) -> CoalitionValueFn:
    """Value function scoring how well a feature coalition reproduces the rationale.

    `features` are the texts the record's evidence was split into (see
    evidence_features). evaluate(mask) summarizes the evidence restricted
    to the features whose bits are set (everything else removed, order
    preserved) and returns the token-overlap F1 against the reference
    rationale of the full evidence. evaluate(0) is 0 by definition. Coalition perturbation
    is removal, not mask substitution, so any backend can be plugged in.
    Distinct coalitions often summarize alike, so each distinct summary
    is scored once.
    """
    reference = generate_rationale(record.evidence, backend, config, record_id=record.id).text
    scores: dict[str, float] = {}

    def evaluate(mask: int) -> float:
        if not mask:
            return 0.0
        coalition_text = " ".join([text for i, text in enumerate(features) if mask >> i & 1])
        summary = summarize_evidence(coalition_text, backend, config, record_id=record.id)
        score = scores.get(summary)
        if score is None:
            score = scores[summary] = token_f1(summary, reference)
        return score

    return evaluate


_POSITIVE_RGB = "33, 102, 172"  # blue
_NEGATIVE_RGB = "178, 24, 43"  # red


def polarity(phi: float) -> str:
    """The polarity word of one attribution: positive, negative or zero."""
    return "positive" if phi > 0 else "negative" if phi < 0 else "zero"


def export_highlights(result: AttributionResult, title: str = "") -> str:
    """The highlight markup of an attribution: one span per feature.

    Blue marks positive contributions, red negative; intensity scales
    with |phi| relative to the largest magnitude.
    """
    max_abs = max((abs(p) for p in result.phi), default=0.0)
    spans = []
    for text, phi in zip(result.features, result.phi):
        sign = polarity(phi)
        intensity = abs(phi) / max_abs if max_abs > 0 else 0.0
        escaped = html.escape(text)
        if sign == "zero" or intensity == 0.0:
            spans.append(f"<span title=\"phi={phi:+.4f}\">{escaped}</span>")
        else:
            rgb = _POSITIVE_RGB if sign == "positive" else _NEGATIVE_RGB
            spans.append(
                f"<span style=\"background-color: rgba({rgb}, {intensity:.3f})\" "
                f"title=\"phi={phi:+.4f}\">{escaped}</span>"
            )
    heading = f"<h2>{html.escape(title)}</h2>\n" if title else ""
    return heading + "<p>" + " ".join(spans) + "</p>"


def render_highlight_page(docs: Sequence[str]) -> str:
    """Standalone HTML page wrapping the markup of one or more highlight documents."""
    body = "\n".join(docs)
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        "<title>Rationale attribution highlights</title>\n"
        "<style>body { font-family: sans-serif; max-width: 50em; margin: 2em auto; }</style>\n"
        "</head>\n<body>\n"
        "<p>Blue marks features pushing the rationale toward its reference; "
        "red marks features working against it.</p>\n"
        f"{body}\n</body>\n</html>\n"
    )
