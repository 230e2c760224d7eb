from __future__ import annotations

import itertools
import math
import random
from functools import partial

import pytest

from claimcheck import attribution
from claimcheck.attribution import (
    EXACT_FEATURE_LIMIT,
    EXACT_VALUE_CALL_BUDGET,
    AttributionResult,
    attribute,
    evidence_features,
    exact_shapley,
    export_highlights,
    polarity,
    rationale_value_fn,
    render_highlight_page,
    sampled_shapley,
)
from claimcheck.corpus import ClaimRecord, VerdictLabel
from claimcheck.errors import ValidationError
from claimcheck.rationale import LeadSummarizer, SummaryConfig, stub_summarize
from helpers import mask_game


def features_of(n):
    return [f"f{i}" for i in range(n)]


def brute_force_shapley(n, value_fn):
    """Independent oracle: average marginals over all n! orderings."""
    totals = [0.0] * n
    for order in itertools.permutations(range(n)):
        coalition = frozenset()
        for i in order:
            with_i = coalition | {i}
            totals[i] += value_fn(with_i) - value_fn(coalition)
            coalition = with_i
    return [t / math.factorial(n) for t in totals]


def random_game(n, rng):
    """A random coalition game with values in [0, 1] and v(empty)=0."""
    table = {frozenset(): 0.0}
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            table[frozenset(combo)] = rng.random()
    return table.__getitem__


# ---------------------------------------------------------------------------
# Feature extraction


def test_sentence_features_partition_in_order():
    features = evidence_features("One here. Two there. Three low.")
    assert features == ["One here.", "Two there.", "Three low."]


def test_token_features():
    features = evidence_features("a b c", granularity="token")
    assert features == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Exact values


HAND_GAME = {
    frozenset(): 0.0,
    frozenset({0}): 1.0,
    frozenset({1}): 1.0,
    frozenset({2}): 0.0,
    frozenset({0, 1}): 2.0,
    frozenset({0, 2}): 2.0,
    frozenset({1, 2}): 1.0,
    frozenset({0, 1, 2}): 3.0,
}


def test_exact_three_feature_hand_game():
    result = exact_shapley(features_of(3), mask_game(HAND_GAME.__getitem__, 3))
    oracle = brute_force_shapley(3, HAND_GAME.__getitem__)
    assert result.phi == pytest.approx(oracle, abs=1e-12)
    assert result.phi == pytest.approx((1.5, 1.0, 0.5), abs=1e-12)
    assert result.value_empty == 0.0
    assert result.value_full == 3.0


def test_exact_constant_game_gives_zero():
    result = exact_shapley(features_of(4), lambda s: 2.5)
    assert result.phi == pytest.approx([0.0] * 4, abs=1e-12)


def test_exact_additive_game_returns_weights():
    weights = [0.3, -1.2, 0.0, 4.5, 2.25]
    result = exact_shapley(features_of(5), mask_game(lambda s: sum(weights[i] for i in s), 5))
    assert result.phi == pytest.approx(weights, abs=1e-9)


def test_exact_symmetric_features_get_equal_phi():
    # v depends only on coalition size, so all features are symmetric.
    result = exact_shapley(features_of(5), mask_game(lambda s: math.sqrt(len(s)), 5))
    assert max(result.phi) - min(result.phi) < 1e-12


def test_exact_null_player():
    # Feature 2 never changes the value.
    value_fn = lambda s: sum(1.0 for i in s if i != 2)
    result = exact_shapley(features_of(4), mask_game(value_fn, 4))
    assert result.phi[2] == pytest.approx(0.0, abs=1e-12)


def test_exact_efficiency_on_random_games():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.randint(1, 8)
        value_fn = random_game(n, rng)
        result = exact_shapley(features_of(n), mask_game(value_fn, n))
        assert sum(result.phi) == pytest.approx(result.value_full - result.value_empty, abs=1e-9)


def test_exact_feature_limit():
    with pytest.raises(ValidationError, match=f"^{EXACT_FEATURE_LIMIT + 1} features exceeds the "
                       f"exact-enumeration limit of {EXACT_FEATURE_LIMIT}; use sampled_shapley$"):
        exact_shapley(features_of(EXACT_FEATURE_LIMIT + 1), lambda s: 0.0)


def test_sampled_needs_at_least_one_permutation():
    with pytest.raises(ValidationError, match="^num_permutations must be >= 1$"):
        sampled_shapley(features_of(2), lambda mask: 0.0, num_permutations=0, seed=0)


def test_evidence_without_features_rejected():
    with pytest.raises(ValidationError, match="^evidence has no features$"):
        evidence_features(" \n ")


@pytest.mark.parametrize("kernel", [exact_shapley, partial(sampled_shapley, num_permutations=3,
                                                             seed=0)])
def test_the_game_of_no_features_attributes_nothing(kernel):
    result = kernel([], lambda mask: 0.25 if mask == 0 else 1.0)
    assert (result.features, result.phi) == ((), ())
    assert result.value_empty == result.value_full == 0.25


def test_unknown_granularity_rejected():
    with pytest.raises(ValidationError, match="^unknown granularity 'word'$"):
        evidence_features("One claim. Two claims.", "word")


def test_exact_agrees_with_permutation_oracle_on_random_games():
    rng = random.Random(7)
    for _ in range(5):
        n = rng.randint(2, 5)
        value_fn = random_game(n, rng)
        result = exact_shapley(features_of(n), mask_game(value_fn, n))
        assert result.phi == pytest.approx(brute_force_shapley(n, value_fn), abs=1e-12)


def bin_count_shapley(n, value_fn):
    """The exact kernel as first written, recounting bits with bin().count per mask."""
    values = [value_fn(frozenset(i for i in range(n) if mask >> i & 1)) for mask in range(1 << n)]
    n_fact = math.factorial(n)
    weight = [math.factorial(s) * math.factorial(n - s - 1) / n_fact for s in range(n)]
    phi = [0.0] * n
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                continue
            size = bin(mask).count("1")
            phi[i] += weight[size] * (values[mask | bit] - values[mask])
    return phi


def test_exact_phi_bit_identical_to_bin_count_kernel():
    rng = random.Random(11)
    for n in list(range(1, 11)) * 2:
        value_fn = random_game(n, rng)
        phi = exact_shapley(features_of(n), mask_game(value_fn, n)).phi
        assert list(phi) == bin_count_shapley(n, value_fn)


def test_attribute_enumerates_exactly_within_the_value_call_budget():
    assert 1 << 10 == EXACT_VALUE_CALL_BUDGET
    game = lambda s: float(len(s))  # noqa: E731
    assert attribute(features_of(10), mask_game(game, 10), num_permutations=3,
                     seed=0).method == "exact"
    result = attribute(features_of(11), mask_game(game, 11), num_permutations=3, seed=0)
    assert (result.method, result.num_permutations, result.seed) == ("sampled", 3, 0)


# ---------------------------------------------------------------------------
# Sampled values


def frozenset_sampled_shapley(n, value_fn, num_permutations, seed):
    """The sampled kernel as written when value functions took frozensets of indices."""
    cache = {}

    def value(mask):
        if mask not in cache:
            cache[mask] = value_fn(frozenset(i for i in range(n) if mask >> i & 1))
        return cache[mask]

    rng = random.Random(seed)
    totals = [0.0] * n
    value_empty = value(0)
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
    return [t / num_permutations for t in totals]


def test_sampled_phi_bit_identical_to_frozenset_kernel():
    rng = random.Random(13)
    for n in range(1, EXACT_FEATURE_LIMIT + 1):
        value_fn = random_game(n, rng)
        for num_permutations, seed in ((1, 0), (7, 3), (50, 11)):
            result = sampled_shapley(features_of(n), mask_game(value_fn, n), num_permutations, seed)
            assert list(result.phi) == frozenset_sampled_shapley(n, value_fn, num_permutations, seed)


def test_sampled_single_permutation_is_its_marginals():
    seed = 17
    n = 4
    value_fn = HAND_GAME.__getitem__ if n == 3 else random_game(n, random.Random(0))
    result = sampled_shapley(features_of(n), mask_game(value_fn, n), num_permutations=1, seed=seed)
    # Reproduce the permutation the estimator drew and its telescoping marginals.
    order = list(range(n))
    random.Random(seed).shuffle(order)
    expected = [0.0] * n
    coalition = frozenset()
    for i in order:
        expected[i] = value_fn(coalition | {i}) - value_fn(coalition)
        coalition = coalition | {i}
    assert result.phi == pytest.approx(expected, abs=1e-12)


def test_sampled_deterministic_given_seed():
    value_fn = mask_game(random_game(6, random.Random(2)), 6)
    a = sampled_shapley(features_of(6), value_fn, num_permutations=50, seed=5)
    b = sampled_shapley(features_of(6), value_fn, num_permutations=50, seed=5)
    assert a.phi == b.phi


def test_sampled_efficiency_holds_by_construction():
    value_fn = mask_game(random_game(7, random.Random(3)), 7)
    result = sampled_shapley(features_of(7), value_fn, num_permutations=20, seed=9)
    assert sum(result.phi) == pytest.approx(result.value_full - result.value_empty, abs=1e-9)


def test_sampled_converges_to_exact():
    value_fn = mask_game(random_game(8, random.Random(4)), 8)
    features = features_of(8)
    exact = exact_shapley(features, value_fn)
    sampled = sampled_shapley(features, value_fn, num_permutations=2000, seed=11)
    linf = max(abs(s - e) for s, e in zip(sampled.phi, exact.phi))
    assert linf <= 0.05


# ---------------------------------------------------------------------------
# Rationale value function


BACKEND = LeadSummarizer()
SHORT_CONFIG = SummaryConfig(min_tokens=1, max_tokens=120)


def record_with(evidence, record_id="r1"):
    return ClaimRecord(id=record_id, claim="some claim", date="2021-01-01", source="x",
                       verdict=VerdictLabel.SUPPORTS, evidence=evidence, url="https://x")


def test_value_fn_empty_coalition_is_zero():
    value_fn = rationale_value_fn(record_with("Water is wet."), evidence_features("Water is wet."),
                                  BACKEND, SHORT_CONFIG)
    assert value_fn(0) == 0.0


def test_value_fn_single_sentence_identity():
    # One sentence; the coalition containing it reproduces the reference
    # exactly, so token-overlap F1 is 1.0 (hand check: identical multisets).
    value_fn = rationale_value_fn(record_with("Water is wet."), evidence_features("Water is wet."),
                                  BACKEND, SHORT_CONFIG)
    assert value_fn(0b1) == pytest.approx(1.0)


def test_value_fn_full_coalition_reproduces_reference():
    evidence = "First fact stated. Second fact follows. Third fact closes."
    value_fn = rationale_value_fn(record_with(evidence), evidence_features(evidence), BACKEND,
                                  SHORT_CONFIG)
    assert value_fn(0b111) == pytest.approx(1.0)


def test_value_fn_partial_coalition_hand_computed():
    # With a 4-token floor the reference summary spans both sentences,
    # "aa bb. cc dd." (4 tokens). Coalition {0} summarizes to "aa bb."
    # (2 tokens); overlap 2 tokens, so F1 = 2*2/(2+4) = 2/3.
    evidence = "aa bb. cc dd."
    config = SummaryConfig(min_tokens=4, max_tokens=120)
    value_fn = rationale_value_fn(record_with(evidence), evidence_features(evidence), BACKEND, config)
    assert value_fn(0b1) == pytest.approx(2 / 3)


def test_value_fn_joins_set_bits_in_index_order():
    # With a 2-token floor a summary is its text's first sentence. Mask 0b101
    # is sentences 0 and 2 joined in that order, so it summarizes to sentence
    # 0, the reference: F1 1.0. Sentences 2 then 0, or 1 and 3, would score 0.
    evidence = "aa bb. cc dd. ee ff. gg hh."
    config = SummaryConfig(min_tokens=2, max_tokens=120)
    value_fn = rationale_value_fn(record_with(evidence), evidence_features(evidence), BACKEND, config)
    summary, reference = stub_summarize("aa bb. ee ff.", config), stub_summarize(evidence, config)
    assert value_fn(0b101) == attribution.token_f1(summary, reference) == 1.0


def test_value_fn_scores_each_distinct_summary_once(monkeypatch):
    # With a 3-token floor every coalition summarizes to its first sentence,
    # so the 15 non-empty coalitions of 4 sentences give 4 distinct summaries.
    sentences = ["aa bb cc.", "dd ee ff.", "gg hh ii.", "aa dd gg."]
    evidence = " ".join(sentences)
    config = SummaryConfig(min_tokens=3, max_tokens=120)
    scored = []
    token_f1 = attribution.token_f1

    def counting_f1(summary, reference):
        scored.append(summary)
        return token_f1(summary, reference)

    monkeypatch.setattr(attribution, "token_f1", counting_f1)
    features = evidence_features(evidence)
    value_fn = rationale_value_fn(record_with(evidence), features, BACKEND, config)
    exact_shapley(features, value_fn)
    assert sorted(scored) == sorted(sentences)
    for mask in range(1, 1 << len(sentences)):
        subset = frozenset(i for i in range(len(sentences)) if mask >> i & 1)
        summary = stub_summarize(" ".join(sentences[i] for i in sorted(subset)), config)
        assert value_fn(mask) == token_f1(summary, stub_summarize(evidence, config))
    assert len(scored) == len(sentences)  # repeated coalitions are not rescored


# ---------------------------------------------------------------------------
# Highlight export


def result_with_phi(phi):
    return AttributionResult(features=tuple(features_of(len(phi))), phi=tuple(phi),
                             value_empty=0.0, value_full=sum(phi), method="exact")


def test_highlight_polarities():
    phi = [0.5, -0.2, 0.0]
    markup = export_highlights(result_with_phi(phi))
    assert list(map(polarity, phi)) == ["positive", "negative", "zero"]
    assert "rgba(33, 102, 172, 1.000)" in markup
    assert "rgba(178, 24, 43, 0.400)" in markup


def test_highlight_uniform_intensity_when_all_equal():
    markup = export_highlights(result_with_phi([0.3, 0.3, 0.3]))
    assert markup.count("rgba(33, 102, 172, 1.000)") == 3


def test_highlight_zero_scale_degenerate():
    markup = export_highlights(result_with_phi([0.0, 0.0]))
    assert "rgba" not in markup  # intensity 0: plain spans
    assert polarity(0.0) == "zero"


def test_highlight_markup_escapes_and_colors():
    result = AttributionResult(features=("a <b> tag.", "plain."), phi=(0.5, -0.5), value_empty=0.0,
                               value_full=0.0, method="exact")
    markup = export_highlights(result, title="record r1")
    assert "a &lt;b&gt; tag." in markup
    assert "rgba(33, 102, 172" in markup  # blue for positive
    assert "rgba(178, 24, 43" in markup  # red for negative
    page = render_highlight_page([markup])
    assert page.startswith("<!DOCTYPE html>")
    assert "record r1" in page
