from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.textutil import token_f1, tokenize


def counter_intersection_f1(candidate, reference):
    """Oracle: multiset intersection of both texts, counted afresh on every call."""
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand and not ref:
        return 1.0
    overlap = sum((Counter(cand) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (len(cand) + len(ref))


def texts_from(words, max_size):
    return st.tuples(
        st.lists(st.sampled_from(words), max_size=max_size),
        st.sampled_from([" ", "  ", "\n", " \t"]),
    ).map(lambda parts: parts[1].join(parts[0]))


# Every text of one example draws from one vocabulary. Five words make repeated
# and shared tokens the common case; from 300 words most tokens are distinct.
# Empty and whitespace-only texts come out of the empty word list.
vocabulary = st.shared(st.sampled_from([
    (("aa", "bb", "cc", "Aa", "aa."), 12),
    (tuple(f"w{i}" for i in range(300)), 40),
]), key="vocabulary")
texts = vocabulary.flatmap(lambda words_and_size: texts_from(*words_and_size))


def test_token_f1_empty_texts():
    assert token_f1("", "") == 1.0
    assert token_f1(" \n", "\t") == 1.0
    assert token_f1("aa", "") == 0.0
    assert token_f1("", "aa") == 0.0


@settings(max_examples=200, deadline=None)
@given(reference=texts, candidates=st.lists(texts, min_size=1, max_size=6))
def test_token_f1_equals_counter_intersection(reference, candidates):
    # Scoring many candidates against one reference reuses its counts;
    # each score must still be == (not approx) to the oracle, in any order.
    for candidate in candidates + candidates[::-1]:
        assert token_f1(candidate, reference) == counter_intersection_f1(candidate, reference)
        assert token_f1(reference, candidate) == counter_intersection_f1(reference, candidate)
