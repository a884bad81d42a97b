import pytest
from hypothesis import given, strategies as st

from fgindex.errors import ParseError
from fgindex.words import (
    EPSILON,
    Alphabet,
    Purity,
    concat,
    invert,
    is_reduced,
    letter_sort_key,
    purity,
    word_sort_key,
)

import oracles

letters = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.sampled_from([n, -n])
)
raw_words = st.lists(letters, max_size=12).map(tuple)
reduced_words = raw_words.map(oracles.reduce_word)


@given(raw_words, raw_words)
def test_concat_matches_stack_reduction(u, v):
    u, v = oracles.reduce_word(u), oracles.reduce_word(v)
    assert concat(u, v) == oracles.reduce_word(u + v)


@given(raw_words, raw_words, raw_words)
def test_concat_associative(u, v, w):
    u, v, w = map(oracles.reduce_word, (u, v, w))
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(reduced_words)
def test_invert_is_an_involution(u):
    assert invert(invert(u)) == u


@given(reduced_words)
def test_inverse_cancels(u):
    assert concat(u, invert(u)) == EPSILON
    assert concat(invert(u), u) == EPSILON


@given(reduced_words)
def test_concat_output_reduced(u):
    assert is_reduced(concat(u, invert(u[: len(u) // 2])))


def test_purity_cases():
    assert purity(EPSILON) is Purity.EMPTY
    assert purity((1, 2, 1)) is Purity.PURE_POSITIVE
    assert purity((-2, -1)) is Purity.PURE_NEGATIVE
    assert purity((1, -2)) is Purity.MIXED


def test_letter_sort_key_orders_by_name_then_sign():
    assert sorted([2, -1, 1, -2], key=letter_sort_key) == [1, -1, 2, -2]


def test_word_sort_key_is_letterwise():
    words = [(1, 2, 3), (2,), (1, 1), EPSILON]
    assert sorted(words, key=word_sort_key) == [
        EPSILON,
        (1, 1),
        (1, 2, 3),
        (2,),
    ]


class TestAlphabet:
    def test_round_trip(self):
        ab = Alphabet(["a", "b", "c"])
        for text in ("a b c", "a^-1 c b^-1", "1"):
            assert ab.format_word(ab.parse_word(text)) == text

    def test_rejects_unknown_generator(self):
        ab = Alphabet(["a", "b"])
        with pytest.raises(ParseError):
            ab.parse_word("a q")

    def test_rejects_unreduced_word(self):
        ab = Alphabet(["a", "b"])
        with pytest.raises(ParseError):
            ab.parse_word("a a^-1")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ParseError):
            Alphabet(["a", "a"])

    def test_size_and_letters(self):
        ab = Alphabet(["x", "y"])
        assert ab.size == 2
        assert list(ab.letters()) == [1, 2]
