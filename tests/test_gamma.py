import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgindex.gamma
from fgindex import load_automorphism
from fgindex.automorphism import validate
from fgindex.config import Budget
from fgindex.errors import BudgetExceeded, InvariantViolation
from fgindex.families import cyclic_family
from fgindex.gamma import (
    Stream,
    _block_table,
    _peelable,
    _push_block,
    all_matches,
    gamma_bound,
    star_index,
)
from fgindex.prefix_suffix import loops
from fgindex.words import EPSILON, Alphabet, invert

import oracles
from conftest import aut_path
from strategies import positive_automorphisms, relabelled

ALL = ["rank3", "rank4", "fibonacci", "rank6", "rank14"]

SIDES = ("minus", "plus")


@pytest.fixture(params=ALL)
def phi(request):
    return request.getfixturevalue(request.param)


def unlimited():
    return Budget(10**15)


def starts(phi, k, side):
    """(affix, (a, n)) for every nonempty affix of the side, in affix order,
    as _full_level starts its streams: a is the letter of the first loop with
    that affix and n the affix's length.  Loop prefixes rotate on the minus
    side (the word grows leftward), loop suffixes on the plus side."""
    first = {}
    for t in loops(phi, k):
        first.setdefault(t.p if side == "minus" else t.s, t.a)
    first.pop(EPSILON, None)
    return [(u, (first[u], len(u))) for u in sorted(first)]


def stream(phi, k, side, start):
    """The stream all_matches builds for one start."""
    a, n = start
    return Stream(_block_table(phi, k, side, unlimited()), a, n, unlimited())


def word_at(stream, i, side):
    """Rotation value i as an actual word: stream order, reversed on the
    minus side."""
    word = stream.word_at(i)
    return word if side == "plus" else word[::-1]


def pair_match(phi, k, side, x, y, budget=None):
    """The joint matcher run on the single pair of starts (x, y)."""
    return all_matches(phi, k, side, [x, y], budget or unlimited()).get((0, 1))


def test_gamma_submodule_is_not_shadowed():
    assert isinstance(fgindex.gamma, types.ModuleType)


# -- single rotation steps -------------------------------------------------------


def first_rotation(phi, k, side, start):
    s = stream(phi, k, side, start)
    s.ensure_steps(1)
    return word_at(s, 1, side)


def test_gamma_matches_oracle(phi):
    for k in (1, 2, 3):
        for side in SIDES:
            for u, start in starts(phi, k, side):
                assert first_rotation(phi, k, side, start) == oracles.gamma_step(
                    phi, k, side, u
                )


def test_gamma_length_recurrence(phi):
    for side in SIDES:
        for u, start in starts(phi, 2, side):
            eaten = u[-1] if side == "minus" else u[0]
            out = first_rotation(phi, 2, side, start)
            assert len(out) == len(u) - 1 + len(phi.letter_image(eaten, 2))


def test_gamma_rejects_empty_words(fibonacci):
    # Checked before a lone start is turned away as having no pair.
    with pytest.raises(ValueError):
        all_matches(fibonacci, 1, "minus", [(1, 0)], unlimited())


# -- streams ----------------------------------------------------------------------


def test_stream_yields_the_rotation_orbit(phi):
    for k in (1, 2):
        for side in SIDES:
            for u, start in starts(phi, k, side)[:4]:
                s = stream(phi, k, side, start)
                s.ensure_steps(6)
                orbit = oracles.gamma_iterates(phi, k, side, u, 6)
                for i in range(7):
                    assert word_at(s, i, side) == orbit[i]


def test_stream_hashes_separate_unequal_windows(rank4):
    streams = [stream(rank4, 1, "minus", x) for _, x in starts(rank4, 1, "minus")]
    for s in streams:
        s.ensure_steps(5)
    windows = [
        (s.window_hash(i), s.word_at(i))
        for s in streams
        for i in range(6)
    ]
    for ha, wa in windows:
        for hb, wb in windows:
            assert (ha == hb) == (wa == wb)


def test_hash_collisions_cannot_change_a_match(phi, monkeypatch):
    # A key only proposes a pair; window_equal decides it.  A length-only
    # key makes every two windows of one length collide, and a constant key
    # every two windows, so the join sees unequal candidates and must drop
    # them.
    cases = [
        (k, side, [x for _, x in starts(phi, k, side)])
        for k in (1, 2)
        for side in SIDES
    ]
    exact = [all_matches(phi, k, side, xs, unlimited()) for k, side, xs in cases]
    for key in (lambda s, i: s.lens[i], lambda s, i: 0):
        monkeypatch.setattr(Stream, "window_hash", key)
        for (k, side, xs), expected in zip(cases, exact):
            assert all_matches(phi, k, side, xs, unlimited()) == expected
    # Under the length-only key, some key stands for unequal windows.
    by_key = {}
    for k, side, xs in cases:
        for x in xs:
            s = stream(phi, k, side, x)
            s.ensure_steps(6)
            for i in range(7):
                by_key.setdefault((k, side, s.lens[i]), set()).add(s.word_at(i))
    assert any(len(words) > 1 for words in by_key.values())


def test_window_keys_release_the_stream_bytes(rank4):
    # window_hash reads the bytes through a memoryview; a view still held
    # would make growing the stream raise BufferError.
    for side in SIDES:
        for _, start in starts(rank4, 2, side):
            s = stream(rank4, 2, side, start)
            s.ensure_steps(4)
            keys = [s.window_hash(i) for i in range(s.steps() + 1)]
            s.ensure_steps(8)
            assert [s.window_hash(i) for i in range(len(keys))] == keys


def test_stream_window_equal_is_word_equality(rank3):
    xs = starts(rank3, 2, "plus")
    sa = stream(rank3, 2, "plus", xs[0][1])
    sb = stream(rank3, 2, "plus", xs[-1][1])
    sa.ensure_steps(5)
    sb.ensure_steps(5)
    for i in range(6):
        for j in range(6):
            assert sa.window_equal(i, sb, j) == (
                sa.word_at(i) == sb.word_at(j)
            )


def _assert_streams_match_letter_reference(phi, k_max=3, steps=12):
    # Streams grown a block at a time hold the per-letter reference's
    # windows, both when grown step by step and by length, and over all the
    # windows of a level and side, two keys are equal exactly when their
    # words are.
    for k in range(1, k_max + 1):
        for side in SIDES:
            words_of, keys_of = {}, {}
            for u, start in starts(phi, k, side):
                by_steps = stream(phi, k, side, start)
                ref = oracles.StreamByLetters(phi, k, side, u)
                by_steps.ensure_steps(steps)
                ref.ensure_steps(steps)
                by_len = stream(phi, k, side, start)
                ref_len = oracles.StreamByLetters(phi, k, side, u)
                by_len.ensure_len(max(ref.lens))
                ref_len.ensure_len(max(ref.lens))
                for s, expected in ((by_steps, ref), (by_len, ref_len)):
                    assert s.lens == expected.lens
                    for i in range(len(expected.lens)):
                        word = word_at(s, i, side)
                        assert word == expected.word_at(i)
                        key = s.window_hash(i)
                        words_of.setdefault(key, set()).add(word)
                        keys_of.setdefault(word, set()).add(key)
            assert all(len(words) == 1 for words in words_of.values())
            assert all(len(keys) == 1 for keys in keys_of.values())


# Ranks 128 and 129 are the last with one-byte letters and the first with two.
# family129swap exchanges a1 and a128, so phi(a0) = a0 a128 and the two-byte
# high digit of a128 starts a plus-side stream at level 1.
@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
    + [f"family{n}" for n in (2, 3, 4, 5, 6, 128, 129)] + ["family129swap"]
)
def test_stream_matches_letter_reference(name):
    phi = fresh_map(name)
    _assert_streams_match_letter_reference(phi, 2 if phi.rank > 100 else 3)


@settings(max_examples=30, deadline=None)
@given(positive_automorphisms())
def test_stream_matches_letter_reference_on_drawn_automorphisms(phi):
    # Keep each draw's streams short; twelve steps of long blocks are slow.
    k_max = 0
    while k_max < 3 and max(phi.image_lengths(k_max + 1)) <= 100:
        k_max += 1
    _assert_streams_match_letter_reference(phi, k_max)


# -- the overhang bound -------------------------------------------------------------


def test_gamma_bound_matches_definition(phi):
    for k in (1, 2, 3):
        for side in SIDES:
            assert gamma_bound(phi, k, side, unlimited()) == oracles.overhang_bound(
                phi, k, side
            )


def test_minus_bound_cancels_a_first_letter_only_against_its_own_image():
    # phi(d) = a b and phi^-1(a) = a c^-1 b, which a^-1 would reduce to the
    # qualifying c^-1 b.  But the prefix a opens only d's image, and
    # d^-1 a c^-1 b has three sign runs, so nothing on the minus side qualifies.
    phi = validate(
        Alphabet(["a", "b", "c", "d"]),
        ((3,), (4, 1), (4, 3), (1, 2)),
        ((1, -3, 2), (-2, 3, -1, 4), (1,), (3, -1)),
    )
    assert gamma_bound(phi, 1, "minus", unlimited()) == 0
    assert oracles.overhang_bound(phi, 1, "minus") == 0


def test_gamma_bound_rejects_unknown_side(fibonacci):
    with pytest.raises(ValueError):
        gamma_bound(fibonacci, 1, "diagonal", unlimited())


# Deepest levels at which the per-letter reference stays fast.
REFERENCE_LEVELS = [
    ("rank3", 5),
    ("rank4", 3),
    ("fibonacci", 8),
    ("rank6_cyclic", 6),
    ("rank14_cyclic", 4),
] + [(f"family{n}", 6) for n in range(2, 7)]


def fresh_map(name):
    if name == "family129swap":
        perm = [1, 129] + list(range(3, 129)) + [2]
        return relabelled(cyclic_family(129), perm)
    if name.startswith("family"):
        return cyclic_family(int(name[len("family"):]))
    return load_automorphism(aut_path(name))


def _assert_calls_match_letter_reference(phi, ref, calls):
    """gamma_bound on phi against the reference on its twin ref, over the
    (level, side) calls in turn: each call's value and charges.  A later
    side at a level reads the bounds the first stored, and must still charge
    what its own scan would."""
    for k, side in calls:
        used, ref_used = Budget(10**12), Budget(10**12)
        assert gamma_bound(phi, k, side, used) == (
            oracles.gamma_bound_by_letters(ref, k, side, ref_used)
        )
        assert used.used == ref_used.used


# Each side alone, and both on one map with either side first.
ORDERS = [("minus",), ("plus",), SIDES, SIDES[::-1]]


@pytest.mark.parametrize("name, top", REFERENCE_LEVELS)
def test_gamma_bound_matches_letter_reference(name, top):
    # Fresh maps for each order, so both pay the same image computations.
    for order in ORDERS:
        calls = [(k, side) for k in range(1, top + 1) for side in order]
        _assert_calls_match_letter_reference(fresh_map(name), fresh_map(name), calls)


# Ranks 128 and 129 are the last with one-byte letters and the first with two.
@pytest.mark.parametrize("rank", [128, 129])
def test_gamma_bound_matches_letter_reference_at_wide_ranks(rank):
    levels = (1, 2, 3, rank)
    # Both sides at each level, either first; then one side through every
    # level before the other, which reads bounds stored at lower levels.
    for calls in (
        [(k, side) for k in levels for side in SIDES],
        [(k, side) for k in levels for side in SIDES[::-1]],
        [(k, side) for side in SIDES for k in levels],
    ):
        _assert_calls_match_letter_reference(
            cyclic_family(rank), cyclic_family(rank), calls
        )


@st.composite
def words_and_blocks(draw):
    """A reduced word and reduced blocks, each cancelling a drawn suffix of
    the product so far and then going on with fresh letters."""
    rank = draw(st.one_of(st.integers(1, 4), st.integers(125, 300)))
    letter = st.integers(1, rank).flatmap(lambda a: st.sampled_from([a, -a]))
    fresh = st.lists(letter, max_size=12).map(oracles.reduce_word)
    word = draw(fresh)
    cur, blocks = word, []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.integers(0, len(cur)))
        tail = draw(fresh)
        block = invert(cur[len(cur) - c:]) + tail
        if oracles.reduce_word(block) != block:
            break
        blocks.append(block)
        cur = oracles.reduce_word(cur + block)
    return rank, word, blocks


@settings(max_examples=300, deadline=None)
@given(words_and_blocks())
@example((2, (1, -2, 1), [(-1, 2, -1)]))  # full cancellation
@example((2, (1, 2), [(-2, -2, 1)]))  # partial, a sign change at the seam
@example((2, (1, -2), [(1, 2)]))  # no cancellation
@example((200, (129,), [(-1,)]))  # last bytes agree, letters do not
@example((3, (1, 2, 3), [(-3, 1)]))  # one letter cancels
@example((3, (1, 2, 3), [(-3, -2, 1)]))  # some but not all of the overlap
@example((3, (1, 2, 3), [(-3,)]))  # the block cancels, the word is longer
@example((3, (-3,), [(3, 1, -2, -2, 3)]))  # block longer than the word
@example((200, (1, -130, 129), [(-129, 130, 2)]))  # two two-byte letters cancel
@example((200, (129, 1), [(-1, -128)]))  # one of two two-byte letters cancels
def test_push_block_is_free_reduction(drawn):
    rank, word, blocks = drawn
    width = len(oracles.encode_block((1,), rank)[0])
    w = bytearray()
    _push_block(w, oracles.encode_block(word, rank), width)
    cur = word
    for block in blocks:
        _push_block(w, oracles.encode_block(block, rank), width)
        cur = oracles.reduce_word(cur + block)
        assert w == oracles.encode_block(cur, rank)[0]


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_gamma_bound_on_drawn_automorphisms(phi):
    for k in (1, 2, 3):
        # overhang_bound is quadratic in the image length; keep each draw
        # under a second.
        if max(phi.image_lengths(k)) > 400:
            break
        for side in SIDES:
            g = gamma_bound(phi, k, side, unlimited())
            assert g == oracles.overhang_bound(phi, k, side)
            assert g == oracles.gamma_bound_by_letters(phi, k, side)


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms(), st.data())
def test_gamma_bound_ignores_the_naming_of_the_generators(phi, data):
    # The walk visits the images in the order of their letters' numbers.
    perm = data.draw(st.permutations(range(1, phi.rank + 1)), label="perm")
    moved = relabelled(phi, perm)
    for k in (1, 2, 3, 4):
        if max(phi.image_lengths(k)) > 2000:
            break
        for side in SIDES:
            used, moved_used = unlimited(), unlimited()
            assert gamma_bound(phi, k, side, used) == gamma_bound(
                moved, k, side, moved_used
            )
            assert used.used == moved_used.used


# -- cutoff indices ------------------------------------------------------------------


def test_star_index_matches_direct_search(phi):
    for k in (1, 2):
        for side in SIDES:
            g = gamma_bound(phi, k, side, unlimited())
            for u, start in starts(phi, k, side)[:4]:
                got = star_index(stream(phi, k, side, start), g, unlimited())
                assert got == oracles.star_scan(phi, k, side, u, g)


def _assert_peel_matches_letter_reference(phi, k_max=3):
    """_peelable against the list-slice reference at every step up to the
    star index, at the bound and one past it.  Returns how many steps peel
    deeper than the bound only through a parse that is not the natural one."""
    unnatural = 0
    for k in range(1, k_max + 1):
        for side in SIDES:
            g = gamma_bound(phi, k, side, unlimited())
            for u, start in starts(phi, k, side):
                s = stream(phi, k, side, start)
                star = star_index(s, g, unlimited())
                ref = oracles.StreamByLetters(phi, k, side, u)
                ref.ensure_steps(star)
                for i in range(1, star + 1):
                    natural = oracles.natural_peel_depth(ref, i)
                    for depth in (g, g + 1):
                        got = _peelable(s, i, depth)
                        assert got == oracles.peelable_by_letters(ref, i, depth)
                        unnatural += got and natural <= depth
    return unnatural


@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
    + [f"family{n}" for n in range(2, 7)]
)
def test_peel_matches_letter_reference(name):
    _assert_peel_matches_letter_reference(fresh_map(name))


def test_peel_accepts_a_parse_that_is_not_the_natural_one():
    assert _assert_peel_matches_letter_reference(fresh_map("rank14_cyclic")) > 0


@settings(max_examples=30, deadline=None)
@given(positive_automorphisms())
def test_peel_matches_letter_reference_on_drawn_automorphisms(phi):
    k_max = 0
    while k_max < 3 and max(phi.image_lengths(k_max + 1)) <= 100:
        k_max += 1
    _assert_peel_matches_letter_reference(phi, k_max)


# -- rotation matching ---------------------------------------------------------------


def test_match_agrees_with_grid_scan(phi):
    for k in (1, 2):
        for side in SIDES:
            seeds = starts(phi, k, side)
            for xi in range(len(seeds)):
                for yi in range(xi + 1, len(seeds)):
                    (x, sx), (y, sy) = seeds[xi], seeds[yi]
                    got = pair_match(phi, k, side, sx, sy)
                    scanned = oracles.match_scan(phi, k, side, x, y)
                    if got is None:
                        assert scanned is None
                        continue
                    i, j, w = got
                    if max(i, j) <= 10:
                        assert scanned is not None
                        si, sj, sval = scanned
                        assert (i, j) == (si, sj)
                        expected = sval if side == "minus" else invert(sval)
                        assert w == expected


def test_match_root_is_minimal_and_forward_invariant(phi):
    for side in SIDES:
        seeds = starts(phi, 2, side)
        for xi in range(len(seeds)):
            for yi in range(xi + 1, len(seeds)):
                (x, sx), (y, sy) = seeds[xi], seeds[yi]
                got = pair_match(phi, 2, side, sx, sy)
                if got is None:
                    continue
                i, j, _ = got
                depth = max(i, j) + 2
                xs = oracles.gamma_iterates(phi, 2, side, x, depth)
                ys = oracles.gamma_iterates(phi, 2, side, y, depth)
                assert xs[i] == ys[j]
                assert xs[i + 1] == ys[j + 1]
                if i > 0 and j > 0:
                    assert xs[i - 1] != ys[j - 1]


def test_all_matches_equals_pairwise_matching(phi):
    for k in (1, 2):
        for side in SIDES:
            xs = [x for _, x in starts(phi, k, side)]
            joint = all_matches(phi, k, side, xs, unlimited())
            for xi in range(len(xs)):
                for yi in range(xi + 1, len(xs)):
                    lone = pair_match(phi, k, side, xs[xi], xs[yi])
                    assert joint.get((xi, yi)) == lone


def test_all_matches_rejects_blank_affixes(rank4):
    (_, x), *_ = starts(rank4, 1, "minus")
    with pytest.raises(ValueError):
        all_matches(rank4, 1, "minus", [(1, 0), x], unlimited())


def test_all_matches_rejects_a_start_as_long_as_its_block(rank4):
    # A loop affix leaves out at least the loop letter of its block.
    (_, x), *_ = starts(rank4, 1, "minus")
    whole = (1, len(rank4.letter_image(1, 1)))
    with pytest.raises(InvariantViolation):
        all_matches(rank4, 1, "minus", [x, whole], unlimited())


def test_all_matches_needs_two_affixes(rank4):
    (_, x), *_ = starts(rank4, 1, "minus")
    assert all_matches(rank4, 1, "minus", [], unlimited()) == {}
    assert all_matches(rank4, 1, "minus", [x], unlimited()) == {}


def test_all_matches_is_deterministic(rank6):
    xs = [x for _, x in starts(rank6, 2, "minus")]
    assert all_matches(rank6, 2, "minus", xs, unlimited()) == all_matches(
        rank6, 2, "minus", xs, unlimited()
    )


def test_matching_respects_the_letter_budget(rank4):
    xs = [x for _, x in starts(rank4, 2, "minus")]
    with pytest.raises(BudgetExceeded):
        budget = Budget(20)
        for xi in range(len(xs)):
            for yi in range(xi + 1, len(xs)):
                pair_match(rank4, 2, "minus", xs[xi], xs[yi], budget)
