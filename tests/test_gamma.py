import types
import zlib
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgindex.gamma
from fgindex import singularities
from fgindex.automorphism import validate
from fgindex.config import Budget, RunConfig
from fgindex.errors import BudgetExceeded, CapExceeded, InvariantViolation
from fgindex.families import cyclic_family
from fgindex.gamma import (
    Stream,
    _block_table,
    _encode,
    _horizon,
    _letter_codes,
    _peelable,
    _positions,
    _push_block,
    all_matches,
    gamma_bound,
    star_index,
)
from fgindex.prefix_suffix import loops
from fgindex.words import EPSILON, Alphabet, invert

import oracles
from conftest import fresh_map
from strategies import positive_automorphisms, relabelled, reversed_map

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
    return Stream(_block_table(phi, k, side), a, n, unlimited())


def grown_streams(phi, k, side):
    """The streams all_matches grows for the side's affixes at level k, each
    up to its first window longer than the common horizon."""
    budget = unlimited()
    g = gamma_bound(phi, k, side, budget)
    table = _block_table(phi, k, side)
    streams = [Stream(table, a, n, budget) for _, (a, n) in starts(phi, k, side)]
    horizon = max((s.lens[star_index(s, g)] for s in streams), default=0)
    for s in streams:
        s.ensure_len(horizon)
    return streams


def last_keys(s, steps):
    """The keys of windows 0..steps of s, each taken by last_key while it is
    the newest."""
    out = []
    for t in range(steps + 1):
        s.ensure_steps(t)
        out.append(s.last_key())
    return out


def twin(phi):
    """A copy of phi with none of its images or inverse blocks built, so
    the same calls charge it what they charge phi."""
    return relabelled(phi, list(range(1, phi.rank + 1)))


def word_at(stream, i, side):
    """Rotation value i as an actual word: stream order, reversed on the
    minus side."""
    word = stream.word_at(i)
    return word if side == "plus" else word[::-1]


class RecordingBudget(Budget):
    """An unlimited budget that records the amount of each charge and the
    key of each charge_levels call."""

    def __init__(self, limit=10**15):
        super().__init__(limit)
        self.amounts, self.keys = [], []

    def charge(self, n):
        self.amounts.append(n)
        super().charge(n)

    def charge_levels(self, key, k, size):
        self.keys.append(key)
        super().charge_levels(key, k, size)


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


# -- encoded images ---------------------------------------------------------------


@st.composite
def ranked_words(draw):
    """A rank of 1..300, so one-byte and two-byte codes, and positive words
    over it, many of them equal or prefixes of one another."""
    rank = draw(st.integers(1, 300), label="rank")
    small = st.integers(1, min(rank, 3))
    letter = st.one_of(small, st.integers(1, rank), st.integers(max(1, rank - 2), rank))
    bases = draw(st.lists(st.lists(letter, max_size=8), min_size=1, max_size=4))
    prefixes = [tuple(b[:n]) for b in bases for n in range(len(b) + 1)]
    return rank, draw(st.lists(st.sampled_from(prefixes), min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(ranked_words())
# Two-byte codes 0x80 0x80, 0x81 0x80 and 0x80 0x81: the code of a2 also
# starts at byte 1, and the code of a1 at byte 3, across letter boundaries.
@example((300, [(1, 129, 2), (1, 129), (1, 129, 2), (2,), ()]))
@example((128, [(128, 1), (128,), (1,)]))
def test_encoded_words_sort_and_group_as_their_tuples(drawn):
    # _full_level groups and sorts affixes by their encoded bytes; the loop
    # census finds each letter at letter-aligned offsets only.
    rank, words = drawn
    width, letters = _letter_codes(rank)
    assert width == (1 if rank <= 128 else 2)
    encoded = [_encode(w, letters, width) for w in words]
    assert encoded == [oracles.encode_block(w, rank)[0] for w in words]
    by_bytes, by_tuple = {}, {}
    for enc, w in zip(encoded, words):
        by_bytes.setdefault(enc, []).append(w)
        by_tuple.setdefault(w, []).append(w)
    assert [by_bytes[e] for e in sorted(by_bytes)] == [
        by_tuple[w] for w in sorted(by_tuple)
    ]
    for enc, w in zip(encoded, words):
        for a in set(w) | {1, min(2, rank), rank}:
            assert _positions(enc, letters[a][0], width) == [
                i for i, x in enumerate(w) if x == a
            ]


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
    windows = []
    for _, x in starts(rank4, 1, "minus"):
        s = stream(rank4, 1, "minus", x)
        windows += zip(last_keys(s, 5), map(s.word_at, range(6)))
    for ha, wa in windows:
        for hb, wb in windows:
            assert (ha == hb) == (wa == wb)


def test_hash_collisions_cannot_change_a_match(phi, monkeypatch):
    # A key only proposes a pair; window_equal decides it.  A length-only
    # key makes every two last windows of one length collide, and a constant
    # key every two, so the join sees unequal candidates and must drop them
    # without charging for them.
    def run():
        fresh, out = twin(phi), []
        for k in (1, 2, 3):
            for side in SIDES:
                budget = unlimited()
                xs = [x for _, x in starts(fresh, k, side)]
                out.append((all_matches(fresh, k, side, xs, budget), budget.used))
        return out

    exact = run()
    for key in (lambda s: s.lens[-1], lambda s: 0):
        calls = []
        monkeypatch.setattr(
            Stream, "last_key", lambda s, key=key: calls.append(s) or key(s)
        )
        assert run() == exact
        assert calls
    # Under either key some key stands for unequal last windows, except that
    # fibonacci, the one map of rank 2, has no two last windows of a length.
    lengths, constant = {}, {}
    for k in (1, 2, 3):
        for side in SIDES:
            for s in grown_streams(phi, k, side):
                t = len(s.lens) - 1
                lengths.setdefault((k, side, s.lens[t]), set()).add(s.word_at(t))
                constant.setdefault((k, side), set()).add(s.word_at(t))
    assert any(len(words) > 1 for words in constant.values())
    assert any(len(words) > 1 for words in lengths.values()) or phi.rank == 2


def test_last_key_releases_the_stream_bytes(rank4):
    # A key taken earlier stays the key of its window after the stream
    # grows, and growing after last_key raises no BufferError.
    for side in SIDES:
        for _, start in starts(rank4, 2, side):
            s = stream(rank4, 2, side, start)
            s.ensure_steps(4)
            keys = {4: s.last_key()}
            s.ensure_steps(8)
            keys[8] = s.last_key()
            w = s.width
            for i, key in keys.items():
                window = bytes(s.data[i * w:(i + s.lens[i]) * w])
                assert key == (s.lens[i], zlib.crc32(window))


def test_stream_growth_charges_what_it_appends_in_one_call():
    # One-byte letters, and two-byte letters from rank 129 on.
    grown = 0
    for name, k in (("rank3", 2), ("rank14_cyclic", 2), ("family129", 130)):
        phi = fresh_map(name)
        for side in SIDES:
            table = _block_table(phi, k, side)
            for _, (a, n) in starts(phi, k, side)[:6]:
                budget = RecordingBudget()
                s = Stream(table, a, n, budget)
                for steps, bound in ((3, 0), (3, 0), (0, 3 * s.lens[-1]), (1, 0)):
                    size = len(s.data)
                    budget.amounts.clear()
                    s._grow(steps, bound)
                    appended = (len(s.data) - size) // s.width
                    assert budget.amounts == ([appended] if appended else [])
                    grown += appended > 0
    assert grown


def test_budget_running_out_in_stream_growth_leaves_the_level_partial(monkeypatch):
    # With every level priced at nothing, cyclic_family(5) runs levels 1-12
    # in full at budget 10^4 and runs out while growing a stream at level
    # 13.  Growth charges after it appends; the exception must still leave
    # all_matches, and the level and every later one must be partial.
    raised = []

    def watched(name, inner):
        def call(*args):
            try:
                return inner(*args)
            except BudgetExceeded:
                raised.append(name)
                raise

        return call

    monkeypatch.setattr(Stream, "_grow", watched("grow", Stream._grow))
    monkeypatch.setattr(
        singularities, "all_matches", watched("all_matches", all_matches)
    )
    monkeypatch.setattr(singularities, "_level_estimate", lambda *args: (0, 0))
    result = singularities.find_all(cyclic_family(5), RunConfig(budget=10**4))
    assert raised[:2] == ["grow", "all_matches"]
    assert result.full_levels == list(range(1, 13))
    assert result.partial_levels == list(range(13, 17))
    assert result.budget_used == 10**4


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
    # windows of a level and side, each keyed while it is the newest, two
    # keys are equal exactly when their words are.
    for k in range(1, k_max + 1):
        for side in SIDES:
            words_of, keys_of = {}, {}
            for u, start in starts(phi, k, side):
                by_steps = stream(phi, k, side, start)
                ref = oracles.StreamByLetters(phi, k, side, u)
                keys = last_keys(by_steps, steps)
                ref.ensure_steps(steps)
                by_len = stream(phi, k, side, start)
                ref_len = oracles.StreamByLetters(phi, k, side, u)
                by_len.ensure_len(max(ref.lens))
                ref_len.ensure_len(max(ref.lens))
                for s, expected in ((by_steps, ref), (by_len, ref_len)):
                    assert s.lens == expected.lens
                    for i in range(len(s.lens)):
                        word = word_at(s, i, side)
                        assert word == expected.word_at(i)
                        if s is by_steps:
                            words_of.setdefault(keys[i], set()).add(word)
                            keys_of.setdefault(word, set()).add(keys[i])
                key = by_len.last_key()
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


def _assert_calls_match_letter_reference(phi, ref, calls):
    """gamma_bound on phi against the reference on its twin ref, over the
    (level, side) calls in turn: each call's value and charges.  A later
    side at a level reads the bounds the first stored, and must still charge
    the images, and the inverse blocks of its side's scanned letters."""
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


def _assert_charges_what_it_reads(fresh, k):
    """Both sides at level k, in either order, on one fresh map and one
    budget, charge each level j <= k of every image phi^j(a) once, and of
    every inverse block phi^-j(c) once, c running over the letters either
    side scans: image[:-1] for plus, image[1:] for minus.  Nothing is
    charged for the walk, and a repeated call on either side charges 0."""
    ref = fresh()
    letters, levels = ref.alphabet.letters(), range(1, k + 1)
    images = [ref.letter_image(a, k) for a in letters]
    scanned = {c for image in images for c in image[:-1] + image[1:]}
    want = sum(len(ref.letter_image(a, j)) for a in letters for j in levels)
    want += sum(
        len(oracles.inverse_letter_image(ref, c, j)) for c in scanned for j in levels
    )
    for order in (SIDES, SIDES[::-1]):
        phi, budget = fresh(), unlimited()
        for side in order:
            gamma_bound(phi, k, side, budget)
        assert budget.used == want
        for side in SIDES:
            gamma_bound(phi, k, side, budget)
            assert budget.used == want


@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
)
def test_gamma_bound_charges_what_it_reads(name):
    for k in range(1, 5):
        _assert_charges_what_it_reads(lambda: fresh_map(name), k)


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_gamma_bound_charges_what_it_reads_on_drawn_automorphisms(phi):
    def fresh():
        return validate(phi.alphabet, phi.images, phi.inverse_images)

    for k in (1, 2, 3, 4):
        # Keep each draw well under a second.
        if max(phi.image_lengths(k)) > 2000:
            break
        _assert_charges_what_it_reads(fresh, k)


def _assert_charges_each_block_once_in_the_old_order(phi, ref, calls):
    """gamma_bound on phi over the (level, side) calls in turn, against the
    per-image charging loop on its twin ref: each call makes at most one
    charge_levels call per key, and the charges agree in amount and order."""
    got, want = RecordingBudget(), RecordingBudget()
    for k, side in calls:
        got.keys.clear()
        gamma_bound(phi, k, side, got)
        assert len(got.keys) == len(set(got.keys)), (k, side)
        oracles.gamma_bound_charges_per_image(ref, k, side, want)
    assert got.amounts == want.amounts
    return len(want.keys) - len(set(want.keys))


def test_gamma_bound_charges_each_block_once_per_call():
    # The per-image loop asks again for blocks it charged on an earlier
    # image of the same call; gamma_bound asks once, and charges alike.
    repeats = 0
    for name, top in REFERENCE_LEVELS:
        for order in ORDERS:
            calls = [(k, side) for k in range(1, top + 1) for side in order]
            repeats += _assert_charges_each_block_once_in_the_old_order(
                fresh_map(name), fresh_map(name), calls
            )
    assert repeats


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_gamma_bound_charges_each_block_once_per_call_on_drawn_automorphisms(phi):
    calls = []
    for k in (1, 2, 3, 4):
        if max(phi.image_lengths(k)) > 2000:
            break
        calls += [(k, side) for side in SIDES]
    _assert_charges_each_block_once_in_the_old_order(twin(phi), twin(phi), calls)


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


@pytest.mark.parametrize(
    "name", ["fibonacci", "rank3", "rank4", "rank6_cyclic", "rank14_cyclic", "family129"]
)
def test_inverse_blocks_encode_the_reduced_inverse_images(name):
    # Each block is built forward and its inverse read off it: inv must be
    # the encoding of the inverse of enc's word, two-byte letters included.
    phi = fresh_map(name)
    levels = (1, 2, 3, phi.rank) if name == "family129" else range(1, 7)
    inverse = fgindex.gamma._inverse_blocks(phi)
    for k in levels:
        for c in phi.alphabet.letters():
            inverse.block(c, k)
    assert len(inverse.levels) == max(levels) + 1
    for k, blocks in enumerate(inverse.levels[1:], 1):
        for x, block in blocks.items():
            word = oracles.unapply_power(phi, (x,), k)
            assert block == oracles.encode_block(word, phi.rank), (x, k)


def _assert_far_reads_off_inverse_blocks(phi, levels):
    # _overhangs finds where a block's third sign run from the end starts by
    # matching the runs of its inverse block: inv is the block reversed
    # letter by letter with every sign flipped, so its runs are the reversed
    # copy's runs, of the same lengths, even with two-byte letters.
    inverse = fgindex.gamma._inverse_blocks(phi)
    for k in levels:
        for c in phi.alphabet.letters():
            inverse.block(c, k)
    for k in levels:
        for x, (enc, inv) in inverse.levels[k].items():
            m = fgindex.gamma._RUNS.match(inv)
            copy = fgindex.gamma._RUNS.match(enc[::-1])
            assert m.lastindex == copy.lastindex, (x, k)
            assert [m.end(i) for i in range(1, m.lastindex + 1)] == [
                copy.end(i) for i in range(1, copy.lastindex + 1)
            ], (x, k)


@pytest.mark.parametrize(
    "name, levels",
    [
        ("rank6_cyclic", range(1, 11)),
        ("rank14_cyclic", range(1, 6)),
        ("family129", (1, 2, 3)),
    ],
    ids=["rank6_cyclic", "rank14_cyclic", "family129"],
)
def test_far_reads_off_inverse_blocks(name, levels):
    _assert_far_reads_off_inverse_blocks(fresh_map(name), levels)


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_far_reads_off_inverse_blocks_of_drawn_automorphisms(phi):
    levels = [k for k in (1, 2, 3, 4, 5) if max(phi.image_lengths(k)) <= 2000]
    _assert_far_reads_off_inverse_blocks(phi, levels)


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
    # The walk visits the images in sorted order, which renaming the
    # letters changes.
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


def _assert_walk_matches_flat_walk(phi, levels):
    """The slice-stack walk against the flat one, level by level, both on
    phi's own inverse blocks."""
    inverse = fgindex.gamma._inverse_blocks(phi)
    for k in levels:
        got = fgindex.gamma._overhangs(phi, k, inverse)
        assert got == oracles.overhangs_flat(phi, k, inverse), k


# (map, deepest level) for the walk against the flat walk.
FLAT_WALK_LEVELS = [
    ("rank6_cyclic", 9),
    ("rank4", 5),
    ("rank3", 6),
    ("rank14_cyclic", 6),
    ("fibonacci", 10),
] + [(f"family{n}", 12) for n in range(2, 10)]


@pytest.mark.parametrize("name, top", FLAT_WALK_LEVELS)
def test_overhangs_match_the_flat_walk(name, top):
    _assert_walk_matches_flat_walk(fresh_map(name), range(1, top + 1))


@pytest.mark.parametrize("name", ["family128", "family129", "family129swap"])
def test_overhangs_match_the_flat_walk_at_wide_ranks(name):
    # Two-byte letters from rank 129 on; level rank is the first at which
    # every image is longer than one letter.
    phi = fresh_map(name)
    _assert_walk_matches_flat_walk(phi, (1, 2, 3, phi.rank))


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_overhangs_match_the_flat_walk_on_drawn_automorphisms(phi):
    for k in (1, 2, 3, 4):
        if max(phi.image_lengths(k)) > 2000:
            break
        _assert_walk_matches_flat_walk(phi, (k,))


def _assert_own_first_never_decides(phi, k):
    """Each own-first case at level k, a prefix of phi^k(a) with preimage
    a N Q, is counted again, with the same overhang |Q|, by the prefix x_j
    of some phi^k(b_j), b_1 ... b_r = N^-1, whose preimage is
    (b_1 ... b_(j-1))^-1 Q.  So the flat walk gives the same bounds with and
    without the case, and _overhangs, which leaves it out, gives them too.
    Returns the cases."""
    cases = oracles.own_first_cases(phi, k)
    for a, i, P in cases:
        _, x, R = oracles.own_first_witness(phi, k, a, i, P)
        assert x and oracles.unapply_power(phi, x, k) == R, (a, i)
        runs = oracles._sign_runs(R)
        assert len(runs) <= 2 and runs[-1] == oracles._sign_runs(P)[-1], (a, i)
    inverse = fgindex.gamma._inverse_blocks(phi)
    without = oracles.overhangs_flat(phi, k, inverse, own_first=False)
    assert oracles.overhangs_flat(phi, k, inverse) == without, k
    assert fgindex.gamma._overhangs(phi, k, inverse) == without, k
    return cases


def test_own_first_case_occurs_and_never_decides_the_bound():
    # At level 1 the prefix x0 of x3's image has the preimage x3 x0^-1 x2,
    # and x0 x1 x2 x0 x1 of x1's image has x1 x0^-1 x2.
    phi = validate(
        Alphabet(["x0", "x1", "x2", "x3"]),
        ((1, 2, 4), (1, 2, 3, 1, 2, 4), (1, 2), (1, 4)),
        ((4, -1, 3), (-3, 1, -4, 3), (-3, 2, -1), (-3, 1)),
    )
    cases = _assert_own_first_never_decides(phi, 1)
    assert cases == [(2, 5, (2, -1, 3)), (4, 1, (4, -1, 3))]
    assert gamma_bound(phi, 1, "minus", unlimited()) == 1


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_own_first_case_never_decides_the_bound_on_drawn_automorphisms(phi):
    for k in (1, 2, 3):
        # own_first_cases reduces every prefix's preimage letter by letter.
        if max(phi.image_lengths(k)) > 400:
            break
        _assert_own_first_never_decides(phi, k)


def _walk_comparisons(phi, k):
    """The pairs of ends that level k's walk compares with _common_suffix,
    one per call: (slice's block, slice end, inverse block, position in
    it), blocks by identity.  The inverse blocks are built first, so that
    only the walk's calls are counted."""
    inverse = fgindex.gamma._inverse_blocks(phi)
    for c in phi.alphabet.letters():
        inverse.block(c, k)
    real, keys = fgindex.gamma._common_suffix, []

    def counted(x, end, y, size, n, width):
        keys.append((id(x), end, id(y), size))
        return real(x, end, y, size, n, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fgindex.gamma, "_common_suffix", counted)
        fgindex.gamma._overhangs(phi, k, inverse)
    return keys


def test_walk_compares_each_pair_of_ends_once():
    # rank6_cyclic's blocks are self-similar: at level 10 the pushes meet
    # the same pairs of ends again and again, and read them from the table.
    keys = _walk_comparisons(fresh_map("rank6_cyclic"), 10)
    assert keys and len(keys) == len(set(keys))


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_walk_compares_each_pair_of_ends_once_on_drawn_automorphisms(phi):
    for k in (1, 2, 3, 4):
        if max(phi.image_lengths(k)) > 2000:
            break
        keys = _walk_comparisons(phi, k)
        assert len(keys) == len(set(keys)), k


def _assert_reversal_swaps_the_sides(phi, levels):
    """gamma_bound of tau phi tau on each side is phi's on the other: with
    every image reversed, the prefixes of the images are the reversed
    suffixes and every preimage is reversed too."""
    rev = reversed_map(phi)
    for k in levels:
        for side, other in (SIDES, SIDES[::-1]):
            got = gamma_bound(rev, k, side, unlimited())
            assert got == gamma_bound(phi, k, other, unlimited()), (k, side)


@pytest.mark.parametrize(
    "name, top",
    [("fibonacci", 6), ("rank3", 6), ("rank4", 5), ("rank6_cyclic", 6), ("rank14_cyclic", 5)],
)
def test_reversal_swaps_the_gamma_bound_sides(name, top):
    _assert_reversal_swaps_the_sides(fresh_map(name), range(1, top + 1))


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms(max_rank=3))
def test_reversal_swaps_the_gamma_bound_sides_on_drawn_automorphisms(phi):
    levels = [k for k in (1, 2, 3, 4) if max(phi.image_lengths(k)) <= 2000]
    _assert_reversal_swaps_the_sides(phi, levels)


# -- cutoff indices ------------------------------------------------------------------


def test_star_index_matches_direct_search(phi):
    for k in (1, 2):
        for side in SIDES:
            g = gamma_bound(phi, k, side, unlimited())
            for u, start in starts(phi, k, side)[:4]:
                got = star_index(stream(phi, k, side, start), g)
                assert got == oracles.star_scan(phi, k, side, u, g)


def _assert_stars_within_their_caps(phi, k_max):
    """Every affix longer than the bound g has its star index at most g + 1
    and its star window no longer than its cap, window g + 1, which
    peek_len reads off a fresh stream without growing it.  Returns how many
    affixes were capped."""
    capped = 0
    for k in range(1, k_max + 1):
        for side in SIDES:
            g = gamma_bound(phi, k, side, unlimited())
            for _, start in starts(phi, k, side):
                if start[1] <= g:
                    continue
                s = stream(phi, k, side, start)
                cap = s.peek_len(g + 1)
                assert (len(s.lens), s.budget.used) == (1, 0)
                star = star_index(s, g)
                s.ensure_steps(g + 1)
                assert star <= g + 1
                assert s.lens[star] <= cap == s.lens[g + 1]
                capped += 1
    return capped


def test_stars_stay_within_their_caps():
    capped = [
        _assert_stars_within_their_caps(fresh_map(name), 3)
        for name in ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
        + [f"family{n}" for n in range(2, 7)]
    ]
    assert all(capped), capped


@settings(max_examples=30, deadline=None)
@given(positive_automorphisms())
def test_stars_stay_within_their_caps_on_drawn_automorphisms(phi):
    k_max = 0
    while k_max < 3 and max(phi.image_lengths(k_max + 1)) <= 100:
        k_max += 1
    _assert_stars_within_their_caps(phi, k_max)


def test_star_cap_below_the_peel_step_searches_every_stream(monkeypatch):
    # At rank3 level 3 the minus bound is 3, and 29 of the 32 affixes are
    # longer.  With the search cap at 3, one of those peels only at step 4,
    # past the cap, and all_matches must search it to raise, though a
    # stream searched before it already holds the longest star window.
    phi = fresh_map("rank3")
    xs = [x for _, x in starts(phi, 3, "minus")]
    assert gamma_bound(phi, 3, "minus", unlimited()) == 3
    monkeypatch.setattr(fgindex.gamma, "_STAR_CAP", 3)
    with pytest.raises(CapExceeded, match="peel condition"):
        all_matches(phi, 3, "minus", xs, unlimited())


def _assert_one_check_settles_each_stream(phi, k_max=3):
    """At levels 1..k_max on both sides: peeling deeper than a depth, for
    every depth up to g + 1, is monotone in the step, up to three steps
    past the star index; star_index against a horizon h returns None
    exactly when the star window is no longer than h, and the star index
    otherwise; and _horizon's horizon is the longest star window of all
    the streams, searched one by one, with every star it returns exact and
    every bound it returns for the others a step at or past the star, from
    which star_index finds the star."""
    for k in range(1, k_max + 1):
        for side in SIDES:
            g = gamma_bound(phi, k, side, unlimited())
            table = _block_table(phi, k, side)
            xs = [x for _, x in starts(phi, k, side)]
            if not xs:
                continue
            stars, windows = [], []
            for a, n in xs:
                s = Stream(table, a, n, unlimited())
                star = star_index(s, g)
                s.ensure_steps(star + 3)
                for depth in range(g + 2):
                    peels = [_peelable(s, i, depth, {}) for i in range(1, star + 4)]
                    assert peels == sorted(peels)
                stars.append(star)
                windows.append(s.lens[star])
                for h in {0, s.lens[star] - 1, s.lens[star], s.lens[star + 1]}:
                    fresh = Stream(table, a, n, unlimited())
                    want = None if s.lens[star] <= h else star
                    assert star_index(fresh, g, h) == want
            streams = [Stream(table, a, n, unlimited()) for a, n in xs]
            horizon, got, bounds = _horizon(streams, g)
            assert horizon == max(windows)
            assert all(i is None or i == star for i, star in zip(got, stars))
            for i, bound, star, (a, n) in zip(got, bounds, stars, xs):
                if i is None:
                    assert star <= bound
                    fresh = Stream(table, a, n, unlimited())
                    fresh.ensure_steps(bound)
                    assert star_index(fresh, g, 0, bound) == star


@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
    + [f"family{n}" for n in range(2, 7)]
)
def test_one_peel_check_settles_each_stream(name):
    _assert_one_check_settles_each_stream(fresh_map(name))


@settings(max_examples=40, deadline=None)
@given(positive_automorphisms().filter(lambda phi: phi.rank <= 3))
def test_one_peel_check_settles_each_stream_on_drawn_automorphisms(phi):
    k_max = 0
    while k_max < 3 and max(phi.image_lengths(k_max + 1)) <= 100:
        k_max += 1
    _assert_one_check_settles_each_stream(phi, k_max)


def _assert_peel_matches_letter_reference(phi, k_max=3):
    """_peelable against the list-slice reference at every step up to the
    star index, at depth 0, at the bound and one past it: on a fresh stream
    grown step by step with a new block-end map per call, and on a stream
    after its full star_index run with one map for every call.  Returns how
    many calls the natural parse decides, and how many peel deeper than the
    depth only through a parse that is not the natural one."""
    natural_calls = unnatural = 0
    for k in range(1, k_max + 1):
        for side in SIDES:
            g = gamma_bound(phi, k, side, unlimited())
            for u, start in starts(phi, k, side):
                searched = stream(phi, k, side, start)
                star = star_index(searched, g)
                fresh = stream(phi, k, side, start)
                ref = oracles.StreamByLetters(phi, k, side, u)
                ref.ensure_steps(star)
                ends = {}
                for i in range(1, star + 1):
                    fresh.ensure_steps(i)
                    natural = oracles.natural_peel_depth(ref, i)
                    for depth in (0, g, g + 1):
                        got = _peelable(fresh, i, depth, {})
                        assert got == oracles.peelable_by_letters(ref, i, depth)
                        assert _peelable(searched, i, depth, ends) == got
                        natural_calls += natural > depth
                        unnatural += got and natural <= depth
    return natural_calls, unnatural


@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
    + [f"family{n}" for n in range(2, 7)]
)
def test_peel_matches_letter_reference(name):
    _assert_peel_matches_letter_reference(fresh_map(name))


def test_peel_accepts_a_parse_that_is_not_the_natural_one():
    # On every bundled map the natural parse decides some calls, and some
    # peel deeper only through another parse, so both paths are under test.
    for name in ("rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"):
        natural, unnatural = _assert_peel_matches_letter_reference(fresh_map(name))
        assert natural > 0 and unnatural > 0, name


@settings(max_examples=30, deadline=None)
@given(positive_automorphisms())
def test_peel_matches_letter_reference_on_drawn_automorphisms(phi):
    k_max = 0
    while k_max < 3 and max(phi.image_lengths(k_max + 1)) <= 100:
        k_max += 1
    _assert_peel_matches_letter_reference(phi, k_max)


def test_suffix_trie_is_built_only_for_a_search_past_the_natural_parse(monkeypatch):
    # The peel search reads the trie only when the blocks a window's stream
    # appended do not peel deep enough.  So a level side builds its trie
    # exactly when one of its peel checks goes past that natural parse, and
    # never when its bound g is 0.
    tables, slow = [], []

    def table(*args):
        tables.append(_block_table(*args))
        return tables[-1]

    def peelable(stream, i, depth_needed, ends):
        t = i - depth_needed - 1
        if t < 0 or stream.lens[t] <= depth_needed:
            slow.append(i)
        return _peelable(stream, i, depth_needed, ends)

    monkeypatch.setattr(fgindex.gamma, "_block_table", table)
    monkeypatch.setattr(fgindex.gamma, "_peelable", peelable)
    seen = set()
    for name in ("rank3", "rank4", "fibonacci", "rank14_cyclic"):
        phi = fresh_map(name)
        for k in (1, 2, 3):
            for side in SIDES:
                xs = [x for _, x in starts(phi, k, side)]
                if len(xs) < 2:
                    continue
                tables.clear()
                slow.clear()
                all_matches(phi, k, side, xs, unlimited())
                (blocks,) = tables
                built = "trie" in vars(blocks)
                assert built == bool(slow)
                if gamma_bound(phi, k, side, unlimited()) == 0:
                    assert not built
                    seen.add("g = 0")
                seen.add(built)
    assert seen == {"g = 0", True, False}


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


def _assert_starts_in_any_order_match_alike(name, k_max=3):
    """all_matches on the starts in affix order and in two other orders,
    each on a fresh copy of the map: the same matches, re-indexed, and the
    same charges.  Returns how many matches the affix order found."""
    found = 0
    for k in range(1, k_max + 1):
        for side in SIDES:
            xs = [x for _, x in starts(fresh_map(name), k, side)]
            used = unlimited()
            want = all_matches(fresh_map(name), k, side, xs, used)
            found += len(want)
            n = len(xs)
            for perm in (
                list(reversed(range(n))),
                list(range(1, n, 2)) + list(range(0, n, 2)),
            ):
                moved_used = unlimited()
                moved = all_matches(
                    fresh_map(name), k, side, [xs[p] for p in perm], moved_used
                )
                got = {}
                for (a, b), (i, j, w) in moved.items():
                    x, y = perm[a], perm[b]
                    if x < y:
                        got[(x, y)] = i, j, w
                    else:
                        got[(y, x)] = j, i, w
                assert got == want
                assert moved_used.used == used.used
    return found


def test_all_matches_ignores_the_order_of_the_starts():
    found = {
        name: _assert_starts_in_any_order_match_alike(name)
        for name in ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
        + [f"family{n}" for n in range(2, 7)]
    }
    assert sum(found.values()) > 0, found


def _assert_matches_all_window_join(phi, ref, k_max):
    """all_matches on phi against the all-window join on its twin ref, at
    levels 1..k_max on both sides: each call's matches and charges."""
    found = 0
    for k in range(1, k_max + 1):
        for side in SIDES:
            used, ref_used = unlimited(), unlimited()
            xs = [x for _, x in starts(phi, k, side)]
            got = all_matches(phi, k, side, xs, used)
            ref_xs = [x for _, x in starts(ref, k, side)]
            assert got == oracles.all_matches_by_windows(ref, k, side, ref_xs, ref_used)
            assert used.used == ref_used.used
            found += len(got)
    return found


def test_all_matches_equals_all_window_join():
    found = {
        name: _assert_matches_all_window_join(fresh_map(name), fresh_map(name), 3)
        for name in ("rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic")
    }
    assert sum(found.values()) > 0, found


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms().filter(lambda phi: phi.rank <= 3))
def test_all_matches_equals_all_window_join_on_drawn_automorphisms(phi):
    k_max = 0
    while k_max < 3 and max(phi.image_lengths(k_max + 1)) <= 100:
        k_max += 1
    _assert_matches_all_window_join(phi, twin(phi), k_max)


def test_equal_windows_of_two_streams_are_one_diagonal_to_their_ends():
    # What lets all_matches key only the last windows: no stream repeats a
    # window, and the equal windows of two streams, found by comparing every
    # pair, run from their first meeting to both last windows.
    starts_at = set()
    for name in ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"] + [
        f"family{n}" for n in range(2, 7)
    ]:
        phi = fresh_map(name)
        for k in (1, 2, 3):
            for side in SIDES:
                streams = grown_streams(phi, k, side)
                for s in streams:
                    assert not any(
                        s.window_equal(i, s, j)
                        for i in range(len(s.lens))
                        for j in range(i)
                    )
                for sx, sy in combinations(streams, 2):
                    tx, ty = len(sx.lens) - 1, len(sy.lens) - 1
                    hits = [
                        (i, j)
                        for i in range(tx + 1)
                        for j in range(ty + 1)
                        if sx.window_equal(i, sy, j)
                    ]
                    if hits:
                        i, j = hits[0]
                        assert tx - i == ty - j
                        assert hits == [(i + m, j + m) for m in range(tx - i + 1)]
                        starts_at.add((i > 0 and j > 0, tx > i))
    # Some diagonals begin at a first window and some past both, where the
    # walk back stops at unequal windows; some hold more than one pair.
    assert {first for first, _ in starts_at} == {False, True}
    assert any(longer for _, longer in starts_at)


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
