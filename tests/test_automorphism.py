import random
import types

import pytest

from fgindex.automorphism import (
    _check_primitive,
    load_automorphism,
    parse_automorphism,
    validate,
)
from fgindex.config import Budget
from fgindex.errors import (
    BudgetExceeded,
    NotInverse,
    NotPositive,
    NotPrimitive,
    ParseError,
)
from fgindex.families import cyclic_family
from fgindex.gamma import _InverseBlocks, gamma_bound
from fgindex.words import invert

import oracles
from conftest import aut_path, fresh_map

ALL = ["rank3", "rank4", "fibonacci", "rank6", "rank14"]


@pytest.fixture(params=ALL)
def phi(request):
    return request.getfixturevalue(request.param)


def test_parse_rejects_duplicate_map_line():
    text = "letters: a b\nmap a = a b\nmap a = b\nmap b = a\ninv a = b\ninv b = b^-1 a\n"
    with pytest.raises(ParseError):
        parse_automorphism(text)


def test_parse_rejects_missing_inverse_line():
    text = "letters: a b\nmap a = a b\nmap b = a\ninv a = b\n"
    with pytest.raises(ParseError):
        parse_automorphism(text)


def test_parse_skips_comments_and_blanks(fibonacci):
    text = (
        "# heading\n\nletters: a b\nmap a = a b\n# interlude\nmap b = a\n"
        "inv a = b\ninv b = b^-1 a\n"
    )
    alphabet, images, inverse_images = parse_automorphism(text)
    assert images == fibonacci.images
    assert inverse_images == fibonacci.inverse_images
    assert alphabet.letters() == fibonacci.alphabet.letters()


def test_validate_rejects_negative_image():
    with pytest.raises(NotPositive):
        validate(*parse_automorphism(
            "letters: a b\nmap a = a b^-1\nmap b = a\ninv a = b\ninv b = b^-1 a\n"
        ))


def test_validate_rejects_wrong_inverse():
    with pytest.raises(NotInverse):
        validate(*parse_automorphism(
            "letters: a b\nmap a = a b\nmap b = a\ninv a = b\ninv b = a\n"
        ))


def test_validate_rejects_imprimitive_map():
    # Two generators that never mix: permutation-like on disjoint supports.
    text = (
        "letters: a b c d\n"
        "map a = a b\nmap b = a\nmap c = c d\nmap d = c\n"
        "inv a = b\ninv b = b^-1 a\ninv c = d\ninv d = d^-1 c\n"
    )
    with pytest.raises(NotPrimitive):
        validate(*parse_automorphism(text))


def _primitivity(check, incidence):
    """None if check accepts the matrix, else its NotPrimitive message."""
    try:
        check(types.SimpleNamespace(rank=len(incidence), incidence=incidence))
    except NotPrimitive as exc:
        return str(exc)
    return None


def test_primitivity_check_matches_stepping_on_random_matrices():
    rng = random.Random(0)
    # Wielandt's matrices reach strict positivity only at (n-1)^2 + 1.
    matrices = [
        [
            [int(b == a + 1 or (a == n - 1 and b < 2)) for b in range(n)]
            for a in range(n)
        ]
        for n in range(1, 9)
    ]
    for _ in range(600):
        n, density = rng.randint(1, 8), rng.choice((0.15, 0.3, 0.5))
        matrices.append(
            [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        )
    verdicts = [
        _primitivity(_check_primitive, m)
        == _primitivity(oracles.check_primitive_by_stepping, m)
        for m in matrices
    ]
    assert all(verdicts)
    accepted = sum(_primitivity(_check_primitive, m) is None for m in matrices)
    assert 50 < accepted < len(matrices) - 50


def test_letter_image_matches_naive_substitution(phi):
    for a in phi.alphabet.letters():
        for k in (1, 2, 3):
            assert phi.letter_image(a, k) == oracles.apply_power(phi, (a,), k)


def test_inverse_letter_image_matches_naive_substitution(phi):
    # gamma_bound's encoded blocks of phi^-k(a) and phi^-k(a^-1), from a
    # table of their own, built level by level as the reads reach them.
    blocks = _InverseBlocks(phi)
    for k in (1, 2, 3):
        for a in phi.alphabet.letters():
            word = oracles.unapply_power(phi, (a,), k)
            for x, w in ((a, word), (-a, invert(word))):
                enc, inv = blocks.block(x, k)
                assert (enc, inv) == oracles.encode_block(w, phi.rank)


def test_apply_handles_mixed_words(phi):
    u = (1, -2, 1, 1)
    if phi.rank >= 2:
        for k in (1, 2):
            assert phi.apply(u, k) == oracles.apply_power(phi, u, k)


def test_image_lengths_match_materialized_images(phi):
    for k in (1, 2, 3, 4):
        lens = phi.image_lengths(k)
        for a in phi.alphabet.letters():
            assert lens[a - 1] == len(oracles.apply_power(phi, (a,), k))


def test_occurrence_matrix_counts_letters(phi):
    for k in (1, 2, 3):
        mat = phi.occurrence_matrix(k)
        for a in phi.alphabet.letters():
            image = oracles.apply_power(phi, (a,), k)
            for c in phi.alphabet.letters():
                assert mat[c - 1][a - 1] == image.count(c)


@pytest.mark.parametrize("name", ["fibonacci", "rank3", "rank6_cyclic"])
def test_count_tables_answer_level_zero_exactly(name):
    # Level 0 is the identity map: every letter once, in its own image only.
    # A level below 0 is an error, not a silent answer.
    phi = fresh_map(name)
    r = range(phi.rank)
    for _ in range(2):  # fresh, then with higher levels cached
        assert phi.image_lengths(0) == (1,) * phi.rank
        assert phi.occurrence_matrix(0) == tuple(
            tuple(int(a == b) for b in r) for a in r
        )
        for count in (phi.image_lengths, phi.occurrence_matrix):
            with pytest.raises(KeyError):
                count(-1)
        phi.image_lengths(3)
        phi.occurrence_matrix(3)
    assert sorted(phi._occ_cache) == [1, 3]


def test_deep_count_tables_on_a_fresh_map():
    # Far more levels than the interpreter's recursion limit, requested first.
    phi = cyclic_family(3)
    lens = phi.image_lengths(5000)
    prev = phi.image_lengths(4999)
    assert lens == tuple(sum(prev[x - 1] for x in phi.images[a]) for a in range(3))
    occ = phi.occurrence_matrix(3000)
    assert tuple(sum(col) for col in zip(*occ)) == phi.image_lengths(3000)


def test_deep_letter_images_run_out_of_budget_not_stack():
    # A deep first request climbs level by level, charging each level as it
    # is built, so the budget stops it long before the interpreter's stack.
    phi = cyclic_family(3)
    with pytest.raises(BudgetExceeded):
        phi.letter_image(1, 5000, Budget(10**4))
    # The inverse blocks of gamma_bound likewise: the budget runs out while
    # phi^-10 of the last letter (minus side) or the first letter (plus side)
    # of phi^20(a) is charged, no level past that one has been built, and the
    # walk that finds the bounds never starts.
    for side, used in (("minus", 1101533), ("plus", 1728768)):
        rank6 = load_automorphism(aut_path("rank6_cyclic"))
        budget = Budget(10**6)
        with pytest.raises(BudgetExceeded):
            gamma_bound(rank6, 20, side, budget)
        assert budget.used == used
        inverse = rank6.inverse_blocks
        built = max(j for j, level in enumerate(inverse.levels) if level)
        charged = max(j for key, j in budget.charged.items() if key < 0)
        assert built == charged + 1 == 10
        assert inverse.bounds == {}
    fresh = cyclic_family(3)
    budget = Budget(10**7)
    fresh.letter_image(1, 3, budget)
    fresh.letter_image(1, 12, budget)
    assert budget.used == sum(fresh.image_lengths(j)[0] for j in range(1, 13))


def test_cycle_letters_are_computed_once():
    phi = cyclic_family(4)
    for side in ("first", "last"):
        assert phi.cycle_letters(side) is phi.cycle_letters(side)


def test_word_image_length_adds_up(phi):
    u = tuple(phi.alphabet.letters())[:3]
    # Plus-side labels are inverted affixes, so pure negative words count too.
    for word in (u, invert(u)):
        for k in (0, 1, 2, 5):
            assert phi.word_image_length(word, k) == len(
                oracles.apply_power(phi, word, k)
            )


def test_conjugator_power_satisfies_its_recurrence(phi):
    w = phi.images[0][:2]
    for k in (1, 2):
        prev = ()
        for h in (1, 2, 3):
            cur = phi.conjugator_power(w, k, h)
            assert cur == oracles.reduce_word(
                oracles.apply_power(phi, prev, k) + w
            )
            prev = cur


def test_conjugator_power_tracks_composed_twisting(fibonacci):
    # Applying the twisted map twice must agree with the h=2 conjugator.
    phi, w, k = fibonacci, (1, 2), 1
    for u in [(1,), (2, 1), (-1, 2)]:
        once = oracles.twisted_apply(phi, w, k, u)
        twice = oracles.twisted_apply(phi, w, k, once)
        w2 = phi.conjugator_power(w, k, 2)
        direct = oracles.reduce_word(
            invert(w2) + oracles.apply_power(phi, u, 2 * k) + w2
        )
        assert twice == direct


def test_cycle_letters_fibonacci(fibonacci):
    assert fibonacci.cycle_letters("first") == {1: 1}
    assert fibonacci.cycle_letters("last") == {1: 2, 2: 2}


def test_cycle_letters_rank6(rank6):
    first = rank6.cycle_letters("first")
    last = rank6.cycle_letters("last")
    assert set(first) == {1, 2, 3, 4, 5} and set(first.values()) == {5}
    assert set(last) == {1, 2, 3, 4, 5, 6} and set(last.values()) == {6}


def test_cycle_letters_rank14(rank14):
    first = rank14.cycle_letters("first")
    last = rank14.cycle_letters("last")
    assert last == {1: 1}
    assert sorted(first.values()) == [2, 2, 5, 5, 5, 5, 5, 7, 7, 7, 7, 7, 7, 7]


def test_ray_head_extends_iterated_images(phi):
    first = phi.cycle_letters("first")
    for b, cycle in sorted(first.items()):
        ray = phi.ray(b, 12, True)
        assert len(ray) >= 12
        grown = oracles.apply_power(phi, (b,), cycle)
        while len(grown) < 12:
            grown = oracles.apply_power(phi, grown, cycle)
        assert ray[:12] == grown[:12]


def test_ray_tail_extends_iterated_images(phi):
    last = phi.cycle_letters("last")
    for c, cycle in sorted(last.items()):
        ray = phi.ray(c, 12, False)
        assert len(ray) >= 12
        grown = oracles.apply_power(phi, (c,), cycle)
        while len(grown) < 12:
            grown = oracles.apply_power(phi, grown, cycle)
        assert ray[-12:] == grown[-12:]


def test_validate_builds_an_automorphism(fibonacci):
    phi = validate(
        fibonacci.alphabet, fibonacci.images, fibonacci.inverse_images
    )
    assert phi.rank == 2
    assert phi.images == fibonacci.images
    assert phi.inverse_images == fibonacci.inverse_images
