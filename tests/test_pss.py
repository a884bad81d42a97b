import random

import pytest
from hypothesis import given, settings

from fgindex import load_automorphism
from fgindex.config import RunConfig
from fgindex.errors import UndefinedShift
from fgindex.families import cyclic_family
from fgindex.prefix_suffix import (
    Development,
    SymbolicPoint,
    apply_phi_power_key,
    canonicalize,
    check_chain,
    complete_for_anchor,
    constant_development,
    desubstitute,
    loops,
    make_development,
    periodic_point,
    point_fixed_by,
    shift_dev,
    shift_key,
    two_factors,
)
from fgindex.singularities import find_all
from fgindex.words import EPSILON, invert

import oracles
from conftest import aut_path
from strategies import positive_automorphisms

ALL = ["rank3", "rank4", "fibonacci", "rank6", "rank14"]


@pytest.fixture(params=ALL)
def phi(request):
    return request.getfixturevalue(request.param)


def generic_loops(phi, k):
    return [t for t in loops(phi, k) if t.p != EPSILON and t.s != EPSILON]


def oracle_window(phi, t, shift, lo, hi):
    """Letters [lo, hi) of S^shift of the point with constant development t*.

    Builds the bi-infinite word ... phi^k(p) p | a s phi^k(s) ... directly,
    with the marked letter a at position 0, then slices.
    """
    k = t.level
    lo += shift
    hi += shift
    right = [t.a] + list(t.s)
    grow = tuple(t.s)
    for _ in range(200):
        if len(right) > hi + 1:
            break
        grow = oracles.apply_power(phi, grow, k)
        right.extend(grow)
    left = list(t.p)
    grow = tuple(t.p)
    for _ in range(200):
        if len(left) > -lo + 1:
            break
        grow = oracles.apply_power(phi, grow, k)
        left = list(grow) + left
    return tuple(
        right[pos] if pos >= 0 else left[pos] for pos in range(lo, hi)
    )


# -- loops ---------------------------------------------------------------------


def test_loops_match_exhaustive_scan(phi):
    for k in (1, 2, 3):
        got = [(t.p, t.a, t.s) for t in loops(phi, k)]
        assert sorted(got) == sorted(oracles.loops_scan(phi, k))
        ordered = [(t.a, t.p, t.s) for t in loops(phi, k)]
        assert ordered == sorted(ordered)


def test_loops_satisfy_their_defining_relation(phi):
    for k in (1, 2, 3):
        for t in loops(phi, k):
            assert t.level == k and t.parent == t.a
            assert phi.letter_image(t.a, k) == t.p + (t.a,) + t.s


def test_loop_census_equals_occurrence_diagonal(phi):
    for k in (1, 2, 3, 4):
        mat = phi.occurrence_matrix(k)
        diag = sum(mat[a - 1][a - 1] for a in phi.alphabet.letters())
        assert len(loops(phi, k)) == diag


# -- two-letter factors and periodic seeds --------------------------------------


def test_two_factors_match_stabilized_scan(phi):
    assert two_factors(phi) == oracles.two_factor_scan(phi)


def test_two_factors_fibonacci_exact(fibonacci):
    assert two_factors(fibonacci) == {(1, 2), (2, 1), (1, 1)}


def test_periodic_seeds_brute_force(phi):
    admissible = oracles.two_factor_scan(phi)
    tails = phi.cycle_letters("last")
    heads = phi.cycle_letters("first")
    for k in (1, 2, 5, 6):
        expected = sorted(
            (c, b)
            for c in tails
            for b in heads
            if k % tails[c] == 0
            and k % heads[b] == 0
            and (c, b) in admissible
        )
        assert sorted(oracles.periodic_seeds(phi, k)) == expected


def test_periodic_seeds_fibonacci(fibonacci):
    assert oracles.periodic_seeds(fibonacci, 1) == ()
    assert oracles.periodic_seeds(fibonacci, 2) == ((1, 1), (2, 1))


# -- desubstitution ---------------------------------------------------------------


def test_desubstitute_recompose_round_trip(phi):
    for k in (1, 2, 3):
        for t in loops(phi, k):
            chain = desubstitute(phi, t)
            assert len(chain) == k
            assert chain[0].a == t.a
            assert chain[-1].parent == t.parent
            for i, link in enumerate(chain):
                assert link.level == 1
                parent = chain[i + 1].a if i + 1 < k else chain[-1].parent
                assert link.parent == parent
                assert phi.images[parent - 1] == link.p + (link.a,) + link.s
            assert oracles.recompose(phi, chain) == t


def test_recompose_matches_levelwise_images(rank4):
    # The recomposed prefix is p_{k-1} phi(p_{k-2}) ... phi^{k-1}(p_0) read
    # off the chain; check against direct substitution of each block.
    for t in loops(rank4, 3):
        chain = desubstitute(rank4, t)
        prefix = ()
        suffix = ()
        for i in range(len(chain) - 1, -1, -1):
            prefix = prefix + oracles.apply_power(rank4, chain[i].p, i)
        for i in range(len(chain)):
            suffix = suffix + oracles.apply_power(rank4, chain[i].s, i)
        assert t.p == prefix and t.s == suffix


# -- developments ------------------------------------------------------------------


def test_constant_development_chain_is_valid(phi):
    for k in (1, 2, 3):
        for t in loops(phi, k):
            dev = constant_development(phi, t)
            check_chain(phi, dev)
            assert len(dev.pre) == 0
            assert len(dev.per) in {d for d in range(1, k + 1) if k % d == 0}


def test_canonicalize_collapses_repeated_period(phi):
    for t in loops(phi, 2):
        chain = tuple(desubstitute(phi, t))
        doubled = Development((), chain + chain)
        assert canonicalize(doubled) == canonicalize(Development((), chain))


def test_canonicalize_absorbs_matching_tail(phi):
    for t in loops(phi, 2):
        chain = tuple(desubstitute(phi, t))
        padded = Development(chain, chain)
        collapsed = canonicalize(padded)
        assert collapsed == make_development((), chain)
        assert canonicalize(collapsed) == collapsed


def test_shift_round_trips(phi):
    for t in generic_loops(phi, 2) + generic_loops(phi, 3):
        dev = constant_development(phi, t)
        for n in (1, 2, 3):
            forward = shift_dev(phi, dev, n)
            assert shift_dev(phi, forward, -n).key() == dev.key()
            back = shift_dev(phi, dev, -n)
            assert shift_dev(phi, back, n).key() == dev.key()
            assert canonicalize(forward) == forward
            assert canonicalize(back) == back


def test_shift_requires_letters_on_that_side(fibonacci, rank3):
    blank_p = next(t for t in loops(fibonacci, 1) if t.p == EPSILON)
    dev = constant_development(fibonacci, blank_p)
    with pytest.raises(UndefinedShift):
        shift_dev(fibonacci, dev, -1)
    blank_s = next(t for t in loops(rank3, 1) if t.s == EPSILON)
    dev = constant_development(rank3, blank_s)
    with pytest.raises(UndefinedShift):
        shift_dev(rank3, dev, 1)


# -- symbolic points against the window oracle -------------------------------------


def test_windows_match_oracle_across_shifts(phi):
    for k in (1, 2):
        for t in generic_loops(phi, k):
            for shift in (-3, -1, 0, 1, 2, 4):
                point = SymbolicPoint(phi, t, shift)
                got = point.window(-8, 8)
                assert got == oracle_window(phi, t, shift, -8, 8)


def test_deep_window_matches_oracle(phi):
    # Make the window wide enough that letters produced by levels >= 2 of the
    # development show up, which pins down the periodic tail of the chain.
    loops_here = generic_loops(phi, 3)
    for t in loops_here[:2]:
        point = SymbolicPoint(phi, t, 2)
        assert point.window(-40, 40) == oracle_window(phi, t, 2, -40, 40)


def test_expand_is_the_two_window_pair(phi):
    for t in generic_loops(phi, 2)[:3]:
        for shift in (0, 1, -2):
            point = SymbolicPoint(phi, t, shift)
            u, v = point.expand(10)
            assert u == invert(point.window(-10, 0))
            assert v == point.window(0, 10)
            assert point.first_letters() == (u[0], v[0])


def test_periodic_point_windows_follow_the_rays(phi):
    for c, b in oracles.periodic_seeds(phi, 30)[:4]:
        point = periodic_point(phi, c, b)
        window = point.window(-10, 10)
        lc = phi.cycle_letters("last")[c]
        lb = phi.cycle_letters("first")[b]
        left = oracles.apply_power(phi, (c,), lc)
        while len(left) < 10:
            left = oracles.apply_power(phi, left, lc)
        right = oracles.apply_power(phi, (b,), lb)
        while len(right) < 10:
            right = oracles.apply_power(phi, right, lb)
        assert window == left[-10:] + right[:10]
        assert point.first_letters() == (-c, b)


def test_shifted_periodic_window_is_a_slice(phi):
    for c, b in oracles.periodic_seeds(phi, 30)[:2]:
        base = periodic_point(phi, c, b)
        for n in (-4, -1, 1, 3):
            shifted = periodic_point(phi, c, b, n)
            assert shifted.window(-5, 5) == base.window(-5 + n, 5 + n)


# -- canonical keys -----------------------------------------------------------------


def test_blank_sided_anchors_reduce_to_periodic_keys(fibonacci):
    by_body = {(t.p, t.a, t.s): t for t in loops(fibonacci, 2)}
    blank_p = by_body[(EPSILON, 1, (2, 1))]
    points = complete_for_anchor(fibonacci, blank_p, 5)
    assert [p.key() for p in points] == [
        ("per", 1, 1, 5),
        ("per", 2, 1, 5),
    ]
    blank_s = by_body[((1, 2), 1, EPSILON)]
    points = complete_for_anchor(fibonacci, blank_s, 5)
    assert [p.key() for p in points] == [("per", 1, 1, 4)]
    blank_s_b = by_body[((1,), 2, EPSILON)]
    points = complete_for_anchor(fibonacci, blank_s_b, 0)
    assert [p.key() for p in points] == [("per", 2, 1, -1)]


def test_generic_anchor_pins_one_point(phi):
    for t in generic_loops(phi, 2)[:3]:
        points = complete_for_anchor(phi, t, 0)
        assert len(points) == 1
        assert points[0].kind() == "dev"
        assert points[0].rho_power() == len(points[0].dev().per)


def test_same_point_from_different_anchors(fibonacci):
    # The blank-prefix loop of a at level 2 seeds the same periodic point
    # that the seed pair names directly.
    by_body = {(t.p, t.a, t.s): t for t in loops(fibonacci, 2)}
    anchored = complete_for_anchor(fibonacci, by_body[(EPSILON, 1, (2, 1))], 0)
    direct = [periodic_point(fibonacci, 1, 1), periodic_point(fibonacci, 2, 1)]
    for pa, pb in zip(anchored, direct):
        assert pa.key() == pb.key()
        assert pa.window(-6, 6) == pb.window(-6, 6)


def test_distinct_shifts_are_distinct_points(phi):
    for t in generic_loops(phi, 2)[:2]:
        keys = {SymbolicPoint(phi, t, n).key() for n in range(-2, 3)}
        assert len(keys) == 5


def test_key_folds_shift_consistently(phi):
    for t in loops(phi, 2)[:4]:
        for shift in (0, 1, -1):
            for point in complete_for_anchor(phi, t, shift):
                seed = point.seed
                moved = SymbolicPoint(phi, t, shift + 1, seed=seed)
                assert moved.key() == shift_key(phi, point.key(), 1)


# -- the substitution acting on keys -------------------------------------------------


def test_apply_key_fixes_constant_points_up_to_prefix_shift(phi):
    for k in (1, 2):
        for t in generic_loops(phi, k):
            key = SymbolicPoint(phi, t, 0).key()
            moved = apply_phi_power_key(phi, key, k)
            assert moved == shift_key(phi, key, -len(t.p))


def test_apply_key_on_shifted_periodic_points(rank4):
    # phi moves S^n of a periodic point by the image length of the n-letter
    # window, here |phi(d)| = 3 for the point one step left of the seed.
    key = ("per", 4, 1, -1)
    assert apply_phi_power_key(rank4, key, 1) == ("per", 4, 1, -3)
    assert apply_phi_power_key(rank4, ("per", 4, 1, 0), 1) == ("per", 4, 1, 0)


def test_apply_key_matches_window_arithmetic(phi):
    for c, b in oracles.periodic_seeds(phi, 30)[:2]:
        for n in (-4, -2, 2, 3):
            key = ("per", c, b, n)
            for m in (1, 2):
                moved = apply_phi_power_key(phi, key, m)
                window = periodic_point(phi, c, b).window(min(n, 0), max(n, 0))
                total = sum(
                    len(oracles.apply_power(phi, (x,), m)) for x in window
                )
                expected = total if n > 0 else -total
                assert moved[3] == expected
                assert moved[1] == oracles.tail_letter(phi, c, m)
                assert moved[2] == oracles.head_letter(phi, b, m)


# -- fixedness ------------------------------------------------------------------------


def test_constant_points_are_fixed_by_their_prefix_twist(phi):
    for k in (1, 2):
        for t in generic_loops(phi, k):
            point = SymbolicPoint(phi, t, 0)
            assert point_fixed_by(phi, point, t.p, k, 1)
            shifted = SymbolicPoint(phi, t, 1)
            assert not point_fixed_by(phi, shifted, t.p, k, 1)


def test_fixedness_agrees_with_expanded_rays(rank3, rank4):
    for phi in (rank3, rank4):
        for t in generic_loops(phi, 2)[:3]:
            point = SymbolicPoint(phi, t, 0)
            assert oracles.ray_fixed_at_power(phi, point, t.p, 2, 1, length=60)


def test_periodic_points_fixed_at_cycle_lcm(phi):
    for c, b in oracles.periodic_seeds(phi, 30)[:3]:
        point = periodic_point(phi, c, b)
        m = oracles.minimal_phi_power(phi, point)
        assert m == oracles.periodic_pair_power(phi, c, b)
        assert point_fixed_by(phi, point, EPSILON, m, 1)
        assert apply_phi_power_key(phi, point.key(), m) == point.key()


def test_shifted_periodic_points_have_no_pure_power(phi):
    for c, b in oracles.periodic_seeds(phi, 30)[:2]:
        assert oracles.minimal_phi_power(phi, periodic_point(phi, c, b, 2)) is None


def test_minimal_power_fibonacci(fibonacci):
    point = periodic_point(fibonacci, 1, 1)
    assert oracles.minimal_phi_power(fibonacci, point) == 2


# -- rendering ------------------------------------------------------------------------


def test_triplet_render_uses_e_for_blanks(fibonacci):
    t = next(t for t in loops(fibonacci, 1) if t.p == EPSILON)
    assert t.render(fibonacci.alphabet) == "(e, a, b)"


def test_point_json_shapes(fibonacci, rank4):
    per = periodic_point(fibonacci, 2, 1, -1)
    doc = per.to_json(fibonacci.alphabet)
    assert doc["kind"] == "periodic"
    assert doc["seed"] == {"left": "b", "right": "a"}
    assert doc["shift"] == -1
    # One step left of the seed boundary the tail ray reads ...ab, so the
    # backward letter is a and the forward letter is the b at position -1.
    assert doc["U0"] == "a^-1" and doc["V0"] == "b"
    t = generic_loops(rank4, 1)[0]
    dev_doc = SymbolicPoint(rank4, t, 0).to_json(rank4.alphabet)
    assert dev_doc["kind"] == "development"
    assert dev_doc["development"]["period"]
    assert all(
        part.startswith("(") and part.endswith(")")
        for part in dev_doc["development"]["period"]
    )


# -- level-offset moves against their one-step references ---------------------------
#
# Each map here is loaded fresh: the references fill phi's image caches without
# charging a budget, which would move budget_used for later runs on a shared map.

SWEPT = [
    ("rank3", None),
    ("rank4", None),
    ("fibonacci", None),
    ("rank6_cyclic", 10),
    ("rank14_cyclic", 10),
] + [(f"family{n}", None) for n in range(2, 10)]


def fresh_map(name):
    if name.startswith("family"):
        return cyclic_family(int(name[len("family"):]))
    return load_automorphism(aut_path(name))


def final_points(phi, max_k=None):
    result = find_all(phi, RunConfig(max_k=max_k))
    return [p for s in result.singularities for p in s.point_list()]


@pytest.fixture(params=SWEPT, ids=[name for name, _ in SWEPT], scope="module")
def swept(request):
    name, max_k = request.param
    phi = fresh_map(name)
    points = final_points(phi, max_k)
    assert points
    return phi, [p for p in points if p.kind() == "dev"]


def shift_devs(phi, points):
    """The final classes' developments, and every loop's constant development
    at levels 1 and 2; the blank-sided ones also five letters in, so that some
    shifts run out of letters after a few steps."""
    devs = [p.dev() for p in points]
    for k in (1, 2):
        for t in loops(phi, k):
            dev = constant_development(phi, t)
            devs.append(dev)
            if t.p == EPSILON:
                devs.append(oracles.shift_dev_by_steps(phi, dev, 5))
            if t.s == EPSILON:
                devs.append(oracles.shift_dev_by_steps(phi, dev, -5))
    return devs


def assert_shifts_agree(phi, dev, reach, far=()):
    """shift_dev against the one-letter stepper for 0 < |n| <= reach, and for
    far shifts: both give the same development, or both raise."""
    for sign in (1, -1):
        ref = dev
        for n in range(1, reach + 1):
            if ref is not None:
                try:
                    ref = oracles.shift_dev_by_steps(phi, ref, sign)
                except UndefinedShift:
                    ref = None
            if ref is None:
                with pytest.raises(UndefinedShift):
                    shift_dev(phi, dev, sign * n)
            else:
                assert shift_dev(phi, dev, sign * n) == ref
    for n in far:
        try:
            ref = oracles.shift_dev_by_steps(phi, dev, n)
        except UndefinedShift:
            with pytest.raises(UndefinedShift):
                shift_dev(phi, dev, n)
        else:
            assert shift_dev(phi, dev, n) == ref


def test_shift_matches_one_letter_steps(swept):
    phi, points = swept
    rng = random.Random(phi.rank)
    raised = 0
    for dev in shift_devs(phi, points):
        far = (rng.randint(61, 3000), -rng.randint(61, 3000))
        assert_shifts_agree(phi, dev, 60, far)
        for n in far:
            try:
                shift_dev(phi, dev, n)
            except UndefinedShift:
                raised += 1
    # Blank-sided loop developments run out of letters on their blank side.
    blank = any(not (t.p and t.s) for k in (1, 2) for t in loops(phi, k))
    assert raised > 0 or not blank


def test_power_matches_one_substitution_steps(swept):
    phi, points = swept
    for p in points:
        key, dev = p.key(), p.dev()
        for m in range(41):
            assert apply_phi_power_key(phi, key, m) == oracles.power_key_by_steps(
                phi, dev, m
            )


def test_expand_matches_whole_images(swept):
    phi, points = swept
    for p in points:
        for d in range(1, 51):
            assert p.expand(d) == oracles.expand_by_images(phi, p.dev(), d)
        u, v = oracles.expand_by_images(phi, p.dev(), 1)
        assert p.first_letters() == (u[0], v[0])


@settings(max_examples=30, deadline=None)
@given(positive_automorphisms())
def test_level_offset_moves_on_drawn_maps(phi):
    points = [p for p in final_points(phi) if p.kind() == "dev"]
    for dev in shift_devs(phi, points[:6]):
        assert_shifts_agree(phi, dev, 12)
    for p in points[:6]:
        for m in range(8):
            assert apply_phi_power_key(phi, p.key(), m) == oracles.power_key_by_steps(
                phi, p.dev(), m
            )
        for d in (1, 2, 7, 20):
            assert p.expand(d) == oracles.expand_by_images(phi, p.dev(), d)


@pytest.mark.parametrize("name,max_k", SWEPT, ids=[name for name, _ in SWEPT])
def test_expand_leaves_image_cache_alone(name, max_k):
    phi = fresh_map(name)
    points = [p for p in final_points(phi, max_k) if p.kind() == "dev"]
    before = dict(phi._img_cache)
    for p in points:
        fresh = SymbolicPoint(phi, p.anchor, p.shift)
        fresh.first_letters()
        fresh.expand(50)
        fresh.window(-30, 30)
    assert phi._img_cache == before
