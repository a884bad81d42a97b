import json
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgindex import singularities
from fgindex.automorphism import load_automorphism, validate
from fgindex.cli import analyze, report_dict
from fgindex.config import DEFAULT_BUDGET, MIN_BUDGET, Budget, RunConfig
from fgindex.errors import InvariantViolation
from fgindex.families import cyclic_family
from fgindex.gamma import Stream, _block_table, all_matches
from fgindex.prefix_suffix import loops, periodic_point, point_fixed_by
from fgindex.singularities import (
    Label,
    Singularity,
    SweepResult,
    _blank_schedule,
    _affix_classes,
    _check_disjoint,
    _eps_level,
    _from_match_groups,
    _full_level,
    _inverse_length_bounds,
    _level_estimate,
    _staged,
    approx_classes,
    find_all,
    fixing_power,
    label_power_compatible,
    merge,
    untwisted_half_count,
)
from fgindex.words import EPSILON, Alphabet

from conftest import aut_path
from strategies import positive_automorphisms
import oracles


# -- records ---------------------------------------------------------------------


def test_label_is_a_value_record():
    w = (1, -2)
    assert Label(w, 3) == Label(w=(1, -2), k=3)
    assert hash(Label(w, 3)) == hash(Label(w=(1, -2), k=3)) == hash((w, 3))
    assert Label(w, 3) != Label(w, 4)
    assert repr(Label((1, 2), 3)) == "Label(w=(1, 2), k=3)"


def test_run_config_checks_its_options():
    assert vars(RunConfig()) == {
        "max_k": None, "early_exit": False, "budget": DEFAULT_BUDGET
    }
    config = RunConfig(7, True, MIN_BUDGET)
    assert (config.max_k, config.early_exit, config.budget) == (7, True, MIN_BUDGET)
    with pytest.raises(ValueError):
        RunConfig(max_k=0)
    with pytest.raises(ValueError):
        RunConfig(budget=MIN_BUDGET - 1)


# -- label compatibility --------------------------------------------------------


def test_blank_labels_compatible_only_with_blank(fibonacci):
    assert label_power_compatible(fibonacci, Label(EPSILON, 2), Label(EPSILON, 5))
    assert not label_power_compatible(
        fibonacci, Label(EPSILON, 2), Label((1, 2, 1), 2)
    )
    assert not label_power_compatible(
        fibonacci, Label((1, 2, 1), 2), Label(EPSILON, 4)
    )


def test_iterated_conjugators_are_compatible(fibonacci):
    w2 = fibonacci.conjugator_power((1, 2), 1, 2)
    assert w2 == (1, 2, 1, 1, 2)
    assert label_power_compatible(fibonacci, Label((1, 2), 1), Label(w2, 2))
    w4 = fibonacci.conjugator_power((1, 2, 1), 2, 2)
    assert w4 == (1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1)
    assert label_power_compatible(fibonacci, Label((1, 2, 1), 2), Label(w4, 4))


def test_incompatible_labels_at_equal_power(fibonacci):
    assert not label_power_compatible(
        fibonacci, Label((1, 2), 1), Label((2, 1), 1)
    )
    assert not label_power_compatible(
        fibonacci, Label((1,), 1), Label((1, 2), 1)
    )


def test_compatibility_matches_conjugator_iteration(phi_all):
    phi = phi_all
    for t in loops(phi, 1):
        if t.p == EPSILON:
            continue
        la = Label(t.p, 1)
        for h in (2, 3):
            wb = oracles.conjugator_iterate(phi, t.p, 1, h)
            assert label_power_compatible(phi, la, Label(wb, h))
            assert not label_power_compatible(
                phi, la, Label(wb + wb[-1:], h)
            )


@pytest.fixture(params=["rank3", "rank4", "fibonacci", "rank6", "rank14"])
def phi_all(request):
    return request.getfixturevalue(request.param)


# -- building classes from matches ------------------------------------------------


def test_minus_match_anchors_shift_left(fibonacci):
    by_body = {(t.p, t.a, t.s): t for t in loops(fibonacci, 2)}
    tx = by_body[((1,), 2, ())]
    ty = by_body[((1, 2), 1, ())]
    starts = [(tx.a, len(tx.p)), (ty.a, len(ty.p))]
    m = all_matches(fibonacci, 2, "minus", starts, Budget(10**9)).get((0, 1))
    assert m == (1, 1, (1, 2, 1))
    sing = _from_match_groups(fibonacci, 2, "minus", [tx], [ty], m)
    assert sing.label == Label((1, 2, 1), 2)
    assert sorted(sing.points) == [("per", 1, 1, -2), ("per", 2, 1, -2)]


def test_plus_match_anchors_shift_right(rank4):
    by_body = {(t.p, t.a, t.s): t for t in loops(rank4, 1)}
    tx = by_body[((1, 2, 4), 1, (3, 4))]
    ty = by_body[((1,), 3, (3, 4))]
    starts = [(tx.a, len(tx.s)), (ty.a, len(ty.s))]
    m = all_matches(rank4, 1, "plus", starts, Budget(10**9)).get((0, 1))
    assert m == (0, 0, (-4, -3))
    sing = _from_match_groups(rank4, 1, "plus", [tx], [ty], m)
    assert sing.label == Label((-4, -3), 1)
    assert set(sing.points) == {
        ("dev", (((1, 2, 4, 1), 3, (4,)),), (((1, 2, 4), 1, (3, 4)),)),
        ("dev", (((1, 3), 3, (4,)),), (((1,), 3, (3, 4)),)),
    }


def test_singularity_dedupes_points_by_identity(fibonacci):
    twice = [periodic_point(fibonacci, 1, 1), periodic_point(fibonacci, 1, 1)]
    sing = Singularity(Label(EPSILON, 2), twice)
    assert len(sing.points) == 1


# -- merging ------------------------------------------------------------------------


def test_merge_unions_on_shared_points(fibonacci):
    pa = periodic_point(fibonacci, 1, 1, 0)
    pb = periodic_point(fibonacci, 2, 1, 0)
    pc = periodic_point(fibonacci, 1, 1, -2)
    s1 = Singularity(Label((1, 2), 1), [pa, pb])
    s2 = Singularity(Label((2, 1), 1), [pb, pc])
    assert not label_power_compatible(fibonacci, s1.label, s2.label)
    registry = merge(fibonacci, [], s1)
    merge(fibonacci, registry, s2)
    assert len(registry) == 1
    assert registry[0].label == Label((1, 2), 1)
    assert set(registry[0].points) == {pa.key(), pb.key(), pc.key()}


def test_merge_joins_power_compatible_labels(fibonacci):
    w2 = fibonacci.conjugator_power((1, 2), 1, 2)
    s1 = Singularity(Label((1, 2), 1), [periodic_point(fibonacci, 1, 1, -1)])
    s2 = Singularity(Label(w2, 2), [periodic_point(fibonacci, 2, 1, -3)])
    registry = merge(fibonacci, [], s1)
    merge(fibonacci, registry, s2)
    assert len(registry) == 1
    assert registry[0].label == Label((1, 2), 1)
    assert len(registry[0].points) == 2


def test_merge_keeps_unrelated_classes_apart(fibonacci):
    s1 = Singularity(Label((1, 2), 1), [periodic_point(fibonacci, 1, 1, -1)])
    s2 = Singularity(Label((2, 1), 1), [periodic_point(fibonacci, 2, 1, -1)])
    registry = merge(fibonacci, [], s1)
    merge(fibonacci, registry, s2)
    assert len(registry) == 2


def test_merge_chains_to_a_fixpoint(fibonacci):
    pa = periodic_point(fibonacci, 1, 1, -1)
    pb = periodic_point(fibonacci, 1, 1, -2)
    base1 = Singularity(Label((1, 2), 1), [pa])
    base2 = Singularity(Label((2, 1), 1), [pb])
    registry = merge(fibonacci, [], base1)
    merge(fibonacci, registry, base2)
    assert len(registry) == 2
    bridge = Singularity(Label((1, 2, 1, 1, 2), 2), [pb])
    merge(fibonacci, registry, bridge)
    assert len(registry) == 1
    assert registry[0].label == Label((1, 2), 1)
    assert set(registry[0].points) == {pa.key(), pb.key()}


# -- fixing powers --------------------------------------------------------------------


def test_fixing_powers_frozen(
    rank3_analysis,
    rank4_analysis,
    fibonacci_analysis,
    rank6_analysis,
    rank14_analysis,
):
    table = [
        (rank3_analysis, [1, 1, 1]),
        (rank4_analysis, [1, 1, 1, 1, 1, 1]),
        (fibonacci_analysis, [1, 1]),
        (rank6_analysis, [6]),
        (rank14_analysis, [35, 1, 1]),
    ]
    for analysis, expected in table:
        got = [
            fixing_power(analysis.phi, s)
            for s in analysis.result.singularities
        ]
        assert got == expected


def test_fixing_power_times_level_for_pure_classes(rank6_analysis, rank14_analysis):
    s6 = rank6_analysis.result.singularities[0]
    assert s6.label.w == EPSILON
    assert s6.label.k * fixing_power(rank6_analysis.phi, s6) == 30
    s14 = rank14_analysis.result.singularities[0]
    assert s14.label.w == EPSILON
    assert s14.label.k * fixing_power(rank14_analysis.phi, s14) == 70


def test_fixing_power_is_cached(rank3_analysis):
    s = rank3_analysis.result.singularities[0]
    first = fixing_power(rank3_analysis.phi, s)
    assert s._fixing_power == first
    assert fixing_power(rank3_analysis.phi, s) == first


def test_fixedness_verified_on_expanded_rays(
    rank3_analysis, rank4_analysis, fibonacci_analysis
):
    for analysis in (rank3_analysis, rank4_analysis, fibonacci_analysis):
        phi = analysis.phi
        for s in analysis.result.singularities:
            h = fixing_power(phi, s)
            for p in s.point_list():
                assert oracles.ray_fixed_at_power(
                    phi, p, s.label.w, s.label.k, h, length=80
                )


def test_points_outside_the_class_move(rank4_analysis):
    phi = rank4_analysis.phi
    s0, s1 = rank4_analysis.result.singularities[:2]
    for p in s1.point_list():
        assert not any(
            point_fixed_by(
                phi, p, phi.conjugator_power(s0.label.w, s0.label.k, h), s0.label.k * h
            )
            for h in (1, 2, 3)
        )


# -- germ and class counts -------------------------------------------------------------


def test_germ_and_class_counts_frozen(
    rank3_analysis,
    rank4_analysis,
    fibonacci_analysis,
    rank6_analysis,
    rank14_analysis,
):
    table = [
        (rank3_analysis, [(4, 3), (3, 2), (3, 2)]),
        (rank4_analysis, [(3, 2)] * 6),
        (fibonacci_analysis, [(3, 2)] * 2),
        (rank6_analysis, [(11, 30)]),
        (rank14_analysis, [(15, 14), (3, 2), (3, 2)]),
    ]
    for analysis, expected in table:
        phi = analysis.phi
        got = [
            (len(analysis.graph.node_classes[s.ident]), approx_classes(phi, s))
            for s in analysis.result.singularities
        ]
        assert got == expected


def test_untwisted_half_counts(
    rank3_analysis, fibonacci_analysis, rank6_analysis, rank14_analysis
):
    for analysis, expected in [
        (rank3_analysis, 4),
        (fibonacci_analysis, 3),
        (rank6_analysis, 11),
        (rank14_analysis, 15),
    ]:
        s = analysis.result.singularities[0]
        assert s.label.w == EPSILON
        assert untwisted_half_count(analysis.phi, s) == expected


def test_untwisted_count_rejects_generic_points(rank4_analysis):
    s = rank4_analysis.result.singularities[0]
    with pytest.raises(InvariantViolation):
        untwisted_half_count(rank4_analysis.phi, s)


def test_untwisted_count_rejects_shifted_points(fibonacci):
    fake = Singularity(Label(EPSILON, 2), [periodic_point(fibonacci, 1, 1, 2)])
    with pytest.raises(InvariantViolation):
        untwisted_half_count(fibonacci, fake)


def test_disjointness_guard_fires_on_shared_points(fibonacci):
    p = periodic_point(fibonacci, 1, 1, 0)
    s1 = Singularity(Label((1, 2), 1), [p])
    s2 = Singularity(Label((2, 1), 1), [p])
    with pytest.raises(InvariantViolation):
        _check_disjoint([s1, s2])


def test_staging_rejects_an_unshifted_periodic_point_in_a_twisted_class(fibonacci):
    # Shift-0 periodic points belong to the blank class alone; the skip of
    # already merged blank anchors rests on it.
    blank = Singularity(Label(EPSILON, 1), [periodic_point(fibonacci, 1, 2, 0)])
    twisted = Singularity(Label((1, 2), 1), [periodic_point(fibonacci, 2, 1, 0)])
    with pytest.raises(InvariantViolation, match="unshifted periodic point"):
        _staged(fibonacci, [blank, twisted])


# -- full sweeps, frozen ------------------------------------------------------------------


def test_sweep_rank3_structures(rank3_analysis):
    r = rank3_analysis.result
    al = rank3_analysis.phi.alphabet
    assert r.complete
    assert r.k_target == 8 and r.k_reached == 8
    assert r.full_levels == [1, 2, 3]
    assert r.partial_levels == [4, 5, 6, 7, 8]
    assert r.max_rho_power == 2 and r.dropped == 0
    labels = [(al.format_word(s.label.w), s.label.k) for s in r.singularities]
    assert labels == [
        ("1", 2),
        ("b a b a c b a b a", 2),
        ("b a b a c b a b a b a c b a b", 2),
    ]
    assert [s.ident for s in r.singularities] == [0, 1, 2]
    keys = [[p.key() for p in s.point_list()] for s in r.singularities]
    assert keys[0] == [("per", 1, 2, 0), ("per", 2, 2, 0), ("per", 3, 2, 0)]
    assert keys[1] == [
        ("dev", (), (((2, 1), 2, (1, 3)),)),
        (
            "dev",
            (((2, 1, 2, 1), 3, ()), ((), 2, (1, 2, 1, 3))),
            (((), 2, (1,)), ((2,), 1, (2, 1, 3))),
        ),
    ]
    assert keys[2] == [
        (
            "dev",
            (((), 2, (1, 2, 1, 3)),),
            (((), 2, (1,)), ((2,), 1, (2, 1, 3))),
        ),
        ("dev", (((2,), 1, (2, 1, 3)),), (((2, 1), 2, (1, 3)),)),
        (
            "dev",
            (((2, 1, 2), 1, (3,)), ((), 2, (1, 2, 1, 3))),
            (((), 2, (1,)), ((2,), 1, (2, 1, 3))),
        ),
    ]


def test_sweep_rank4_structures(rank4_analysis):
    r = rank4_analysis.result
    al = rank4_analysis.phi.alphabet
    assert r.complete
    assert r.full_levels == [1, 2]
    assert r.max_rho_power == 1 and r.dropped == 0
    labels = [(al.format_word(s.label.w), s.label.k) for s in r.singularities]
    assert labels == [
        ("a", 1),
        ("d^-1", 1),
        ("a c", 1),
        ("d^-1 c^-1", 1),
        ("a b d", 1),
        ("d^-1 c^-1 a^-1 d^-1 b^-1", 1),
    ]
    assert [len(s.points) for s in r.singularities] == [2] * 6
    keys = [[p.key() for p in s.point_list()] for s in r.singularities]
    assert keys[0] == [
        ("dev", (), (((1,), 2, (4, 2, 4)),)),
        ("dev", (), (((1,), 3, (3, 4)),)),
    ]
    assert keys[1] == [
        ("dev", (((1, 2, 4, 2), 4, ()),), (((1, 2, 4), 2, (4,)),)),
        ("dev", (((1, 3, 3), 4, ()),), (((1, 3), 3, (4,)),)),
    ]
    assert keys[2] == [
        ("per", 4, 1, -1),
        ("dev", (), (((1, 3), 3, (4,)),)),
    ]
    assert keys[3] == [
        ("dev", (((1, 2, 4, 1), 3, (4,)),), (((1, 2, 4), 1, (3, 4)),)),
        ("dev", (((1, 3), 3, (4,)),), (((1,), 3, (3, 4)),)),
    ]
    assert keys[4] == [
        ("dev", (), (((1, 2, 4), 1, (3, 4)),)),
        ("dev", (), (((1, 2, 4), 2, (4,)),)),
    ]
    assert keys[5] == [
        ("per", 4, 1, 1),
        ("dev", (((1, 2, 4), 2, (4,)),), (((1,), 2, (4, 2, 4)),)),
    ]


def test_sweep_fibonacci_structures(fibonacci_analysis):
    r = fibonacci_analysis.result
    al = fibonacci_analysis.phi.alphabet
    assert r.complete
    assert r.full_levels == [1, 2, 3, 4] and r.partial_levels == []
    assert r.max_rho_power == 2
    labels = [(al.format_word(s.label.w), s.label.k) for s in r.singularities]
    assert labels == [("1", 2), ("a b a", 2)]
    keys = [[p.key() for p in s.point_list()] for s in r.singularities]
    assert keys == [
        [("per", 1, 1, 0), ("per", 2, 1, 0)],
        [("per", 1, 1, -2), ("per", 2, 1, -2)],
    ]


def test_sweep_rank6_structures(rank6_analysis):
    r = rank6_analysis.result
    assert not r.complete
    assert r.k_target == 10 and r.k_reached == 10
    assert r.full_levels == [1, 2, 3, 4]
    assert r.partial_levels == [5, 6, 7, 8, 9, 10]
    assert r.max_rho_power == 5
    assert len(r.singularities) == 1
    s = r.singularities[0]
    assert s.label == Label(EPSILON, 5)
    expected = [
        ("per", c, b, 0) for c in range(1, 7) for b in range(1, 6)
    ]
    assert [p.key() for p in s.point_list()] == expected


def test_sweep_rank14_structures(rank14_analysis):
    r = rank14_analysis.result
    al = rank14_analysis.phi.alphabet
    assert not r.complete
    assert r.full_levels == [1, 2, 3]
    assert r.partial_levels == [4, 5, 6, 7, 8, 9, 10]
    assert r.max_rho_power == 7
    labels = [(al.format_word(s.label.w), s.label.k) for s in r.singularities]
    assert labels == [
        ("1", 2),
        ("a^-1 t^-1 c^-1 b^-1 a^-1", 2),
        ("a^-1 t^-1 c^-1 b^-1 a^-1 c^-1 a^-1 u^-1 a^-1 t^-1", 2),
    ]
    keys = [[p.key() for p in s.point_list()] for s in r.singularities]
    assert keys[0] == [("per", 1, b, 0) for b in range(1, 15)]
    assert keys[1] == [
        (
            "dev",
            (((4, 1, 8), 1, ()),),
            (((9, 1), 3, (1,)), ((4, 1), 8, (1,))),
        ),
        (
            "dev",
            (((9, 1, 3), 1, ()),),
            (((4, 1), 8, (1,)), ((9, 1), 3, (1,))),
        ),
    ]
    assert keys[2] == [
        (
            "dev",
            (((2, 3), 8, (1,)),),
            (((4,), 1, (8, 1)), ((2,), 3, (8, 1))),
        ),
        (
            "dev",
            (((4, 1), 8, (1,)),),
            (((2,), 3, (8, 1)), ((4,), 1, (8, 1))),
        ),
    ]


def test_sweep_is_deterministic(rank4):
    first = find_all(rank4, RunConfig())
    second = find_all(rank4, RunConfig())
    fp = [(s.label, sorted(s.points)) for s in first.singularities]
    sp = [(s.label, sorted(s.points)) for s in second.singularities]
    assert fp == sp
    assert (first.full_levels, first.partial_levels) == (
        second.full_levels,
        second.partial_levels,
    )


# -- budget gating and early exit -----------------------------------------------------------


def test_tight_budget_still_completes_by_the_index_cap(rank4, rank4_analysis):
    result = find_all(rank4, RunConfig(budget=10**4))
    assert result.full_levels == [1]
    assert result.partial_levels
    assert result.complete
    got = {(s.label.w, s.label.k) for s in result.singularities}
    want = {
        (s.label.w, s.label.k)
        for s in rank4_analysis.result.singularities
    }
    assert got == want


def test_tight_budget_keeps_untwisted_classes(rank6, rank6_analysis):
    result = find_all(rank6, RunConfig(max_k=10, budget=10**4))
    assert not result.complete
    assert len(result.singularities) == 1
    s = result.singularities[0]
    assert s.label == Label(EPSILON, 5)
    frozen = rank6_analysis.result.singularities[0]
    assert sorted(s.points) == sorted(frozen.points)
    assert s.label.k * fixing_power(rank6, s) == 30


def test_early_exit_stops_at_the_cap(rank4):
    result = find_all(rank4, RunConfig(early_exit=True))
    assert result.early_exited
    assert result.k_reached == 1
    assert result.full_levels == [1] and not result.partial_levels
    assert result.complete
    assert len(result.singularities) == 6


def test_early_exit_finds_the_same_classes(rank3, rank3_analysis):
    result = find_all(rank3, RunConfig(early_exit=True))
    assert result.early_exited and result.k_reached == 2
    got = [(s.label, sorted(s.points)) for s in result.singularities]
    want = [
        (s.label, sorted(s.points))
        for s in rank3_analysis.result.singularities
    ]
    assert got == want


# -- the level gate -----------------------------------------------------------------


def _assert_gate_tables_match_references(phi, k_max=60):
    occs = oracles.occurrence_matrices_by_product(phi, k_max)
    bounds = [1] * phi.rank
    last_floor = 0
    for k in range(1, k_max + 1):
        bounds = _inverse_length_bounds(phi, bounds)
        assert bounds == oracles.inverse_length_bounds(phi, k), k
        occ = occs[k - 1]
        assert phi.occurrence_matrix(k) == occ, k
        assert phi.image_lengths(k) == tuple(sum(col) for col in zip(*occ)), k
        floor, stream = _level_estimate(phi, k, bounds)
        assert (floor, stream) == oracles.level_estimate(phi, k, occ), k
        # The sweep stops pricing once the floor is over the limit.
        assert floor >= last_floor, k
        last_floor = floor


@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
)
def test_gate_tables_match_references_on_bundled_maps(name):
    _assert_gate_tables_match_references(load_automorphism(aut_path(name)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gate_tables_match_references_on_the_family(n):
    _assert_gate_tables_match_references(cyclic_family(n))


@settings(max_examples=40, deadline=None)
@given(positive_automorphisms())
def test_gate_tables_match_references_on_drawn_automorphisms(phi):
    _assert_gate_tables_match_references(phi)


def test_gate_tables_requested_out_of_order():
    phi = load_automorphism(aut_path("rank6_cyclic"))
    occs = oracles.occurrence_matrices_by_product(phi, 41)
    for k in (40, 7, 41):
        occ = occs[k - 1]
        bounds = oracles.inverse_length_bounds(phi, k)
        assert _level_estimate(phi, k, bounds) == oracles.level_estimate(phi, k, occ)
        assert phi.occurrence_matrix(k) == occ
        assert phi.image_lengths(k) == tuple(sum(col) for col in zip(*occ))
    # Level 7 was stepped up again from level 0 and not kept.
    assert sorted(phi._occ_cache) == [1, 41]


@pytest.mark.parametrize(
    "name, full_levels, budget_used, doubled",
    [
        ("rank14_cyclic", [1, 2, 3], 998, 15),
        ("rank6_cyclic", [1, 2, 3, 4], 3053, 9),
    ],
    ids=["rank14_cyclic", "rank6_cyclic"],
)
def test_gate_decisions_at_level_600_are_frozen(name, full_levels, budget_used, doubled):
    a = analyze(load_automorphism(aut_path(name)), RunConfig(max_k=600))
    assert a.result.full_levels == full_levels
    assert a.result.partial_levels == list(range(len(full_levels) + 1, 601))
    assert a.result.budget_used == budget_used
    assert a.doubled == doubled


def test_level_four_fits_once_gamma_bound_charges_only_what_it_reads():
    # Level 4's estimate is 9654 letters.  At budget 10^4 the gate weighs it
    # against what levels 1-3 left: 10^4 - 247 = 9753 now, so level 4 runs in
    # full.  When gamma_bound also charged one inverse block per scanned
    # position, levels 1-3 used 620, left 9380, and level 4 ran blank-only.
    phi = validate(
        Alphabet(["x0", "x1", "x2", "x3"]),
        ((4, 3), (1, 3), (2,), (3, 1, 3)),
        ((2, 2, -4), (3,), (4, -2), (1, 2, -4)),
    )
    result = find_all(phi, RunConfig(budget=10**4))
    assert result.full_levels == [1, 2, 3, 4]
    assert (result.doubled, result.complete) == (5, False)


def _price_every_level(phi, k, inv_bounds):
    # A zero floor never stops the pricing: every level is gated on its
    # whole estimate.
    return 0, sum(_level_estimate(phi, k, inv_bounds))


def _assert_same_decisions_as_pricing_every_level(phi, config):
    runs = []
    for patched in (False, True):
        fresh = validate(phi.alphabet, phi.images, phi.inverse_images)
        with pytest.MonkeyPatch.context() as mp:
            if patched:
                mp.setattr(singularities, "_level_estimate", _price_every_level)
            a = analyze(fresh, config)
        runs.append(
            (
                a.result.full_levels,
                a.result.partial_levels,
                a.result.budget_used,
                json.dumps(report_dict(a), indent=2, sort_keys=True),
            )
        )
    assert runs[0] == runs[1]


@pytest.mark.parametrize("early_exit", [False, True])
@pytest.mark.parametrize("budget", [MIN_BUDGET, DEFAULT_BUDGET, 10**9])
@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
)
def test_gate_decides_as_when_pricing_every_level(name, budget, early_exit):
    config = RunConfig(max_k=600, budget=budget, early_exit=early_exit)
    _assert_same_decisions_as_pricing_every_level(
        load_automorphism(aut_path(name)), config
    )


def test_gate_runs_a_level_after_a_dearer_one():
    # The loop term falls from level 7 to level 8 on this map, by more than
    # the floor rises; with a cap between the two estimates, level 7 runs
    # blank and level 8 in full.
    phi = validate(
        Alphabet(["x0", "x1", "x2", "x3"]),
        [(2,), (3,), (4, 1, 1), (1,)],
        [(4,), (1,), (2,), (3, -4, -4)],
    )
    config = RunConfig(max_k=12, budget=2_250_000)
    _assert_same_decisions_as_pricing_every_level(phi, config)
    result = find_all(phi, config)
    assert result.full_levels == [1, 2, 3, 4, 5, 6, 8]
    assert result.partial_levels == [7, 9, 10, 11, 12]


@settings(max_examples=40, deadline=None)
@given(positive_automorphisms())
def test_gate_decides_as_when_pricing_every_level_on_drawn_automorphisms(phi):
    config = RunConfig(max_k=3 * (4 * phi.rank - 4))
    _assert_same_decisions_as_pricing_every_level(phi, config)


def _assert_same_as_running_every_blank_level(phi, config):
    runs = []
    for patched in (False, True):
        fresh = validate(phi.alphabet, phi.images, phi.inverse_images)
        with pytest.MonkeyPatch.context() as mp:
            if patched:
                # Every level's anchors, merged wherever there are two or
                # more, and the schedule's last level at the target: no
                # level skipped and no tail left unrun.
                mp.setattr(
                    singularities,
                    "_blank_schedule",
                    lambda phi: oracles.blank_anchors_every_level(phi, config.max_k),
                )
                mp.setattr(singularities, "_eps_level", oracles.merge_every_blank_class)
            a = analyze(fresh, config)
        runs.append(
            (
                a.result.full_levels,
                a.result.partial_levels,
                a.result.k_reached,
                a.result.budget_used,
                json.dumps(report_dict(a), indent=2, sort_keys=True),
            )
        )
    assert runs[0] == runs[1]


@pytest.mark.parametrize("early_exit", [False, True])
@pytest.mark.parametrize("budget", [MIN_BUDGET, DEFAULT_BUDGET, 10**9])
@pytest.mark.parametrize(
    "name", ["rank3", "rank4", "fibonacci", "rank6_cyclic", "rank14_cyclic"]
)
def test_blank_skips_change_nothing(name, budget, early_exit):
    config = RunConfig(max_k=600, budget=budget, early_exit=early_exit)
    _assert_same_as_running_every_blank_level(
        load_automorphism(aut_path(name)), config
    )


def _nested_anchor_map():
    return validate(
        Alphabet(["x0", "x1", "x2", "x3"]),
        [(4, 3, 2, 1), (2, 1), (3, 2, 1), (1,)],
        [(4,), (2, -4), (3, -2), (1, -3)],
    )


def test_blank_skips_change_nothing_when_anchor_sets_nest():
    # Two fixed first letters and a 2-cycle: level 2's anchors are level 1's
    # and two more, so only a subset of the merged anchors may be skipped.
    phi = _nested_anchor_map()
    assert sorted(phi.cycle_letters("first").values()) == [1, 1, 2, 2]
    _assert_same_as_running_every_blank_level(phi, RunConfig(max_k=36))


@settings(max_examples=40, deadline=None)
@given(
    positive_automorphisms(),
    st.sampled_from([MIN_BUDGET, DEFAULT_BUDGET]),
    st.booleans(),
)
def test_blank_skips_change_nothing_on_drawn_automorphisms(phi, budget, early_exit):
    config = RunConfig(
        max_k=3 * (4 * phi.rank - 4), budget=budget, early_exit=early_exit
    )
    _assert_same_as_running_every_blank_level(phi, config)


# The anchors of each side's blank-affix merges, by level (cycle lengths
# in the comments, first letters on the minus side, last on the plus side).
FROZEN_BLANK_SCHEDULES = {
    # 2, 2, 5 x5, 7 x7 | one fixed letter
    "rank14_cyclic": (
        {2: [1, 2], 5: [3, 4, 5, 6, 7], 7: [8, 9, 10, 11, 12, 13, 14]},
        {},
    ),
    # 5 x5 | 6 x6
    "rank6_cyclic": ({5: [1, 2, 3, 4, 5]}, {6: [1, 2, 3, 4, 5, 6]}),
    # one fixed letter | 1, 2, 2
    "rank3": ({}, {2: [1, 2, 3]}),
    # one fixed letter | 2, 2
    "fibonacci": ({}, {2: [1, 2]}),
    # one fixed letter | one fixed letter
    "rank4": ({}, {}),
}


@pytest.mark.parametrize("name", sorted(FROZEN_BLANK_SCHEDULES))
def test_blank_schedules_are_frozen(name):
    minus, plus = FROZEN_BLANK_SCHEDULES[name]
    phi = load_automorphism(aut_path(name))
    assert _blank_schedule(phi) == {"minus": minus, "plus": plus}


def test_blank_schedule_merges_old_anchors_with_new_ones():
    # Two fixed first letters and a 2-cycle: level 1 merges the fixed ones,
    # and level 2, where the 2-cycle joins them, merges all four.
    phi = _nested_anchor_map()
    assert phi.cycle_letters("first") == {1: 2, 2: 1, 3: 1, 4: 2}
    assert _blank_schedule(phi) == {"minus": {1: [2, 3], 2: [1, 2, 3, 4]}, "plus": {}}


class _CycleLengths:
    """Stands in for a map where only its cycle lengths are read."""

    def __init__(self, first, last):
        self.ends = {"first": first, "last": last}

    def cycle_letters(self, end):
        return self.ends[end]


_LENGTHS = st.dictionaries(st.integers(1, 12), st.integers(1, 8), max_size=6)


@settings(max_examples=100, deadline=None)
@given(_LENGTHS, _LENGTHS)
def test_blank_schedule_keeps_the_levels_where_a_letter_first_joins(first, last):
    # Read off the every-level anchors: a level is kept exactly when one of
    # its anchors was in no earlier level's merge of two or more.
    phi = _CycleLengths(first, last)
    top = math.lcm(*first.values(), *last.values())
    want = {}
    for side, levels in oracles.blank_anchors_every_level(phi, top).items():
        want[side], seen = {}, set()
        for k, anchors in levels.items():
            if len(anchors) >= 2 and not seen.issuperset(anchors):
                want[side][k] = anchors
                seen.update(anchors)
    assert _blank_schedule(phi) == want


@pytest.mark.parametrize(
    "name, top",
    [("rank3", 6), ("fibonacci", 6), ("rank6_cyclic", 6), ("rank14_cyclic", 4)],
)
def test_full_levels_alone_merge_no_blank_class(name, top):
    # Each map's schedule merges a blank class by level top.
    phi = load_automorphism(aut_path(name))
    assert min(k for levels in _blank_schedule(phi).values() for k in levels) <= top
    budget, registry = Budget(10**12), []
    for k in range(1, top + 1):
        _full_level(phi, k, registry, budget)
    assert all(s.label.w != EPSILON for s in registry)


def test_sweep_builds_the_blank_schedule_once(monkeypatch):
    calls = []

    def counted(phi):
        calls.append(phi)
        return _blank_schedule(phi)

    monkeypatch.setattr(singularities, "_blank_schedule", counted)
    find_all(load_automorphism(aut_path("rank14_cyclic")), RunConfig(max_k=600))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["rank14_cyclic", "rank6_cyclic"])
def test_sweep_cost_does_not_grow_with_max_k(name, monkeypatch):
    counts = {"eps_levels": 0, "blank_merges": 0}
    real_eps_level, real_merge = singularities._eps_level, singularities.merge

    def eps_level(*args):
        counts["eps_levels"] += 1
        return real_eps_level(*args)

    def counted_merge(phi, registry, sing, budget=None):
        counts["blank_merges"] += sing.label.w == EPSILON
        return real_merge(phi, registry, sing, budget)

    monkeypatch.setattr(singularities, "_eps_level", eps_level)
    monkeypatch.setattr(singularities, "merge", counted_merge)
    runs = []
    for max_k in (600, 10**6):
        counts.update(eps_levels=0, blank_merges=0)
        report = report_dict(
            analyze(load_automorphism(aut_path(name)), RunConfig(max_k=max_k))
        )
        runs.append((dict(counts), report))
    (counts_600, short), (counts_big, long) = runs
    assert counts_600 == counts_big
    # The report writes partial levels as [first, last] runs: the longer
    # target only stretches the last run.
    *runs, (first, last) = long["sweep"].pop("partial_levels")
    assert last == 10**6
    assert short["sweep"].pop("partial_levels") == runs + [[first, 600]]
    assert (long["sweep"].pop("k_target"), long["sweep"].pop("k_reached")) == (10**6,) * 2
    assert (short["sweep"].pop("k_target"), short["sweep"].pop("k_reached")) == (600,) * 2
    assert long == short


def test_report_memory_does_not_grow_with_max_k():
    # A sweep holds its full levels and the level it reached, nothing per
    # partial level, so a million-level target peaks as level 600 does.
    peaks = []
    for max_k in (600, 10**6):
        phi = load_automorphism(aut_path("rank14_cyclic"))
        tracemalloc.start()
        try:
            report_dict(analyze(phi, RunConfig(max_k=max_k)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20


def test_partial_runs_are_the_gaps_between_full_levels():
    def sweep(full_levels, k_reached):
        fields = dict.fromkeys(SweepResult._fields)
        fields.update(full_levels=full_levels, k_reached=k_reached)
        return SweepResult(**fields)

    gappy = sweep([1, 3, 4, 8], 10)
    assert gappy.partial_runs() == [[2, 2], [5, 7], [9, 10]]
    assert gappy.partial_levels == [2, 5, 6, 7, 9, 10]
    assert sweep([1, 2, 3], 3).partial_runs() == []
    assert sweep([], 10**9).partial_runs() == [[1, 10**9]]
    assert sweep([1, 2], 10**9).partial_runs() == [[3, 10**9]]


@pytest.mark.parametrize(
    "source, config, top, budget_used, doubled",
    [
        ("rank14_cyclic", RunConfig(max_k=5, budget=10**12), 5, 464821, 8),
        ("rank6_cyclic", RunConfig(max_k=7, budget=10**12), 7, 33355, 9),
        (9, RunConfig(), 24, 56059, 16),
    ],
    ids=["rank14_cyclic-k5", "rank6_cyclic-k7", "family9"],
)
def test_stream_layer_budget_is_frozen(source, config, top, budget_used, doubled):
    # The report's sweep bookkeeping is outside the benchmark's checks; these
    # letter totals are what the streams, gamma bounds and joins charge.
    if isinstance(source, int):
        phi = cyclic_family(source)
    else:
        phi = load_automorphism(aut_path(source))
    a = analyze(phi, config)
    assert a.result.full_levels == list(range(1, top + 1))
    assert a.result.budget_used == budget_used
    assert a.doubled == doubled


def test_occurrence_cache_keeps_two_levels():
    # Level 7 is the first whose floor is over the limit; no later level is
    # priced, so no later count is computed.
    phi = load_automorphism(aut_path("rank14_cyclic"))
    analyze(phi, RunConfig(max_k=600))
    assert sorted(phi._occ_cache) == [1, 7]
    assert max(phi._len_cache) == 7
    occs = oracles.occurrence_matrices_by_product(phi, 9)
    assert phi.occurrence_matrix(9) == occs[8]
    assert sorted(phi._occ_cache) == [1, 9]
    assert phi.occurrence_matrix(5) == occs[4]
    assert sorted(phi._occ_cache) == [1, 9]


# -- the class step --------------------------------------------------------------


def _kept(keys):
    """How many keys another entry shares: the affixes the class step keeps."""
    shared = Counter(keys)
    return sum(shared[key] > 1 for key in keys)


def _partition(keys):
    """The index sets of equal keys."""
    blocks = {}
    for i, key in enumerate(keys):
        blocks.setdefault(key, []).append(i)
    return sorted(blocks.values())


def _assert_classes_hold_along_streams(phi, top, steps=5):
    # A rotation adds a column of A = M^k - I to a window's letter counts,
    # so every window of a stream has its affix's key; a count vector that
    # is a column of A, plus m times a unit vector, is in class 0; and the
    # keys split words as the rational adjugate does.
    budget = Budget(10**12)
    for k in range(1, top + 1):
        level_loops = loops(phi, k)
        images = [phi.letter_image(x, k) for x in phi.alphabet.letters()]
        keys = _affix_classes(phi, k, [(w, len(w)) for w in images])
        want = oracles.count_classes(phi, k, images)
        if keys is None:
            assert want is None or want[0] == 1
            continue
        m, classes = want
        assert _partition(keys) == _partition(classes)
        columns = [image + (x,) * (m - 1) for x, image in enumerate(images, 1)]
        assert _affix_classes(phi, k, [(w, len(w)) for w in columns]) == [0] * phi.rank
        for side in ("minus", "plus"):
            table = _block_table(phi, k, side)
            affixes = {t.p if side == "minus" else t.s: t.a for t in level_loops}
            affixes.pop(EPSILON, None)
            for affix, a in sorted(affixes.items())[:8]:
                s = Stream(table, a, len(affix), budget)
                s.ensure_steps(steps)
                windows = [s.word_at(i) for i in range(steps + 1)]
                got = _affix_classes(phi, k, [(w, len(w)) for w in windows])
                assert len(set(got)) == 1, (k, side, affix)


@pytest.mark.parametrize(
    "name, top",
    [("rank3", 4), ("rank4", 3), ("fibonacci", 5), ("rank6_cyclic", 6),
     ("rank14_cyclic", 4)],
)
def test_classes_hold_along_streams_on_bundled_maps(name, top):
    _assert_classes_hold_along_streams(load_automorphism(aut_path(name)), top)


@settings(max_examples=20, deadline=None)
@given(positive_automorphisms())
def test_classes_hold_along_streams_on_drawn_automorphisms(phi):
    _assert_classes_hold_along_streams(phi, 3)


def _assert_class_step_keeps_every_match(phi, top):
    # Joining only the affixes whose class another one shares merges what
    # joining them all merges, level by level.
    schedule = _blank_schedule(phi)
    runs = []
    for full_level in (_full_level, oracles.full_level_every_affix):
        registry, budget, views = [], Budget(10**12), []
        for k in range(1, top + 1):
            _eps_level(phi, k, registry, schedule)
            full_level(phi, k, registry, budget)
            views.append([(s.label, set(s.points)) for s in registry])
        runs.append(views)
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "name, top",
    [("rank3", 5), ("rank4", 4), ("fibonacci", 6), ("rank6_cyclic", 9),
     ("rank14_cyclic", 5)],
)
def test_class_step_keeps_every_match_on_bundled_maps(name, top):
    _assert_class_step_keeps_every_match(load_automorphism(aut_path(name)), top)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_class_step_keeps_every_match_on_the_family(n):
    _assert_class_step_keeps_every_match(cyclic_family(n), 2 * n)


@settings(max_examples=20, deadline=None)
@given(positive_automorphisms())
def test_class_step_keeps_every_match_on_drawn_automorphisms(phi):
    _assert_class_step_keeps_every_match(phi, 4)


def test_class_step_keys_a_non_cyclic_class_group():
    # rank14_cyclic's level 5 has 311 distinct nonblank prefixes, and the
    # class step keeps the 140 whose class another one shares.  Keys built
    # from one or two random combinations of the adjugate's rows would keep
    # all 311 or 290, so a key that drops components fails here.
    phi = load_automorphism(aut_path("rank14_cyclic"))
    k = 5
    affixes = sorted({t.p for t in loops(phi, k)} - {EPSILON})
    keys = _affix_classes(phi, k, [(p, len(p)) for p in affixes])
    assert (len(affixes), _kept(keys)) == (311, 140)
    m, full = oracles.count_classes(phi, k, affixes)
    assert _partition(keys) == _partition(full)
    rng = random.Random(1)
    for count, kept in ((1, 311), (2, 290)):
        forms = [[rng.randrange(m) for _ in range(phi.rank)] for _ in range(count)]
        coarse = [
            tuple(sum(f * x for f, x in zip(form, c)) % m for form in forms)
            for c in full
        ]
        assert _kept(coarse) == kept, count
