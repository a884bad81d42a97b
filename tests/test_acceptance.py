"""Acceptance gate: one test per headline behavior, each timed.

Every test here recomputes from a fresh parse (no session fixtures), so the
stated time budgets cover the whole pipeline: parse, validate, sweep, graph,
index, basis.
"""

import json
import time
from math import lcm

from fgindex import sgraph
from fgindex.automorphism import load_automorphism
from fgindex.cli import EXIT_TRUNCATED, analyze, index_fraction, main, report_dict
from fgindex.config import RunConfig
from fgindex.families import cyclic_family
from fgindex.prefix_suffix import loops
from fgindex.singularities import (
    approx_classes,
    fixing_power,
    untwisted_half_count,
)
from fgindex.words import EPSILON, invert

from conftest import aut_path
import oracles


def test_rank3_structure_is_exact_within_one_second():
    t0 = time.perf_counter()
    phi = load_automorphism(str(aut_path("rank3")))
    assert [t.render(phi.alphabet) for t in loops(phi, 1)] == [
        "(b, a, e)",
        "(e, b, a b a c)",
        "(b a, b, a c)",
    ]
    a = analyze(phi, RunConfig())
    sings = a.result.singularities
    assert [len(s.point_list()) for s in sings] == [3, 2, 3]
    assert sings[0].label.w == EPSILON
    assert untwisted_half_count(phi, sings[0]) == 4
    assert [approx_classes(phi, s) for s in sings[1:]] == [2, 2]
    assert len(a.comps) == 2
    assert a.doubled == 4
    assert index_fraction(a.doubled) == "2"
    assert a.result.complete
    assert time.perf_counter() - t0 < 1.0


def test_rank4_structure_is_exact_within_five_seconds():
    t0 = time.perf_counter()
    phi = load_automorphism(str(aut_path("rank4")))
    assert [t.render(phi.alphabet) for t in loops(phi, 1)] == [
        "(e, a, b d a c d)",
        "(a b d, a, c d)",
        "(a, b, d b d)",
        "(a b d, b, d)",
        "(a, c, c d)",
        "(a c, c, d)",
        "(a c, d, e)",
    ]
    a = analyze(phi, RunConfig())
    sings = a.result.singularities
    assert len(sings) == 6
    assert [len(s.point_list()) for s in sings] == [2] * 6
    assert len(a.comps) == 1
    comp = a.comps[0]
    assert comp.cycle_rank == 1
    assert len(comp.basis) == 1
    u = comp.basis[0]
    assert phi.alphabet.format_word(u) == "b d a^-1 d^-1 c b^-1 a c^-1"
    # the anchor label is (a, 1): fixedness means  a^-1 phi(u) a == u,
    # and the fixed set is closed under inversion, so either orientation
    # of the basis word is acceptable.
    assert oracles.twisted_apply(phi, (1,), 1, u) == u
    assert oracles.twisted_apply(phi, (1,), 1, invert(u)) == invert(u)
    assert a.doubled == 6
    assert a.result.complete
    assert time.perf_counter() - t0 < 5.0


def test_six_letter_example_has_pure_fixing_power_thirty():
    t0 = time.perf_counter()
    phi = load_automorphism(str(aut_path("rank6_cyclic")))
    a = analyze(phi, RunConfig(max_k=10))
    sings = a.result.singularities
    assert len(sings) == 1
    s = sings[0]
    assert s.label.w == EPSILON and s.label.k == 5
    assert fixing_power(phi, s) == 6
    points = s.point_list()
    assert len(points) == 30
    assert {oracles.minimal_phi_power(phi, p) for p in points} == {30}
    assert s.label.k * fixing_power(phi, s) == 30
    # the sweep is capped at 10 of the full 20 levels, so it reports itself
    # truncated even though the class above is already exact.
    assert not a.result.complete
    assert time.perf_counter() - t0 < 5.0


def test_fourteen_letter_periodic_points_merge_at_power_seventy():
    t0 = time.perf_counter()
    phi = load_automorphism(str(aut_path("rank14_cyclic")))
    a = analyze(phi, RunConfig(max_k=10))
    untwisted = [s for s in a.result.singularities if s.label.w == EPSILON]
    assert len(untwisted) == 1
    s = untwisted[0]
    points = s.point_list()
    assert len(points) == 14
    # boundary-letter cycles of lengths 2, 5 and 7: the corresponding
    # periodic points are minimally fixed by those pure powers, and the
    # merged class is fixed exactly at their least common multiple.
    mins = sorted(oracles.minimal_phi_power(phi, p) for p in points)
    assert mins == [2, 2, 5, 5, 5, 5, 5, 7, 7, 7, 7, 7, 7, 7]
    assert lcm(*mins) == 70
    assert s.label.k * fixing_power(phi, s) == 70
    # a full sweep would need 4*14 - 4 = 52 levels, far beyond reach for
    # image lengths that grow exponentially; ten levels suffice for the
    # class above but the run is reported truncated.
    assert not a.result.complete
    assert time.perf_counter() - t0 < 60.0


def test_cyclic_family_completes_with_bounded_index():
    t0 = time.perf_counter()
    observed = {}
    for n in (2, 3, 4):
        phi = cyclic_family(n)
        a = analyze(phi, RunConfig())
        assert a.result.complete
        assert not a.result.early_exited
        assert a.result.k_target == 4 * n - 4
        again = sgraph.fo_index(phi, a.result.singularities, a.graph, a.comps)
        assert again == a.doubled
        assert a.doubled // 2 <= n - 1
        record = a.result.max_rho_power
        assert isinstance(record, int) and record >= 1
        observed[n] = record
    # the run record keeps the largest expansion power seen; 2n - 2 is the
    # reference value these runs are expected to approach.
    print(
        "max expansion powers observed:",
        {n: f"{observed[n]} (reference {2 * n - 2})" for n in observed},
    )
    assert time.perf_counter() - t0 < 30.0


def test_twelve_hundred_levels_are_gated_within_three_seconds(capsys):
    # Only the first few levels are priced; once the estimate's
    # non-decreasing part is over the limit, every later level runs
    # blank-only unpriced, so the blank levels' cost must stay small.
    t0 = time.perf_counter()
    code = main(["index", str(aut_path("rank14_cyclic")), "--max-k", "1200"])
    elapsed = time.perf_counter() - t0
    assert code == EXIT_TRUNCATED
    captured = capsys.readouterr()
    assert "doubled index: 15" in captured.out
    assert "partial levels: 4-1200)" in captured.err
    assert elapsed < 3.0


def test_invariant_suite_is_always_on():
    import test_properties

    names = {n for n in dir(test_properties) if n.startswith("test_")}
    assert {
        "test_index_formulas_agree",
        "test_doubled_index_within_rank_bound",
        "test_node_germ_identity",
        "test_component_rank_identity",
        "test_points_fixed_at_class_power",
        "test_basis_words_fixed_and_mixed",
        "test_loop_census_matches_matrix_trace",
        "test_loop_roundtrip_random",
        "test_shift_roundtrip_where_defined",
        "test_points_equal_matches_window_comparison",
    } <= names


def test_reruns_are_byte_identical_on_every_example():
    cases = [
        ("rank3", RunConfig()),
        ("rank4", RunConfig()),
        ("fibonacci", RunConfig()),
        ("rank6_cyclic", RunConfig(max_k=10)),
        ("rank14_cyclic", RunConfig(max_k=10)),
    ]
    for name, cfg in cases:
        outputs = []
        for _ in range(2):
            phi = load_automorphism(str(aut_path(name)))
            a = analyze(phi, cfg)
            blob = json.dumps(
                report_dict(a), indent=2, sort_keys=True
            ).encode()
            dot = sgraph.to_dot(
                phi, a.result.singularities, a.graph, phi.alphabet
            ).encode()
            outputs.append((blob, dot))
        assert outputs[0] == outputs[1], name
