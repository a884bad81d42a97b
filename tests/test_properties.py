"""Invariant suite: structural identities every analysis run must satisfy.

Each test takes the already-computed analyses for the bundled examples and
for the small cyclic family, and re-checks one identity from scratch, using
the word-level oracles where independence from the engine matters.
"""

import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgindex import sgraph
from fgindex.cli import analyze, report_dict
from fgindex.config import RunConfig
from fgindex.errors import UndefinedShift
from fgindex.families import cyclic_family
from fgindex.prefix_suffix import (
    SymbolicPoint,
    canonicalize,
    constant_development,
    desubstitute,
    loops,
    periodic_point,
    point_fixed_by,
    shift_dev,
)
from fgindex.singularities import find_all, fixing_power
from fgindex.words import Purity, purity

import oracles
from strategies import positive_automorphisms, relabelled

RUN_NAMES = [
    "rank3",
    "rank4",
    "fibonacci",
    "rank6",
    "rank14",
    "family2",
    "family3",
    "family4",
]


@pytest.fixture(params=RUN_NAMES)
def run(request):
    if request.param.startswith("family"):
        n = int(request.param[len("family"):])
        return request.getfixturevalue("family_analyses")[n][1]
    return request.getfixturevalue(f"{request.param}_analysis")


@pytest.fixture
def all_runs(
    rank3_analysis,
    rank4_analysis,
    fibonacci_analysis,
    rank6_analysis,
    rank14_analysis,
    family_analyses,
):
    runs = {
        "rank3": rank3_analysis,
        "rank4": rank4_analysis,
        "fibonacci": fibonacci_analysis,
        "rank6": rank6_analysis,
        "rank14": rank14_analysis,
    }
    for n, (_, analysis) in family_analyses.items():
        runs[f"family{n}"] = analysis
    return runs


# -- (a) the two index formulas agree, and rebuilding reproduces the value -----


def test_index_formulas_agree(run):
    again = sgraph.fo_index(
        run.phi, run.result.singularities, run.graph, run.comps
    )
    assert again == run.doubled


# -- (b) the doubled index never exceeds 2(rank - 1) ---------------------------


def test_doubled_index_within_rank_bound(run):
    assert 0 <= run.doubled <= 2 * (run.phi.rank - 1)


# -- (c) germ classes at a node = dashed ends + claimed finite edge ends -------


def test_node_germ_identity(run):
    g = run.graph
    for s in run.result.singularities:
        dangling = sum(1 for (n, _) in g.infinite_edges if n == s.ident)
        assert len(g.node_classes[s.ident]) == len(g.claimed[s.ident]) + dangling


# -- (d) cycle rank of each component is edges - nodes + 1 ---------------------


def test_component_rank_identity(run):
    for comp in run.comps:
        assert comp.cycle_rank == len(comp.edges) - len(comp.nodes) + 1
        dangling = sum(
            1 for (n, _) in run.graph.infinite_edges if n in comp.nodes
        )
        assert comp.attracting_classes == dangling
        assert len(comp.basis) == comp.cycle_rank


# -- (e) every recorded point really is fixed at its class's fixing power ------


def test_points_fixed_at_class_power(run):
    phi = run.phi
    for s in run.result.singularities:
        h = fixing_power(phi, s)
        wh = phi.conjugator_power(s.label.w, s.label.k, h)
        for p in s.point_list():
            assert point_fixed_by(phi, p, wh, s.label.k * h)


# -- (f) basis words are mixed and fixed by the component's labeled map --------


def test_basis_words_fixed_and_mixed(all_runs):
    checked = 0
    for name, run in sorted(all_runs.items()):
        phi = run.phi
        by_id = {s.ident: s for s in run.result.singularities}
        for comp in run.comps:
            if not comp.basis:
                continue
            anchor = min(
                (by_id[n] for n in comp.nodes),
                key=lambda s: s.label.sort_key(),
            )
            h = 1
            for n in comp.nodes:
                h = lcm(h, fixing_power(phi, by_id[n]))
            for u in comp.basis:
                assert purity(u) == Purity.MIXED, (name, u)
                v = u
                for _ in range(h):
                    v = oracles.twisted_apply(phi, anchor.label.w, anchor.label.k, v)
                assert v == u, (name, u)
                checked += 1
    assert checked >= 3  # rank4, fibonacci and family2 all carry basis words


# -- (g) loop census equals the trace of the occurrence matrix -----------------


def test_loop_census_matches_matrix_trace(run):
    phi = run.phi
    for k in (1, 2, 3):
        mat = phi.occurrence_matrix(k)
        trace = sum(mat[a][a] for a in range(phi.rank))
        assert len(loops(phi, k)) == trace


# -- (h) desubstitution and recomposition invert each other --------------------


def test_loop_roundtrip_random(all_runs):
    rng = random.Random(0x5EED)
    done = 0
    for name, run in sorted(all_runs.items()):
        phi = run.phi
        for k in (1, 2, 3, 4, 5):
            pool = loops(phi, k)
            for t in rng.sample(pool, min(25, len(pool))):
                chain = desubstitute(phi, t)
                assert oracles.recompose(phi, chain) == t, (name, k, t)
                done += 1
    assert done >= 200


# -- (i) shifting a development forward then backward returns it ---------------


def test_shift_roundtrip_where_defined(run):
    phi = run.phi
    devs = [
        canonicalize(constant_development(phi, t))
        for k in (1, 2)
        for t in loops(phi, k)[:8]
    ]
    for s in run.result.singularities:
        for p in s.point_list():
            if p.kind() == "dev":
                devs.append(p.dev())
    performed = 0
    for dev in devs:
        for n in (1, 2, 3):
            try:
                there = shift_dev(phi, dev, n)
                back = shift_dev(phi, there, -n)
            except UndefinedShift:
                continue
            assert back == dev
            performed += 1
    assert performed > 0


# -- (j) symbolic equality agrees with comparing 200-letter expansions ---------


def test_points_equal_matches_window_comparison(all_runs):
    rng = random.Random(0xA11)
    compared = 0
    agree_true = agree_false = 0
    for name, run in sorted(all_runs.items()):
        phi = run.phi
        pool = [p for s in run.result.singularities for p in s.point_list()]

        def remake(p, delta):
            if p.kind() == "per":
                c, b, n = p.per_data()
                return periodic_point(phi, c, b, n + delta)
            return SymbolicPoint(phi, p.anchor, p.shift + delta)

        variants = list(pool)
        for p in pool[:4]:
            variants.append(remake(p, 0))
            variants.append(remake(p, 1))
            variants.append(remake(p, -2))
        pairs = [(pool[0], variants[len(pool)])]  # an exact remake: equal
        for _ in range(13):
            pairs.append((rng.choice(pool), rng.choice(variants)))
        for pa, pb in pairs:
            claimed = pa.key() == pb.key()
            windows = pa.window(-100, 100) == pb.window(-100, 100)
            assert claimed == windows, (name, pa, pb)
            compared += 1
            if claimed:
                agree_true += 1
            else:
                agree_false += 1
    assert compared >= 100
    assert agree_true > 0 and agree_false > 0


# -- the cyclic family: complete sweeps, bounded index, recorded growth --------


def test_cyclic_family_records(family_analyses):
    for n, (phi, analysis) in sorted(family_analyses.items()):
        assert phi.rank == n
        assert analysis.result.complete
        assert analysis.result.early_exited is False
        assert analysis.doubled <= 2 * (n - 1)
        observed = analysis.result.max_rho_power
        assert isinstance(observed, int) and observed >= 1


# -- hypothesis: the same identities on freshly drawn instances ----------------


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_census_identity_on_drawn_family_members(data):
    n = data.draw(st.integers(min_value=2, max_value=6), label="rank")
    k = data.draw(st.integers(min_value=1, max_value=3), label="power")
    phi = cyclic_family(n)
    mat = phi.occurrence_matrix(k)
    assert len(loops(phi, k)) == sum(mat[a][a] for a in range(n))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_roundtrip_on_drawn_loops(fibonacci, rank4, data):
    phi = data.draw(st.sampled_from([fibonacci, rank4]), label="phi")
    k = data.draw(st.integers(min_value=1, max_value=4), label="power")
    pool = loops(phi, k)
    t = pool[data.draw(st.integers(min_value=0, max_value=len(pool) - 1))]
    chain = desubstitute(phi, t)
    assert [c.level for c in chain] == [1] * k
    assert oracles.recompose(phi, chain) == t


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shift_roundtrip_on_drawn_loops(rank3, data):
    k = data.draw(st.integers(min_value=1, max_value=3), label="power")
    pool = loops(rank3, k)
    t = pool[data.draw(st.integers(min_value=0, max_value=len(pool) - 1))]
    n = data.draw(st.integers(min_value=1, max_value=4), label="shift")
    dev = canonicalize(constant_development(rank3, t))
    try:
        there = shift_dev(rank3, dev, n)
        back = shift_dev(rank3, there, -n)
    except UndefinedShift:
        return
    assert back == dev


# -- metamorphic properties over drawn maps -------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(positive_automorphisms())
def test_doubled_index_grows_with_level_target(phi):
    doubled = [
        find_all(phi, RunConfig(max_k=m, budget=10**6)).doubled
        for m in range(1, 4 * phi.rank - 3)
    ]
    assert doubled == sorted(doubled)


CERTIFIED_FIELDS = (
    "fo_index_times_2",
    "singularities",
    "graph",
    "components",
    "attracting_reps",
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(positive_automorphisms())
def test_certified_run_survives_a_larger_budget(phi):
    low = report_dict(analyze(phi, RunConfig(budget=10**5)))
    if not low["complete"]:
        return
    high = report_dict(analyze(phi, RunConfig(budget=10**6)))
    assert high["complete"]
    for field in CERTIFIED_FIELDS:
        assert high[field] == low[field], field


def _shape(result):
    """Everything a sweep reports that no naming of the generators can move."""
    return (
        result.doubled,
        result.complete,
        result.full_levels,
        result.partial_levels,
        result.budget_used,
        sorted(len(s.points) for s in result.singularities),
        sorted(
            (c.cycle_rank, c.attracting_classes, len(c.nodes))
            for c in result.components
        ),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(positive_automorphisms(), st.data())
def test_relabelling_the_generators_moves_no_count(phi, data):
    perm = data.draw(st.permutations(range(1, phi.rank + 1)), label="perm")
    config = RunConfig(budget=10**6)
    assert _shape(find_all(phi, config)) == _shape(
        find_all(relabelled(phi, perm), config)
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(positive_automorphisms(max_rank=3))
def test_rays_and_fixing_powers_match_the_level_zero_oracles(phi):
    for s in find_all(phi, RunConfig(budget=10**5)).singularities:
        for p in s.point_list():
            for d in range(1, 9):
                assert p.expand(d) == oracles.expand_from_level_zero(p, d)
        assert fixing_power(phi, s) == oracles.fixing_power_per_point(phi, s)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    positive_automorphisms(max_rank=2),
    st.sampled_from([10**4, 10**5, 10**6]),
)
def test_complete_rank_two_runs_have_index_one(phi, budget):
    # Every automorphism of F_2 is realised on the once-punctured torus,
    # a surface with one boundary component, so its index attains N - 1
    # (Gaboriau, Jaeger, Levitt and Lustig, 1998): doubled index 2.
    result = find_all(phi, RunConfig(budget=budget))
    if result.complete:
        assert result.doubled == 2
