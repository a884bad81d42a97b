import pytest

from fgindex import load_automorphism, sgraph
from fgindex.cli import analyze
from fgindex.config import RunConfig
from fgindex.errors import FormulaMismatch
from fgindex.sgraph import (
    attracting_reps,
    build_graph,
    components,
    fixed_basis,
    fo_index,
    to_dot,
)
from fgindex.singularities import find_all
from fgindex.words import purity, Purity

import oracles
from conftest import aut_path

ANALYSES = [
    "rank3_analysis",
    "rank4_analysis",
    "fibonacci_analysis",
    "rank6_analysis",
    "rank14_analysis",
]


@pytest.fixture(params=ANALYSES)
def analysis(request):
    return request.getfixturevalue(request.param)


# -- frozen graphs ----------------------------------------------------------------


def test_rank3_graph_frozen(rank3_analysis):
    g = rank3_analysis.graph
    assert g.finite_edges == [(2, 1, (1,))]
    assert g.infinite_edges == [
        (0, ("minus", -3)),
        (0, ("minus", -2)),
        (0, ("minus", -1)),
        (0, ("plus", 2)),
        (1, ("plus", 2)),
        (1, ("plus", 3)),
        (2, ("minus", -2)),
        (2, ("plus", 2)),
    ]
    assert rank3_analysis.doubled == 4


def test_rank4_graph_frozen(rank4_analysis):
    g = rank4_analysis.graph
    assert g.finite_edges == [
        (0, 3, (3,)),
        (0, 5, (2, 4)),
        (2, 1, (3,)),
        (2, 5, (4, 1)),
        (4, 1, (2,)),
        (4, 3, (1,)),
    ]
    assert g.infinite_edges == [
        (0, ("minus", -1)),
        (1, ("plus", 4)),
        (2, ("minus", -3)),
        (3, ("plus", 3)),
        (4, ("minus", -4)),
        (5, ("plus", 2)),
    ]
    assert rank4_analysis.doubled == 6


def test_fibonacci_graph_frozen(fibonacci_analysis):
    g = fibonacci_analysis.graph
    assert g.finite_edges == [(1, 0, (1, 2)), (1, 0, (2, 1))]
    assert g.infinite_edges == [(0, ("plus", 1)), (1, ("minus", -1))]
    assert fibonacci_analysis.doubled == 2


def test_rank6_graph_frozen(rank6_analysis):
    g = rank6_analysis.graph
    assert g.finite_edges == []
    expected = [(0, ("minus", -c)) for c in range(6, 0, -1)]
    expected += [(0, ("plus", b)) for b in range(1, 6)]
    assert g.infinite_edges == expected
    assert rank6_analysis.doubled == 9


def test_rank14_graph_frozen(rank14_analysis):
    g = rank14_analysis.graph
    assert g.finite_edges == []
    expected = [(0, ("minus", -1))]
    expected += [(0, ("plus", b)) for b in range(1, 15)]
    expected += [(1, ("minus", -8)), (1, ("minus", -3)), (1, ("plus", 1))]
    expected += [(2, ("minus", -3)), (2, ("minus", -1)), (2, ("plus", 8))]
    assert g.infinite_edges == expected
    assert rank14_analysis.doubled == 15


# -- graph semantics ---------------------------------------------------------------


def test_edge_words_are_orbit_windows(analysis):
    sings = {s.ident: s for s in analysis.result.singularities}
    for (a, b, v) in analysis.graph.finite_edges:
        assert purity(v) is Purity.PURE_POSITIVE
        src_windows = [p.window(0, len(v)) for p in sings[a].point_list()]
        dst_windows = [p.window(-len(v), 0) for p in sings[b].point_list()]
        assert v in src_windows
        assert v in dst_windows


def test_edges_claim_germs_their_nodes_have(analysis):
    g = analysis.graph
    for (a, b, v) in g.finite_edges:
        assert ("plus", v[0]) in g.claimed[a]
        assert ("minus", -v[-1]) in g.claimed[b]
    for node, claimed in g.claimed.items():
        assert claimed <= g.node_classes[node]


def test_node_germ_identity(analysis):
    # classes = claimed by finite edges + infinite ends, node by node
    g = analysis.graph
    for s in analysis.result.singularities:
        inf_here = sum(1 for (n, _) in g.infinite_edges if n == s.ident)
        assert len(g.node_classes[s.ident]) == len(g.claimed[s.ident]) + inf_here


def test_analyze_builds_the_graph_once(monkeypatch):
    # rank6_cyclic at max_k=10 is not certified by the level rule, so the
    # sweep needs its index; analyze then reuses the sweep's graph.
    calls = []
    build = sgraph.build_graph

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sgraph, "build_graph", counted)
    phi = load_automorphism(aut_path("rank6_cyclic"))
    analysis = analyze(phi, RunConfig(max_k=10))
    assert not analysis.result.complete
    assert len(calls) == 1


def test_analyze_builds_the_components_once(monkeypatch):
    # The sweep's index check and analyze's bases read the same components.
    calls = []
    build = sgraph.components

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sgraph, "components", counted)
    analyze(load_automorphism(aut_path("rank4")), RunConfig())
    assert len(calls) == 1


def test_graph_rebuild_is_stable(analysis):
    phi = analysis.phi
    again = build_graph(phi, analysis.result.singularities)
    assert again.finite_edges == analysis.graph.finite_edges
    assert again.infinite_edges == analysis.graph.infinite_edges
    assert again.node_classes == analysis.graph.node_classes


# -- the index -----------------------------------------------------------------------


def test_doubled_index_values(
    rank3_analysis,
    rank4_analysis,
    fibonacci_analysis,
    rank6_analysis,
    rank14_analysis,
):
    table = [
        (rank3_analysis, 4),
        (rank4_analysis, 6),
        (fibonacci_analysis, 2),
        (rank6_analysis, 9),
        (rank14_analysis, 15),
    ]
    for analysis, expected in table:
        assert analysis.doubled == expected
        assert analysis.doubled <= 2 * (analysis.phi.rank - 1)
        again = fo_index(
            analysis.phi,
            analysis.result.singularities,
            analysis.graph,
            analysis.comps,
        )
        assert again == expected


def test_formula_mismatch_detected(fibonacci):
    result = find_all(fibonacci, RunConfig())
    graph = build_graph(fibonacci, result.singularities)
    comps = components(result.singularities, graph)
    fo_index(fibonacci, result.singularities, graph, comps)
    broken = result.singularities[0]
    dropped_key = sorted(broken.points)[0]
    del broken.points[dropped_key]
    with pytest.raises(FormulaMismatch):
        fo_index(fibonacci, result.singularities, graph, comps)


# -- components and bases ---------------------------------------------------------------


def test_components_frozen(
    rank3_analysis,
    rank4_analysis,
    fibonacci_analysis,
    rank6_analysis,
    rank14_analysis,
):
    table = [
        (rank3_analysis, [([0], 0, 4), ([1, 2], 0, 4)]),
        (rank4_analysis, [([0, 1, 2, 3, 4, 5], 1, 6)]),
        (fibonacci_analysis, [([0, 1], 1, 2)]),
        (rank6_analysis, [([0], 0, 11)]),
        (rank14_analysis, [([0], 0, 15), ([1], 0, 3), ([2], 0, 3)]),
    ]
    for analysis, expected in table:
        got = [
            (c.nodes, c.cycle_rank, c.attracting_classes)
            for c in analysis.comps
        ]
        assert got == expected


def test_component_rank_identity(analysis):
    for c in analysis.comps:
        assert c.cycle_rank == len(c.edges) - len(c.nodes) + 1
        assert len(c.basis) == c.cycle_rank


def test_rank4_basis_verbatim(rank4_analysis):
    al = rank4_analysis.phi.alphabet
    words = [al.format_word(u) for c in rank4_analysis.comps for u in c.basis]
    assert words == ["b d a^-1 d^-1 c b^-1 a c^-1"]


def test_fibonacci_basis_verbatim(fibonacci_analysis):
    al = fibonacci_analysis.phi.alphabet
    words = [
        al.format_word(u) for c in fibonacci_analysis.comps for u in c.basis
    ]
    assert words == ["b^-1 a^-1 b a"]


def test_basis_words_are_mixed_and_fixed(rank4_analysis, fibonacci_analysis):
    # rank4: the single component's least label is (a, 1) with power 1, so the
    # cycle word must satisfy a^-1 phi(u) a = u.  fibonacci: the least label
    # is blank at level 2, so phi^2(u) = u.
    phi4 = rank4_analysis.phi
    (u4,) = rank4_analysis.comps[0].basis
    assert purity(u4) is Purity.MIXED
    assert oracles.twisted_apply(phi4, (1,), 1, u4) == u4
    phif = fibonacci_analysis.phi
    (uf,) = fibonacci_analysis.comps[0].basis
    assert purity(uf) is Purity.MIXED
    assert oracles.apply_power(phif, uf, 2) == uf


def test_fixed_basis_matches_component_output(rank4_analysis):
    phi = rank4_analysis.phi
    comp = rank4_analysis.comps[0]
    again = fixed_basis(phi, rank4_analysis.result.singularities, comp)
    assert again == comp.basis


def test_tree_only_components_have_no_basis(rank3_analysis):
    for c in rank3_analysis.comps:
        assert c.basis == []


# -- attracting representatives -----------------------------------------------------------


def test_reps_cover_every_infinite_edge(analysis):
    reps = analysis.reps
    got = [(r["node"], (r["side"], r["letter"])) for r in reps]
    assert sorted(got) == sorted(
        (n, germ) for (n, germ) in analysis.graph.infinite_edges
    )


def test_rep_structure(analysis):
    phi = analysis.phi
    for r in analysis.reps:
        assert r["side"] in ("minus", "plus")
        gen = r["generator"]
        if gen["kind"] == "cycle":
            cycles = phi.cycle_letters(
                "last" if r["side"] == "minus" else "first"
            )
            assert gen["period"] == cycles[gen["letter"]]
        else:
            assert gen["kind"] == "orbit"
            assert gen["words"]


def test_rep_paths_anchor_at_component_roots(rank4_analysis):
    by_node = {r["node"]: r for r in rank4_analysis.reps}
    assert by_node[0]["path"] == ()
    reps = attracting_reps(
        rank4_analysis.phi,
        rank4_analysis.result.singularities,
        rank4_analysis.graph,
        rank4_analysis.comps,
    )
    assert reps == rank4_analysis.reps


# -- rendering -----------------------------------------------------------------------------


def test_fibonacci_dot_verbatim(fibonacci_analysis):
    phi = fibonacci_analysis.phi
    text = to_dot(
        phi,
        fibonacci_analysis.result.singularities,
        fibonacci_analysis.graph,
        phi.alphabet,
    )
    assert text == (
        "digraph singularities {\n"
        '  S0 [label="S0 (1, 2)"];\n'
        '  S1 [label="S1 (a b a, 2)"];\n'
        '  S1 -> S0 [label="a b"];\n'
        '  S1 -> S0 [label="b a"];\n'
        "  E0 [shape=point];\n"
        '  S0 -> E0 [style=dashed, label="plus a"];\n'
        "  E1 [shape=point];\n"
        '  S1 -> E1 [style=dashed, label="minus a^-1"];\n'
        "}\n"
    )


def test_dot_mentions_every_node_and_edge(analysis):
    phi = analysis.phi
    text = to_dot(
        phi, analysis.result.singularities, analysis.graph, phi.alphabet
    )
    assert text.startswith("digraph singularities {\n")
    assert text.endswith("}\n")
    for s in analysis.result.singularities:
        assert f"S{s.ident} [label=" in text
    assert text.count("style=dashed") == len(analysis.graph.infinite_edges)
    assert text.count("shape=point") == len(analysis.graph.infinite_edges)
