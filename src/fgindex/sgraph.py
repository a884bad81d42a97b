"""Graph of singular classes joined along shift orbits, and the index count.

Two singular points on a common shift orbit are joined by a finite edge
labeled with the positive word separating them.  Ray germs not consumed by
any finite edge stand for ends of the graph; the doubled index then counts
germs against nodes, and independently cycle rank against ends, and the two
counts must agree.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import FormulaMismatch, InvariantViolation, VerificationFailed
from .singularities import (
    approx_classes,
    fixing_power,
    untwisted_half_count,
)
from .words import EPSILON, concat, invert, purity, Purity, word_sort_key


Graph = namedtuple("Graph", "finite_edges infinite_edges node_classes claimed")


class Component:
    """One connected component, with the spanning tree union-find chose:
    the tree path from the least node to every node, and the non-tree edges,
    each closing one cycle.  `basis` is filled in by the caller."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.edges, self.extra, self.basis = [], [], []
        self.cycle_rank = self.attracting_classes = 0
        self.paths = {}


def _orbit_key(point):
    key = point.key()
    if key[0] == "per":
        return ("per", key[1], key[2])
    dev = point.dev()
    bodies = tuple(t.body() for t in dev.per)
    T = len(bodies)
    rotations = [bodies[r:] + bodies[:r] for r in range(T)]
    per_min = min(rotations)
    r_star = rotations.index(per_min)
    beta = (-len(dev.pre) - r_star) % T
    return ("dev", per_min, beta)


def _orbit_pos(phi, point, depth):
    key = point.key()
    if key[0] == "per":
        return key[3]
    dev = point.dev()
    return sum(
        phi.word_image_length(dev.at(i).p, i) for i in range(depth)
    )


def build_graph(phi, sings):
    """Finite edges between orbit-consecutive singular points, and the
    leftover ray germs of every class as infinite edges."""
    node_classes = {}
    for s in sings:
        classes = set()
        for p in s.points.values():
            u0, v0 = p.first_letters()
            classes.add(("minus", u0))
            classes.add(("plus", v0))
        node_classes[s.ident] = classes
    orbits = {}
    for s in sings:
        for p in s.points.values():
            orbits.setdefault(_orbit_key(p), []).append((s, p))
    edges = set()
    for _, group in sorted(orbits.items()):
        if len(group) < 2:
            continue
        depth = max(
            len(p.dev().pre) if p.kind() == "dev" else 0 for _, p in group
        )
        placed = sorted(
            ((_orbit_pos(phi, p, depth), s, p) for s, p in group),
            key=lambda row: row[0],
        )
        for (t0, s0, p0), (t1, s1, p1) in zip(placed, placed[1:]):
            if t0 == t1:
                raise InvariantViolation("two singular points at one orbit slot")
            if s0.ident == s1.ident:
                raise InvariantViolation("orbit returns to the same class")
            gap = t1 - t0
            label = p0.window(0, gap)
            if purity(label) is not Purity.PURE_POSITIVE:
                raise InvariantViolation("edge label strayed off the positive ray")
            edges.add((s0.ident, s1.ident, label))
    finite = sorted(edges, key=lambda e: (e[0], e[1], word_sort_key(e[2])))
    claimed = {s.ident: set() for s in sings}
    for (a, b, v) in finite:
        head = ("plus", v[0])
        tail = ("minus", -v[-1])
        for node, germ in ((a, head), (b, tail)):
            if germ in claimed[node]:
                raise InvariantViolation("one germ claimed by two finite edges")
            if germ not in node_classes[node]:
                raise InvariantViolation("edge claims a germ its node lacks")
            claimed[node].add(germ)
    infinite = []
    for s in sings:
        for germ in sorted(node_classes[s.ident] - claimed[s.ident]):
            infinite.append((s.ident, germ))
    return Graph(
        finite_edges=finite,
        infinite_edges=infinite,
        node_classes=node_classes,
        claimed=claimed,
    )


def fo_index(phi, sings, graph, comps):
    """Doubled index, counted by germs, by point classes and by the
    components comps of graph, which must all agree."""
    by_germs = sum(
        len(graph.node_classes[s.ident]) - 2 for s in sings
    )
    by_points = 0
    for s in sings:
        if s.label.w == EPSILON:
            by_points += untwisted_half_count(phi, s) - 2
        else:
            by_points += approx_classes(phi, s) - 1
    if by_germs != by_points:
        raise FormulaMismatch(
            f"germ count gives {by_germs}, point classes give {by_points}"
        )
    by_components = sum(
        2 * c.cycle_rank + c.attracting_classes - 2 for c in comps
    )
    if by_components != by_germs:
        raise FormulaMismatch(
            f"component count gives {by_components}, germs give {by_germs}"
        )
    bound = 2 * (phi.rank - 1)
    if by_germs > bound:
        raise InvariantViolation(f"doubled index {by_germs} above bound {bound}")
    return by_germs


def components(sings, graph):
    """Connected components of the finite-edge graph, in node-id order.

    One union-find pass over the edges in order, always rooting at the least
    node, finds the components and a spanning tree of each: an edge joining
    two roots is a tree edge, any other edge closes a cycle.
    """
    parent = {s.ident: s.ident for s in sings}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    in_tree = []
    for (a, b, _) in graph.finite_edges:
        ra, rb = find(a), find(b)
        in_tree.append(ra != rb)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    by_root = {}  # visiting nodes in id order lists components by least node
    for n in sorted(parent):
        root = find(n)
        if root not in by_root:
            by_root[root] = Component(nodes=[])
        by_root[root].nodes.append(n)
    trees = {root: [] for root in by_root}
    for e, spans in zip(graph.finite_edges, in_tree):
        root = find(e[0])
        by_root[root].edges.append(e)
        (trees[root] if spans else by_root[root].extra).append(e)
    for (n, _) in graph.infinite_edges:
        by_root[find(n)].attracting_classes += 1
    for root, comp in by_root.items():
        comp.cycle_rank = len(comp.extra)
        comp.paths = _tree_paths(comp.nodes, trees[root])
    return list(by_root.values())


def _tree_paths(nodes, tree_edges):
    """Reduced word from the least node to every node along tree edges."""
    adjacency = {n: [] for n in nodes}
    for (a, b, v) in tree_edges:
        adjacency[a].append((b, v, False))
        adjacency[b].append((a, v, True))
    root = nodes[0]
    words = {root: EPSILON}
    queue = [root]
    while queue:
        cur = queue.pop(0)
        for (nxt, v, reverse) in adjacency[cur]:
            if nxt in words:
                continue
            step = invert(v) if reverse else v
            words[nxt] = concat(words[cur], step)
            queue.append(nxt)
    if set(words) != set(nodes):
        raise InvariantViolation("spanning tree misses part of its component")
    return words


def fixed_basis(phi, sings, comp):
    """Basis of the free group carried by one component's cycles.

    Each non-tree edge closes a loop through the least node; the loop word
    must be fixed by the appropriate power of the component's smallest
    labeled map, or the whole computation is rejected.
    """
    if not comp.extra:
        return []
    by_id = {s.ident: s for s in sings}
    anchor = min((by_id[n] for n in comp.nodes), key=lambda s: s.label.sort_key())
    h = 1
    for n in comp.nodes:
        h = math.lcm(h, fixing_power(phi, by_id[n]))
    basis = []
    wl = anchor.label
    wh = phi.conjugator_power(wl.w, wl.k, h)
    for (a, b, v) in comp.extra:
        u = concat(comp.paths[a], v, invert(comp.paths[b]))
        if purity(u) in (Purity.PURE_POSITIVE, Purity.PURE_NEGATIVE, Purity.EMPTY):
            raise InvariantViolation("cycle word is not mixed")
        image = phi.apply(u, wl.k * h)
        back = concat(invert(wh), image, wh)
        if back != u:
            raise VerificationFailed(
                "cycle word is not fixed by the component's labeled map"
            )
        basis.append(u)
    return basis


def attracting_reps(phi, sings, graph, comps):
    """One descriptor per unclaimed ray germ, carried to its component root."""
    by_id = {s.ident: s for s in sings}
    out = []
    for comp in comps:
        for (node, (side, letter)) in graph.infinite_edges:
            if node not in comp.nodes:
                continue
            rep_point = None
            for p in by_id[node].point_list():
                u0, v0 = p.first_letters()
                if (side == "minus" and u0 == letter) or (
                    side == "plus" and v0 == letter
                ):
                    rep_point = p
                    break
            if rep_point is None:
                raise InvariantViolation("germ lost its witnessing point")
            if rep_point.kind() == "per":
                c, b, _ = rep_point.per_data()
                seed = c if side == "minus" else b
                cyc = phi.cycle_letters("last" if side == "minus" else "first")
                generator = {"kind": "cycle", "letter": seed, "period": cyc[seed]}
            else:
                dev = rep_point.dev()
                branch = [
                    (t.p if side == "minus" else t.s) for t in dev.per
                ]
                generator = {"kind": "orbit", "words": branch}
            out.append(
                {
                    "node": node,
                    "side": side,
                    "letter": letter,
                    "path": comp.paths[node],
                    "generator": generator,
                }
            )
    return out


def to_dot(phi, sings, graph, alphabet):
    """Graphviz text; dashed arrows mark the infinite ends."""
    lines = ["digraph singularities {"]
    for s in sings:
        label = s.label.render(alphabet)
        lines.append(f'  S{s.ident} [label="S{s.ident} {label}"];')
    for (a, b, v) in graph.finite_edges:
        lines.append(
            f'  S{a} -> S{b} [label="{alphabet.format_word(v)}"];'
        )
    for idx, (node, (side, letter)) in enumerate(graph.infinite_edges):
        name = f"E{idx}"
        text = alphabet.format_letter(letter)
        lines.append(f'  {name} [shape=point];')
        lines.append(
            f'  S{node} -> {name} [style=dashed, label="{side} {text}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
