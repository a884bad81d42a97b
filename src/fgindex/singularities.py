"""Discovery of singular orbit classes by sweeping substitution powers.

A singularity is recorded as a label (w, k), meaning the twisted map
u -> w^-1 phi^k(u) w fixes a power of every point in the class, together
with the symbolic points themselves.  Classes found at different powers or
from different matches are merged whenever their labels generate a common
power.
"""

from __future__ import annotations

import dataclasses
import math

from .config import resolved_max_k
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InvariantViolation,
)
from .gamma import all_matches
from .prefix_suffix import (
    complete_for_anchor,
    loops,
    periodic_point,
    point_fixed_by,
    two_factors,
)
from .words import EPSILON, Purity, invert, purity, word_sort_key

# Largest multiple of a point's base period tried as its fixing power.
FIXING_POWER_CAP = 512


@dataclasses.dataclass(frozen=True)
class Label:
    w: tuple
    k: int

    def sort_key(self):
        return (self.k, len(self.w), word_sort_key(self.w))

    def render(self, alphabet):
        return f"({alphabet.format_word(self.w)}, {self.k})"


class Singularity:
    """A labeled set of symbolic points, keyed by canonical point identity."""

    def __init__(self, label, points):
        self.label = label
        self.points = {}
        for p in points:
            self.points.setdefault(p.key(), p)
        self.ident = None
        self._fixing_power = None

    def point_list(self):
        return sorted(self.points.values(), key=lambda p: p.sort_key())

    def __repr__(self):
        return f"Singularity(label=({self.label.w}, {self.label.k}), n={len(self.points)})"


def label_power_compatible(phi, la, lb, budget=None):
    """Whether the two labeled maps share a common power."""
    if la.w == EPSILON or lb.w == EPSILON:
        # Iterating a blank conjugator stays blank; a nonblank one never
        # empties out, so mixed pairs are settled without any expansion.
        return la.w == lb.w
    lk = math.lcm(la.k, lb.k)
    ha, hb = lk // la.k, lk // lb.k
    len_a = sum(phi.word_image_length(la.w, i * la.k) for i in range(ha))
    len_b = sum(phi.word_image_length(lb.w, i * lb.k) for i in range(hb))
    if len_a != len_b:
        return False
    wa = phi.conjugator_power(la.w, la.k, ha, budget)
    wb = phi.conjugator_power(lb.w, lb.k, hb, budget)
    return wa == wb


def _from_match_groups(phi, k, side, group_x, group_y, m):
    """Points forced into one class when loops with affix x and loops with
    affix y first share a rotation value: m = (i, j, w) from all_matches."""
    i, j, w = m
    if side == "minus":
        dx, dy = -i, -j
    else:
        dx, dy = i + 1, j + 1
    pts = []
    for t in group_x:
        pts.extend(complete_for_anchor(phi, t, dx))
    for t in group_y:
        pts.extend(complete_for_anchor(phi, t, dy))
    return Singularity(Label(w, k), pts)


def merge(phi, registry, sing, budget=None):
    """Fold a new class into the registry, chaining merges to a fixpoint."""
    pool = [sing]
    while pool:
        cur = pool.pop()
        target = None
        for existing in registry:
            if not cur.points.keys().isdisjoint(existing.points.keys()):
                target = existing
                break
            if label_power_compatible(phi, cur.label, existing.label, budget):
                target = existing
                break
        if target is None:
            registry.append(cur)
            continue
        registry.remove(target)
        label = min(cur.label, target.label, key=lambda l: l.sort_key())
        joined = Singularity(label, [])
        joined.points.update(target.points)
        joined.points.update(cur.points)
        pool.append(joined)
    return registry


def fixing_power(phi, sing):
    """Least h with every point fixed by the h-th power of the labeled map."""
    if sing._fixing_power is not None:
        return sing._fixing_power
    w, k = sing.label.w, sing.label.k
    total = 1
    for p in sing.point_list():
        if p.kind() == "per":
            c, b, n = p.per_data()
            big = math.lcm(
                phi.cycle_letters("last")[c], phi.cycle_letters("first")[b]
            )
            h1 = big // math.gcd(big, k)
            if w == EPSILON and n != 0:
                raise InvariantViolation(
                    "shifted periodic point under an untwisted label"
                )
            candidates = (h1 * t for t in range(1, FIXING_POWER_CAP + 1))
        else:
            candidates = range(1, FIXING_POWER_CAP + 1)
        for h in candidates:
            if point_fixed_by(phi, p, w, k, h):
                total = math.lcm(total, h)
                break
        else:
            raise CapExceeded(f"no fixing power below cap for {p!r}")
    sing._fixing_power = total
    return total


def approx_classes(phi, sing):
    """Points up to agreement of both first letters."""
    return len({p.first_letters() for p in sing.points.values()})


def untwisted_half_count(phi, sing):
    """Distinct half rays at an untwisted (w = 1) class.

    All points sit at shift zero of a two-sided periodic point, so halves
    are pinned by their seed letters alone.
    """
    left = set()
    right = set()
    for p in sing.points.values():
        if p.kind() != "per":
            raise InvariantViolation("untwisted class holds a generic point")
        c, b, n = p.per_data()
        if n != 0:
            raise InvariantViolation("untwisted class holds a shifted point")
        left.add(c)
        right.add(b)
    return len(left) + len(right)


def _is_genuine(phi, sing):
    if len(sing.points) < 2:
        return False
    firsts = {p.first_letters() for p in sing.points.values()}
    return len(firsts) > 1


@dataclasses.dataclass
class SweepResult:
    singularities: list
    complete: bool
    k_target: int
    k_reached: int
    full_levels: list
    partial_levels: list
    early_exited: bool
    max_rho_power: int
    budget_used: int
    dropped: int
    graph: object
    components: list
    doubled: int


def _inverse_length_bounds(phi, prev):
    """Upper bounds on reduced inverse image lengths, by unreduced counts:
    level k's bounds from level k-1's (level 0's are all 1)."""
    return [
        sum(prev[abs(x) - 1] for x in phi.inverse_images[c])
        for c in range(phi.rank)
    ]


def _level_estimate(phi, k, inv_bounds):
    """Level k's projected cost as (floor, stream); the gate adds them.

    floor never falls as k grows: it is the row sums of occ_k weighted by
    one plus the inverse bounds.  Each row sum is non-decreasing because
    every letter occurs in some image (primitivity), and the inverse bounds
    are non-decreasing by induction, since no inverse image is empty.
    stream, the loop term, can fall: the trace of M^k need not be monotone.
    """
    lens = phi.image_lengths(k)
    occ = phi.occurrence_matrix(k)
    gb = sum(
        sum(occ[c][a] for a in range(phi.rank)) * inv_bounds[c]
        for c in range(phi.rank)
    )
    n_loops = sum(occ[a][a] for a in range(phi.rank))
    return sum(lens) + gb, n_loops * 2 * (max(inv_bounds) + 2) * max(lens)


def _merge_blank_class(phi, k, side, registry, budget, merged):
    """Merge level k's class of blank-affix loops on one side, if there are
    two or more, by cycle arithmetic: a letter has a blank-prefix loop when
    it lies on a first-letter cycle of length dividing k, and pairs with every
    admissible left seed.  The plus side mirrors this with last letters.

    merged[side] holds the anchors already merged on that side.  A level
    whose anchors are all among them is skipped: its points are already in
    the one class holding every shift-0 point (see _check_blank_points), and
    re-merging them would change no class, label or budget charge."""
    heads = phi.cycle_letters("first")
    tails = phi.cycle_letters("last")
    own, other = (heads, tails) if side == "minus" else (tails, heads)
    anchors = sorted(a for a, l in own.items() if k % l == 0)
    if len(anchors) < 2 or merged[side].issuperset(anchors):
        return
    admissible = two_factors(phi)
    pairs = [
        (x, a) if side == "minus" else (a, x)
        for a in anchors
        for x in sorted(other)
    ]
    pts = [periodic_point(phi, c, b) for c, b in pairs if (c, b) in admissible]
    merge(phi, registry, Singularity(Label(EPSILON, k), pts), budget)
    merged[side].update(anchors)


def _blank_classes_done(phi, merged):
    """Whether no later level can merge a blank-affix class: each side has
    merged all its cycle letters, or has fewer than two."""
    return all(
        len(own) < 2 or merged[side].issuperset(own)
        for side, own in (
            ("minus", phi.cycle_letters("first")),
            ("plus", phi.cycle_letters("last")),
        )
    )


def _eps_level(phi, k, registry, merged):
    """Match only the blank-sided loops: pure cycle arithmetic, no images."""
    for side in ("minus", "plus"):
        _merge_blank_class(phi, k, side, registry, None, merged)


def _full_level(phi, k, registry, budget, merged):
    level_loops = loops(phi, k, budget)
    occ = phi.occurrence_matrix(k)
    if len(level_loops) != sum(occ[a][a] for a in range(phi.rank)):
        raise InvariantViolation("loop census disagrees with the occurrence matrix")
    for side in ("minus", "plus"):
        groups = {}
        for t in level_loops:
            affix = t.p if side == "minus" else t.s
            groups.setdefault(affix, []).append(t)
        groups.pop(EPSILON, None)
        _merge_blank_class(phi, k, side, registry, budget, merged)
        affixes = sorted(groups)
        for affix in affixes:
            grp = groups[affix]
            if len(grp) >= 2:
                w = affix if side == "minus" else invert(affix)
                sing = _from_match_groups(phi, k, side, grp[:1], grp[1:], (0, 0, w))
                merge(phi, registry, sing, budget)
        found = all_matches(
            phi, k, side, [(groups[a][0].a, len(a)) for a in affixes], budget
        )
        for (xi, yi), m in sorted(found.items()):
            sing = _from_match_groups(
                phi, k, side, groups[affixes[xi]], groups[affixes[yi]], m
            )
            merge(phi, registry, sing, budget)


def _staged(phi, registry):
    """The genuine classes in label order, checked and numbered in place,
    with their longest development period, their graph, its components and
    the doubled index."""
    from . import sgraph

    _check_blank_points(registry)
    ordered = sorted(registry, key=lambda s: s.label.sort_key())
    final = [s for s in ordered if _is_genuine(phi, s)]
    _check_disjoint(final)
    _check_labels(phi, final)
    max_rho = max(
        (p.rho_power() for s in final for p in s.points.values()), default=0
    )
    if max_rho > 4 * phi.rank - 4:
        raise InvariantViolation("development period exceeded its bound")
    for ident, s in enumerate(final):
        s.ident = ident
    graph = sgraph.build_graph(phi, final)
    comps = sgraph.components(final, graph)
    return final, max_rho, graph, comps, sgraph.fo_index(phi, final, graph, comps)


def find_all(phi, config):
    """Sweep substitution powers, collecting and merging all singular classes.

    A level runs in full when its estimated cost fits within the level cap
    (budget // 16, at least 10^4) and within the budget still remaining;
    otherwise it is restricted to blank-sided matches.  Once the estimate's
    non-decreasing part alone no longer fits, every later level runs
    blank-only without being priced.  Each side's blank-affix class is
    merged once per new set of anchors, so once both sides have merged all
    their cycle letters a blank-only level changes nothing: the remaining
    tail up to the target is recorded as partial levels without being run.
    A blank-only level, running out of budget or a level target below 4N-4
    leaves the sweep incomplete.
    """
    budget = config.make_budget()
    k_target = resolved_max_k(config, phi.rank)
    ceiling = 2 * (phi.rank - 1)
    cap = config.level_cap()
    registry = []
    merged = {"minus": set(), "plus": set()}
    full_levels = []
    partial_levels = []
    early_exited = False
    staged = None
    inv_bounds = [1] * phi.rank
    floor = stream = 0
    for k in range(1, k_target + 1):
        limit = min(cap, budget.remaining)
        # The limit never rises and the floor never falls, so once a floor
        # is over the limit every later level is too: stop pricing.
        if floor <= limit:
            inv_bounds = _inverse_length_bounds(phi, inv_bounds)
            floor, stream = _level_estimate(phi, k, inv_bounds)
        if floor > limit and _blank_classes_done(phi, merged):
            # Every level from here on is blank-only and leaves the registry
            # as it is, so early exit cannot fire either.
            partial_levels.extend(range(k, k_target + 1))
            k = k_target
            break
        if floor + stream > limit:
            _eps_level(phi, k, registry, merged)
            partial_levels.append(k)
        else:
            try:
                _full_level(phi, k, registry, budget, merged)
                full_levels.append(k)
            except BudgetExceeded:
                _eps_level(phi, k, registry, merged)
                partial_levels.append(k)
        if config.early_exit:
            staged = _staged(phi, registry)
            if staged[-1] >= ceiling:
                early_exited = True
                break
    # With early exit on, the last check already staged the final registry.
    final, max_rho, graph, comps, doubled = staged or _staged(phi, registry)
    # The doubled index is capped by 2(N-1), and adding points or classes to a
    # maximal collection can only violate that cap, so a sweep that attains it
    # has nothing left to find.
    complete = doubled >= ceiling or (
        not partial_levels and k_target >= 4 * phi.rank - 4
    )
    return SweepResult(
        singularities=final,
        complete=complete,
        k_target=k_target,
        k_reached=k,
        full_levels=full_levels,
        partial_levels=partial_levels,
        early_exited=early_exited,
        max_rho_power=max_rho,
        budget_used=config.budget - budget.remaining,
        dropped=len(registry) - len(final),
        graph=graph,
        components=comps,
        doubled=doubled,
    )


def _check_blank_points(registry):
    """Periodic points at shift 0 are made only by blank-affix merges, with a
    blank label; every twisted class holds shifted or generic points.  So
    all shift-0 points share the one blank class, which is what lets
    _merge_blank_class skip anchors it has merged."""
    for s in registry:
        if s.label.w != EPSILON and any(
            key[0] == "per" and key[3] == 0 for key in s.points
        ):
            raise InvariantViolation("twisted class holds an unshifted periodic point")


def _check_disjoint(final):
    seen = {}
    for s in final:
        for key in s.points:
            if key in seen:
                raise InvariantViolation("distinct classes share a point")
            seen[key] = s


def _check_labels(phi, final):
    untwisted = [s for s in final if s.label.w == EPSILON]
    if len(untwisted) > 1:
        raise InvariantViolation("multiple untwisted classes survived merging")
    for s in final:
        if s.label.w == EPSILON:
            continue
        kind = purity(s.label.w)
        firsts = [p.first_letters() for p in s.point_list()]
        if kind is Purity.PURE_POSITIVE:
            if len({u for u, _ in firsts}) != 1:
                raise InvariantViolation("positive-label class lacks a shared left germ")
        elif kind is Purity.PURE_NEGATIVE:
            if len({v for _, v in firsts}) != 1:
                raise InvariantViolation("negative-label class lacks a shared right germ")
        else:
            raise InvariantViolation("label word is neither blank nor pure")
