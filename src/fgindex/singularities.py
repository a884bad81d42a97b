"""Discovery of singular orbit classes by sweeping substitution powers.

A singularity is recorded as a label (w, k), meaning the twisted map
u -> w^-1 phi^k(u) w fixes a power of every point in the class, together
with the symbolic points themselves.  Classes found at different powers or
from different matches are merged whenever their labels generate a common
power.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .config import resolved_max_k
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InvariantViolation,
)
from .gamma import all_matches, encoded_level
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


class Label(namedtuple("Label", "w k")):
    __slots__ = ()

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
    """Least h with every point fixed by the h-th power of the labeled map.
    Each power's conjugator is built once for the class, not per point."""
    if sing._fixing_power is not None:
        return sing._fixing_power
    w, k = sing.label.w, sing.label.k
    total, conj = 1, {}
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
            if h not in conj:
                conj[h] = phi.conjugator_power(w, k, h)
            if point_fixed_by(phi, p, conj[h], k * h):
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


SweepResult = namedtuple(
    "SweepResult",
    "singularities complete k_target k_reached full_levels partial_levels"
    " early_exited max_rho_power budget_used dropped graph components doubled",
)


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
    floor's block term is the gate's cost proxy, not what gamma_bound
    charges the budget; it stays until the gate itself is replaced.
    """
    lens = phi.image_lengths(k)
    occ = phi.occurrence_matrix(k)
    gb = sum(
        sum(occ[c][a] for a in range(phi.rank)) * inv_bounds[c]
        for c in range(phi.rank)
    )
    n_loops = sum(occ[a][a] for a in range(phi.rank))
    return sum(lens) + gb, n_loops * 2 * (max(inv_bounds) + 2) * max(lens)


def _blank_schedule(phi):
    """Each side's blank-affix merges, {side: {level: anchors}}, read off the
    cycle lengths.  A letter has a blank-prefix loop at level k when it lies
    on a first-letter cycle of length dividing k; the plus side mirrors this
    with last letters.  Blank classes all merge into the one class of every
    shift-0 point (see _check_blank_points), so a level changes it only if a
    letter first joins another there: at the least lcm of its cycle length
    with another's on its side.  Such a level merges all its anchors."""
    schedule = {}
    for side, end in (("minus", "first"), ("plus", "last")):
        own = phi.cycle_letters(end)
        joins = {
            min(math.lcm(l, m) for b, m in own.items() if b != a)
            for a, l in own.items()
        } if len(own) >= 2 else ()
        schedule[side] = {
            k: sorted(a for a, l in own.items() if k % l == 0) for k in sorted(joins)
        }
    return schedule


def _eps_level(phi, k, registry, schedule):
    """Merge level k's blank-affix classes, if the schedule has any: pure
    cycle arithmetic, no images.  A blank-prefix anchor pairs with every
    admissible left seed, a blank-suffix anchor with every right seed."""
    for side, end in (("minus", "last"), ("plus", "first")):
        if k not in schedule[side]:
            continue
        seeds, admissible = sorted(phi.cycle_letters(end)), two_factors(phi)
        pairs = [
            (x, a) if side == "minus" else (a, x)
            for a in schedule[side][k]
            for x in seeds
        ]
        pts = [periodic_point(phi, c, b) for c, b in pairs if (c, b) in admissible]
        merge(phi, registry, Singularity(Label(EPSILON, k), pts))


def _full_level(phi, k, registry, budget):
    """Run level k's nonblank affixes in full: list its loops phi^k(a) =
    p a s, and on each side group them by affix (p on the minus side, s on
    the plus side), leaving blank affixes to _eps_level.  A group of two or
    more equal affixes is one class at rotation 0, and all_matches joins the
    groups' streams for the rest.

    Each affix is grouped and sorted as its slice of level k's encoded
    images (gamma.encoded_level): bytes cache their hash and compare by
    memcmp.  The encoding is big-endian and fixed-width, with the sign bit
    set on positive letters, so positive words sort by their bytes exactly
    as by their letter tuples, a proper prefix first.
    """
    level = encoded_level(phi, k, budget)
    level_loops = loops(phi, k)
    blocks, width = level.blocks, level.width
    for side in ("minus", "plus"):
        if side == "minus":
            keys = [blocks[t.parent - 1][:t.pos * width] for t in level_loops]
        else:
            keys = [blocks[t.parent - 1][(t.pos + 1) * width:] for t in level_loops]
        groups = {}
        for key, t in zip(keys, level_loops):
            groups.setdefault(key, []).append(t)
        groups.pop(b"", None)
        affixes = sorted(groups)
        for affix in affixes:
            if len(groups[affix]) >= 2:
                grp = groups[affix]
                w = grp[0].p if side == "minus" else invert(grp[0].s)
                sing = _from_match_groups(phi, k, side, grp[:1], grp[1:], (0, 0, w))
                merge(phi, registry, sing, budget)
        found = all_matches(
            phi, k, side, [(groups[a][0].a, len(a) // width) for a in affixes], budget
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

    Every level merges its blank-affix classes on the schedule read off the
    cycle lengths once per sweep (_blank_schedule), then runs its nonblank
    affixes in full when its estimated cost fits within the level cap
    (budget // 16, at least 10^4) and within the budget still remaining;
    otherwise it stays blank-only.  Once the estimate's non-decreasing part
    alone no longer fits, every later level runs blank-only without being
    priced, and once past the schedule's last level such a level changes
    nothing: the tail up to the target is recorded as partial levels
    without being run.  A blank-only level, running out of budget or a
    level target below 4N-4 leaves the sweep incomplete.
    """
    budget = config.make_budget()
    k_target = resolved_max_k(config, phi.rank)
    ceiling = 2 * (phi.rank - 1)
    cap = config.level_cap()
    registry = []
    schedule = _blank_schedule(phi)
    last = max((k for levels in schedule.values() for k in levels), default=0)
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
        if floor > limit and k > last:
            # Every level from here on is blank-only and leaves the registry
            # as it is, so early exit cannot fire either.
            partial_levels.extend(range(k, k_target + 1))
            k = k_target
            break
        _eps_level(phi, k, registry, schedule)
        if floor + stream > limit:
            partial_levels.append(k)
        else:
            try:
                _full_level(phi, k, registry, budget)
                full_levels.append(k)
            except BudgetExceeded:
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
    _blank_schedule merge only at the levels where a new anchor joins it."""
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
