#!/usr/bin/env python3
"""Sweep 300 drawn maps at one budget, with the class step and without it.

The maps are the construction of tests/strategies.py driven by
random.Random(7) instead of hypothesis: rank 2-4, then 2-8 elementary
moves, each a transvection or a relabelling with odds 1/2, with the
non-primitive products dropped.  That gives 143, 98 and 59 maps of ranks
2, 3 and 4.  Each map is swept at the default level target by find_all,
and again with every level's affixes all joined (the reference in
tests/oracles.py, full_level_every_affix), each run on a fresh map.

The class step drops only affixes that cannot match, so it finds what the
reference finds; it charges fewer letters, so under a tight budget it may
run more levels in full and find more.  By default every result must be
identical: the doubled index, completeness, the full levels, and each
class's label and points.  With --no-fall a result may differ, but no
doubled index, class count or point count may fall.  One line per differing
draw, then a summary; the exit status is 1 if a check fails.

    python scripts/drawn_maps.py 100000
    python scripts/drawn_maps.py 10000 --no-fall
"""

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from fgindex import singularities  # noqa: E402
from fgindex.automorphism import validate  # noqa: E402
from fgindex.config import RunConfig  # noqa: E402
from fgindex.errors import NotPrimitive  # noqa: E402
from fgindex.words import Alphabet, invert  # noqa: E402

DRAWS = 300


def _substitute(table, word):
    out = []
    for x in word:
        out.extend(table[x - 1] if x > 0 else invert(table[-x - 1]))
    return oracles.reduce_word(out)


def _move(rng, n):
    """One elementary move of rank n and its inverse, as strategies.py
    draws them: a transvection or a relabelling, with odds 1/2."""
    ident = [(a,) for a in range(1, n + 1)]
    if rng.random() < 0.5:
        kind = rng.choice(["right", "left"])
        i, shift = rng.randint(1, n), rng.randint(1, n - 1)
        j = (i - 1 + shift) % n + 1
        images, inverse = list(ident), list(ident)
        if kind == "right":
            images[i - 1], inverse[i - 1] = (i, j), (i, -j)
        else:
            images[i - 1], inverse[i - 1] = (j, i), (-j, i)
        return images, inverse
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    back = [0] * n
    for a, b in enumerate(perm, start=1):
        back[b - 1] = a
    return [(b,) for b in perm], [(a,) for a in back]


def drawn_maps(count=DRAWS):
    """The first count primitive maps drawn from random.Random(7)."""
    rng, out = random.Random(7), []
    while len(out) < count:
        n = rng.randint(2, 4)
        images = [(a,) for a in range(1, n + 1)]
        inverse = list(images)
        for _ in range(rng.randint(2, 8)):
            e, e_inv = _move(rng, n)
            images = [_substitute(images, w) for w in e]
            inverse = [_substitute(e_inv, w) for w in inverse]
        try:
            out.append(validate(Alphabet([f"x{i}" for i in range(n)]), images, inverse))
        except NotPrimitive:
            pass
    return out


def _summary(result):
    classes = [(s.label, frozenset(s.points)) for s in result.singularities]
    return result.doubled, result.complete, result.full_levels, classes


def _sweeps(budget, full_level):
    saved = singularities._full_level
    singularities._full_level = full_level
    try:
        config = RunConfig(budget=budget)
        return [singularities.find_all(phi, config) for phi in drawn_maps()]
    finally:
        singularities._full_level = saved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("budget", type=int, help="the letter budget of every run")
    parser.add_argument(
        "--no-fall", action="store_true",
        help="allow results to differ, as long as none falls",
    )
    args = parser.parse_args(argv)
    got = _sweeps(args.budget, singularities._full_level)
    want = _sweeps(args.budget, oracles.full_level_every_affix)
    same = failed = 0
    for i, (g, w) in enumerate(zip(got, want)):
        sg, sw = _summary(g), _summary(w)
        if sg == sw:
            same += 1
            continue
        points = [sum(len(p) for _, p in s[3]) for s in (sg, sw)]
        fell = g.doubled < w.doubled or len(sg[3]) < len(sw[3]) or points[0] < points[1]
        failed += fell or not args.no_fall
        print(
            f"draw {i}: doubled {w.doubled} -> {g.doubled},"
            f" classes {len(sw[3])} -> {len(sg[3])}, points {points[1]} -> {points[0]},"
            f" full levels {w.full_levels} -> {g.full_levels}"
            + (" FELL" if fell else "")
        )
    letters = [sum(r.budget_used for r in rs) for rs in (want, got)]
    print(
        f"budget {args.budget}: {same} of {len(got)} identical, {failed} failed;"
        f" letters charged {letters[0]} -> {letters[1]}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
