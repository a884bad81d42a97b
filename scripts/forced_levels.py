#!/usr/bin/env python3
"""Run every level of one map in full, from level 1 to K, and time each.

Each level is one full-mode level of the sweep, with no level gate, on one
fresh map and one letter budget of 10^14 for the whole run, so later levels
reuse the images and inverse blocks the earlier ones built.  One row per
level: its wall time, the wall time of its two gamma_bound calls and of its
star_index calls (the stream layer's peel search up to each star index), the
letters it charged (all of them, and gamma_bound's alone), the doubled index
of the classes found so far, and the peak RSS of the process so far.

    python scripts/forced_levels.py rank6_cyclic 9
    python scripts/forced_levels.py path/to/map.aut 5
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from fgindex import gamma
from fgindex.automorphism import load_automorphism
from fgindex.config import Budget
from fgindex.singularities import _full_level, _staged

AUT_DIR = Path(__file__).resolve().parents[1] / "automorphisms"
HEADER = (
    "level",
    "wall_s",
    "gamma_s",
    "star_s",
    "letters",
    "gamma_letters",
    "doubled",
    "peak_rss_mib",
)


class _Timed:
    """A function of gamma, adding up its wall time and the letters it
    charges to one budget."""

    def __init__(self, inner, budget):
        self.inner = inner
        self.budget = budget
        self.seconds = 0.0
        self.letters = 0

    def __call__(self, *args):
        used, t0 = self.budget.used, time.perf_counter()
        try:
            return self.inner(*args)
        finally:
            self.seconds += time.perf_counter() - t0
            self.letters += self.budget.used - used


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def forced_levels(phi, top):
    """Yield one row per level 1..top, as HEADER names them."""
    budget, registry = Budget(10**14), []
    merged = {"minus": set(), "plus": set()}
    bound = _Timed(gamma.gamma_bound, budget)
    star = _Timed(gamma.star_index, budget)
    gamma.gamma_bound, gamma.star_index = bound, star
    try:
        for k in range(1, top + 1):
            before = bound.seconds, star.seconds, bound.letters
            used, t0 = budget.used, time.perf_counter()
            _full_level(phi, k, registry, budget, merged)
            wall = time.perf_counter() - t0
            doubled = _staged(phi, registry)[-1]
            yield (
                k,
                f"{wall:.3f}",
                f"{bound.seconds - before[0]:.3f}",
                f"{star.seconds - before[1]:.3f}",
                budget.used - used,
                bound.letters - before[2],
                doubled,
                f"{_peak_rss_mib():.1f}",
            )
    finally:
        gamma.gamma_bound, gamma.star_index = bound.inner, star.inner


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("map", help="a bundled map name or an .aut file")
    parser.add_argument("k", type=int, help="the last level to run")
    args = parser.parse_args(argv)
    path = Path(args.map)
    if not path.exists():
        path = AUT_DIR / f"{args.map}.aut"
    phi = load_automorphism(str(path))
    print(*HEADER, sep="\t", flush=True)
    for row in forced_levels(phi, args.k):
        print(*row, sep="\t", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
