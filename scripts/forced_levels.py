#!/usr/bin/env python3
"""Run every level of one map in full, from level 1 to K, and time each.

Each level is one full-mode level of the sweep, with no level gate, on one
fresh map and one letter budget of 10^14 for the whole run, so later levels
reuse the images and inverse blocks the earlier ones built.  As in the
sweep, each level merges its blank-affix classes on the schedule built once
for the map, then runs its nonblank affixes in full.  One row per level: its
wall time, the wall time of its two gamma_bound calls and of its star_index
calls (the stream layer's peel search up to each star index), the letters it
charged (all of them, and gamma_bound's alone), the doubled index of the
classes found so far, the peak RSS of the process so far, and the number of
windows the peel search checked (one _peelable call each): one per stream
visited for the horizon, plus the further search of each stream that raises
it, plus the searches of matched streams for their cutoff boxes.

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
from fgindex.singularities import _blank_schedule, _eps_level, _full_level, _staged

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
    "peel_checks",
)


class _Timed:
    """A function of gamma, adding up its calls, its wall time and the
    letters it charges to one budget."""

    def __init__(self, inner, budget):
        self.inner = inner
        self.budget = budget
        self.calls = 0
        self.seconds = 0.0
        self.letters = 0

    def __call__(self, *args):
        self.calls += 1
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
    schedule = _blank_schedule(phi)
    bound = _Timed(gamma.gamma_bound, budget)
    star = _Timed(gamma.star_index, budget)
    peel = _Timed(gamma._peelable, budget)
    gamma.gamma_bound, gamma.star_index, gamma._peelable = bound, star, peel
    try:
        for k in range(1, top + 1):
            before = bound.seconds, star.seconds, bound.letters, peel.calls
            used, t0 = budget.used, time.perf_counter()
            _eps_level(phi, k, registry, schedule)
            _full_level(phi, k, registry, budget)
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
                peel.calls - before[3],
            )
    finally:
        gamma.gamma_bound, gamma.star_index = bound.inner, star.inner
        gamma._peelable = peel.inner


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
