#!/usr/bin/env python3
"""Survey automorphism files: index, completeness and class structure.

With no arguments, runs every bundled example.  --max-k caps the level
for every file at once.
"""

import argparse
import sys
from pathlib import Path

from fgindex.automorphism import load_automorphism
from fgindex.cli import analyze, index_fraction
from fgindex.config import DEFAULT_BUDGET, RunConfig

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "automorphisms"

HEADER = (
    "name",
    "rank",
    "index",
    "complete",
    "levels",
    "classes",
    "components",
    "max power",
)


def survey_row(path, max_k, budget):
    phi = load_automorphism(str(path))
    analysis = analyze(phi, RunConfig(max_k=max_k, budget=budget))
    result = analysis.result
    return (
        path.stem,
        phi.rank,
        index_fraction(analysis.doubled),
        "yes" if result.complete else "no",
        f"{result.k_reached}/{result.k_target}",
        len(result.singularities),
        len(analysis.comps),
        result.max_rho_power,
    )


def render_table(rows):
    table = [HEADER] + [tuple(str(x) for x in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(HEADER))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="automorphism files (default: every bundled example)",
    )
    parser.add_argument("--max-k", type=int, default=None, help="level cap")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args(argv)
    paths = args.paths or sorted(DEFAULT_DIR.glob("*.aut"))
    if not paths:
        parser.error("no automorphism files found")
    rows = [survey_row(path, args.max_k, args.budget) for path in paths]
    print(render_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
