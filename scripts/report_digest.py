#!/usr/bin/env python3
"""Print one `label report result` row per fixed input: two SHA-256 digests.

The report digest covers the JSON report (`indent=2, sort_keys=True`, as
`fgindex report --json` writes it) followed by the DOT graph, so any change
to a reported number, the sweep bookkeeping included, changes it.  The
result digest covers the same text with `sweep.budget_used` left out, so a
change to how letters are charged moves only the report column.  Run it on
two checkouts and diff the output to check that a change leaves every
report byte-identical; run it under two PYTHONHASHSEED values to check that
reports do not depend on hash order.
"""

import hashlib
import json
import sys
from pathlib import Path

from fgindex import sgraph
from fgindex.automorphism import load_automorphism
from fgindex.cli import analyze, report_dict
from fgindex.config import RunConfig
from fgindex.families import cyclic_family

AUT_DIR = Path(__file__).resolve().parents[1] / "automorphisms"
PINNED = 10**12

# (label, map name or family rank, RunConfig keyword arguments)
INPUTS = (
    [
        ("rank3", "rank3", {}),
        ("rank4", "rank4", {}),
        ("fibonacci", "fibonacci", {}),
        ("rank6_cyclic.k10", "rank6_cyclic", {"max_k": 10}),
        ("rank14_cyclic.k10", "rank14_cyclic", {"max_k": 10}),
        ("rank4.budget1e4", "rank4", {"budget": 10**4}),
    ]
    + [(f"family{n}", n, {}) for n in range(2, 10)]
    + [
        ("rank6_cyclic.k7.pinned", "rank6_cyclic", {"max_k": 7, "budget": PINNED}),
        ("rank14_cyclic.k5.pinned", "rank14_cyclic", {"max_k": 5, "budget": PINNED}),
        ("rank6_cyclic.k600", "rank6_cyclic", {"max_k": 600}),
        ("rank14_cyclic.k600", "rank14_cyclic", {"max_k": 600}),
    ]
    + [
        (f"{name}.early", name, {"early_exit": True})
        for name in ("rank3", "rank4", "fibonacci")
    ]
)


def load(source):
    """The map of one input: a bundled map's name or a family rank."""
    if isinstance(source, int):
        return cyclic_family(source)
    return load_automorphism(str(AUT_DIR / f"{source}.aut"))


def report_texts(phi, config):
    """(report, result) texts of analysing phi under config: the JSON report
    and the DOT graph, and the same without sweep.budget_used."""
    analysis = analyze(phi, config)
    report = report_dict(analysis)
    dot = sgraph.to_dot(
        phi, analysis.result.singularities, analysis.graph, phi.alphabet
    )
    full = json.dumps(report, indent=2, sort_keys=True) + "\n" + dot
    del report["sweep"]["budget_used"]
    return full, json.dumps(report, indent=2, sort_keys=True) + "\n" + dot


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main():
    for label, source, kwargs in INPUTS:
        texts = report_texts(load(source), RunConfig(**kwargs))
        print(label, *map(digest, texts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
