"""Workloads of the fgindex benchmark and the checks on their outputs.

Each workload loads one layer of the level sweep (``find_all``) and leaves
the others nearly idle, so that a change to one layer moves its own workload
and leaves the other two where they were:

- ``gamma-deep``: ``gamma_bound`` takes almost all of the sweep;
- ``stream-join``: the ``Stream`` rolling hashes, ``_peelable`` and the hash
  join in ``all_matches`` dominate;
- ``gated-deep``: the level gate (``_level_estimate`` and
  ``_inverse_length_bounds``) dominates, and no level past the fourth runs
  in full.

A pinned input runs with a budget so large that the gate (``budget // 16``)
admits every level up to ``max_k``, so its work is fixed by ``max_k`` alone
even if the gating changes.  Its report is checked field by field against
``expected.json``.  An input at the default budget is checked only for a
doubled index between the frozen value and the ``2(N-1)`` ceiling, since a
better gate may run more levels in full and find more.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUT_DIR = HERE / "inputs"
EXPECTED_PATH = HERE / "expected.json"

PINNED_BUDGET = 10**12

# Report fields frozen for pinned inputs.  ``complete`` and the ``sweep``
# bookkeeping are left out on purpose: the seed marks capped runs complete,
# and a fix for that, or new per-level fields, is not an output failure.
FROZEN_FIELDS = (
    "fo_index_times_2",
    "singularities",
    "graph",
    "components",
    "attracting_reps",
)


@dataclasses.dataclass(frozen=True)
class Input:
    """One analysis: a bundled file or a family member, with its caps."""

    label: str
    max_k: int | None = None
    pinned: bool = False
    family_n: int | None = None

    @property
    def key(self):
        """Identity in ``expected.json``: the label plus what sets its work."""
        if self.pinned:
            return f"{self.label}@k{self.max_k}"
        if self.max_k is not None:
            return f"{self.label}@k{self.max_k}-default"
        return f"{self.label}@default"

    def build(self, fg):
        """Parse and validate the map; this is the set-up every CLI run pays."""
        if self.family_n is not None:
            return fg.families.cyclic_family(self.family_n)
        return fg.automorphism.load_automorphism(
            str(INPUT_DIR / f"{self.label}.aut")
        )

    def config(self, fg):
        budget = PINNED_BUDGET if self.pinned else fg.config.DEFAULT_BUDGET
        return fg.config.RunConfig(max_k=self.max_k, budget=budget)


def pinned(label, max_k):
    return Input(label, max_k=max_k, pinned=True)


def family(n):
    return Input(f"cyclic_{n}", family_n=n)


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    inputs: tuple


WORKLOADS = {
    "gamma-deep": Workload(
        why=(
            "rank6_cyclic pinned at 7 full levels: gamma_bound is ~98% of the "
            "sweep and streams under 2%"
        ),
        inputs=(pinned("rank6_cyclic", 7),),
    ),
    "stream-join": Workload(
        why=(
            "cyclic_family(2..9) at defaults, then rank14_cyclic pinned at 5: "
            "Stream hashing, _peelable and the join dominate; gamma_bound 3-8%"
        ),
        inputs=tuple(family(n) for n in range(2, 10))
        + (pinned("rank14_cyclic", 5),),
    ),
    "gated-deep": Workload(
        why=(
            "rank14_cyclic and rank6_cyclic at max_k=600, default budget: the "
            "level gate's quadratic estimate dominates; few full levels"
        ),
        inputs=(
            Input("rank14_cyclic", max_k=600),
            Input("rank6_cyclic", max_k=600),
        ),
    ),
}


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def frozen_part(report):
    return {name: report[name] for name in FROZEN_FIELDS}


def check_report(inp, report, expected):
    """None when the report is right, else a one-line reason."""
    doubled = report["fo_index_times_2"]
    if inp.pinned:
        want = expected["pinned"].get(inp.key)
        if want is None:
            return f"no frozen report for {inp.key}"
        got = frozen_part(report)
        wrong = [name for name in FROZEN_FIELDS if got[name] != want[name]]
        if wrong:
            return f"differs from the frozen report in {', '.join(wrong)}"
        return None
    floor = expected["doubled_floor"].get(inp.key)
    if floor is None:
        return f"no frozen doubled index for {inp.key}"
    ceiling = 2 * (report["rank"] - 1)
    if not floor <= doubled <= ceiling:
        return f"doubled index {doubled} outside [{floor}, {ceiling}]"
    return None
