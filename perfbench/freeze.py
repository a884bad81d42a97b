"""Write ``expected.json``: the reference outputs the benchmark checks.

Run from the root of a checkout, only when the benchmark's inputs are
redefined, on the commit whose outputs are the reference:

    python3 perfbench/freeze.py

Pinned inputs keep their full frozen report fields; inputs at the default
budget keep only their doubled index, as a floor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from child import import_fgindex
from workloads import EXPECTED_PATH, WORKLOADS, frozen_part


def main():
    fg = import_fgindex(Path(__file__).resolve().parent.parent / "src")
    out = {"pinned": {}, "doubled_floor": {}}
    for workload in WORKLOADS.values():
        for inp in workload.inputs:
            analysis = fg.cli.analyze(inp.build(fg), inp.config(fg))
            text = json.dumps(fg.cli.report_dict(analysis), sort_keys=True)
            report = json.loads(text)
            if inp.pinned:
                out["pinned"][inp.key] = frozen_part(report)
            else:
                out["doubled_floor"][inp.key] = report["fo_index_times_2"]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
