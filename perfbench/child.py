"""One pass of a workload in a fresh interpreter; prints one JSON line.

The pass imports ``fgindex`` from ``<root>/src`` and loads every input (the
set-up), then for each input in turn calls ``cli.analyze`` and
``cli.report_dict`` plus ``json.dumps``, the work a user of ``fgindex
report`` waits for.  Outputs are checked after the clock stops.  With
``--trace 1`` the calls into each module are wrapped by ``tracer.Tracer``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from refspeed import PROBE_SECONDS, SpeedProbe, kernel
from tracer import Tracer
from workloads import WORKLOADS, check_report, load_expected

SETUP_PROBES = 3

# Per-level metrics named in the benchmark: the deepest pinned levels.
NAMED_LEVELS = (
    ("rank6_cyclic", 6),
    ("rank6_cyclic", 7),
    ("rank14_cyclic", 4),
    ("rank14_cyclic", 5),
)

# Layer metric -> spans it is computed from (missing when any is missing).
LAYER_SOURCES = {
    "gamma.gamma_bound_s": ("gamma_bound",),
    "gamma.gamma_bound_letters": ("gamma_bound", "budget"),
    "gamma.all_matches_self_s": ("all_matches", "gamma_bound"),
    "gamma.stream_letters": ("all_matches", "gamma_bound", "budget"),
    "gamma.star_index_s": ("star_index",),
    "gamma.window_equal_calls": ("window_equal",),
    "gamma.window_equal_hits": ("window_equal",),
    "gamma.window_equal_hit_ratio": ("window_equal",),
    "gamma.affix_pairs": ("all_matches",),
    "gamma.matches": ("all_matches",),
    "singularities.sweep_s": ("sweep",),
    "singularities.full_level_s": ("full_level",),
    "singularities.eps_level_s": ("eps_level",),
    "singularities.gate_s": ("sweep", "full_level", "eps_level", "counts"),
    "singularities.merge_s": ("merge",),
    "singularities.merge_calls": ("merge",),
    "singularities.levels_eps": (),
    "singularities.classes_final": (),
    "prefix_suffix.loops_s": ("loops",),
    "prefix_suffix.loops_count": ("loops",),
    "automorphism.load_s": (),
    "automorphism.counts_s": ("counts",),
    "sgraph.build_graph_s": ("build_graph",),
    "sgraph.fo_index_s": ("fo_index",),
    "sgraph.components_s": ("components",),
    "sgraph.attracting_reps_s": ("attracting_reps",),
    "cli.report_s": (),
    "config.letters_charged": ("sweep", "budget"),
}
for _label, _k in NAMED_LEVELS:
    LAYER_SOURCES[f"{_label}.L{_k}.wall_s"] = ("full_level", "eps_level")
    LAYER_SOURCES[f"{_label}.L{_k}.letters"] = ("full_level", "eps_level", "budget")


def import_fgindex(src):
    """Import the package from ``src`` only, never from an installed copy."""
    sys.path.insert(0, str(src))
    import fgindex.cli
    import fgindex.config
    import fgindex.families

    if Path(fgindex.__file__).resolve().parent != (src / "fgindex").resolve():
        raise SystemExit(f"fgindex imported from {fgindex.__file__}, not {src}")
    return types.SimpleNamespace(
        automorphism=sys.modules["fgindex.automorphism"],
        cli=fgindex.cli,
        config=fgindex.config,
        families=fgindex.families,
    )


def layer_metrics(tracer, records, scale):
    """Per-layer values of one traced pass; times in reference seconds."""
    s, letters, counts = tracer.seconds, tracer.letters, tracer.counts
    calls = counts["window_equal_calls"]
    values = {
        "gamma.gamma_bound_s": s["gamma_bound"],
        "gamma.gamma_bound_letters": letters["gamma_bound"],
        "gamma.all_matches_self_s": s["all_matches_self"],
        "gamma.stream_letters": letters["all_matches_self"],
        "gamma.star_index_s": s["star_index"],
        "gamma.window_equal_calls": calls,
        "gamma.window_equal_hits": counts["window_equal_hits"],
        "gamma.window_equal_hit_ratio": (
            counts["window_equal_hits"] / calls if calls else 0.0
        ),
        "gamma.affix_pairs": counts["affix_pairs"],
        "gamma.matches": counts["matches"],
        "singularities.sweep_s": s["sweep"],
        "singularities.full_level_s": s["full_level"],
        "singularities.eps_level_s": s["eps_level"],
        "singularities.gate_s": s["gate"],
        "singularities.merge_s": s["merge"],
        "singularities.merge_calls": tracer.calls["merge"],
        "singularities.levels_eps": sum(r.get("levels_eps", 0) for r in records),
        "singularities.classes_final": sum(r.get("classes", 0) for r in records),
        "prefix_suffix.loops_s": s["loops"],
        "prefix_suffix.loops_count": counts["loops"],
        "automorphism.load_s": sum(r["load_s"] for r in records),
        "automorphism.counts_s": s["counts"],
        "sgraph.build_graph_s": s["build_graph"],
        "sgraph.fo_index_s": s["fo_index"],
        "sgraph.components_s": s["components"],
        "sgraph.attracting_reps_s": s["attracting_reps"],
        "cli.report_s": sum(r["report_s"] for r in records),
        "config.letters_charged": letters["charged"],
    }
    levels = {(r["input"], r["level"]): r for r in tracer.level_records()}
    for label, k in NAMED_LEVELS:
        rec = levels.get((label, k))
        values[f"{label}.L{k}.wall_s"] = rec["wall_s"] if rec else 0.0
        values[f"{label}.L{k}.letters"] = rec["letters"] if rec else 0
    for name, sources in LAYER_SOURCES.items():
        if tracer.missing.intersection(sources):
            values[name] = None
        elif name.endswith("_s"):
            values[name] *= scale
    return values


def load_inputs(fg, inputs):
    """The set-up: parse and validate every input, timing each."""
    loaded = []
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            phi = inp.build(fg)
        except Exception:  # noqa: BLE001 - a failed input is counted, not fatal
            phi, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        loaded.append((inp, phi, time.perf_counter() - t0, error))
    return loaded


def run_pass(fg, loaded, tracer, clock):
    """Analyze and report every loaded input in turn; times are on ``clock``."""
    expected = load_expected()
    records = []
    for i, (inp, phi, load_s, error) in enumerate(loaded):
        loaded[i] = None
        rec = {"input": inp.key, "label": inp.label, "load_s": load_s}
        records.append(rec)
        if error is not None:
            rec.update(ok=False, error=error, analyze_s=0.0, report_s=0.0)
            continue
        if tracer is not None:
            tracer.begin_input(inp.label)
        try:
            t0 = clock()
            analysis = fg.cli.analyze(phi, inp.config(fg))
            t1 = clock()
            text = json.dumps(fg.cli.report_dict(analysis), indent=2, sort_keys=True)
            t2 = clock()
        except Exception:  # noqa: BLE001 - a failed input is counted, not fatal
            rec.update(
                ok=False, error=traceback.format_exc(limit=3), analyze_s=0.0, report_s=0.0
            )
            continue
        result = analysis.result
        rec.update(
            analyze_s=t1 - t0,
            report_s=t2 - t1,
            levels_full=len(result.full_levels),
            levels_eps=len(result.partial_levels),
            classes=len(result.singularities),
        )
        del analysis, result, phi
        report = json.loads(text)
        error = check_report(inp, report, expected)
        rec.update(
            ok=error is None,
            error=error,
            report_sha256=hashlib.sha256(text.encode()).hexdigest(),
            doubled=report["fo_index_times_2"],
        )
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    inputs = WORKLOADS[args.workload].inputs

    # The set-up lasts tens of milliseconds, too short to probe during, so
    # probes just before and just after it give its speed.
    probes = [kernel() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    fg = import_fgindex(args.root / "src")
    import_s = time.perf_counter() - t0
    loaded = load_inputs(fg, inputs)
    raw_setup = import_s + sum(load_s for _, _, load_s, _ in loaded)
    probes += [kernel() for _ in range(SETUP_PROBES)]
    setup_s = raw_setup * PROBE_SECONDS / statistics.fmean(probes)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup}))
        return 0

    probe = SpeedProbe()
    tracer = Tracer(clock=probe.clock) if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        with probe:
            records = run_pass(fg, loaded, tracer, probe.clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    scale = probe.scale()
    raw_wall = sum(r["analyze_s"] + r["report_s"] for r in records)
    out = {
        "trace": args.trace,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "scale": scale,
        "probes": len(probe.samples),
        "wall_s": raw_wall * scale,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": records,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, records, scale)
        out["missing_spans"] = sorted(tracer.missing)
        out["levels"] = tracer.level_records()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
