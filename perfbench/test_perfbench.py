"""Checks on the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q

They run the ``stream-join`` workload, which touches every traced layer,
for one pass per kind (about half a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import import_fgindex, layer_metrics  # noqa: E402
from refspeed import SpeedProbe  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD = "stream-join"
SEEDS = (1, 2)


def run_bench(root, workload, seed, trace):
    return subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for trace in (0, 1):
        for seed in SEEDS:
            proc = run_bench(ROOT, WORKLOAD, seed, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record_path = HERE / "results" / f"{WORKLOAD}.seed{seed}.trace{trace}.json"
            with open(record_path, encoding="utf-8") as fh:
                out[trace, seed] = (result, json.load(fh))
    return out


def test_results_are_correct(runs):
    for result, record in runs.values():
        assert result["correct"] is True, record["errors"]
        assert result["failed"] == 0
        assert result["attempted"] >= len(WORKLOADS[WORKLOAD].inputs)


def test_traced_reports_are_byte_identical_to_untraced(runs):
    shas = {}
    kinds = set()
    for trace in (0, 1):
        for seed in SEEDS:
            for p in runs[trace, seed][1]["passes"]:
                kinds.add(p["trace"])
                for rec in p["inputs"]:
                    shas.setdefault(rec["input"], set()).add(rec["report_sha256"])
    assert kinds == {0, 1}
    assert len(shas) == len(WORKLOADS[WORKLOAD].inputs)
    assert all(len(v) == 1 for v in shas.values()), shas


def test_every_named_metric_is_emitted_with_its_unit(runs, spec):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for seed in SEEDS:
            metrics = runs[trace, seed][0]["metrics"]
            assert list(metrics) == list(want)
            for name, m in metrics.items():
                assert m["unit"] == want[name], name
                assert isinstance(m["value"], (int, float)), name
                assert not isinstance(m["value"], bool), name


def test_end_to_end_metrics_are_never_zero(runs):
    for seed in SEEDS:
        for name, m in runs[0, seed][0]["metrics"].items():
            assert m["value"] > 0, name


def test_deterministic_counts_repeat(runs):
    def values(trace, name):
        return {runs[trace, seed][0]["metrics"][name]["value"] for seed in SEEDS}

    assert values(0, "levels_full") == {129}
    assert len(values(0, "doubled_index")) == 1
    assert len(values(1, "config.letters_charged")) == 1
    for trace, seed in runs:
        passes = runs[trace, seed][1]["passes"]
        traced = [p["layers"]["config.letters_charged"] for p in passes if p["trace"]]
        assert len(set(traced)) <= 1


def test_workloads_match_the_benchmark_file(spec):
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_run_fails_without_program_sources(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("results", "__pycache__"),
        )
    proc = run_bench(tmp_path, WORKLOAD, 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_name_is_reported_missing_and_patches_are_undone(monkeypatch):
    fg = import_fgindex(ROOT / "src")
    gamma = sys.modules["fgindex.gamma"]
    singularities = sys.modules["fgindex.singularities"]
    before = (gamma.all_matches, singularities.all_matches, singularities.find_all)
    spans = tuple(
        (s, m, c, "no_such_function" if s == "gamma_bound" else a)
        for s, m, c, a in tracer_mod.SPANS
    )
    monkeypatch.setattr(tracer_mod, "SPANS", spans)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert singularities.all_matches is not before[1]
        tr.begin_input("cyclic_4")
        analysis = fg.cli.analyze(
            fg.families.cyclic_family(4), fg.config.RunConfig()
        )
    finally:
        tr.uninstall()
    assert (gamma.all_matches, singularities.all_matches, singularities.find_all) == before
    values = layer_metrics(tr, [], 1.0)
    assert values["gamma.gamma_bound_s"] is None
    assert values["gamma.all_matches_self_s"] is None
    assert values["singularities.sweep_s"] > 0
    assert values["config.letters_charged"] == analysis.result.budget_used
    modes = {r["mode"] for r in tr.level_records()}
    assert modes == {"full"}


def test_probe_clock_leaves_out_probe_time():
    with SpeedProbe() as probe:
        start, clock_start = time.perf_counter(), probe.clock()
        while time.perf_counter() - start < 0.3:
            pass
    elapsed, on_clock = time.perf_counter() - start, probe.clock() - clock_start
    assert len(probe.samples) >= 4
    assert on_clock < elapsed
    assert abs(elapsed - on_clock - probe.spent) < probe.samples[0] + 0.01
    assert probe.scale() > 0
