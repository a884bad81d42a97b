"""fgindex benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh single-threaded
interpreter (``child.py``), one after another: a closed loop with one client.
Passes repeat until ``--seconds`` have gone by, and each metric is the median
over passes.  ``--seed`` sets ``PYTHONHASHSEED`` for the passes; the inputs
are fixed, and every report must come out byte-identical whatever the seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced ones,
and checks that both give byte-identical reports; their difference in wall
time is the tracing overhead.  The last line of standard output is one JSON
object; the full record, with per-level splits of traced passes, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import LAYER_SOURCES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# A run must end within 180 s; stop starting passes well before that.
HARD_LIMIT_S = 165.0
SETUP_SAMPLES = 20

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "levels_full": "count",
    "doubled_index": "count",
    "ok_frac": "fraction",
}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.overhead_frac": "fraction"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    if "letters" in name:
        return "letters"
    return "count"


PER_LAYER_UNITS = {name: layer_unit(name) for name in LAYER_SOURCES}
PER_LAYER_UNITS.update(TRACE_UNITS)


class Deadline(Exception):
    pass


def run_child(workload, trace, env, deadline, setup_only=False):
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--root",
        str(ROOT),
        "--workload",
        workload,
        "--trace",
        str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise Deadline() from exc
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_record(workload, args):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "inputs": [inp.key for inp in WORKLOADS[workload].inputs],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def failures(passes):
    """Inputs that failed, plus any whose report differs between passes."""
    failed = 0
    shas = {}
    for p in passes:
        for rec in p["inputs"]:
            if not rec["ok"]:
                failed += 1
            shas.setdefault(rec["input"], set()).add(rec.get("report_sha256"))
    unstable = sorted(k for k, v in shas.items() if len(v) > 1)
    return failed, unstable


def end_to_end(passes, setups, attempted, failed):
    first = passes[0]["inputs"]
    return {
        "wall_s": median_of(passes, "wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": median_of(passes, "peak_rss_mib"),
        "levels_full": sum(r.get("levels_full", 0) for r in first),
        "doubled_index": sum(r.get("doubled", 0) for r in first),
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(plain, traced):
    values = {}
    for name in LAYER_SOURCES:
        got = [p["layers"][name] for p in traced]
        values[name] = None if None in got else statistics.median(got)
    base = median_of(plain, "wall_s")
    overhead = median_of(traced, "wall_s") - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / base if base else 0.0
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fgindex" / "__init__.py").is_file():
        print(f"error: no fgindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes, extra_setups, errors = [], [], []
    n_inputs = len(WORKLOADS[args.workload].inputs)
    # Untraced and traced passes alternate in a traced run, a pair at a time.
    kinds = (0, 1) if args.trace else (0,)
    try:
        # Start another round only if it is likely to end nearer to the
        # requested time than stopping now would.
        round_s = 0.0
        while not passes or time.monotonic() - start + round_s / 2 < args.seconds:
            t0 = time.monotonic()
            for trace in kinds:
                passes.append(run_child(args.workload, trace, env, deadline))
            round_s = time.monotonic() - t0
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                child = run_child(args.workload, 0, env, deadline, setup_only=True)
                extra_setups.append(child["setup_s"])
    except (Deadline, RuntimeError) as exc:
        errors.append(str(exc) or "pass ran past the time limit")

    attempted = n_inputs * len(passes) + (n_inputs if errors else 0)
    failed, unstable = failures(passes)
    failed += n_inputs if errors else 0
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    setups = [p["setup_s"] for p in plain] + extra_setups
    correct = not failed and not unstable and not errors
    if args.trace and plain and traced:
        values, units = per_layer(plain, traced), PER_LAYER_UNITS
    elif plain and setups:
        values, units = end_to_end(plain, setups, attempted, failed), END_TO_END_UNITS
    else:
        values, units, correct = {}, {}, False

    record = machine_record(args.workload, args)
    record.update(
        elapsed_s=time.monotonic() - start,
        errors=errors,
        unstable_reports=unstable,
        passes=passes,
        setup_samples=setups,
    )
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:36} {shown:>14} {units[name]}")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    for key in unstable:
        print(f"error: report of {key} differs between passes", file=sys.stderr)
    print(f"record: {out_path.relative_to(ROOT)} ({len(passes)} passes)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
