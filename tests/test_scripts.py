"""The scripts under scripts/ run end to end and print one row per input,
and the benchmark's tracer still finds every function it wraps."""

import importlib
import importlib.util
import os
import subprocess
import sys

from conftest import AUT_DIR, ROOT


def run_script(name, *args, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_survey_prints_a_row_per_bundled_example():
    out = run_script("survey.py")
    assert out.returncode == 0, out.stderr
    rows = out.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == sorted(
        path.stem for path in AUT_DIR.glob("*.aut")
    )


def test_family_growth_prints_a_row_per_rank():
    out = run_script("family_growth.py", "--max-n", "3")
    assert out.returncode == 0, out.stderr
    rows = out.stdout.splitlines()
    assert [row.split(":")[0].split() for row in rows] == [
        ["rank", "2"],
        ["rank", "3"],
    ]


def test_forced_levels_prints_a_row_per_level():
    out = run_script("forced_levels.py", "fibonacci", "3")
    assert out.returncode == 0, out.stderr
    header, *rows = [line.split("\t") for line in out.stdout.splitlines()]
    assert header == [
        "level",
        "wall_s",
        "gamma_s",
        "star_s",
        "letters",
        "gamma_letters",
        "doubled",
        "peak_rss_mib",
        "peel_checks",
    ]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(len(row) == len(header) for row in rows)


def _assert_forced_levels_charge_the_frozen_letters(name, top):
    # The deterministic columns of levels 1..top: what a change to how a
    # level is computed may not move.  CI checks every frozen row.
    out = run_script("forced_levels.py", name, str(top))
    assert out.returncode == 0, out.stderr
    got = [line.split("\t") for line in out.stdout.splitlines()]
    # level, letters, gamma_letters, doubled, peel_checks
    columns = [0, 4, 5, 6, 8]
    frozen = (ROOT / "tests" / "data" / f"forced_levels_{name}.tsv").read_text(
        "utf-8"
    )
    assert [[row[i] for i in columns] for row in got] == [
        line.split("\t") for line in frozen.splitlines()[: top + 1]
    ]


def test_forced_levels_charge_the_frozen_letters():
    # rank6_cyclic's deep levels are mostly gamma_bound letters.
    _assert_forced_levels_charge_the_frozen_letters("rank6_cyclic", 10)


def test_forced_rank14_cyclic_levels_charge_the_frozen_letters():
    # rank14_cyclic charges few of its letters in gamma_bound, so its rows
    # freeze the rest of a level: the streams, the peel search and the join.
    _assert_forced_levels_charge_the_frozen_letters("rank14_cyclic", 5)


def test_forced_rank4_levels_charge_the_frozen_letters():
    # rank4's level 5 joins 3297 streams over its two sides, the widest join
    # of the frozen tables.  Its table has five rows, and this checks them
    # all.
    _assert_forced_levels_charge_the_frozen_letters("rank4", 5)


def test_forced_rank3_levels_charge_the_frozen_letters():
    # rank3's level 6 is where the loop census and the affix grouping are the
    # largest share of a level: 1,103 loops with 1.44M affix letters.
    _assert_forced_levels_charge_the_frozen_letters("rank3", 6)


def test_report_digests_do_not_depend_on_hash_order():
    # The seed-0 run must also match the frozen digests, both the report and
    # the result column: a change that alters a report on purpose
    # regenerates the file and names the rows it changed, and a change to
    # the charges alone moves only the report column.
    runs = [run_script("report_digest.py", hash_seed=seed) for seed in (0, 1)]
    for out in runs:
        assert out.returncode == 0, out.stderr
    rows = runs[0].stdout.splitlines()
    assert len(rows) == 21
    assert all(len(row.split()) == 3 for row in rows)
    assert len({row.split()[0] for row in rows}) == 21
    assert runs[1].stdout == runs[0].stdout
    frozen = (ROOT / "tests" / "data" / "report_digests.txt").read_text("utf-8")
    assert runs[0].stdout == frozen


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_wraps_exists():
    # A wrapped name that is gone makes the benchmark report its metrics as
    # null, so a rename must come with a change to the tracer.
    tracer = _load_tracer()
    entries = [*tracer.SPANS, tracer.COUNTED, ("budget", *tracer.BUDGET_HOOK)]
    for span, mod, cls, attr in entries:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        if cls is None:
            fn = getattr(owner, attr, None)
        else:
            fn = vars(getattr(owner, cls, object)).get(attr)
        assert callable(fn), (span, mod, cls, attr)
        if span in tracer.LEVEL_SPANS:
            # Level records are keyed on the level and count the registry.
            assert fn.__code__.co_varnames[:3] == ("phi", "k", "registry"), span
