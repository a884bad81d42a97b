import io
import json
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgindex.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TRUNCATED,
    _level_ranges,
    analyze,
    index_fraction,
    main,
    report_dict,
)
from fgindex.automorphism import load_automorphism
from fgindex.config import RunConfig
from fgindex.families import cyclic_family
from fgindex.prefix_suffix import SymbolicPoint
from fgindex.sgraph import to_dot

from conftest import ROOT, aut_path
from strategies import positive_automorphisms

RANK3 = str(aut_path("rank3"))
RANK4 = str(aut_path("rank4"))
RANK6 = str(aut_path("rank6_cyclic"))
FIB = str(aut_path("fibonacci"))


def test_index_fraction_formatting():
    assert index_fraction(0) == "0"
    assert index_fraction(2) == "1"
    assert index_fraction(4) == "2"
    assert index_fraction(9) == "9/2"
    assert index_fraction(15) == "15/2"


# -- check ---------------------------------------------------------------------


def test_check_prints_the_substitution(capsys):
    assert main(["check", FIB]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "rank: 2",
        "letters: a b",
        "  a -> a b",
        "  b -> a",
        "positive: yes",
        "inverse: checks out",
        "primitive: yes",
    ]


def test_check_missing_file(capsys):
    assert main(["check", "no_such_file.aut"]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error:")


def test_check_rejects_malformed_text(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("letters: a b\nmap a = a b\nmap a = b\n")
    assert main(["check", str(bad)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_check_rejects_wrong_inverse(tmp_path, capsys):
    bad = tmp_path / "noninv.aut"
    bad.write_text(
        "letters: a b\nmap a = a b\nmap b = a\ninv a = b\ninv b = a\n"
    )
    assert main(["check", str(bad)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


# -- index ---------------------------------------------------------------------


def test_index_complete_run(capsys):
    assert main(["index", RANK3]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "rank: 3" in lines
    assert "singularities: 3" in lines
    assert "doubled index: 4" in lines
    assert "index: 2" in lines
    assert "complete: yes" in lines
    assert captured.err == ""


def test_index_truncated_run(capsys):
    assert main(["index", RANK6, "--max-k", "10"]) == EXIT_TRUNCATED
    captured = capsys.readouterr()
    assert "doubled index: 9" in captured.out
    assert "index: 9/2" in captured.out
    assert "complete: no" in captured.out
    assert captured.err.strip() == (
        "INCOMPLETE: sweep truncated (reached level 10 of 10; "
        "partial levels: 5-10)"
    )


def test_level_ranges_collapse_consecutive_runs():
    assert _level_ranges([]) == ""
    assert _level_ranges([[7, 7]]) == "7"
    assert _level_ranges([[2, 2], [5, 7], [9, 10]]) == "2, 5-7, 9-10"
    assert _level_ranges([[5, 1200]]) == "5-1200"


def test_index_rejects_bad_budget(capsys):
    assert main(["index", RANK3, "--budget", "17"]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_index_rejects_bad_max_k(capsys):
    assert main(["index", RANK3, "--max-k", "0"]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["index", RANK3, "--max-k", "abc"],
        ["index", RANK3, "--budget", "1e7"],
        ["frobnicate", RANK3],
        ["index"],
        ["index", RANK3, "--no-such-flag"],
        [],
    ],
)
def test_usage_errors_exit_invalid(argv, capsys):
    # Exit 2 is reserved for truncated sweeps.
    assert main(argv) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["index", "--help"])
    assert info.value.code == 0
    assert "--max-k" in capsys.readouterr().out


# The sweep sums image lengths over its labels, and plus-side labels are
# pure negative words; this map's run needs such a sum.
NEGATIVE_LABEL_MAP = """\
letters: a b c d
map a = b
map b = b a c d
map c = c b a c
map d = b a c
inv a = a^-1 d d c^-1
inv b = a
inv c = c d^-1
inv d = d^-1 b
"""

# At --max-k 3 the sweep finds only index 3/2 and reaches no ceiling; the
# default level target 4N - 4 = 12 certifies index 3.
LOW_TARGET_MAP = """\
letters: a b c d
map a = b
map b = c b
map c = a d b
map d = a
inv a = d
inv b = a
inv c = b a^-1
inv d = d^-1 c a^-1
"""


def _write_map(tmp_path, text):
    path = tmp_path / "map.aut"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_index_survives_negative_labels(tmp_path, capsys):
    assert main(["index", _write_map(tmp_path, NEGATIVE_LABEL_MAP)]) == (
        EXIT_TRUNCATED
    )
    assert "index: 5/2" in capsys.readouterr().out.splitlines()


def test_index_low_level_target_is_truncated(tmp_path, capsys):
    path = _write_map(tmp_path, LOW_TARGET_MAP)
    assert main(["index", path, "--max-k", "3"]) == EXIT_TRUNCATED
    captured = capsys.readouterr()
    assert "complete: no" in captured.out.splitlines()
    assert captured.err.strip() == (
        "INCOMPLETE: sweep truncated (reached level 3 of 3; "
        "level target 3 below 4N-4 = 12)"
    )
    assert main(["index", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "index: 3" in lines
    assert "complete: yes" in lines


def _aut_text(phi):
    alphabet = phi.alphabet
    lines = [f"letters: {' '.join(alphabet.names)}"]
    for a in alphabet.letters():
        name = alphabet.format_letter(a)
        lines.append(f"map {name} = {alphabet.format_word(phi.images[a - 1])}")
        lines.append(
            f"inv {name} = {alphabet.format_word(phi.inverse_images[a - 1])}"
        )
    return "\n".join(lines) + "\n"


def _doubled_index(path, budget):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["index", path, "--budget", str(budget)])
    assert code in (EXIT_OK, EXIT_TRUNCATED)
    return int(re.search(r"^doubled index: (\d+)$", out.getvalue(), re.M)[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(positive_automorphisms())
def test_index_never_crashes_on_drawn_maps(tmp_path_factory, phi):
    path = _write_map(tmp_path_factory.mktemp("drawn"), _aut_text(phi))
    assert _doubled_index(path, 10**6) >= _doubled_index(path, 10**5)


@st.composite
def mutated_aut_texts(draw):
    """A bundled .aut text with one to three drawn edits: a line or a token
    dropped or doubled, ^-1 appended to a token, a stray = or # put into a
    line, or a byte order mark in front."""
    name = draw(st.sampled_from(["rank3", "rank4", "fibonacci", "rank6_cyclic"]))
    lines = aut_path(name).read_text("utf-8").splitlines()
    bom = False
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(
            st.sampled_from(
                ["drop line", "double line", "drop token", "double token",
                 "invert token", "stray", "bom"]
            )
        )
        if edit == "bom":
            bom = True
            continue
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "drop line":
            del lines[i]
            continue
        if edit == "double line":
            lines.insert(i, lines[i])
            continue
        if edit == "stray":
            at = draw(st.integers(0, len(lines[i])))
            mark = draw(st.sampled_from(["=", "#"]))
            lines[i] = lines[i][:at] + mark + lines[i][at:]
            continue
        tokens = lines[i].split()
        if not tokens:
            continue
        j = draw(st.integers(0, len(tokens) - 1))
        if edit == "drop token":
            del tokens[j]
        elif edit == "double token":
            tokens.insert(j, tokens[j])
        else:
            tokens[j] += "^-1"
        lines[i] = " ".join(tokens)
    return ("\ufeff" if bom else "") + "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_aut_texts())
def test_check_rejects_every_malformed_text_cleanly(tmp_path_factory, text):
    path = _write_map(tmp_path_factory.mktemp("mutated"), text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", path])
    assert code in (EXIT_OK, EXIT_INVALID)
    if code == EXIT_INVALID:
        assert err.getvalue().startswith("error:")


# -- report --------------------------------------------------------------------


def test_report_prints_json(capsys):
    assert main(["report", RANK4]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 4
    assert doc["fo_index_times_2"] == 6
    assert doc["index"] == "3"
    assert doc["complete"] is True
    assert doc["sweep"]["full_levels"] == [1, 2]
    assert len(doc["singularities"]) == 6
    first = doc["singularities"][0]
    assert first["label"] == {"w": "a", "k": 1}
    assert first["fixing_power"] == 1
    assert [p["kind"] for p in first["points"]] == ["development"] * 2
    assert len(doc["graph"]["finite_edges"]) == 6
    assert doc["components"][0]["basis"] == ["b d a^-1 d^-1 c b^-1 a c^-1"]
    assert len(doc["attracting_reps"]) == 6


def test_report_writes_files_instead_of_stdout(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    dot_path = tmp_path / "out.dot"
    code = main(
        ["report", RANK4, "--json", str(json_path), "--dot", str(dot_path)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(json_path.read_text())
    assert doc["fo_index_times_2"] == 6
    dot = dot_path.read_text()
    assert dot.startswith("digraph singularities {")
    assert 'S0 [label="S0 (a, 1)"];' in dot


def test_report_reruns_are_byte_identical(tmp_path):
    paths = []
    for tag in ("one", "two"):
        json_path = tmp_path / f"{tag}.json"
        dot_path = tmp_path / f"{tag}.dot"
        assert (
            main(
                [
                    "report",
                    RANK4,
                    "--json",
                    str(json_path),
                    "--dot",
                    str(dot_path),
                ]
            )
            == EXIT_OK
        )
        paths.append((json_path.read_bytes(), dot_path.read_bytes()))
    assert paths[0] == paths[1]


def test_report_dict_matches_analysis(rank4_analysis):
    doc = report_dict(rank4_analysis)
    assert doc["fo_index_times_2"] == rank4_analysis.doubled
    assert [s["id"] for s in doc["singularities"]] == list(range(6))
    labels = [s["label"]["w"] for s in doc["singularities"]]
    assert labels == [
        "a",
        "d^-1",
        "a c",
        "d^-1 c^-1",
        "a b d",
        "d^-1 c^-1 a^-1 d^-1 b^-1",
    ]
    dot = to_dot(
        rank4_analysis.phi,
        rank4_analysis.result.singularities,
        rank4_analysis.graph,
        rank4_analysis.phi.alphabet,
    )
    assert dot.count("->") == 12  # 6 finite edges + 6 dashed ends


@pytest.mark.parametrize(
    "source, config",
    [
        ("rank4", RunConfig()),
        ("rank14_cyclic", RunConfig(max_k=10)),
        (6, RunConfig()),
    ],
    ids=["rank4", "rank14_cyclic-k10", "family6"],
)
def test_first_letters_are_read_once_per_point(source, config, monkeypatch):
    reads = []
    real_expand = SymbolicPoint.expand

    def expand(point, length):
        if length == 1:
            reads.append(point)  # held, so no id is reused
        return real_expand(point, length)

    monkeypatch.setattr(SymbolicPoint, "expand", expand)
    if isinstance(source, int):
        phi = cyclic_family(source)
    else:
        phi = load_automorphism(aut_path(source))
    analysis = analyze(phi, config)
    report_dict(analysis)
    counts = Counter(map(id, reads))
    assert set(counts.values()) == {1}
    reported = [p for s in analysis.result.singularities for p in s.points.values()]
    assert {id(p) for p in reported} <= set(counts)


# -- verify --------------------------------------------------------------------

CHECK_NAMES = [
    "loop-census",
    "index-formulas-agree",
    "index-bound",
    "node-germ-identity",
    "component-rank-identity",
    "basis-fixed",
    "labels-pure",
    "classes-disjoint",
    "fixing-powers",
    "development-period-bound",
    "graph-deterministic",
]


def test_verify_passes_on_complete_run(capsys):
    assert main(["verify", RANK3]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [f"PASS {name}" for name in CHECK_NAMES]


def test_verify_truncated_run_still_checks_out(capsys):
    assert main(["verify", RANK6, "--max-k", "10"]) == EXIT_TRUNCATED
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines == [f"PASS {name}" for name in CHECK_NAMES]
    assert "INCOMPLETE" in captured.err


def test_rank_one_runs_every_command(tmp_path, capsys):
    # The identity on one letter has a single loop, blank on both sides, so
    # no class forms and the index is 0 at the ceiling 2(N-1) = 0.
    path = _write_map(tmp_path, "letters: a\nmap a = a\ninv a = a\n")
    assert main(["index", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert "doubled index: 0" in captured.out.splitlines()
    assert "complete: yes" in captured.out.splitlines()
    assert main(["report", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["fo_index_times_2"] == 0 and doc["complete"] is True
    assert main(["verify", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"PASS {name}" for name in CHECK_NAMES]
    assert "Traceback" not in captured.err


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_INVALID, EXIT_TRUNCATED, EXIT_INTERNAL}) == 4


def test_importing_the_cli_skips_dataclasses_typing_and_inspect():
    # Start-up is most of a default run; these modules cost more to import
    # than the sweep of a small map takes.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import fgindex.cli; "
        "print(*sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
