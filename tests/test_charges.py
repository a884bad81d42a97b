"""A run's charges depend on its inputs alone.

The letter budget records which levels of the images and inverse blocks it
has charged; the caches on the map hold words only.  So a second analysis of
one map object reports what a fresh object reports, whatever ran on it
before, and reversing every word of a map moves no charge.
"""

import importlib.util

import pytest
from hypothesis import given, settings

from fgindex.automorphism import validate
from fgindex.config import RunConfig
from fgindex.singularities import find_all

from conftest import ROOT, fresh_map
from strategies import positive_automorphisms, reversed_map

_spec = importlib.util.spec_from_file_location(
    "report_digest", ROOT / "scripts" / "report_digest.py"
)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def _report(phi, config):
    """The report and graph text that report_digest.py digests."""
    return report_digest.report_texts(phi, config)[0]


def _run_at_low_budget(phi, config):
    find_all(phi, RunConfig(max_k=config.max_k, budget=10**4))


def _uncharged_reads(phi, config):
    for a in phi.alphabet.letters():
        phi.letter_image(a, 4)


def _assert_repeat_runs_match(fresh, config):
    """A map object analysed after a run at budget 10^4, after image reads
    charged to no budget, or after a whole report, reports what a fresh
    object reports.  Returns that report."""
    want = _report(fresh(), config)
    for before in (_run_at_low_budget, _uncharged_reads, _report):
        phi = fresh()
        before(phi, config)
        assert _report(phi, config) == want, before.__name__
    return want


BUNDLED = [
    ("rank3", {}),
    ("rank4", {}),
    ("fibonacci", {}),
    ("rank6_cyclic", {"max_k": 10}),
    ("rank14_cyclic", {"max_k": 10}),
]


@pytest.mark.parametrize("name, kwargs", BUNDLED, ids=[name for name, _ in BUNDLED])
def test_repeat_runs_on_one_map_report_alike(name, kwargs):
    want = _assert_repeat_runs_match(lambda: fresh_map(name), RunConfig(**kwargs))
    # Every bundled row here is one that report_digest.py freezes.
    frozen = ROOT / "tests" / "data" / "report_digests.txt"
    digests = dict(line.split()[:2] for line in frozen.read_text("utf-8").splitlines())
    labels = [
        label
        for label, source, listed in report_digest.INPUTS
        if source == name and listed == kwargs
    ]
    assert labels
    for label in labels:
        assert report_digest.digest(want) == digests[label], label


@settings(max_examples=40, deadline=None, derandomize=True)
@given(positive_automorphisms(max_rank=3))
def test_repeat_runs_on_one_drawn_map_report_alike(phi):
    def fresh():
        return validate(phi.alphabet, phi.images, phi.inverse_images)

    _assert_repeat_runs_match(fresh, RunConfig())


def _unsided(result):
    """What a sweep reports that exchanging minus and plus cannot move."""
    return result.doubled, result.complete, result.full_levels, result.budget_used


@pytest.mark.parametrize("name", ["fibonacci", "rank3", "rank4"])
def test_reversal_keeps_the_index_and_the_charges(name):
    # tau phi tau has the same index with the sides exchanged, and its
    # images and inverse blocks are phi's read backwards, so the same length.
    phi = fresh_map(name)
    assert _unsided(find_all(phi, RunConfig())) == _unsided(
        find_all(reversed_map(phi), RunConfig())
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_automorphisms(max_rank=3))
def test_reversal_keeps_the_index_and_the_charges_on_drawn_automorphisms(phi):
    rev = reversed_map(phi)
    for budget in (10**4, 10**6):
        config = RunConfig(budget=budget)
        assert _unsided(find_all(phi, config)) == _unsided(find_all(rev, config))
