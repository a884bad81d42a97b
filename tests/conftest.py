import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from fgindex import load_automorphism
from fgindex.cli import analyze
from fgindex.config import RunConfig
from fgindex.families import cyclic_family

ROOT = pathlib.Path(__file__).resolve().parent.parent
AUT_DIR = ROOT / "automorphisms"


def aut_path(name):
    return AUT_DIR / f"{name}.aut"


def fresh_map(name):
    """A new copy of a bundled map, of cyclic_family(n) as "family<n>", or
    of family129swap: cyclic_family(129) with a1 and a128 exchanged, so that
    phi(a0) = a0 a128 and a letter's two-byte code starts with a high digit
    that is also a letter's low digit."""
    from strategies import relabelled

    if name == "family129swap":
        perm = [1, 129] + list(range(3, 129)) + [2]
        return relabelled(cyclic_family(129), perm)
    if name.startswith("family"):
        return cyclic_family(int(name[len("family"):]))
    return load_automorphism(aut_path(name))


@pytest.fixture(scope="session")
def rank3():
    return load_automorphism(aut_path("rank3"))


@pytest.fixture(scope="session")
def rank4():
    return load_automorphism(aut_path("rank4"))


@pytest.fixture(scope="session")
def fibonacci():
    return load_automorphism(aut_path("fibonacci"))


@pytest.fixture(scope="session")
def rank6():
    return load_automorphism(aut_path("rank6_cyclic"))


@pytest.fixture(scope="session")
def rank14():
    return load_automorphism(aut_path("rank14_cyclic"))


@pytest.fixture(scope="session")
def rank3_analysis(rank3):
    return analyze(rank3, RunConfig())


@pytest.fixture(scope="session")
def rank4_analysis(rank4):
    return analyze(rank4, RunConfig())


@pytest.fixture(scope="session")
def fibonacci_analysis(fibonacci):
    return analyze(fibonacci, RunConfig())


@pytest.fixture(scope="session")
def rank6_analysis(rank6):
    return analyze(rank6, RunConfig(max_k=10))


@pytest.fixture(scope="session")
def rank14_analysis(rank14):
    return analyze(rank14, RunConfig(max_k=10))


@pytest.fixture(scope="session")
def family_analyses():
    out = {}
    for n in (2, 3, 4):
        phi = cyclic_family(n)
        out[n] = (phi, analyze(phi, RunConfig()))
    return out
