import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bstar import complexes, linalg, properties
from bstar.constructions import (cross_polytope, rp2_6, simplex,
                                 simplex_boundary, torus7)


@pytest.fixture(scope="session")
def octahedron():
    return cross_polytope(3)


@pytest.fixture(scope="session")
def torus():
    return torus7()


@pytest.fixture(scope="session")
def projective_plane():
    return rp2_6()


@pytest.fixture(scope="session")
def triangle():
    return simplex(2)


@pytest.fixture(scope="session")
def sphere2():
    return simplex_boundary(3)


GUARDS = ((complexes, "_max_faces"), (properties, "_max_subsets"), (linalg, "_max_cells"))


@pytest.fixture(autouse=True)
def guards_left_as_found():
    """Fail a test that leaves a guard global other than it found it: a
    leaked guard changes what every later test decides."""
    before = [getattr(module, name) for module, name in GUARDS]
    yield
    after = [getattr(module, name) for module, name in GUARDS]
    assert after == before, f"guards {[name for _, name in GUARDS]} changed from {before} to {after}"
