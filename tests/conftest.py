import numpy as np
import oracles
import pytest

from hfmap.group import HeckeParams, cached_group
from hfmap.maps import MapStructure, build_algebraic_map, build_coordinate_graph
from ring import ProjMatrix, RingElem


def as_matrix(row, m=None):
    """The ring-oracle ProjMatrix of a component row, or of a library row
    (kind, a, b, c, d) over the radicand m."""
    if m is not None:
        row = oracles.eight_slots(row, m)
    c = [int(v) for v in row]
    return ProjMatrix(
        RingElem(c[0], c[1]), RingElem(c[2], c[3]), RingElem(c[4], c[5]), RingElem(c[6], c[7])
    )


def same_turn_cube():
    """A mutant of ``maps.cube_map``: the 3-cube's graph, every vertex turning
    its bits the same way round, which is a torus map (F = 4, genus 1)."""
    v, j = np.divmod(np.arange(24), 3)
    return MapStructure(sigma=3 * v + (j + 1) % 3, alpha=3 * (v ^ (1 << j)) + j)


@pytest.fixture(scope="session")
def group45():
    return cached_group(4, 5)


@pytest.fixture(scope="session")
def group43():
    return cached_group(4, 3)


@pytest.fixture(scope="session")
def group35():
    return cached_group(3, 5)


@pytest.fixture(scope="session")
def map45(group45):
    return build_algebraic_map(group45)


@pytest.fixture(scope="session")
def map43(group43):
    return build_algebraic_map(group43)


@pytest.fixture(scope="session")
def map35(group35):
    return build_algebraic_map(group35)


@pytest.fixture(scope="session")
def graph45():
    return build_coordinate_graph(HeckeParams(4, 5))


@pytest.fixture(scope="session")
def graph43():
    return build_coordinate_graph(HeckeParams(4, 3))


@pytest.fixture(scope="session")
def graph35():
    return build_coordinate_graph(HeckeParams(3, 5))
