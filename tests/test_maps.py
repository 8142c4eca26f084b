import json
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from conftest import same_turn_cube

from hfmap import coords, kernels, maps, polygon
from hfmap.cli import main
from hfmap.group import (
    FiniteHeckeGroup,
    HeckeParams,
    cached_group,
    enumerate_group,
    s5_permutation_group,
)
from hfmap.maps import (
    MapStructure,
    build_algebraic_map,
    build_coordinate_graph,
    canonical_form,
    correspondence_check,
    cube_map,
    invariants_json,
    is_isomorphic,
    permutation_model_map,
    projection_certificate,
)


@pytest.mark.parametrize(
    "qn,expected",
    [
        ((4, 5), (120, 24, 60, 30, 4, 5, 4)),
        ((4, 3), (24, 8, 12, 6, 0, 3, 4)),
        ((3, 5), (60, 12, 30, 20, 0, 5, 3)),
    ],
)
def test_algebraic_map_invariants(qn, expected):
    amap = build_algebraic_map(cached_group(*qn))
    inv = amap.invariants()
    got = (inv.darts, inv.vertices, inv.edges, inv.faces, inv.genus,
           inv.vertex_valency, inv.face_size)
    assert got == expected
    assert oracles.is_connected(amap)


def test_orbit_lengths_are_uniform(map45):
    p = HeckeParams(4, 5)
    assert all(len(o) == p.n for o in oracles.orbits(map45.sigma))
    assert all(len(o) == 2 for o in oracles.orbits(map45.alpha))
    assert all(len(o) == p.q for o in oracles.orbits(map45.phi))


def test_alpha_is_fixed_point_free_involution(map45):
    d = np.arange(map45.darts)
    assert np.array_equal(map45.alpha[map45.alpha], d)
    assert not np.any(map45.alpha == d)


def test_map_structure_rejects_bad_alpha():
    sigma = np.array([1, 0], dtype=np.int64)
    with pytest.raises(ValueError):
        MapStructure(sigma=sigma, alpha=np.array([0, 1], dtype=np.int64))


def test_a_face_longer_than_q_is_refused():
    """The (4, 5) group's faces have 4 darts; read as a group of q = 3, the
    identity's face does not close within q steps, and the map refuses it
    rather than counting faces of q darts."""
    group = cached_group(4, 5)
    wrong = FiniteHeckeGroup(params=HeckeParams(3, 5), rows=group.rows, alpha=group.alpha)
    with pytest.raises(ValueError, match="R has no order dividing 3 mod 5"):
        build_algebraic_map(wrong)


@pytest.mark.parametrize(
    "qn,ve",
    [((4, 5), (24, 60)), ((4, 3), (8, 12)), ((3, 5), (12, 30))],
)
def test_coordinate_graph_counts(qn, ve):
    graph = build_coordinate_graph(HeckeParams(*qn))
    assert (len(graph.nodes), len(graph.edges)) == ve


def test_coordinate_graph_degrees(graph45, graph43, graph35):
    assert set(oracles.degrees(graph45)) == {5}
    assert set(oracles.degrees(graph43)) == {3}
    assert set(oracles.degrees(graph35)) == {5}
    assert graph45.is_bipartite_by_kind()
    assert graph43.is_bipartite_by_kind()


def _swap_alpha_pairs(amap, a, b):
    """amap with the edges {a, alpha(a)} and {b, alpha(b)} rewired to
    {a, b} and {alpha(a), alpha(b)}."""
    alpha = amap.alpha.copy()
    ea, eb = alpha[a], alpha[b]
    alpha[[a, b, ea, eb]] = b, a, eb, ea
    return MapStructure(sigma=amap.sigma, alpha=alpha)


def test_cube_recognition(map43):
    """The (4, 3) map is the cube as a rotation system, and the check tells
    the cube from maps of its size that differ only in their turns or in
    two edges."""
    cube = cube_map()
    inv = cube.invariants()
    assert (inv.darts, inv.vertices, inv.edges, inv.faces, inv.genus) == (24, 8, 12, 6, 0)
    assert is_isomorphic(cube, map43) and is_isomorphic(map43, cube)
    assert is_isomorphic(cube, _relabel(cube, np.random.default_rng(3).permutation(24)))
    torus = same_turn_cube()
    assert (torus.invariants().faces, torus.invariants().genus) == (4, 1)
    assert np.array_equal(torus.alpha, cube.alpha)
    assert not is_isomorphic(cube, torus)
    swapped = _swap_alpha_pairs(map43, 0, 3)
    assert swapped.darts == 24 and oracles.is_connected(swapped)
    assert not is_isomorphic(cube, swapped)


def test_a_row_with_one_first_column_entry_negated_is_caught():
    """Fact (a) takes a row's first column (kind, a, c) as its block head's
    or the negative of both entries.  Element 6 of (4, 5) has 2a and 2c
    nonzero mod 5, so (a, -c) is neither, and only fact (a) sees it: the
    cusps are read off the heads alone."""
    p = HeckeParams(4, 5)
    group = cached_group(4, 5)
    rows = group.rows.copy()
    kind, a, c = (int(v) for v in rows[6, [0, 1, 3]])
    assert 6 % p.n and kind == 0 and 2 * a % p.n and 2 * c % p.n
    rows[6, 3] = -c % p.n
    got = projection_certificate(SimpleNamespace(params=p, rows=rows), build_algebraic_map(group))
    assert got.ok is False
    assert got.problems == ["elements whose first column is not their block head's: 1, the first 6"]


def test_alpha_checks_and_fact_a_run_by_block(monkeypatch):
    """With blocks of 4 darts, and of one coordinate of (4, 5), each check
    reports what it reports on the whole array: an alpha that is no
    involution in a later block than a fixed dart fails as no involution,
    and fact (a) counts its elements over every block and names the
    first."""
    monkeypatch.setattr(kernels, "CHUNK_DARTS", 4)
    pairs = np.arange(12) ^ 1
    sigma = np.arange(12)
    alpha = pairs.copy()
    alpha[[0, 1]] = [0, 1]
    alpha[9] = 10
    with pytest.raises(ValueError, match="^alpha is not an involution$"):
        MapStructure(sigma=sigma, alpha=alpha)
    alpha = pairs.copy()
    alpha[[10, 11]] = [10, 11]
    with pytest.raises(ValueError, match="^alpha has fixed darts$"):
        MapStructure(sigma=sigma, alpha=alpha)

    p = HeckeParams(4, 5)
    group = cached_group(4, 5)
    amap = build_algebraic_map(group)
    rows = group.rows.copy()
    kind, a, c = (rows[:, j].astype(np.int64) for j in (0, 1, 3))
    bad = np.flatnonzero((np.arange(group.order) % p.n > 0) & (kind == 0)
                         & (2 * a % p.n > 0) & (2 * c % p.n > 0))
    bad = bad[np.unique(bad // p.n, return_index=True)[1]][:3]
    assert len(set(bad // p.n)) == 3
    rows[bad, 3] = -c[bad] % p.n
    got = projection_certificate(SimpleNamespace(params=p, rows=rows), amap)
    assert got.problems == [
        f"elements whose first column is not their block head's: 3, the first {bad[0]}"
    ]


@pytest.mark.parametrize("qn", [(4, 3), (4, 5), (3, 5), (6, 5), (4, 7)])
def test_correspondence(qn):
    group = cached_group(*qn)
    report = correspondence_check(
        group, build_algebraic_map(group), build_coordinate_graph(HeckeParams(*qn))
    )
    assert report.ok, report.problems
    assert report.vertex_bijection and report.edges_matched


def _relabel(amap, perm):
    inv = np.argsort(perm)
    return MapStructure(sigma=perm[amap.sigma[inv]], alpha=perm[amap.alpha[inv]])


def test_isomorphic_to_relabeled_copy(map43):
    rng = np.random.default_rng(42)
    copy = _relabel(map43, rng.permutation(map43.darts))
    assert is_isomorphic(map43, copy)


def test_canonical_form_root_invariance(map43):
    # regular maps are dart-transitive: every root yields the same code
    codes = {canonical_form(map43, r) for r in range(map43.darts)}
    assert len(codes) == 1


def test_permutation_model(map45):
    pm = permutation_model_map(s5_permutation_group())
    inv = pm.invariants()
    assert (inv.darts, inv.vertices, inv.edges, inv.faces, inv.genus) == (
        120, 24, 60, 30, 4,
    )
    assert inv.face_size == 4
    assert is_isomorphic(pm, map45)


def test_non_isomorphic_maps(map43, map35, map45):
    assert not is_isomorphic(map43, map35)
    # Equal dart counts: the rooted forms themselves must differ.
    map65 = build_algebraic_map(cached_group(6, 5))
    assert map45.darts == map65.darts == 120
    assert not is_isomorphic(map65, map45)


def test_automorphism_count_equals_group_order(map45, map43):
    assert oracles.automorphism_count(map45) == 120
    assert oracles.automorphism_count(map43) == 24


def test_invariants_json_exact(map45):
    p = HeckeParams(4, 5)
    payload = json.loads(invariants_json(p, map45.invariants(), 120))
    assert payload == {
        "q": 4,
        "n": 5,
        "darts": 120,
        "vertices": 24,
        "edges": 60,
        "faces": 30,
        "genus": 4,
        "group_order": 120,
    }
    assert list(payload) == [
        "q", "n", "darts", "vertices", "edges", "faces", "genus", "group_order",
    ]


def test_algebraic_map_labels_no_orbit(monkeypatch):
    # One sweep problem, as the benchmark runs it: the group's map labels
    # no orbit, although three calls use a map of the group; sigma is a
    # block rotation, alpha's edges are pairs and every face has ord(R)
    # darts.  The coset domain's boundary polygon is a map of its own on
    # the 2N + 2 boundary sides, whose sigma is no block rotation, so its
    # sigma and phi are labelled once each.
    counts = Counter()
    orbit_labels = maps._orbit_labels

    def counting(perm):
        counts[perm.shape[0]] += 1
        return orbit_labels(perm)

    monkeypatch.setattr(maps, "_orbit_labels", counting)
    p = HeckeParams(4, 29)
    group = enumerate_group(p)
    amap = build_algebraic_map(group)
    amap.invariants()
    correspondence_check(group, amap, build_coordinate_graph(p))
    polygon.coset_domain_check(group)
    assert counts == {2 * group.order + 2: 2}
    # The invariants are counted once and kept on the map.
    assert amap.invariants() is amap.invariants()


def test_map_completes_the_coordinates_once(capsys, monkeypatch):
    """One map run, odd n or even, takes the second columns of the
    completion table once: the group's, which the certificate reads."""
    calls = Counter()
    second_columns = coords.Completion.second_columns

    def counting(self, p):
        calls[p] += 1
        return second_columns(self, p)

    monkeypatch.setattr(coords.Completion, "second_columns", counting)
    for q, n in ((4, 5), (4, 6), (3, 7)):
        assert main(["map", "--q", str(q), "--n", str(n)]) == 0
    capsys.readouterr()
    assert calls == {HeckeParams(4, 5): 1, HeckeParams(4, 6): 1, HeckeParams(3, 7): 1}


def test_map_memory_per_dart_is_bounded():
    """The traced peak of the group, its invariants and the certificate at
    (4, 53) is about 23.5 bytes per dart: uint8 rows of 5 columns, int32
    alpha and sigma, the group's int64 keys while it is built, and
    temporaries of one block.  The connectivity tree's candidates for a
    whole level and the alpha checks over all darts at once took 35.3,
    rows of 8 slots 38.3, with sigma stored in the group it was 41.4, and
    an (N, 8) int64 table built whole took 139."""
    enumerate_group(HeckeParams(4, 5))  # imports and lazy set-up first
    tracemalloc.start()
    try:
        group = enumerate_group(HeckeParams(4, 53))
        amap = build_algebraic_map(group)
        amap.invariants()
        assert projection_certificate(group, amap).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * group.order
