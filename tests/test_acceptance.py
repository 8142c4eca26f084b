"""Acceptance gate: ten headline criteria, one test each.

Every expected value is an exact integer or exact structure; there are no
tolerances anywhere.  Each test prints a single pass line (visible with
pytest -s) so the suite doubles as a checklist.
"""

import re
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import oracles

from hfmap import coords as C
from hfmap import maps as M
from hfmap import polygon as P
from hfmap import render as R
from hfmap.group import (
    HeckeParams,
    cached_group,
    generators,
    perm_compose,
    perm_order,
    principal_congruence_index,
    s5_permutation_group,
)

P45 = HeckeParams(4, 5)


def _report(name: str) -> None:
    print(f"PASS {name}")


def test_c01_index_formula():
    assert principal_congruence_index(P45) == 120
    assert principal_congruence_index(HeckeParams(4, 3)) == 24
    for q, n in [(3, 5), (4, 3), (4, 5), (4, 7), (6, 5)]:
        assert cached_group(q, n).order == principal_congruence_index(HeckeParams(q, n))
    _report("criterion 1: index formula and closure orders agree exactly")


def test_c02_genus_four_map():
    group = cached_group(4, 5)
    inv = M.build_algebraic_map(group).invariants()
    assert inv.darts == 120
    assert inv.vertices == 24
    assert inv.edges == 60
    assert inv.faces == 30
    assert inv.genus == 4
    assert inv.vertex_valency == 5
    assert inv.face_size == 4
    table = C.vertex_names(P45)
    cusps = {oracles.code_of(oracles.cusp_of(g, P45), P45)
             for g in oracles.eight_slots(group.rows, P45.m).tolist()}
    assert cusps == {table.coord(name) for name in table.names()}
    assert len(cusps) == 24
    _report("criterion 2: genus-4 map of type {5,4} with the 24 named vertices")


def test_c03_cube():
    p = HeckeParams(4, 3)
    group = cached_group(4, 3)
    amap = M.build_algebraic_map(group)
    inv = M.cube_map().invariants()
    assert (inv.vertices, inv.edges, inv.faces, inv.genus) == (8, 12, 6, 0)
    assert M.is_isomorphic(M.cube_map(), amap)
    table = C.vertex_names(p)
    assert {table.coord(nm) for nm in table.names()} == set(C.coordinate_codes(p).tolist())
    rep = M.correspondence_check(group, amap, M.build_coordinate_graph(p))
    assert rep.ok and rep.vertex_bijection and rep.edges_matched
    _report("criterion 3: the 8 fractions mod 3 assemble into the cube")


def test_c04_icosahedron():
    p = HeckeParams(3, 5)
    listed = {C.parse_fraction(s, p) for s in C.Q3_N5_FRACTIONS}
    assert listed == set(C.coordinate_codes(p).tolist())
    graph = M.build_coordinate_graph(p)
    assert len(graph.nodes) == 12
    assert len(graph.edges) == 30
    inv = M.build_algebraic_map(cached_group(3, 5)).invariants()
    assert (inv.vertices, inv.edges, inv.faces, inv.genus) == (12, 30, 20, 0)
    _report("criterion 4: the 12 fractions mod 5 assemble into the icosahedron")


def test_c05_oracle_equivalence():
    pg = s5_permutation_group()
    assert pg.order == 120
    x, y, z = pg.gens["x"], pg.gens["y"], pg.gens["z"]
    assert (perm_order(x), perm_order(y), perm_order(z)) == (2, 5, 4)
    assert perm_compose(perm_compose(x, y), z) == tuple(range(5))
    pm = M.permutation_model_map(pg)
    m45 = M.build_algebraic_map(cached_group(4, 5))
    assert M.is_isomorphic(pm, m45)
    _report("criterion 5: degree-5 permutation model is isomorphic to the matrix model")


def test_c06_circuit_and_boundary():
    circuit = P.bring_circuit()
    assert P.validate_circuit(circuit, P45)
    boundary = P.boundary_from_circuit(circuit, P45)
    assert len(boundary.slots) == 60
    table = C.vertex_names(P45)
    counts = Counter(table.name(boundary.slots[i]) for i in boundary.pole_slots)
    assert counts == {"H2": 5, "C2": 5, "B1": 10}
    t = generators(P45)[1]
    assert C.apply_codes(t, table.coord("E1"), P45) == table.coord("G1")
    assert C.apply_codes(t, table.coord("F2"), P45) == table.coord("E2")
    assert C.apply_codes(t, table.coord("H2"), P45) == table.coord("H2")
    _report("criterion 6: 12-circuit, 60-slot boundary, translation identities")


def test_c07_pairing_and_genus():
    pairing = P.bring_side_pairing()
    assert P.pairing_rule_check(pairing)
    assert set(P.rule_pairing().pairs) == set(pairing.pairs)
    part = P.vertex_classes(pairing)
    assert set(part.classes) == {
        frozenset({1, 3, 5, 7, 9, 11, 13, 15, 17, 19}),
        frozenset({2, 6, 10, 14, 18}),
        frozenset({4, 8, 12, 16, 20}),
    }
    assert part.vertex_count == 3
    assert part.genus == 4  # 2 - 2g = 3 - 10 + 1 = -6
    _report("criterion 7: side pairing rule, unique matching, corner classes, genus 4")


def test_c08_side_label_orbits():
    boundary = P.boundary_from_circuit(P.bring_circuit(), P45)
    rep = P.side_label_analysis(boundary)
    assert rep.orbit_b == ["F2", "E2", "K2", "B2", "J2"]
    assert rep.orbit_a == ["K1", "I1", "H1", "L1", "J1"]
    fixture_counts = Counter(P.BRING_SIDE_LABELS.values())
    assert sorted(fixture_counts) == sorted(rep.orbit_a + rep.orbit_b)
    assert set(fixture_counts.values()) == {2}
    assert rep.designation_counts_ok
    _report("criterion 8: the two translation orbits give the 10 side labels, twice each")


def test_c09_property_suites():
    for q, n in ((4, 3), (4, 5), (3, 5)):
        p = HeckeParams(q, n)
        group = cached_group(q, n)
        graph = M.build_coordinate_graph(p)
        index = {u: i for i, u in enumerate(graph.codes.tolist())}
        adj = graph.adjacency_matrix()
        for g in group.rows:
            perm = np.asarray([index[int(C.apply_codes(g, u, p))] for u in graph.codes.tolist()])
            assert np.array_equal(adj[np.ix_(perm, perm)], adj)
        if q == 4:
            assert graph.is_bipartite_by_kind()
    for q, n in ((4, 3), (4, 5), (3, 5), (6, 5), (4, 7)):
        group = cached_group(q, n)
        amap = M.build_algebraic_map(group)
        rep = M.correspondence_check(
            group, amap, M.build_coordinate_graph(HeckeParams(q, n))
        )
        assert rep.ok, rep.problems
        dom = P.coset_domain_check(group)
        assert dom.matches_map
    _report("criterion 9: equivariance, bipartiteness, correspondence, coset chi")


def test_c10_rendering():
    geos = R.universal_geodesics(4, 2)
    endpoints = {g.a for g in geos} | {g.b for g in geos}
    for cusp in (R.Cusp(1, 0, 0), R.Cusp(0, 0, 1), R.Cusp(0, 1, 2), R.Cusp(0, 1, 1)):
        assert cusp in endpoints
    for (q, n), (nv, ne) in {(4, 5): (24, 60), (4, 3): (8, 12), (3, 5): (12, 30)}.items():
        dot = R.render_quotient(HeckeParams(q, n))
        lines = dot.splitlines()
        nodes = sum(1 for l in lines if l.strip().endswith('";') and "--" not in l)
        edges = sum(1 for l in lines if "--" in l)
        assert (nodes, edges) == (nv, ne)
    svg = R.render_universal(4, 3, "halfplane")
    ET.fromstring(svg)
    assert svg == R.render_universal(4, 3, "halfplane")
    boundary = P.boundary_from_circuit(P.bring_circuit(), P45)
    poly = R.render_polygon(boundary, P.bring_side_pairing())
    ET.fromstring(poly)
    assert poly == R.render_polygon(boundary, P.bring_side_pairing())
    _report("criterion 10: principal face, exact DOT counts, stable well-formed SVG")
