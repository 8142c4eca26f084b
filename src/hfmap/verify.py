"""One-shot verification suite covering every headline property.

Each check is independent and returns a pass/fail result with a short
detail string; the CLI prints one line per check and exits nonzero if any
fails.  The embedded circuit and side pairing can be replaced by caller
fixtures, which is how corrupted inputs are detected end to end.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coords as C
from . import maps as M
from . import polygon as P
from . import render as R
from .group import (
    HeckeParams, cached_group, generators, perm_order, principal_congruence_index,
    s5_permutation_group,
)

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _map_for(q: int, n: int) -> M.MapStructure:
    return M.build_algebraic_map(cached_group(q, n))


def _check_index_formula(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    if principal_congruence_index(HeckeParams(4, 5)) != 120:
        raise AssertionError("index(4,5) != 120")
    if principal_congruence_index(HeckeParams(4, 3)) != 24:
        raise AssertionError("index(4,3) != 24")
    # enumerate_group raises IndexFormulaError unless its order meets the formula.
    pairs = [(3, 5), (4, 3), (4, 5), (4, 7), (6, 5)]
    orders = ", ".join(str(cached_group(q, n).order) for q, n in pairs)
    return f"closure orders {orders} all equal the index formula"


def _check_bring_map(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    group = cached_group(4, 5)
    inv = _map_for(4, 5).invariants()
    want = (120, 24, 60, 30, 4, 5, 4)
    got = (inv.darts, inv.vertices, inv.edges, inv.faces, inv.genus,
           inv.vertex_valency, inv.face_size)
    if got != want:
        raise AssertionError(f"invariants {got} != {want}")
    p = HeckeParams(4, 5)
    table = C.vertex_names(p)
    named = {table.coord(name) for name in table.names()}
    if set(C.cusp_codes(group.rows, p).tolist()) != named:
        raise AssertionError("map vertices do not match the 24 named coordinates")
    return "darts=120 V=24 E=60 F=30 genus=4, vertices = the 24 named coordinates"


def _check_cube(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    """The (4, 3) map is ``maps.cube_map`` as a rotation system, its 8
    coordinates are the cube fractions, and ``correspondence_check``
    projects it onto the coordinate graph, which is then the 3-cube's."""
    p = HeckeParams(4, 3)
    amap = _map_for(4, 3)
    if not M.is_isomorphic(M.cube_map(), amap):
        raise AssertionError("map (4,3) is not isomorphic to the cube map")
    table = C.vertex_names(p)
    if {table.coord(nm) for nm in table.names()} != set(C.coordinate_codes(p).tolist()):
        raise AssertionError("coordinates do not match the 8 cube fractions")
    rep = M.correspondence_check(cached_group(4, 3), amap, M.build_coordinate_graph(p))
    if not rep.ok:
        raise AssertionError(f"coordinate graph is not the map's graph: {rep.problems}")
    return "V=8 E=12 F=6 genus=0, coordinate graph isomorphic to the 3-cube"


def _check_icosahedron(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    p = HeckeParams(3, 5)
    listed = {C.parse_fraction(s, p) for s in C.Q3_N5_FRACTIONS}
    if listed != set(C.coordinate_codes(p).tolist()):
        raise AssertionError("fraction list does not match the enumeration")
    graph = M.build_coordinate_graph(p)
    if graph.codes.size != 12 or len(graph.edges) != 30:
        raise AssertionError("graph is not 12 vertices / 30 edges")
    inv = _map_for(3, 5).invariants()
    if (inv.vertices, inv.edges, inv.faces, inv.genus) != (12, 30, 20, 0):
        raise AssertionError(f"icosahedron invariants wrong: {inv}")
    return "12 fractions, 30 edges, F=20, genus=0"


def _check_oracle_equivalence(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    pg = s5_permutation_group()
    if pg.order != 120:
        raise AssertionError(f"permutation group order {pg.order} != 120")
    orders = tuple(perm_order(pg.gens[k]) for k in ("x", "y", "z"))
    if orders != (2, 5, 4):
        raise AssertionError(f"generator orders {orders} != (2, 5, 4)")
    if not M.is_isomorphic(M.permutation_model_map(pg), _map_for(4, 5)):
        raise AssertionError("permutation model is not isomorphic to the matrix model")
    return "order 120, generator orders (2,5,4), dart systems isomorphic"


def _check_circuit_boundary(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    p = HeckeParams(4, 5)
    if not P.validate_circuit(circuit, p):
        raise AssertionError("circuit fails adjacency validation")
    b = P.boundary_from_circuit(circuit, p)
    table = C.vertex_names(p)
    counts = Counter(table.name(b.slots[i]) for i in b.pole_slots)
    if counts != {"H2": 5, "C2": 5, "B1": 10}:
        raise AssertionError(f"pole multiset {dict(counts)} wrong")
    t = generators(p)[1]
    for src, dst in (("E1", "G1"), ("F2", "E2"), ("H2", "H2")):
        if C.apply_codes(t, table.coord(src), p) != table.coord(dst):
            raise AssertionError(f"translation {src} -> {dst} fails")
    return "60-slot boundary, poles H2:5 C2:5 B1:10, translation identities hold"


def _check_pairing_genus(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    if not P.pairing_rule_check(pairing):
        raise AssertionError("pairing fails the side-pairing rule")
    part = P.vertex_classes(pairing)
    want = (
        frozenset(range(1, 21, 2)),
        frozenset({2, 6, 10, 14, 18}),
        frozenset({4, 8, 12, 16, 20}),
    )
    if set(part.classes) != set(want):
        raise AssertionError(f"corner classes {part.classes} wrong")
    if part.genus != 4:
        raise AssertionError(f"genus {part.genus} != 4")
    return "rule holds, unique forced matching, classes 10/5/5, genus 4"


def _check_side_labels(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    p = HeckeParams(4, 5)
    rep = P.side_label_analysis(P.boundary_from_circuit(circuit, p))
    if sorted(rep.orbit_b) != sorted(["F2", "E2", "K2", "B2", "J2"]):
        raise AssertionError(f"orbit of F2 wrong: {rep.orbit_b}")
    if sorted(rep.orbit_a) != sorted(["K1", "I1", "H1", "L1", "J1"]):
        raise AssertionError(f"orbit of K1 wrong: {rep.orbit_a}")
    if not rep.designation_counts_ok or not rep.fixture_counts_ok:
        raise AssertionError("side labels are not the two orbits, each twice")
    if len(rep.alignment_offsets) != 1 or not rep.pairing_consistent:
        raise AssertionError("no unique alignment with the classical numbering")
    return (
        "two orbits of 5 labels; each label twice; unique alignment offset "
        f"{rep.alignment_offsets[0]} matches labels and pairing"
    )


def _check_property_suites(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    # Equivariance of adjacency under the full group, exhaustively.
    for q, n in ((4, 3), (4, 5), (3, 5)):
        p = HeckeParams(q, n)
        group = cached_group(q, n)
        graph = M.build_coordinate_graph(p)
        adj = graph.adjacency_matrix()
        # Row i of perm is element i acting on the nodes, as node indices.
        perm = C.code_rows(graph.codes, C.apply_codes(group.rows[:, None], graph.codes, p), p)
        broken = (adj[perm[:, :, None], perm[:, None, :]] != adj).any(axis=(1, 2))
        if broken.any():
            raise AssertionError(f"({q},{n}): element {int(np.argmax(broken))} breaks adjacency")
        if q == 4 and not graph.is_bipartite_by_kind():
            raise AssertionError(f"({q},{n}): graph is not kind-bipartite")
    # Correspondence and the coset fundamental-domain characteristic.
    for q, n in ((4, 3), (4, 5), (3, 5), (6, 5), (4, 7), (4, 6)):
        group = cached_group(q, n)
        amap = M.build_algebraic_map(group)
        rep = M.correspondence_check(group, amap, M.build_coordinate_graph(HeckeParams(q, n)))
        if not rep.ok:
            raise AssertionError(f"({q},{n}): correspondence fails: {rep.problems}")
        dom = P.coset_domain_check(group)
        if not dom.matches_map:
            raise AssertionError(
                f"({q},{n}): coset domain chi {dom.chi} != map chi {dom.map_chi}"
            )
    return "equivariance, bipartiteness, correspondence and coset chi all hold"


def _check_rendering(circuit: P.Circuit, pairing: P.PairingTable) -> str:
    geos = R.universal_geodesics(4, 2)
    endpoints = {g.a for g in geos} | {g.b for g in geos}
    principal = [R.Cusp(1, 0, 0), R.Cusp(0, 0, 1), R.Cusp(0, 1, 2), R.Cusp(0, 1, 1)]
    if not all(c in endpoints for c in principal):
        raise AssertionError("principal face cusps missing at depth 2")
    for (q, n), (nv, ne) in {(4, 5): (24, 60), (4, 3): (8, 12), (3, 5): (12, 30)}.items():
        dot = R.render_quotient(HeckeParams(q, n))
        lines = dot.splitlines()
        nodes = sum(1 for l in lines if l.strip().endswith('";') and "--" not in l)
        edges = sum(1 for l in lines if "--" in l)
        if (nodes, edges) != (nv, ne):
            raise AssertionError(f"dot({q},{n}) has {(nodes, edges)}, want {(nv, ne)}")
    svg = R.render_universal(4, 3, "disk")
    ET.fromstring(svg)
    if svg != R.render_universal(4, 3, "disk"):
        raise AssertionError("repeated render is not byte-identical")
    return "principal face present, DOT counts exact, SVG well-formed and stable"


# Every check takes the circuit and the pairing and reads what it needs.
_CHECKS: dict[str, Callable[[P.Circuit, P.PairingTable], str]] = {
    "index-formula": _check_index_formula,
    "bring-map": _check_bring_map,
    "cube": _check_cube,
    "icosahedron": _check_icosahedron,
    "oracle-equivalence": _check_oracle_equivalence,
    "circuit-boundary": _check_circuit_boundary,
    "pairing-genus": _check_pairing_genus,
    "side-labels": _check_side_labels,
    "property-suites": _check_property_suites,
    "rendering": _check_rendering,
}

CHECK_NAMES = list(_CHECKS)


def run_checks(
    circuit: P.Circuit | None = None,
    pairing: P.PairingTable | None = None,
) -> list[CheckResult]:
    """Run all checks; failures are captured, never raised.

    Running out of memory is not a failed check, so MemoryError propagates.
    """
    circuit = P.bring_circuit() if circuit is None else circuit
    pairing = P.bring_side_pairing() if pairing is None else pairing
    results = []
    for name, fn in _CHECKS.items():
        try:
            detail = fn(circuit, pairing)
            results.append(CheckResult(name=name, ok=True, detail=detail))
        except MemoryError:
            raise
        except Exception as exc:
            results.append(CheckResult(name=name, ok=False, detail=str(exc)))
    return results
