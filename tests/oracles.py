"""Scalar references for the array passes of the map pipeline.

These are the per-element loops the library used before its numpy passes:
``correspondence_check`` calls ``cusp_of`` and ``adjacent`` once per dart
or edge and walks the orbits with ``maps._orbits``.  The differential tests
in test_vectorized.py require the library to agree with them.
"""

from hfmap.coords import adjacent, cusp_of
from hfmap.maps import CorrespondenceReport, MapInvariants, _orbits


def invariants(amap) -> MapInvariants:
    vo, eo, fo = _orbits(amap.sigma), _orbits(amap.alpha), _orbits(amap.phi)
    v, e, f = len(vo), len(eo), len(fo)
    chi = v - e + f
    if chi % 2:
        raise ValueError(f"odd Euler characteristic {chi}: not an orientable map")
    valencies = {len(o) for o in vo}
    face_sizes = {len(o) for o in fo}
    return MapInvariants(
        darts=amap.darts,
        vertices=v,
        edges=e,
        faces=f,
        genus=(2 - chi) // 2,
        vertex_valency=valencies.pop() if len(valencies) == 1 else 0,
        face_size=face_sizes.pop() if len(face_sizes) == 1 else 0,
    )


def correspondence_check(group, amap, graph) -> CorrespondenceReport:
    p = group.params
    problems: list[str] = []
    cusps = [cusp_of(g, p) for g in group.comps.tolist()]

    vertex_orbits = _orbits(amap.sigma)
    orbit_coords = []
    for orbit in vertex_orbits:
        values = {cusps[d] for d in orbit}
        if len(values) != 1:
            problems.append(f"vertex orbit {orbit[:4]}... has mixed cusps {values}")
        orbit_coords.append(values.pop())
    bijection = (
        len(set(orbit_coords)) == len(orbit_coords)
        and set(orbit_coords) == set(graph.nodes)
    )
    if not bijection:
        problems.append("cusp map is not a bijection onto the coordinates")

    index = graph.node_index
    graph_edges = {frozenset(e) for e in graph.edges}
    projected: list[frozenset[int]] = []
    for a, b in ((o[0], o[1]) for o in _orbits(amap.alpha)):
        ua, ub = cusps[a], cusps[b]
        if not adjacent(ua, ub, p):
            problems.append(f"edge darts project to non-adjacent {ua}, {ub}")
            continue
        projected.append(frozenset((index[ua], index[ub])))
    edges_matched = (
        len(projected) == len(set(projected)) == len(graph_edges)
        and set(projected) == graph_edges
    )
    if not edges_matched:
        problems.append("edge orbits do not project bijectively onto graph edges")

    inv = invariants(amap)
    notes = [
        "vertices = darts/valency = "
        f"{inv.darts}/{inv.vertex_valency or '?'} = {inv.vertices}; "
        f"faces = darts/face_size = {inv.darts}/{inv.face_size or '?'} = {inv.faces}"
    ]
    if (p.q, p.n) == (4, 5):
        notes.append(
            "erratum flag: V=24 and F=30 come from the orbit computation; "
            "the transposed counts (30 vertices, 24 faces) are inconsistent "
            "with the 24 coordinates"
        )
    return CorrespondenceReport(
        ok=not problems,
        vertex_bijection=bijection,
        edges_matched=edges_matched,
        vertex_count=len(vertex_orbits),
        edge_count=len(projected),
        problems=problems,
        notes=notes,
    )
