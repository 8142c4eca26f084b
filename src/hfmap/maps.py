"""Regular maps as dart systems, plus the coordinate-graph model.

A map is a pair of permutations on darts: sigma rotates darts around their
vertex, alpha swaps the two darts of an edge.  Faces are the orbits of
phi(d) = alpha(sigma(d)).  For the algebraic model the darts are the group
elements themselves, with sigma(g) = g*T and alpha(g) = g*S acting by right
multiplication, so left multiplication realizes the automorphisms.

The counts follow one rule per kind of map.  On the group's map sigma =
*T and phi = *R, R = T*S, act by right multiplication, so every vertex is
a coset g<T> of ord(T) = n darts and every face a coset g<R> of ord(R)
darts (orders up to sign): ``build_algebraic_map`` sets V = darts / n and
F = darts / ord(R), walking the identity's face alone.  Every other map
(the polygons of ``polygon``, the degree-5 model, ``cube_map``, a
caller-built one) counts V and F from the orbit labels of sigma and phi.
alpha is checked at construction to be a fixed-point-free involution, so
E = darts / 2 on both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .coords import (
    Completion,
    CuspError,
    HFCoord,
    adjacent_codes,
    code_coord,
    code_rows,
    completion_table,
    coordinate_codes,
    cusp_codes,
)
from .group import FiniteHeckeGroup, HeckeParams, PermGroup
from .kernels import block_successor, coordinate_blocks

__all__ = [
    "MapStructure",
    "MapInvariants",
    "CoordGraph",
    "build_algebraic_map",
    "build_coordinate_graph",
    "projection_certificate",
    "correspondence_check",
    "CorrespondenceReport",
    "permutation_model_map",
    "canonical_form",
    "is_isomorphic",
    "cube_map",
    "invariants_json",
]


def _orbit_labels(perm: np.ndarray) -> np.ndarray:
    """Smallest dart of each dart's orbit under perm, by pointer doubling
    over the heads of its runs.

    A run is a maximal interval of darts h, h + 1, ..., e with perm(s) =
    s + 1 inside it; its head h is its smallest dart.  perm(e) is always a
    head (perm(e) - 1 is not mapped to it), so h -> the run of perm(e) is a
    permutation of the runs, and a dart's label is the smallest head on its
    run's orbit.  So a permutation that is mostly s -> s + 1, as the
    boundary walk of ``polygon._glued_domain``, costs a few passes over its
    darts and the doubling rounds over its heads alone; where every run is
    one dart, the runs are the darts and perm is doubled as it is.  The
    labels have the dtype of perm.  ``tests/oracles.py`` walks the orbits
    as the reference.
    """
    size = perm.shape[0]
    last = perm != np.arange(1, size + 1, dtype=perm.dtype)
    if np.all(last):
        return _doubled(np.arange(size, dtype=perm.dtype), perm)
    ends = np.flatnonzero(last)
    del last
    lengths = np.diff(ends, prepend=-1)
    heads = ends - lengths + 1
    run = np.empty(size, dtype=perm.dtype)
    run[heads] = np.arange(heads.size, dtype=perm.dtype)
    return np.repeat(_doubled(heads.astype(perm.dtype), run[perm[ends]]), lengths)


def _doubled(label: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The minimum of label over each orbit of step, by pointer doubling.

    After k rounds label[i] is the minimum over i, step(i), ...,
    step^(2^k - 1)(i); once a round changes nothing every label is its
    orbit's minimum.
    """
    while True:
        nxt = label[step]
        np.minimum(nxt, label, out=nxt)
        if np.array_equal(nxt, label):
            return label
        label = nxt
        step = step[step]


def _orbit_sizes(label: np.ndarray) -> np.ndarray:
    """Orbit lengths, in order of their smallest dart, from _orbit_labels."""
    counts = np.bincount(label)
    return counts[counts > 0]


def _common(sizes: np.ndarray) -> int:
    """The one value all sizes share, or 0 when they differ or there are none."""
    return int(sizes[0]) if sizes.size and sizes.min() == sizes.max() else 0


@dataclass(frozen=True)
class MapInvariants:
    darts: int
    vertices: int
    edges: int
    faces: int
    genus: int
    vertex_valency: int
    face_size: int

    @property
    def chi(self) -> int:
        """Euler characteristic V - E + F = 2 - 2g."""
        return 2 - 2 * self.genus


@dataclass(frozen=True)
class MapStructure:
    """Dart system (sigma, alpha) with phi = alpha o sigma.

    The orbit labels and the invariants are computed once per map and
    kept, so sigma and alpha are fixed at construction.  Construction
    checks that alpha is a fixed-point-free involution, over blocks of
    ``kernels.CHUNK_DARTS`` darts, so the check holds no array of all the
    darts beyond sigma and alpha.
    """

    sigma: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        d = self.sigma.shape[0]
        if self.alpha.shape[0] != d:
            raise ValueError("sigma and alpha act on different dart sets")
        fixed = False
        step = kernels.CHUNK_DARTS
        for lo in range(0, d, step):
            part = self.alpha[lo:lo + step]
            darts = np.arange(lo, lo + part.size, dtype=part.dtype)
            if np.any(self.alpha[part] != darts):
                raise ValueError("alpha is not an involution")
            fixed = fixed or bool(np.any(part == darts))
        if fixed:
            raise ValueError("alpha has fixed darts")

    @property
    def darts(self) -> int:
        return int(self.sigma.shape[0])

    @property
    def phi(self) -> np.ndarray:
        return self.alpha[self.sigma]

    @cached_property
    def vertex_labels(self) -> np.ndarray:
        """Smallest dart of each dart's vertex (sigma) orbit."""
        return _orbit_labels(self.sigma)

    @cached_property
    def face_labels(self) -> np.ndarray:
        """Smallest dart of each dart's face (phi) orbit."""
        return _orbit_labels(self.phi)

    def invariants(self) -> MapInvariants:
        """V, E, F and genus; see the module docstring for how each is counted."""
        return self._invariants

    @cached_property
    def _invariants(self) -> MapInvariants:
        vo = _orbit_sizes(self.vertex_labels)
        fo = _orbit_sizes(self.face_labels)
        return _counted(self.darts, len(vo), _common(vo), len(fo), _common(fo))


def _counted(darts: int, v: int, valency: int, f: int, face_size: int) -> MapInvariants:
    """The invariants of a map with these vertex and face counts: E =
    darts / 2, and an odd Euler characteristic is refused."""
    chi = v - darts // 2 + f
    if chi % 2:
        raise ValueError(f"odd Euler characteristic {chi}: not an orientable map")
    return MapInvariants(
        darts=darts,
        vertices=v,
        edges=darts // 2,
        faces=f,
        genus=(2 - chi) // 2,
        vertex_valency=valency,
        face_size=face_size,
    )


def build_algebraic_map(group: FiniteHeckeGroup) -> MapStructure:
    """Darts = group elements; sigma = *T is ``kernels.block_successor``.

    The T check of ``enumerate_group`` proves sigma(g) = g*T, and its S
    check alpha(g) = g*S, on every element, so phi(g) = g*R.  One argument
    counts both orbit kinds: the orbit of g under *X is the coset g<X>, of
    ord(X) darts, the least k >= 1 with X**k = +-I mod n.  T**k = [[1,
    k*lambda], [0, 1]], so ord(T) = n and V = darts / n.  R**q = -I over Z,
    so ord(R), the length of the identity's face, takes at most q reads of
    the checked alpha from dart 0; F = darts / ord(R).  No orbit is labelled,
    so each call builds a new map at the cost of sigma and the alpha checks.
    """
    d, (q, n), dart = group.order, (group.params.q, group.params.n), 0
    amap = MapStructure(sigma=block_successor(0, d, n), alpha=group.alpha)
    for r in range(1, q + 1):
        dart = int(amap.alpha[amap.sigma[dart]])
        if dart == 0:
            break
    else:
        raise ValueError(f"R has no order dividing {q} mod {n}")
    object.__setattr__(amap, "_invariants", _counted(d, d // n, n, d // r, r))
    return amap


def permutation_model_map(pg: PermGroup) -> MapStructure:
    """Dart system on the degree-5 model: sigma = *y, alpha = *x."""
    sigma = pg.right_mult_perm(pg.gens["y"])
    alpha = pg.right_mult_perm(pg.gens["x"])
    return MapStructure(sigma=sigma, alpha=alpha)


def invariants_json(p: HeckeParams, inv: MapInvariants, group_order: int) -> str:
    payload = {
        "q": p.q,
        "n": p.n,
        "darts": inv.darts,
        "vertices": inv.vertices,
        "edges": inv.edges,
        "faces": inv.faces,
        "genus": inv.genus,
        "group_order": group_order,
    }
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# Coordinate graph.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordGraph:
    """Adjacency-rule graph on the coordinates mod n: ascending node codes,
    and the (V, n) int64 table ``nbrs`` whose row i lists node i's
    neighbours in ascending order.  ``pairs`` holds the edges as (E, 2) rows
    (i, j), i < j, in lexicographic order; it and ``nodes`` and ``edges``
    are views built on first use.  ``nodes`` is the codes' printed forms
    (``coords.code_coord``), which the library never reads; it is kept for
    the digest of the benchmark's sweep (``perfbench/workloads.py``)."""

    params: HeckeParams
    codes: np.ndarray
    nbrs: np.ndarray

    @cached_property
    def pairs(self) -> np.ndarray:
        rows = np.broadcast_to(np.arange(self.codes.size)[:, None], self.nbrs.shape)
        above = self.nbrs > rows
        return np.stack([rows[above], self.nbrs[above]], axis=1)

    @cached_property
    def nodes(self) -> list[HFCoord]:
        return [code_coord(code, self.params) for code in self.codes.tolist()]

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in self.pairs.tolist()]

    def adjacency_matrix(self) -> np.ndarray:
        mat = np.zeros((self.codes.size,) * 2, dtype=bool)
        mat[np.arange(self.codes.size)[:, None], self.nbrs] = True
        return mat

    def is_bipartite_by_kind(self) -> bool:
        kind = self.codes // (self.params.n * self.params.n)
        return bool(np.all(kind[self.nbrs] != kind[:, None]))


def build_coordinate_graph(p: HeckeParams) -> CoordGraph:
    """The n neighbours of every node, ascending, with no pair test.

    A node's neighbours are the classes of the n second columns that
    complete its first column (see ``coords.completion_table``), which are
    the classes the edge test ``adjacent_codes`` accepts.  The second
    columns are taken a block of nodes at a time
    (``kernels.coordinate_blocks``), and only their classes' rows are kept.
    """
    table = completion_table(p)
    n = p.n
    row_of = code_rows(table.codes, np.arange(2 * n * n), p)
    nbrs = np.empty((table.codes.size, n), dtype=np.int64)
    for block in coordinate_blocks(table.codes.size, n):
        part = Completion._make(col[block] for col in table)
        nbrs[block] = row_of[part.second_columns(p)[2]]
    nbrs.sort(axis=1)
    return CoordGraph(params=p, codes=table.codes, nbrs=nbrs)


# ---------------------------------------------------------------------------
# Correspondence between the two models.
# ---------------------------------------------------------------------------


@dataclass
class CorrespondenceReport:
    ok: bool
    vertex_bijection: bool
    edges_matched: bool
    vertex_count: int
    edge_count: int
    problems: list[str]


def projection_certificate(group: FiniteHeckeGroup, amap: MapStructure) -> CorrespondenceReport:
    """Certify that g -> g(infinity) carries the dart model onto the rule
    graph, in the element numbering v*n + t of ``enumerate_group``.

    Four facts, each on every element or dart:

    (a) sigma is ``kernels.block_successor``, v*n + t -> v*n + (t + 1) % n,
        so its vertex orbits are the blocks of n elements, and every row's
        first column is its block head's, up to sign;
    (b) the cusps of the V block heads, sorted, are ``coordinate_codes``;
    (c) ``adjacent_codes`` holds on every arc (v, alpha(v*n + t) // n);
    (d) each row of the (V, n) table alpha // n has n distinct entries.

    The rule graph is n-regular (see ``coords.completion_table``), so by
    (c) and (d) the n darts of a vertex are its n arcs, and with (a) and (b)
    the projection is a bijection onto the graph.  Only the head rows go
    through the class rule of ``cusp_codes``, and a head that is no cusp is
    one problem that names the first such head; (a), (c) and (d) run over
    the blocks of ``kernels.coordinate_blocks``, so that beyond the cusp
    codes of the heads the certificate holds one block's temporaries.  A
    map with other than one dart per element is one problem.  Reads only
    ``params`` and ``rows`` of the group.
    """
    return _certificate(group, amap)[0]


def _certificate(group: FiniteHeckeGroup,
                 amap: MapStructure) -> tuple[CorrespondenceReport, np.ndarray | None]:
    """``projection_certificate``, and the int32 cusp codes of the block
    heads, or None when a head is no cusp."""
    p = group.params
    n, order = p.n, group.rows.shape[0]
    size = order // n
    if amap.darts != order:
        problem = f"map has {amap.darts} darts, the group {order} elements"
        return CorrespondenceReport(False, False, False, 0, 0, [problem]), None
    problems: list[str] = []

    # (a) and (b): vertex orbits, their first columns and their cusps.  The
    # first column is (kind, a, c); a row that differs from its block head's
    # may hold its negative, which keeps the kind.
    rows, first = group.rows, [0, 1, 3]
    blocks, moved = True, []
    for b in coordinate_blocks(size, n):
        darts = slice(b.start * n, b.stop * n)
        blocks = blocks and np.array_equal(amap.sigma[darts],
                                           block_successor(darts.start, darts.stop, n))
        part = rows[darts]
        differ = np.zeros((b.stop - b.start, n), dtype=bool)
        for j in first:
            col = part[:, j].reshape(-1, n)
            differ |= col != col[:, :1]
        at = np.flatnonzero(differ)
        # Negated in a signed dtype: the rows may be unsigned.
        heads = part[at - at % n][:, first].astype(np.int64) * [1, -1, -1] % n
        moved.append(darts.start + at[np.any(part[at][:, first] != heads, axis=1)])
    moved = np.concatenate(moved)
    vertex_count = size
    if not blocks:
        vertex_count = len(_orbit_sizes(amap.vertex_labels))
        problems.append("vertex orbits of sigma are not the blocks of n consecutive elements")
    if moved.size:
        problems.append(
            f"elements whose first column is not their block head's: {moved.size}, "
            f"the first {moved[0]}"
        )
    try:
        # Codes are below 2*n*n < 2**31: the rule runs in int32.
        codes = cusp_codes(rows[::n], p).astype(np.int32)
    except CuspError as exc:
        problems.append(f"block heads that are no cusp, the first {exc.row * n}: {exc}")
        return CorrespondenceReport(False, False, False, vertex_count, 0, problems), None
    bijection = np.array_equal(np.sort(codes), coordinate_codes(p))
    if not bijection:
        problems.append("cusp map is not a bijection onto the coordinates")

    # (c) and (d): the arcs of each vertex, a block of whole rows at a time.
    alpha = amap.alpha.reshape(size, n)
    far, twice = [], []
    for block in coordinate_blocks(size, n):
        nbr = alpha[block] // n
        adj = adjacent_codes(codes[block, None], codes[nbr], p)
        far.append(block.start * n + np.flatnonzero(~adj))
        nbr.sort(axis=1)
        twice.append(block.start + np.flatnonzero((nbr[:, 1:] == nbr[:, :-1]).any(axis=1)))
    far, twice = np.concatenate(far), np.concatenate(twice)
    if far.size:
        d = int(far[0])
        ends = sorted(code_coord(codes[e // n], p) for e in (d, int(amap.alpha[d])))
        problems.append(
            f"darts that project to non-adjacent coordinates: {far.size}, the first "
            f"{ends[0]} and {ends[1]}"
        )
    if twice.size:
        problems.append(
            f"vertices that meet a neighbour twice: {twice.size}, the first "
            f"{code_coord(codes[twice[0]], p)}"
        )

    return CorrespondenceReport(
        ok=not problems,
        vertex_bijection=blocks and not moved.size and bijection,
        edges_matched=not (far.size or twice.size),
        vertex_count=vertex_count,
        # Both darts of an edge pass the symmetric rule or both fail it.
        edge_count=(amap.darts - far.size) // 2,
        problems=problems,
    ), codes


def correspondence_check(group: FiniteHeckeGroup, amap: MapStructure,
                         graph: CoordGraph) -> CorrespondenceReport:
    """``projection_certificate``, and the graph is the one it projects onto:
    its nodes are the head cusps and, mapped to its rows and sorted, the
    (V, n) table alpha // n is ``graph.nbrs`` row for row."""
    p = group.params
    n = p.n
    rep, codes = _certificate(group, amap)
    if codes is None:
        return rep
    problems = list(rep.problems)
    nodes = matched = np.array_equal(np.sort(codes), graph.codes)
    if nodes:
        rows = code_rows(graph.codes, codes, p)
        table = np.empty((codes.size, n), dtype=np.int64)
        table[rows] = np.sort(rows[amap.alpha.reshape(-1, n) // n], axis=1)
        matched = np.array_equal(table, graph.nbrs)
    else:
        problems.append("cusp map is not a bijection onto the graph's nodes")
    if rep.edges_matched and not matched:
        problems.append("edge orbits do not project bijectively onto graph edges")
    return CorrespondenceReport(
        ok=not problems,
        vertex_bijection=rep.vertex_bijection and nodes,
        edges_matched=rep.edges_matched and matched,
        vertex_count=rep.vertex_count,
        edge_count=rep.edge_count,
        problems=problems,
    )


# ---------------------------------------------------------------------------
# Rooted canonical labeling and isomorphism.
# ---------------------------------------------------------------------------


def canonical_form(amap: MapStructure, root: int) -> tuple[tuple[int, int], ...]:
    """Relabeling-invariant code of the rooted dart system.

    Darts are relabeled in BFS discovery order from the root, exploring
    sigma before alpha; the code lists (new sigma, new alpha) per new label.
    """
    d = amap.darts
    label = {root: 0}
    order = [root]
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for nxt in (int(amap.sigma[cur]), int(amap.alpha[cur])):
            if nxt not in label:
                label[nxt] = len(order)
                order.append(nxt)
    if len(order) != d:
        raise ValueError("dart system is not connected")
    return tuple(
        (label[int(amap.sigma[dart])], label[int(amap.alpha[dart])]) for dart in order
    )


def is_isomorphic(m1: MapStructure, m2: MapStructure) -> bool:
    """Connected dart systems are isomorphic iff some root r of m2 has the
    rooted code of m1 at dart 0 (an isomorphism sends dart 0 to such an r)."""
    if m1.darts != m2.darts:
        return False
    code = canonical_form(m1, 0)
    return any(canonical_form(m2, r) == code for r in range(m2.darts))


def cube_map() -> MapStructure:
    """The 3-cube as a dart system, which ``is_isomorphic`` matches with the
    (4, 3) map.

    Dart 3v + j leaves the vertex v, a 3-bit string, along the edge that
    flips bit j, so alpha sends it to 3(v ^ 2**j) + j.  sigma turns j to
    j + 1 round the vertices of even weight and to j - 1 round the odd
    ones, which makes the faces the six squares: V/E/F = 8/12/6, genus 0.
    With the same turn at every vertex the graph is the same but the map
    is a torus (F = 4, genus 1).
    """
    v, j = np.divmod(np.arange(24), 3)
    odd = (v ^ (v >> 1) ^ (v >> 2)) & 1  # the parity of v's weight
    return MapStructure(sigma=3 * v + (j + 1 - 2 * odd) % 3, alpha=3 * (v ^ (1 << j)) + j)
