"""Farey circuits, the 60-vertex boundary, and the 20-gon of the genus-4 map.

The boundary of the fundamental 20-gon carries 60 coordinates: a 12-vertex
circuit through the poles plus its translates under T (which rotates the map
by 2*pi/5 about the center 1/0).  Pole slots become polygon corners, sides
are paired by equal coordinate labels, and the corner classes, orbits of a
permutation of the corners, recover V - E + F = 2 - 2g.  An independent
Euler-characteristic check glues a spanning-tree fundamental domain of coset
tiles into one large polygon.  A polygon with sides glued in pairs is a map
with one face (Massey, *A Basic Course in Algebraic Topology*, GTM 127,
ch. 1), so both polygons are ``MapStructure``s and ``MapStructure.invariants``
is the only Euler characteristic and genus rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coords import (
    NameTable,
    adjacent_codes,
    apply_codes,
    code_coord,
    coordinate_codes,
    coordinate_labels,
    normalize,
    vertex_names,
)
from .decimals import padded_cells
from .group import FiniteHeckeGroup, HeckeParams, generators
from .kernels import _check_modulus, breadth_first_tree
from .maps import MapStructure, build_algebraic_map, build_coordinate_graph

__all__ = [
    "Circuit",
    "BoundarySequence",
    "PairingTable",
    "CornerPartition",
    "BRING_CIRCUIT_NAMES",
    "BRING_SIDE_LABELS",
    "bring_circuit",
    "bring_side_pairing",
    "rule_pairing",
    "validate_circuit",
    "search_circuits",
    "boundary_from_circuit",
    "pairing_rule_check",
    "vertex_classes",
    "side_label_analysis",
    "SideLabelReport",
    "coset_domain_check",
    "CosetDomainReport",
    "parse_pairing_text",
    "format_pairing_text",
    "parse_circuit_text",
    "format_circuit_text",
    "circuit_labels",
]

# Sides of the paper's fundamental polygon of the genus-4 map.
NUM_SIDES = 20

# The most circuits search_circuits lists; larger searches are refused.
MAX_CIRCUITS = 1 << 22

SEARCH_BLOCK = 1 << 12  # walks that search_circuits extends in place at a time

# The 12-vertex circuit through the boundary poles of the genus-4 map, and
# the classical side labels / side pairing of its 20-gon (sides 1..20).
BRING_CIRCUIT_NAMES = [
    "H2", "E1", "F2", "B1", "J2", "K1", "C2", "L1", "E2", "B1", "F2", "D1",
]

BRING_SIDE_LABELS = {
    1: "K2", 2: "B2", 3: "L1", 4: "I1", 5: "B2",
    6: "J2", 7: "J1", 8: "H1", 9: "J2", 10: "F2",
    11: "K1", 12: "L1", 13: "F2", 14: "E2", 15: "I1",
    16: "J1", 17: "E2", 18: "K2", 19: "H1", 20: "K1",
}

_BRING_SIDE_PAIRS = [
    (2, 5), (6, 9), (10, 13), (14, 17), (18, 1),
    (3, 12), (7, 16), (11, 20), (15, 4), (19, 8),
]


@dataclass(frozen=True)
class Circuit:
    """Closed walk of coordinate codes; the edge back to the start is
    implicit."""

    seq: tuple[int, ...]


@dataclass(frozen=True)
class PairingTable:
    """Perfect matching on the polygon sides 1..2k, for any k >= 1 pairs.

    Each pair and the tuple of pairs are stored sorted, so equal matchings
    compare equal.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(tuple(sorted(pair)) for pair in self.pairs))
        sides = sorted(s for pair in pairs for s in pair)
        # Two sides per pair, at least one pair, and together sides 1..2k.
        if {len(pair) for pair in pairs} != {2} or sides != list(range(1, len(sides) + 1)):
            raise ValueError("pairs are not a perfect matching of the sides")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True)
class CornerPartition:
    classes: tuple[frozenset[int], ...]
    genus: int

    @property
    def vertex_count(self) -> int:
        return len(self.classes)


def bring_circuit() -> Circuit:
    table = vertex_names(HeckeParams(4, 5))
    return Circuit(tuple(table.coord(name) for name in BRING_CIRCUIT_NAMES))


def bring_side_pairing() -> PairingTable:
    return PairingTable(pairs=tuple(_BRING_SIDE_PAIRS))


def rule_pairing() -> PairingTable:
    """The matching forced by the rule: k = 2 mod 4 pairs with k+3,
    k = 3 mod 4 pairs with k+9 (side numbers wrap into 1..20).  The rule
    covers every side, so it allows no other matching."""
    shift = {2: 3, 3: 9}
    return PairingTable(pairs=tuple(
        (k, (k + shift[k % 4] - 1) % NUM_SIDES + 1)
        for k in range(1, NUM_SIDES + 1)
        if k % 4 in shift
    ))


def pairing_rule_check(t: PairingTable) -> bool:
    """True iff every side 2 mod 4 pairs to +3 and every 3 mod 4 to +9."""
    return t.pairs == rule_pairing().pairs


def validate_circuit(c: Circuit, p: HeckeParams) -> bool:
    """Every vertex is a coordinate, one of ``coordinate_codes``, and every
    step, the closing one too, is an edge of ``adjacent_codes``; vertices
    and edges may repeat.  The edge test alone reads any kind digit but 0
    as kind B and ignores the sign representative, so it would pass codes
    that name no coordinate."""
    if len(c.seq) < 2:
        return False
    codes = np.array(c.seq, dtype=np.int64)
    if not np.isin(codes, coordinate_codes(p)).all():
        return False
    return bool(adjacent_codes(codes, np.roll(codes, -1), p).all())


def search_circuits(
    start: int,
    length: int,
    pole_positions: set[int],
    p: HeckeParams,
) -> np.ndarray:
    """All closed walks of the given length from the coordinate code start
    whose pole positions are exactly the given set, as a (count, length)
    int32 table: row r lists the walk's nodes by their row in
    ``build_coordinate_graph(p).codes``, and the rows run in lexicographic
    order of those rows (the depth-first order).  A start that is no
    coordinate code of n, in or out of the code range, is a ValueError.

    ways[k][v] counts the ways to finish such a walk from node v at
    position k (position ``length`` is the start again), in int64, clipped
    at MAX_CIRCUITS + 1.  ways[0][start] rows hold the listing, and the
    walks grow in them one position at a time: each takes, in ascending
    order, the neighbours of its last node that can still finish.  Each
    has one or more, so walk i's extensions start at row i or later, and
    the blocks of walks grow in place from the last down.  A node that can
    finish at position length - 1 is a neighbour of the start, so every
    walk of the last level closes.
    """
    if length > 16:
        raise ValueError(f"circuit search length {length} exceeds the bound 16")
    if length < 1:
        raise ValueError(f"circuit search length {length} must be at least 1")
    outside = sorted(set(pole_positions) - set(range(length)))
    if outside:
        raise ValueError(f"pole position {outside[0]} is outside 0..{length - 1}")
    graph = build_coordinate_graph(p)
    size = graph.codes.size
    start_idx = int(np.searchsorted(graph.codes, start))
    if start_idx == size or graph.codes[start_idx] != start:
        raise ValueError(f"start {start} is not a coordinate mod {p.n}")
    poles = graph.codes % p.n == 0

    ways = np.zeros((length + 1, size), dtype=np.int64)
    ways[length, start_idx] = 1
    for k in range(length - 1, -1, -1):
        row = ways[k + 1][graph.nbrs].sum(axis=1)
        row[poles != (k in pole_positions)] = 0
        ways[k] = np.minimum(row, MAX_CIRCUITS + 1)
    if ways[0, start_idx] > MAX_CIRCUITS:
        raise ValueError(f"circuit search would list more than {MAX_CIRCUITS} circuits")

    live = ways > 0
    nbrs = graph.nbrs.astype(np.int32)
    rows = np.empty((int(ways[0, start_idx]), length), dtype=np.int32)
    if not len(rows):
        return rows
    rows[0, 0] = start_idx
    walks = 1
    for pos in range(1, length):
        cand = nbrs[rows[:walks, pos - 1]]
        keep = live[pos][cand]
        fanout = keep.sum(axis=1)
        ends = np.cumsum(fanout)
        rows[:ends[-1], pos] = cand[keep]
        for hi in range(walks, 0, -SEARCH_BLOCK):
            lo = max(hi - SEARCH_BLOCK, 0)
            first = ends[lo - 1] if lo else 0
            rows[first:ends[hi - 1], :pos] = np.repeat(rows[lo:hi, :pos], fanout[lo:hi], axis=0)
        walks = int(ends[-1])
    return rows


@dataclass(frozen=True)
class BoundarySequence:
    """Cyclic sequence of boundary coordinate codes, an int64 array; slot
    j + L is T(slot j)."""

    params: HeckeParams
    slots: np.ndarray
    pole_slots: tuple[int, ...]


def boundary_from_circuit(c: Circuit, p: HeckeParams) -> BoundarySequence:
    """Concatenate the n translates of the circuit and validate the seams."""
    if not validate_circuit(c, p):
        raise ValueError("circuit fails adjacency validation")
    blocks = [np.array(c.seq, dtype=np.int64)]
    pole_positions = set(np.flatnonzero(blocks[0] % p.n == 0).tolist())
    if len(c.seq) != 12 or pole_positions != {0, 3, 6, 9}:
        raise ValueError(
            "boundary construction expects a 12-vertex circuit with poles "
            f"at positions 0, 3, 6, 9; got length {len(c.seq)}, poles {sorted(pole_positions)}"
        )
    t = generators(p)[1]
    for _ in range(p.n - 1):
        blocks.append(apply_codes(t, blocks[-1], p))
    codes = np.concatenate(blocks)
    seams = ~adjacent_codes(codes, np.roll(codes, -1), p)
    if seams.any():
        j = int(np.argmax(seams))
        raise ValueError(f"boundary seam violation between slots {j} and {j+1}")
    moved = apply_codes(t, codes, p) != np.roll(codes, -len(c.seq))
    if moved.any():
        j = int(np.argmax(moved))
        raise ValueError(f"slot {j} does not translate onto slot {j + len(c.seq)}")
    pole_slots = tuple(np.flatnonzero(codes % p.n == 0).tolist())
    if len(pole_slots) != p.n * len(pole_positions):
        raise ValueError("pole count mismatch after translation")
    return BoundarySequence(params=p, slots=codes, pole_slots=pole_slots)


# ---------------------------------------------------------------------------
# Corner identification.
# ---------------------------------------------------------------------------


def vertex_classes(t: PairingTable) -> CornerPartition:
    """Identify the corners a_1..a_2k of a polygon under its side pairing.

    Corner a_k is the first corner of side k going around the boundary.
    Glued sides k and j run oppositely, so a_k is identified with a_(j+1):
    the classes are the orbits of k -> partner(k) + 1, listed by their
    smallest corner.  They are the vertices of the one-face map whose darts
    are the sides, alpha the pairing and sigma that step; its genus is the
    polygon's.
    """
    sides = 2 * len(t.pairs)
    a, b = (np.array(t.pairs, dtype=np.int64) - 1).T
    mate = np.empty(sides, dtype=np.int64)
    mate[a], mate[b] = b, a
    polygon = MapStructure(sigma=(mate + 1) % sides, alpha=mate)
    label = polygon.vertex_labels
    roots = np.flatnonzero(label == np.arange(sides))
    return CornerPartition(
        classes=tuple(frozenset((np.flatnonzero(label == r) + 1).tolist()) for r in roots),
        genus=polygon.invariants().genus,
    )


# ---------------------------------------------------------------------------
# Side labels of the 20-gon.
# ---------------------------------------------------------------------------


@dataclass
class SideLabelReport:
    orbit_b: list[str]
    orbit_a: list[str]
    span_interiors: list[tuple[str, str]]
    designated: list[str]
    designation_counts_ok: bool
    fixture_counts_ok: bool
    alignment_offsets: list[int]
    pairing_consistent: bool

    @property
    def ok(self) -> bool:
        return (
            self.designation_counts_ok
            and self.fixture_counts_ok
            and len(self.alignment_offsets) == 1
            and self.pairing_consistent
        )


def _translate_orbit(name: str, table: NameTable, p: HeckeParams) -> list[str]:
    t = generators(p)[1]
    u = table.coord(name)
    orbit = [name]
    v = int(apply_codes(t, u, p))
    while v != u:
        orbit.append(table.name(v))
        v = int(apply_codes(t, v, p))
    return orbit


def side_label_analysis(b: BoundarySequence) -> SideLabelReport:
    """Interior labels of the 20 pole-to-pole spans, and their bookkeeping.

    Each span has one kind-A and one kind-B interior vertex.  Designating
    the kind-A label when it lies in the valency-5 orbit of K1 and the
    kind-B label otherwise is forced by counting, and yields each of the
    ten side labels exactly twice.  A unique cyclic offset aligns the
    designations with the classical side numbering, which also carries the
    same-label span pairs onto the classical side pairing.
    """
    p = b.params
    if (p.q, p.n) != (4, 5):
        raise ValueError("side labels are defined for the q=4, n=5 boundary")
    table = vertex_names(p)
    orbit_b = _translate_orbit("F2", table, p)
    orbit_a = _translate_orbit("K1", table, p)

    poles = list(b.pole_slots)
    num_spans = len(poles)
    total = len(b.slots)
    interiors: list[tuple[str, str]] = []
    designated: list[str] = []
    for s in range(num_spans):
        start = poles[s]
        end = poles[(s + 1) % num_spans]
        width = (end - start) % total
        inner = [table.name(b.slots[(start + k) % total]) for k in range(1, width)]
        if len(inner) != 2:
            raise ValueError(f"span {s} has {len(inner)} interior vertices, expected 2")
        interiors.append((inner[0], inner[1]))
        in_a = [x for x in inner if x in orbit_a]
        designated.append(in_a[0] if in_a else next(x for x in inner if x in orbit_b))

    want = sorted(orbit_a + orbit_b)
    designation_counts = Counter(designated)
    designation_counts_ok = (
        sorted(designation_counts) == want
        and all(v == 2 for v in designation_counts.values())
    )
    fixture = [BRING_SIDE_LABELS[k] for k in range(1, NUM_SIDES + 1)]
    fixture_counts = Counter(fixture)
    fixture_counts_ok = (
        sorted(fixture_counts) == want and all(v == 2 for v in fixture_counts.values())
    )

    # Rotational alignment of our span order with the classical numbering.
    offsets = [
        r
        for r in range(num_spans)
        if all(designated[(k + r) % num_spans] == label for k, label in enumerate(fixture))
    ]

    pairing_consistent = False
    if len(offsets) == 1:
        r = offsets[0]
        by_label: dict[str, list[int]] = {}
        for s, lab in enumerate(designated):
            by_label.setdefault(lab, []).append(s)
        derived = set()
        for slots in by_label.values():
            if len(slots) != 2:
                break
            derived.add(tuple(((s - r) % num_spans) + 1 for s in slots))
        else:
            pairing_consistent = PairingTable(pairs=tuple(derived)) == bring_side_pairing()

    return SideLabelReport(
        orbit_b=orbit_b,
        orbit_a=orbit_a,
        span_interiors=interiors,
        designated=designated,
        designation_counts_ok=designation_counts_ok,
        fixture_counts_ok=fixture_counts_ok,
        alignment_offsets=offsets,
        pairing_consistent=pairing_consistent,
    )


# ---------------------------------------------------------------------------
# Spanning-tree fundamental domain check.
# ---------------------------------------------------------------------------


@dataclass
class CosetDomainReport:
    tiles: int
    tree_edges: int
    boundary_sides: int
    edge_pairs: int
    corner_classes: int
    chi: int
    genus: int
    map_chi: int
    matches_map: bool
    pairings_in_kernel: int


def coset_domain_check(group: FiniteHeckeGroup) -> CosetDomainReport:
    """Euler characteristic from a glued fundamental domain of coset tiles.

    Each group element is a tile shaped like the standard fundamental region:
    sides L, arc1, arc2, R in boundary order, with R(g) glued to L(g*T) and
    arc1(g) to arc2(g*S).  Gluing tiles along any spanning tree yields a
    disk; walking its boundary gives one big polygon whose sides are paired
    by the leftover gluings (all of which are trivial in the quotient, i.e.
    lie in the congruence kernel).  Corner identification then computes the
    surface's Euler characteristic independently of any orbit counting.

    The polygon is a one-face map (see ``_glued_domain``) whose invariants
    give chi and genus; ``tests/oracles.py`` grows its own tree and walks it
    as the reference.  A side's partner is by construction the matching
    side of the tile across it, so ``pairings_in_kernel`` is the pair count.

    The check is O(N) array passes, the block BFS among them.  The
    polygon's darts are numbered so that its face steps s -> s + 1 on all
    but at most 3V - 2 sides, so its labelling doubles over at most 3V - 2
    runs, and its corner classes, a few sides each, take four or five
    doubling rounds.  At (4, 96) it takes about 0.08 s in process; doubling the
    face over all 786,434 sides took 0.36-0.57 s.
    """
    amap = build_algebraic_map(group)
    tree_edges, boundary = _glued_domain(group.alpha, group.params.n)
    poly = boundary.invariants()
    if poly.faces != 1:
        raise RuntimeError(f"boundary walk splits into {poly.faces} cycles, expected 1")
    inv = amap.invariants()
    return CosetDomainReport(
        tiles=group.order,
        tree_edges=tree_edges,
        boundary_sides=poly.darts,
        edge_pairs=poly.edges,
        corner_classes=poly.vertices,
        chi=poly.chi,
        genus=poly.genus,
        map_chi=inv.chi,
        matches_map=poly.chi == inv.chi,
        pairings_in_kernel=poly.edges,
    )


def _glued_domain(alpha: np.ndarray, n: int) -> tuple[int, MapStructure]:
    """Tree edges of the disk glued from tiles g -> g*T (``kernels.block_successor``
    on blocks of n) and g -> g*S (alpha), and its boundary polygon as a map.

    Tile g has sides L, arc1, arc2 and R in boundary order; R(g) is glued
    to L(g*T), and arc1(g) to arc2(g*S).  The R sides of all tiles but the
    last of a block join its tiles into a path, and the arc1 sides of the
    edges ``breadth_first_tree`` finds on the (V, n) table alpha // n join
    the V paths: N - 1 edges.  The disk's counts do not depend on the tree.

    Block v's sides off the T-path are its first tile's L, the arcs of its
    tiles in turn and its last tile's R, laid out as the slots v*w .. v*w
    + w - 1, w = 2n + 2 (arc1 of tile g is slot 2(g + g // n) + 1); a
    block's L and R are glued to each other, arc1(g) to arc2(alpha[g]).
    The polygon's darts are the boundary sides, numbered in slot order,
    and alpha pairs them.  phi is the boundary walk: from a side, the next
    slot, crossing each tree side met to the slot after its partner.  R
    ends the walk round the cusp of its block's T-path, so phi(R) = L of
    the same block; every other side but those entering a tree arc steps
    to the next dart.  So phi departs from s -> s + 1 on at most 3V - 2
    sides, and ``_orbit_labels`` labels the one face over them alone.
    sigma = alpha o phi takes a side to the partner of the side after it:
    the corner at a side's end is the end of that partner, so the vertices
    are the corner classes.
    """
    size = alpha.shape[0]
    blocks = alpha // n
    cand = breadth_first_tree(blocks.reshape(-1, n))
    if cand.size != size // n - 1:
        raise RuntimeError("tile graph is disconnected")
    tree_edges = size - size // n + int(cand.size)

    width = 2 * n + 2
    slots = size // n * width
    first = np.arange(0, slots, width)  # the L slot of each block
    mate = np.empty((size // n, width), dtype=np.intp)
    mate[:, 0] = first + width - 1
    mate[:, -1] = first
    arc1 = np.add(alpha, blocks, dtype=np.intp)  # alpha[g] + alpha[g] // n
    del blocks
    arc1 *= 2
    arc1 += 1  # the arc1 slot of alpha[g]
    arcs = mate[:, 1:-1].reshape(-1, n, 2)
    arcs[..., 1] = arc1.reshape(-1, n)
    arc1 += 1
    arcs[..., 0] = arc1.reshape(-1, n)
    del arc1, arcs
    mate = mate.ravel()
    glued = 2 * (cand + cand // n) + 1
    glued = np.concatenate([glued, mate[glued]])
    del cand
    boundary = np.ones(slots, dtype=bool)
    boundary[glued] = False

    # Walks that enter a tree side from a boundary side: cross to the slot
    # after its partner until a boundary slot is reached.  Every tree side
    # is crossed once, on the walk of one corner, so the walks take at most
    # as many steps as there are tree sides.
    enter = glued[boundary[glued - 1]]
    ends = enter.copy()
    active = np.arange(enter.size)
    for _ in range(glued.size):
        if not active.size:
            break
        crossing = mate[ends[active]] + 1
        ends[active] = crossing
        active = active[~boundary[crossing]]
    if active.size:
        raise RuntimeError(f"boundary successor did not settle in {glued.size} steps")

    rank = np.cumsum(boundary)
    rank -= 1
    partner = rank[mate[boundary]]
    del mate, boundary
    phi = np.arange(1, partner.size + 1)
    phi[rank[first + width - 1]] = rank[first]
    phi[rank[enter - 1]] = rank[ends]
    return tree_edges, MapStructure(sigma=partner[phi], alpha=partner)


# ---------------------------------------------------------------------------
# Text formats: pairing tables and circuits.
# ---------------------------------------------------------------------------


def parse_pairing_text(text: str) -> PairingTable:
    """Lines "i j" (1-based); '#' starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two side numbers, got {raw!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: side numbers must be integers, got {raw!r}") from None
    return PairingTable(pairs=tuple(pairs))


def format_pairing_text(t: PairingTable) -> str:
    return "\n".join(f"{a} {b}" for a, b in t.pairs) + "\n"


def parse_circuit_text(text: str, p: HeckeParams) -> Circuit:
    """Comma-separated vertex names (when a name table exists) or raw
    kind:num/den triples such as B:2/0."""
    _check_modulus(p.n)
    table = None
    try:
        table = vertex_names(p)
    except ValueError:
        pass
    tokens = (token.strip() for token in text.strip().split(","))
    return Circuit(tuple(_parse_vertex(token, table, p) for token in tokens if token))


def _parse_vertex(token: str, table: NameTable | None, p: HeckeParams) -> int:
    """The code of one vertex token; every malformed token is a ValueError
    naming it."""
    if ":" not in token:
        if table is None:
            raise ValueError(
                f"vertex {token!r}: no name table for q={p.q}, n={p.n}; use kind:num/den"
            )
        try:
            return table.coord(token)
        except KeyError:
            raise ValueError(f"unknown vertex name {token!r}") from None
    kind, frac = token.split(":", 1)
    num, _, den = frac.partition("/")
    try:
        num, den = int(num), int(den)
    except ValueError:
        raise ValueError(f"vertex {token!r} is not of the form kind:num/den") from None
    try:
        return normalize(kind.strip(), num, den, p)
    except ValueError as exc:
        raise ValueError(f"vertex {token!r}: {exc}") from None


def circuit_labels(p: HeckeParams) -> np.ndarray:
    """``coordinate_labels`` of the graph's nodes as an object array, with
    kind:num/den triples where the map has no name table."""
    return np.array(coordinate_labels(p, lambda code, _: "%s:%d/%d" % code_coord(code, p)),
                    dtype=object)


def format_circuit_text(rows: np.ndarray, labels: np.ndarray) -> str:
    """One line per row of a ``search_circuits`` table: the labels of its
    nodes, comma-separated (see ``circuit_labels``).

    Each label is written once with a trailing comma and once with a
    trailing newline into ``padded_cells``, and each padded label is one
    fixed-width (void) item.  A row is then one gather of such items, its
    last cell from the newline table, and the zero bytes are dropped at the
    end, as ``decimal_lines`` drops them.
    """
    if not len(rows):
        return ""
    cells = padded_cells([f"{label}{end}" for end in ",\n" for label in labels])
    cells = cells.view(f"V{cells.shape[1]}")[:, 0]
    text = cells[rows]
    text[:, -1] = cells[len(labels) + rows[:, -1]]
    text = text.view(np.uint8)
    return text[text != 0].tobytes().decode()
