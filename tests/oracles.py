"""Scalar references for the library, which only the tests call.

These are the per-element loops the library used before its numpy passes:
the coordinate rules one coordinate at a time (``normalize``,
``enumerate_coords``, ``adjacent``, ``cusp_of``, ``apply_to_coord``), on
``HFCoord`` triples, which ``code_of`` turns into the library's codes;
``correspondence_check`` calls ``cusp_of`` and ``adjacent`` once per dart
or edge and walks the orbits with ``orbits``; ``coset_domain_check`` grows
its spanning tree with a FIFO queue, walks the boundary side by side and
unions corners over walk positions with ``polygon_corner_classes``;
``search_circuits`` prunes its walk by BFS distances to the start and
checks poles and the closing edge as it goes, and returns ``Circuit``
objects, which ``circuits_of`` makes of the library's walk table and
``format_circuit`` writes one at a time, and ``circuit_text`` writes a
table of rows with ``",".join``; ``universal_geodesics`` grows the
tessellation one matrix product and one cusp at a time
(``tessellation_matrices``, ``column_cusp``, ``cusp_sort_key``), and
``render_disk`` samples and projects its disk-model geodesics one point at
a time.  The differential
tests in test_vectorized.py require the library to agree with them.  Next to them
are the index formula in the two branches the library once wrote, the
element-level group operations looked up by key (canonical keys of all 8
components, the library's packing before it keyed a row by its kind's
four digits; product, inverse, right-multiplication permutation, element
order), the permutation inverse, the dart system's orbits, connectivity and
automorphisms, the coordinate graph's degrees, and the translation T as the
formula "add lam_q".  Two former library passes are kept as references for
the completion table: ``closure_bfs``, the breadth-first closure that
enumerated the group and its Cayley table by products and sorted key
lookups, and ``pair_test_graph``, the coordinate graph's edges from the
edge test on every pair of nodes.

The references work on the 8-slot component rows the library stored before
it kept a row as (kind, a, b, c, d): 8 residues in the scan order e11.rat,
e11.irr, e12.rat, e12.irr, e21.rat, e21.irr, e22.rat, e22.irr.  ``_SLOTS``
names the slots of a, b, c, d in each form, ``mat_mul_exact`` is the
8-component product over Z[sqrt(m)] and ``right_mult_map`` its linear map,
and ``eight_slots`` writes the library's rows into 8 slots, which the
references that take a group do themselves.
"""

import math

import numpy as np

from hfmap import kernels
from hfmap.coords import HFCoord, adjacent_codes, coordinate_codes, vertex_names
from hfmap.group import RADICAND, exact_generators
from hfmap.maps import (
    CorrespondenceReport,
    MapInvariants,
    build_algebraic_map,
    build_coordinate_graph,
    canonical_form,
)
from hfmap.polygon import Circuit, CosetDomainReport
from hfmap.render import (
    SAMPLES,
    STROKE,
    WIDTH,
    YMAX,
    Cusp,
    Geodesic,
    _fmt,
    _svg_document,
)


# -- group elements ----------------------------------------------------------

# Slots of a, b, c, d in the component rows [[a, b*sqrt(m)], [c*sqrt(m), d]]
# (kind A), [[a*sqrt(m), b], [c, d*sqrt(m)]] (kind B) and, for q = 3,
# [[a, b], [c, d]].
_SLOTS = np.array([(0, 3, 5, 6), (1, 2, 4, 7), (0, 2, 4, 6)])

IDENTITY = (1, 0, 0, 0, 0, 0, 1, 0)


def eight_slots(rows, m: int) -> np.ndarray:
    """Rows (kind, a, b, c, d) of the library, (..., 5), as (..., 8) int64
    component rows: a, b, c, d in the slots of their kind, or of the q = 3
    form when m = 1, and zeros in the other four.  The first row of a kind
    other than 0 or 1, or other than 0 when m = 1, has no slots: it raises
    ``ValueError``, with the message of ``coords.cusp_codes``."""
    rows = np.asarray(rows, dtype=np.int64)
    kind = rows[..., 0]
    bad = (kind != 0) & ((kind != 1) | (m == 1))
    if bad.any():
        row = rows.reshape(-1, 5)[int(np.argmax(bad.ravel()))].tolist()
        raise ValueError(f"row {row} has kind {row[0]}; corrupted element")
    slots = _SLOTS[np.where(m == 1, 2, kind)]
    out = np.zeros(rows.shape[:-1] + (8,), dtype=np.int64)
    np.put_along_axis(out, slots, rows[..., 1:], axis=-1)
    return out


def mat_mul_exact(a, b, m: int) -> tuple:
    """The 8 unreduced components of the 2x2 product a*b over Z[sqrt(m)].

    Both arguments unpack into 8 components along their first axis: tuples
    of Python ints give the exact product, arrays of shape (8, ...) give
    broadcast arrays of sums.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    return (
        a0 * b0 + m * a1 * b1 + a2 * b4 + m * a3 * b5,
        a0 * b1 + a1 * b0 + a2 * b5 + a3 * b4,
        a0 * b2 + m * a1 * b3 + a2 * b6 + m * a3 * b7,
        a0 * b3 + a1 * b2 + a2 * b7 + a3 * b6,
        a4 * b0 + m * a5 * b1 + a6 * b4 + m * a7 * b5,
        a4 * b1 + a5 * b0 + a6 * b5 + a7 * b4,
        a4 * b2 + m * a5 * b3 + a6 * b6 + m * a7 * b7,
        a4 * b3 + a5 * b2 + a6 * b7 + a7 * b6,
    )


def mat_mul_components(a, b, n: int, m: int) -> np.ndarray:
    """Product over Z_n[sqrt(m)] of (..., 8) component arrays; broadcasts."""
    a = np.moveaxis(np.asarray(a, dtype=np.int64), -1, 0)
    b = np.moveaxis(np.asarray(b, dtype=np.int64), -1, 0)
    return np.stack(np.broadcast_arrays(*mat_mul_exact(a, b, m)), axis=-1) % n


def right_mult_map(g, n: int, m: int) -> np.ndarray:
    """The 8x8 matrix M with (rows @ M) % n equal to rows * g over Z_n[sqrt(m)].

    Row k of M is the product of the k-th unit row with g.
    """
    return mat_mul_components(np.eye(8, dtype=np.int64), g, n, m)



def index_formula(q: int, n: int) -> int:
    """Order of H_q / H_q(n) in the two branches the library once wrote:
    n^3/2 * prod_{p|n} (1 - 1/p^2) for q = 3, the modular group with g ~ -g;
    for q in {4, 6} with m = 2, 3, n^3 * prod_{p|n} (1 - 1/p^2) if m does
    not divide n, else n^3 * (1 - 1/m) * prod_{p|n, p != m} (1 - 1/p^2)."""
    primes, rest, d = [], n, 2
    while rest > 1:
        if d * d > rest:
            d = rest
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    num, den = n**3, 1
    if q == 3:
        for p in primes:
            num *= p * p - 1
            den *= p * p
        den *= 2
    else:
        m = RADICAND[q]
        if n % m == 0:
            num *= m - 1
            den *= m
            primes = [p for p in primes if p != m]
        for p in primes:
            num *= p * p - 1
            den *= p * p
    assert num % den == 0
    return num // den


def digit_weights(n: int) -> np.ndarray:
    """n**[7..0]: the place values of the 8 base-n digits of an oracle key,
    which fit int64 for n <= 234 (n**8 < 2**63)."""
    return n ** np.arange(7, -1, -1, dtype=np.int64)


def pack_components(comps: np.ndarray, n: int) -> np.ndarray:
    """Pack (..., 8) component arrays into base-n int64 keys, most
    significant digit first."""
    return np.asarray(comps, dtype=np.int64) @ digit_weights(n)


def unpack_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_components; returns (..., 8) int64 components."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty(keys.shape + (8,), dtype=np.int64)
    rem = keys.copy()
    for i in range(7, -1, -1):
        out[..., i] = rem % n
        rem //= n
    return out


def canonical_keys(comps: np.ndarray, n: int) -> np.ndarray:
    """Canonical projective key: min over the global sign flip."""
    comps = np.asarray(comps, dtype=np.int64)
    neg = (-comps) % n
    return np.minimum(pack_components(comps, n), pack_components(neg, n))


def closure_bfs(
    gens: np.ndarray, n: int, m: int, limit: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Breadth-first closure of canonical generator rows under right products.

    Returns (keys, cayley, completed).  ``keys`` lists the canonical keys of
    the elements level by level from the identity, ascending within a
    level.  ``cayley[i, j]`` is the index in ``keys`` of keys[i] * gens[j].
    Both are allocated once with ``limit`` rows.  ``completed`` is False when
    the closure would exceed ``limit`` elements; keys and cayley then hold
    the whole levels found so far, and the last level's cayley rows may
    name the indices the next level would have taken.
    """
    kernels._check_modulus(n)
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, 8)
    k = gens.shape[0]
    # frontier @ maps gives each row's products with every generator, side
    # by side, before reduction mod n.
    maps = np.concatenate([right_mult_map(g, n, m) for g in gens], axis=1)
    weights = digit_weights(n)
    # The key of -g: sum over the nonzero digits c of (n - c) n**place.
    flip_weights = n * weights
    limit = max(limit, 1)
    keys = np.empty(limit, dtype=np.int64)
    cayley = np.empty((limit, k), dtype=np.int64)
    frontier = np.array([[1, 0, 0, 0, 0, 0, 1, 0]], dtype=np.int64)
    keys[0] = pack_components(frontier[0], n)
    count = 1
    # The keys seen so far in ascending order, with their element indices.
    visited = keys[:1].copy()
    visited_index = np.zeros(1, dtype=np.int64)
    while True:
        # The frontier is the last level, rows count - len(frontier) on.
        prod = frontier @ maps
        np.remainder(prod, n, out=prod)
        prod = prod.reshape(-1, 8)
        level = prod @ weights
        np.minimum(level, np.minimum(prod, 1) @ flip_weights - level, out=level)

        order = np.argsort(level)
        ranked = level[order]
        first = np.ones(ranked.size, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        found = ranked[first]
        pos = np.searchsorted(visited, found)
        clipped = np.minimum(pos, visited.size - 1)
        fresh = visited[clipped] != found
        # Seen keys keep their index; fresh ones are numbered in key order.
        rank = np.cumsum(fresh)
        end = count + int(rank[-1])
        index = np.where(fresh, rank + (count - 1), visited_index[clipped])
        row_index = np.empty(level.size, dtype=np.int64)
        row_index[order] = index[np.cumsum(first) - 1]
        cayley[count - frontier.shape[0] : count] = row_index.reshape(-1, k)

        if end == count or end > limit:
            return keys[:count], cayley[:count], end == count
        new = found[fresh]
        keys[count:end] = new
        visited = np.insert(visited, pos[fresh], new)
        visited_index = np.insert(visited_index, pos[fresh], index[fresh])
        count = end
        frontier = unpack_keys(new, n)


def right_mult_keys(comps: np.ndarray, g: np.ndarray, n: int, m: int) -> np.ndarray:
    """Canonical keys of (each row of comps) * g."""
    return canonical_keys(mat_mul_components(comps, g, n, m), n)


def element_order(g, p) -> int:
    """Least k >= 1 with g**k projectively the identity; ``g`` is a component row."""
    n = p.n
    ident = {(1, 0, 0, 0, 0, 0, 1, 0), (n - 1, 0, 0, 0, 0, 0, n - 1, 0)}
    g = tuple(int(v) % n for v in g)
    acc = g
    k = 1
    while acc not in ident:
        acc = tuple(v % n for v in mat_mul_exact(acc, g, p.m))
        k += 1
        if k > 4 * n**3:
            raise RuntimeError("element order exceeds group-theoretic bound")
    return k


def perm_inverse(f: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(f)
    for i, v in enumerate(f):
        out[v] = i
    return tuple(out)


def _slot_rows(group) -> np.ndarray:
    """The group's rows in 8 slots."""
    return eight_slots(group.rows, group.params.m)


def index_of_key(group, key: int) -> int:
    """Element index of a packed canonical key, by a scan of the keys."""
    hits = np.flatnonzero(canonical_keys(_slot_rows(group), group.params.n) == key)
    if hits.size != 1:
        raise KeyError(f"key {key} is not an element of this group")
    return int(hits[0])


def mult(group, i: int, j: int) -> int:
    p = group.params
    rows = _slot_rows(group)
    key = right_mult_keys(rows[i], rows[j], p.n, p.m)
    return index_of_key(group, int(key))


def inv(group, i: int) -> int:
    """Index of the inverse, from the adjugate [[d, -b], [-c, a]]."""
    c = _slot_rows(group)[i]
    n = group.params.n
    adj = np.array(
        [c[6], c[7], -c[2] % n, -c[3] % n, -c[4] % n, -c[5] % n, c[0], c[1]],
        dtype=np.int64,
    )
    return index_of_key(group, int(canonical_keys(adj, n)))


def right_mult_perm(group, j: int) -> np.ndarray:
    """Permutation i -> i*j over all element indices, as an int64 array."""
    p = group.params
    rows = _slot_rows(group)
    index = {key: i for i, key in enumerate(canonical_keys(rows, p.n).tolist())}
    keys = right_mult_keys(rows, rows[j], p.n, p.m)
    return np.array([index[key] for key in keys.tolist()], dtype=np.int64)


# -- coordinates -------------------------------------------------------------


def normalize(kind, num, den, p):
    """Reduce mod n and pick the canonical sign representative."""
    if kind not in ("A", "B"):
        raise ValueError(f"coordinate kind must be 'A' or 'B', got {kind!r}")
    if p.q == 3 and kind == "B":
        raise ValueError("q=3 has only kind-A coordinates")
    n = p.n
    a, c = num % n, den % n
    if math.gcd(a, c, n) != 1:
        raise ValueError(f"({num}, {den}) is not a coordinate mod {n}: gcd > 1")
    if _unreached(kind, a, c, p):
        part = "numerator" if kind == "A" else "denominator"
        raise ValueError(
            f"({num}, {den}) is not a coordinate mod {n}: {p.m} divides the kind-{kind} {part}"
        )
    return HFCoord(kind, *min((a, c), (-a % n, -c % n)))


def code_of(u, p) -> int:
    """The library's code kind*n*n + num*n + den of the coordinate u."""
    return (("A", "B").index(u.kind) * p.n + u.num) * p.n + u.den


def _unreached(kind, a, c, p) -> bool:
    """True for the residue classes no cusp reaches when m > 1 divides n."""
    return p.m > 1 and p.n % p.m == 0 and (a if kind == "A" else c) % p.m == 0


def enumerate_coords(p) -> list:
    """All coordinates mod n in sorted order, one residue pair at a time."""
    kinds = ("A",) if p.q == 3 else ("A", "B")
    seen = set()
    for kind in kinds:
        for a in range(p.n):
            for c in range(p.n):
                if math.gcd(a, c, p.n) == 1 and not _unreached(kind, a, c, p):
                    seen.add(normalize(kind, a, c, p))
    return sorted(seen)


def adjacent(u, v, p) -> bool:
    """Edge test: a*d - m*b*c = +-1 with (a,c) the A side and (b,d) the B side.

    For q = 3 both arguments are kind A and the plain two-by-two determinant
    is used.
    """
    n = p.n
    if p.q == 3:
        d = (u.num * v.den - v.num * u.den) % n
        return d == 1 % n or d == -1 % n
    if u.kind == v.kind:
        return False
    ac = u if u.kind == "A" else v
    bd = v if u.kind == "A" else u
    d = (ac.num * bd.den - p.m * bd.num * ac.den) % n
    return d == 1 % n or d == -1 % n


def parity(g, p) -> str:
    """'even' or 'odd' for the component row g of q = 4 or 6: an even row
    [[a, b*sqrt(m)], [c*sqrt(m), d]] is zero in slots 1, 2, 4 and 7, an odd
    one [[a*sqrt(m), b], [c, d*sqrt(m)]] in slots 0, 3, 5 and 6.  q = 3 has
    no such split, and a row of both patterns or neither is corrupted."""
    if p.q == 3:
        raise ValueError("parity is undefined for q=3 (all elements even)")
    even = not any(g[i] for i in (1, 2, 4, 7))
    if even == (not any(g[i] for i in (0, 3, 5, 6))):
        raise ValueError(
            f"component row {list(g)} matches no parity pattern; corrupted element"
        )
    return "even" if even else "odd"


def cusp_of(g, p):
    """Coordinate of g(infinity), read off the first column of the row g."""
    if p.q == 3:
        return normalize("A", g[0], g[4], p)
    if parity(g, p) == "even":
        return normalize("A", g[0], g[5], p)
    return normalize("B", g[1], g[4], p)


def apply_to_coord(g, u, p):
    """Moebius action of the row g on the homogeneous column of u."""
    if p.q == 3:
        col = (u.num, 0, 0, 0, u.den, 0, 0, 0)
    elif u.kind == "A":
        col = (u.num, 0, 0, 0, 0, u.den, 0, 0)
    else:
        col = (0, u.num, 0, 0, u.den, 0, 0, 0)
    w = [v % p.n for v in mat_mul_exact(g, col, p.m)]
    if p.q == 3:
        return normalize("A", w[0], w[4], p)
    if w[1] == 0 and w[4] == 0:
        return normalize("A", w[0], w[5], p)
    if w[0] == 0 and w[5] == 0:
        return normalize("B", w[1], w[4], p)
    raise ValueError(f"image column {w[0:2]}, {w[4:6]} matches no coordinate pattern")


def pair_test_graph(p) -> np.ndarray:
    """Edges of the coordinate graph by the edge test on every pair of
    nodes, as (E, 2) int64 rows (i, j) of node indices, i < j, in
    lexicographic order.

    Sorted nodes put every kind A before every kind B, and for q in {4, 6}
    only A-B pairs can be adjacent, so the A x B block is all that is
    tested; for q = 3 it is every pair.
    """
    codes = coordinate_codes(p)
    if p.q == 3:
        row_end, col_start = codes.size, 0
    else:
        row_end = col_start = int(np.searchsorted(codes, p.n * p.n))  # first kind B
    cols = np.arange(col_start, codes.size, dtype=np.int64)
    step = max(1, (1 << 18) // max(1, cols.size))
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for start in range(0, row_end, step):
        rows = np.arange(start, min(start + step, row_end), dtype=np.int64)
        hit = adjacent_codes(codes[rows, None], codes[cols], p)
        hit &= cols > rows[:, None]
        i, j = np.nonzero(hit)
        blocks.append(np.stack([rows[i], cols[j]], axis=1))
    return np.concatenate(blocks)


def translate(u, p):
    """Action of the translation T: add lam_q to the coordinate value."""
    if p.q == 3 or u.kind == "B":
        return normalize(u.kind, u.num + u.den, u.den, p)
    return normalize("A", u.num + p.m * u.den, u.den, p)


# -- dart systems and graphs -------------------------------------------------


def _walk(perm: np.ndarray, start: int) -> list[int]:
    """The orbit of start under perm, in the order perm visits it."""
    orbit = [start]
    cur = int(perm[start])
    while cur != start:
        orbit.append(cur)
        cur = int(perm[cur])
    return orbit


def orbits(perm: np.ndarray) -> list[list[int]]:
    """Every orbit, walked from its smallest dart."""
    seen = np.zeros(perm.shape[0], dtype=bool)
    out = []
    for start in range(perm.shape[0]):
        if seen[start]:
            continue
        orbit = _walk(perm, start)
        seen[orbit] = True
        out.append(orbit)
    return out


def is_connected(amap) -> bool:
    d = amap.darts
    seen = np.zeros(d, dtype=bool)
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        cur = stack.pop()
        for nxt in (int(amap.sigma[cur]), int(amap.alpha[cur])):
            if not seen[nxt]:
                seen[nxt] = True
                count += 1
                stack.append(nxt)
    return count == d


def automorphism_count(amap) -> int:
    """Number of relabelings fixing (sigma, alpha): darts whose rooted code
    equals the code at dart 0."""
    base = canonical_form(amap, 0)
    return sum(1 for r in range(amap.darts) if canonical_form(amap, r) == base)


def degrees(graph) -> list[int]:
    out = [0] * len(graph.nodes)
    for a, b in graph.edges:
        out[a] += 1
        out[b] += 1
    return out


def polygon_corner_classes(num_sides: int, pairs: list[tuple[int, int]]) -> list[set[int]]:
    """Corner classes of a polygon whose sides are glued in pairs, by union-find.

    Sides and corners are 0-based; side i runs from corner i to corner i+1
    (cyclically).  Gluing sides (i, j) identifies corner i with j+1 and
    corner i+1 with j (the two sides are traversed oppositely along the
    boundary).
    """
    parent = list(range(num_sides))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i, j in pairs:
        union(i, (j + 1) % num_sides)
        union((i + 1) % num_sides, j)
    groups: dict[int, set[int]] = {}
    for c in range(num_sides):
        groups.setdefault(find(c), set()).add(c)
    return sorted(groups.values(), key=min)


# -- the array passes of the map pipeline ------------------------------------


def invariants(amap) -> MapInvariants:
    vo, eo, fo = orbits(amap.sigma), orbits(amap.alpha), orbits(amap.alpha[amap.sigma])
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
    cusps = [cusp_of(g, p) for g in _slot_rows(group).tolist()]

    vertex_orbits = orbits(amap.sigma)
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

    index = {u: i for i, u in enumerate(graph.nodes)}
    graph_edges = {frozenset(e) for e in graph.edges}
    projected: list[frozenset[int]] = []
    for a, b in ((o[0], o[1]) for o in orbits(amap.alpha)):
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

    return CorrespondenceReport(
        ok=not problems,
        vertex_bijection=bijection,
        edges_matched=edges_matched,
        vertex_count=len(vertex_orbits),
        edge_count=len(projected),
        problems=problems,
    )


def coset_domain_check(group) -> CosetDomainReport:
    amap = build_algebraic_map(group)
    tree_edges, walk, pairs, classes, kernel_checked = coset_domain(amap.sigma, amap.alpha)
    chi = classes - pairs + 1
    inv = invariants(amap)
    map_chi = inv.vertices - inv.edges + inv.faces
    if chi % 2:
        raise RuntimeError(f"odd Euler characteristic {chi} from coset domain")
    return CosetDomainReport(
        tiles=group.order,
        tree_edges=tree_edges,
        boundary_sides=walk,
        edge_pairs=pairs,
        corner_classes=classes,
        chi=chi,
        genus=(2 - chi) // 2,
        map_chi=map_chi,
        matches_map=chi == map_chi,
        pairings_in_kernel=kernel_checked,
    )


def coset_domain(sigma, alpha) -> tuple[int, int, int, int, int]:
    """Tree edges, walk length, edge pairs, corner classes and pairings in
    the kernel, as polygon._glued_domain returns them."""
    size = sigma.shape[0]
    sigma_inv = np.argsort(sigma)

    # Side encoding: 4*g + k with k in L=0, arc1=1, arc2=2, R=3 (boundary order).
    def partner(sid: int) -> int:
        g, k = divmod(sid, 4)
        if k == 0:
            return 4 * int(sigma_inv[g]) + 3
        if k == 3:
            return 4 * int(sigma[g]) + 0
        if k == 1:
            return 4 * int(alpha[g]) + 2
        return 4 * int(alpha[g]) + 1

    # BFS spanning tree over tiles; crossing side k of tile g reaches:
    # L -> g*T^-1, arc1/arc2 -> g*S, R -> g*T.
    neighbor_sides = (3, 0, 1, 2)
    tree = np.zeros(4 * size, dtype=bool)
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    queue = [0]
    tree_edges = 0
    while queue:
        nxt = []
        for g in queue:
            for k in neighbor_sides:
                sid = 4 * g + k
                other = partner(sid)
                h = other // 4
                if not seen[h]:
                    seen[h] = True
                    tree[sid] = True
                    tree[other] = True
                    tree_edges += 1
                    nxt.append(h)
        queue = nxt
    if not bool(seen.all()):
        raise RuntimeError("tile graph is disconnected")

    # Boundary walk of the glued disk.
    def next_boundary(sid: int) -> int:
        g, k = divmod(sid, 4)
        t = 4 * g + (k + 1) % 4
        while tree[t]:
            pg, pk = divmod(partner(t), 4)
            t = 4 * pg + (pk + 1) % 4
        return t

    start = next(s for s in range(4 * size) if not tree[s])
    walk = [start]
    cur = next_boundary(start)
    while cur != start:
        walk.append(cur)
        cur = next_boundary(cur)
    expected_sides = 4 * size - 2 * tree_edges
    if len(walk) != expected_sides:
        raise RuntimeError(
            f"boundary walk covers {len(walk)} sides, expected {expected_sides}"
        )

    position = {sid: i for i, sid in enumerate(walk)}
    pairs = []
    kernel_checked = 0
    for i, sid in enumerate(walk):
        other = partner(sid)
        j = position[other]
        if i < j:
            pairs.append((i, j))
            # The pairing element maps tile g onto tile h across this edge;
            # in the quotient it is g * X * (gX)^-1 = identity, i.e. the
            # side-pairing transformation lies in the congruence kernel.
            g, k = divmod(sid, 4)
            h = other // 4
            crossed = int(sigma_inv[g]) if k == 0 else (
                int(sigma[g]) if k == 3 else int(alpha[g])
            )
            if crossed == h:
                kernel_checked += 1

    classes = polygon_corner_classes(len(walk), pairs)
    return tree_edges, len(walk), len(pairs), len(classes), kernel_checked


# -- circuits ----------------------------------------------------------------


def search_circuits(start, length, pole_positions, p) -> list:
    """Closed walks from the coordinate code start with exactly the given
    pole positions, in depth-first order over sorted neighbours, pruned by
    distance to start."""
    graph = build_coordinate_graph(p)
    nodes = graph.nodes
    start_idx = graph.codes.tolist().index(start)
    if (0 in pole_positions) != (nodes[start_idx].den == 0):
        return []
    nbrs = [[] for _ in nodes]
    for a, b in graph.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    for lst in nbrs:
        lst.sort()
    pole_flags = [u.den == 0 for u in nodes]

    dist = np.full(len(nodes), -1, dtype=np.int64)
    dist[start_idx] = 0
    queue = [start_idx]
    while queue:
        nxt = []
        for v in queue:
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt

    results = []
    path = [start_idx]

    def extend(pos: int) -> None:
        cur = path[-1]
        remaining = length - pos
        if remaining == 0:
            if cur == start_idx:
                results.append(Circuit(tuple(code_of(nodes[i], p) for i in path[:-1])))
            return
        for w in nbrs[cur]:
            if dist[w] > remaining - 1:
                continue
            if pos + 1 == length:
                if w != start_idx:
                    continue
            elif pole_flags[w] != ((pos + 1) in pole_positions):
                continue
            path.append(w)
            extend(pos + 1)
            path.pop()

    extend(0)
    return results


def circuits_of(rows: np.ndarray, p) -> list:
    """The rows of a ``polygon.search_circuits`` table as Circuits."""
    codes = build_coordinate_graph(p).codes.tolist()
    return [Circuit(tuple(codes[i] for i in row)) for row in rows.tolist()]


def format_circuit(c, p) -> str:
    """Vertex names when the map has a name table, else kind:num/den triples."""
    try:
        table = vertex_names(p)
        return ",".join(table.name(u) for u in c.seq)
    except (ValueError, KeyError):
        pass
    triples = (divmod(u, p.n) for u in c.seq)
    return ",".join(f"{'AB'[top // p.n]}:{top % p.n}/{den}" for top, den in triples)


def circuit_text(rows, labels) -> str:
    """A circuit table's text, one ``",".join`` of labels per row."""
    return "".join(",".join(labels[i] for i in row) + "\n" for row in rows)


# -- universal tessellation --------------------------------------------------


def cusp_sort_key(c: Cusp, m: int) -> tuple:
    """Exact order of the boundary, infinity last; entry 1 is the value."""
    return (int(c.is_infinity), c.value(m), c.p, c.q)


def make_cusp(p: int, q: int, d: int) -> Cusp:
    if d == 0:
        return Cusp(1, 0, 0)
    if d < 0:
        p, q, d = -p, -q, -d
    g = math.gcd(math.gcd(abs(p), abs(q)), d)
    return Cusp(p // g, q // g, d // g)


def column_cusp(top: tuple[int, int], bot: tuple[int, int], m: int) -> Cusp:
    """Exact value of (x + y*sqrt(m)) / (z + w*sqrt(m))."""
    x, y = top
    z, w = bot
    if z == 0 and w == 0:
        return Cusp(1, 0, 0)
    norm = z * z - m * w * w
    if norm == 0:
        raise ZeroDivisionError("denominator has zero norm")
    return make_cusp(x * z - m * y * w, y * z - x * w, norm)


def int_mat_canon(a: tuple) -> tuple:
    """The one of a and -a whose first nonzero entry is positive."""
    for v in a:
        if v > 0:
            return a
        if v < 0:
            return tuple(-x for x in a)
    raise ValueError("zero matrix")


def tessellation_matrices(q: int, depth: int) -> list[tuple]:
    """Distinct g ~ -g of word length <= depth in S, T, T^-1, as tuples of
    8 integer components, by a breadth-first search one product at a time."""
    m = RADICAND[q]
    s, t = map(tuple, eight_slots(exact_generators(q), m).tolist())
    t_inv = (*t[:2], -t[2], -t[3], *t[4:])  # lam negated
    seen = {IDENTITY}
    frontier = [IDENTITY]
    matrices = [IDENTITY]
    for _ in range(depth):
        nxt = []
        for g in frontier:
            for h in (s, t, t_inv):
                prod = int_mat_canon(mat_mul_exact(g, h, m))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    matrices.append(prod)
        frontier = nxt
    return matrices


def universal_geodesics(q: int, depth: int) -> list[Geodesic]:
    """The library's ``universal_geodesics`` one matrix and one cusp at a
    time: endpoints by ``column_cusp``, ordered by ``cusp_sort_key``."""
    m = RADICAND[q]
    keys: dict[Cusp, tuple] = {}
    pairs = set()
    for g in tessellation_matrices(q, depth):
        u = column_cusp((g[0], g[1]), (g[4], g[5]), m)
        v = column_cusp((g[2], g[3]), (g[6], g[7]), m)
        if u == v:
            raise ValueError("geodesic endpoints coincide")
        for c in (u, v):
            if c not in keys:
                keys[c] = cusp_sort_key(c, m)
        pairs.add((v, u) if keys[v] < keys[u] else (u, v))
    ordered = sorted(pairs, key=lambda ends: (keys[ends[0]], keys[ends[1]]))
    return [Geodesic(a, b, (keys[a][1], keys[b][1])) for a, b in ordered]


# -- disk-model render -------------------------------------------------------


def halfplane_to_disk(x: float, y: float) -> tuple[float, float]:
    """Conformal map (z - i)/(z + i): sends i to 0, the real line to the unit
    circle."""
    zr, zi = x, y - 1.0
    wr, wi = x, y + 1.0
    norm = wr * wr + wi * wi
    return (zr * wr + zi * wi) / norm, (zi * wr - zr * wi) / norm


def sample_geodesic(geo, m: int, ymax: float) -> list[tuple[float, float]]:
    """Points along the geodesic in the upper half-plane."""
    if geo.b.is_infinity:
        if geo.a.is_infinity:
            raise ValueError("degenerate geodesic")
        x = geo.a.value(m)
        ys = [ymax * (k / (SAMPLES - 1)) ** 2 * 400 for k in range(SAMPLES)]
        return [(x, y) for y in ys]
    x1, x2 = geo.a.value(m), geo.b.value(m)
    cx, r = (x1 + x2) / 2.0, abs(x2 - x1) / 2.0
    return [
        (cx + r * math.cos(math.pi * k / (SAMPLES - 1)),
         r * math.sin(math.pi * k / (SAMPLES - 1)))
        for k in range(SAMPLES)
    ]


def render_disk(q: int, depth: int) -> str:
    """The disk-model SVG of the universal tessellation, point by point."""
    m = RADICAND[q]
    width = height = WIDTH
    radius = width * 0.48
    cx = cy = width / 2.0
    body = [
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for geo in universal_geodesics(q, depth):
        page = []
        for x, y in sample_geodesic(geo, m, YMAX):
            wx, wy = halfplane_to_disk(x, y)
            page.append((cx + radius * wx, cy - radius * wy))
        d = "M " + " L ".join(f"{_fmt(px)} {_fmt(py)}" for px, py in page)
        body.append(
            f'<path d="{d}" fill="none" stroke="{STROKE}" stroke-width="1"/>'
        )
    return _svg_document(width, height, body)
