"""The array passes of the library against their scalar references.

``oracles`` holds the per-coordinate rules (``normalize``,
``enumerate_coords``, ``adjacent``, ``cusp_of``, ``apply_to_coord``), on
triples that ``oracles.code_of`` turns into the library's codes, the
per-element orbit walks, correspondence check and invariants, the
coset-domain check with its queue BFS and side-by-side boundary walk, and
the circuit search pruned by BFS distances with its one-circuit-at-a-time
text, and the universal tessellation searched one product and one cusp at
a time, with its disk-model render sampled one point at a time.
"""

from types import SimpleNamespace

import numpy as np
import oracles
import pytest

from hfmap import cli, kernels, polygon, render
from hfmap.coords import (
    Completion,
    adjacent_codes,
    apply_codes,
    code_coord,
    completion_table,
    coordinate_codes,
    cusp_codes,
    normalize,
    vertex_names,
)
from hfmap.group import HeckeParams, cached_group
from hfmap.maps import (
    CoordGraph,
    MapStructure,
    _orbit_labels,
    _orbit_sizes,
    build_algebraic_map,
    build_coordinate_graph,
    correspondence_check,
    projection_certificate,
)
from hfmap.polygon import (
    _glued_domain,
    coset_domain_check,
    parse_circuit_text,
    search_circuits,
)
from hfmap.render import RenderConfig, render_universal

# Odd and even n; 2 | n with m = 2 | n at q = 4, and m = 3 | n at q = 6.
CASES = [(q, n) for q in (3, 4, 6) for n in (3, 4, 5, 6, 7, 8, 9, 12, 15, 21)] + [(4, 30)]

# The class rule's cases: n prime, a prime power, even, and m | n.
CLASS_CASES = [(q, n) for q in (3, 4, 6) for n in (3, 4, 5, 6, 8, 9, 12, 15, 21, 27, 30)]


def _outcome(fn, *args):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("q,n", CLASS_CASES)
def test_normalize_matches_oracle(q, n):
    """Every kind and residue pair in -n..2n, also shifted by +-10**30."""
    p = HeckeParams(q, n)
    values = list(range(-n, 2 * n + 1))
    values += [s * 10**30 + v for s in (1, -1) for v in (0, 1, n - 1)]
    for kind in ("A", "B", "C"):
        for num in values:
            for den in values:
                got = _outcome(normalize, kind, num, den, p)
                want = _outcome(oracles.normalize, kind, num, den, p)
                assert isinstance(got, str) or type(got) is int
                assert got == (want if isinstance(want, str) else oracles.code_of(want, p))


@pytest.mark.parametrize("q,n", CLASS_CASES + [(4, 233)])
def test_enumerate_coords_matches_oracle(q, n):
    p = HeckeParams(q, n)
    nodes = oracles.enumerate_coords(p)
    assert [code_coord(c, p) for c in coordinate_codes(p).tolist()] == nodes
    assert coordinate_codes(p).tolist() == [oracles.code_of(u, p) for u in nodes]


@pytest.mark.parametrize("q,n", CASES)
def test_coordinate_graph_matches_scalar_rule(q, n):
    p = HeckeParams(q, n)
    graph = build_coordinate_graph(p)
    nodes = oracles.enumerate_coords(p)
    assert graph.nodes == nodes
    want = [
        (i, j)
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
        if oracles.adjacent(nodes[i], nodes[j], p)
    ]
    assert graph.edges == want
    assert all(type(i) is int and type(j) is int for i, j in graph.edges)
    # The list views are the arrays, and the array forms agree with loops.
    assert graph.pairs.dtype == np.int64 and graph.pairs.shape == (len(want), 2)
    assert graph.edges == [tuple(r) for r in graph.pairs.tolist()]
    assert graph.codes.tolist() == [oracles.code_of(u, p) for u in nodes]
    mat = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for a, b in graph.edges:
        mat[a, b] = mat[b, a] = True
    assert np.array_equal(graph.adjacency_matrix(), mat)
    bipartite = all(nodes[a].kind != nodes[b].kind for a, b in graph.edges)
    assert graph.is_bipartite_by_kind() == bipartite == (q != 3)


@pytest.mark.parametrize("q,n", CASES)
def test_coord_codes_follow_coordinate_order(q, n):
    p = HeckeParams(q, n)
    nodes = oracles.enumerate_coords(p)
    codes = [oracles.code_of(u, p) for u in nodes]
    assert np.all(np.diff(codes) > 0)
    assert [code_coord(c, p) for c in codes] == nodes


@pytest.mark.parametrize("q", [3, 4, 6])
@pytest.mark.parametrize("n", [5, 233])
def test_adjacent_codes_matches_adjacent(q, n):
    p = HeckeParams(q, n)
    rng = np.random.default_rng(q * n)
    kinds = "A" if q == 3 else "AB"
    codes = []
    while len(codes) < 60:
        a, c = (int(v) for v in rng.integers(0, n, size=2))
        if np.gcd.reduce([a, c, n]) == 1:
            codes.append(normalize(kinds[len(codes) % len(kinds)], a, c, p))
    coords = [code_coord(c, p) for c in codes]
    codes = np.array(codes)
    got = adjacent_codes(codes[:, None], codes[None, :], p)
    assert got.tolist() == [[oracles.adjacent(u, v, p) for v in coords] for u in coords]


@pytest.mark.parametrize("q,n", CASES)
def test_cusp_codes_match_cusp_of(q, n):
    p = HeckeParams(q, n)
    group = cached_group(q, n)
    got = [code_coord(c, p) for c in cusp_codes(group.rows, p)]
    rows = oracles.eight_slots(group.rows, p.m)
    assert got == [oracles.cusp_of(row, p) for row in rows.tolist()]


@pytest.mark.parametrize("q,n", [(4, 5), (6, 9), (3, 7), (4, 15)])
def test_apply_codes_matches_apply_to_coord(q, n):
    """Every element on every coordinate, in one call."""
    p = HeckeParams(q, n)
    group = cached_group(q, n)
    nodes = oracles.enumerate_coords(p)
    got = apply_codes(group.rows[:, None], [oracles.code_of(u, p) for u in nodes], p)
    assert got.shape == (group.order, len(nodes))
    rows = oracles.eight_slots(group.rows, p.m).tolist()
    want = [[oracles.apply_to_coord(g, u, p) for u in nodes] for g in rows]
    assert [[code_coord(c, p) for c in row] for row in got.tolist()] == want


def _scalar_error(rows, p):
    with pytest.raises(ValueError) as exc:
        for row in rows.tolist():
            oracles.cusp_of(oracles.eight_slots(row, p.m), p)
    return str(exc.value)


@pytest.mark.parametrize("q,n", [(4, 5), (6, 9)])
def test_corrupted_row_raises_the_scalar_error(q, n):
    p = HeckeParams(q, n)
    group = cached_group(q, n)
    rows = group.rows.copy()
    rows[7, 0] = 2  # a kind digit that names no kind
    message = _scalar_error(rows, p)
    assert message.endswith("has kind 2; corrupted element")
    with pytest.raises(ValueError) as exc:
        cusp_codes(rows, p)
    assert str(exc.value) == message
    # correspondence_check reads only params and rows of the group.  A
    # block head goes through the class rule, and one that is no cusp is
    # a problem that names it; any other row is read back against its
    # head's first column.
    amap = build_algebraic_map(group)
    graph = build_coordinate_graph(p)
    got = correspondence_check(SimpleNamespace(params=p, rows=rows), amap, graph)
    assert got.ok is False and got.vertex_bijection is False and got.edges_matched
    assert got.problems == [
        "elements whose first column is not their block head's: 1, the first 7"
    ]
    rows = group.rows.copy()
    rows[n, 0] = 2
    message = _scalar_error(rows[n:n + 1], p)
    assert message.endswith("has kind 2; corrupted element")
    for check in (projection_certificate, lambda g, a: correspondence_check(g, a, graph)):
        got = check(SimpleNamespace(params=p, rows=rows), amap)
        assert got.ok is False and got.vertex_bijection is False
        assert got.problems == [
            f"elements whose first column is not their block head's: {n - 1}, the first {n + 1}",
            f"block heads that are no cusp, the first {n}: {message}",
        ]


@pytest.mark.parametrize("q", [3, 4])
def test_non_coordinate_row_raises_the_scalar_error(q):
    p = HeckeParams(q, 9)
    rows = cached_group(q, 9).rows.astype(np.int64)
    # A kind-A row whose cusp column is (3, 3): gcd 3 with n = 9.  A later
    # row with a kind digit that names no kind, 1 at q = 3 and 2 at q = 4,
    # must not pre-empt it, and raises once the first row is mended.
    rows[4] = [0, 3, 0, 3, 1]
    rows[9] = [1 if q == 3 else 2, 0, 0, 0, 0]
    for problem in ("gcd > 1", f"has kind {rows[9, 0]}; corrupted element"):
        message = _scalar_error(rows, p)
        assert problem in message
        with pytest.raises(ValueError) as exc:
            cusp_codes(rows, p)
        assert str(exc.value) == message
        rows[4] = rows[5]


def _check_labels(perm):
    orbits = oracles.orbits(perm)
    want = np.empty(perm.shape[0], dtype=np.int64)
    for orbit in orbits:
        want[orbit] = orbit[0]
    labels = _orbit_labels(perm)
    assert np.array_equal(labels, want)
    assert _orbit_sizes(labels).tolist() == [len(o) for o in orbits]


@pytest.mark.parametrize("q,n", CASES)
def test_orbit_labels_match_orbit_walks(q, n):
    amap = build_algebraic_map(cached_group(q, n))
    for perm in (amap.sigma, amap.alpha, amap.phi):
        _check_labels(perm)
    assert np.array_equal(amap.vertex_labels, _orbit_labels(amap.sigma))
    assert np.array_equal(amap.face_labels, _orbit_labels(amap.phi))
    assert np.array_equal(amap.phi, amap.alpha[amap.sigma])
    assert amap.invariants() == oracles.invariants(amap)


# Faces of q darts, and moduli where m | n, prime powers and composites.
FACE_CASES = [(q, n) for q in (3, 4, 6) for n in (3, 4, 5, 6, 8, 9, 12, 25, 49)]


@pytest.mark.parametrize("q,n", FACE_CASES)
def test_face_count_matches_the_face_walk(q, n):
    """The group's map counts its faces from the order of R = T*S, with no
    labels; the walk of alpha[sigma] must give the same F and face size."""
    amap = build_algebraic_map(cached_group(q, n))
    faces = oracles.orbits(amap.alpha[amap.sigma])
    sizes = {len(face) for face in faces}
    inv = amap.invariants()
    assert inv.faces == len(faces)
    assert inv.face_size == (sizes.pop() if len(sizes) == 1 else 0)


@pytest.mark.parametrize("q", (3, 4, 6))
@pytest.mark.parametrize("n", (3, 232, 233, 234))
def test_second_columns_in_int32_match_the_int64_formula(q, n):
    """At the top of the modulus range, the int32 second columns and class
    codes equal the int64 formula with %, block by block."""
    p = HeckeParams(q, n)
    table = completion_table(p)
    t = np.arange(n, dtype=np.int64)
    for block in kernels.coordinate_blocks(table.codes.size, n):
        part = Completion._make(col[block].astype(np.int64) for col in table)
        got = part.second_columns(p)
        assert [col.dtype for col in got] == [np.int32] * 3
        b = (part.b0[:, None] + t * part.ka[:, None]) % n
        d = (part.d0[:, None] + t * part.kc[:, None]) % n
        kind = 0 if q == 3 else 1 - part.codes[:, None] // (n * n)
        codes = kind * n * n + np.minimum(b * n + d, (-b % n) * n + (-d % n))
        for col, want in zip(got, (b, d, codes)):
            assert np.array_equal(col, want)


def test_orbit_labels_on_random_permutations():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 17, 64, 257, 1000):
        for _ in range(5):
            _check_labels(rng.permutation(size))


def _random_alpha(rng, darts):
    pairs = rng.permutation(darts).reshape(-1, 2)
    alpha = np.empty(darts, dtype=np.int64)
    alpha[pairs[:, 0]], alpha[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    return alpha


def _random_map(rng, darts):
    alpha = _random_alpha(rng, darts)
    return MapStructure(sigma=rng.permutation(darts), alpha=alpha)


def _block_rotation(darts, k):
    """The sigma that steps each block of k consecutive darts round by one."""
    return np.roll(np.arange(darts).reshape(-1, k), -1, axis=1).reshape(-1)


def _check_invariants(amap):
    try:
        want = oracles.invariants(amap)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            amap.invariants()
    else:
        assert amap.invariants() == want


def test_invariants_on_random_maps():
    rng = np.random.default_rng(9)
    for darts in (2, 8, 30, 200):
        for _ in range(10):
            _check_invariants(_random_map(rng, darts))


def test_block_rotations_are_counted_from_labels():
    """A caller-built map counts V and F from its orbit labels, whether or
    not sigma rotates blocks of consecutive darts; both give the oracle's
    invariants and phi."""
    swapped = _block_rotation(24, 6)
    swapped[[19, 21]] = swapped[[21, 19]]
    # Block ends in place, but the first and third blocks join one cycle.
    crossed = _block_rotation(24, 6)
    crossed[[5, 17]] = crossed[[17, 5]]
    first_cycle = np.concatenate([[1, 2, 0], np.roll(np.arange(3, 20), -1)])
    rng = np.random.default_rng(13)
    for sigma in (
        _block_rotation(24, 6),
        _block_rotation(24, 24),
        swapped,
        crossed,
        first_cycle,
        np.arange(20),
    ):
        for _ in range(5):
            amap = MapStructure(sigma=sigma, alpha=_random_alpha(rng, sigma.size))
            assert np.array_equal(amap.phi, amap.alpha[amap.sigma])
            _check_invariants(amap)


@pytest.mark.parametrize("q,n", CASES)
def test_correspondence_matches_scalar_oracle(q, n):
    p = HeckeParams(q, n)
    group = cached_group(q, n)
    amap = build_algebraic_map(group)
    graph = build_coordinate_graph(p)
    got = correspondence_check(group, amap, graph)
    assert vars(got) == vars(oracles.correspondence_check(group, amap, graph))
    assert got.ok


def test_correspondence_holds_at_q6_when_3_divides_n():
    group = cached_group(6, 9)
    rep = correspondence_check(
        group, build_algebraic_map(group), build_coordinate_graph(HeckeParams(6, 9))
    )
    assert rep.problems == []
    assert rep.ok and rep.vertex_bijection and rep.edges_matched


def _repaired_alpha(group, amap):
    """alpha with two edges re-paired so that every arc still passes the
    rule but some vertex meets one neighbour twice: the first such swap
    from the lowest darts."""
    p = group.params
    n = p.n
    codes = cusp_codes(group.rows[::n], p)
    alpha = amap.alpha
    firsts = np.flatnonzero(np.arange(amap.darts) < alpha)
    for i in firsts.tolist():
        for j in firsts[firsts > i].tolist():
            for x, w, y, u in ((i, j, alpha[i], alpha[j]), (i, alpha[j], alpha[i], j)):
                if not (adjacent_codes(codes[x // n], codes[w // n], p)
                        and adjacent_codes(codes[y // n], codes[u // n], p)):
                    continue
                swapped = alpha.copy()
                swapped[[x, w, y, u]] = [w, x, u, y]
                rows = np.sort((swapped // n).reshape(-1, n), axis=1)
                if np.any(rows[:, 1:] == rows[:, :-1]):
                    return swapped
    raise AssertionError("no re-pairing repeats a neighbour")


@pytest.mark.parametrize("q,n", [(4, 5), (3, 7), (6, 7)])
def test_correspondence_of_a_wrong_map_fails(q, n):
    """Vertex orbits of phi are not the blocks; a random alpha joins
    non-adjacent coordinates; two re-paired edges meet a neighbour twice;
    two disjoint copies of the map have every cusp twice; the right map
    meets a neighbour table with every index moved on by one; two copies
    meet a table that lists every neighbour twice."""
    p = HeckeParams(q, n)
    group = cached_group(q, n)
    amap = build_algebraic_map(group)
    graph = build_coordinate_graph(p)
    rng = np.random.default_rng(n)
    twice = SimpleNamespace(params=p, rows=np.concatenate([group.rows, group.rows]))
    twice_map = MapStructure(sigma=np.concatenate([amap.sigma, amap.sigma + amap.darts]),
                             alpha=np.concatenate([amap.alpha, amap.alpha + amap.darts]))
    moved = CoordGraph(params=p, codes=graph.codes,
                       nbrs=np.sort((graph.nbrs + 1) % graph.codes.size, axis=1))
    doubled = CoordGraph(params=p, codes=graph.codes, nbrs=np.repeat(graph.nbrs, 2, axis=1))
    for g, wrong, wrong_graph, problem, edges_matched in (
        (group, MapStructure(sigma=amap.phi, alpha=amap.alpha), graph,
         "vertex orbits of sigma are not the blocks of n consecutive elements", True),
        (group, MapStructure(sigma=amap.sigma, alpha=_random_alpha(rng, amap.darts)), graph,
         "darts that project to non-adjacent coordinates: ", False),
        (group, MapStructure(sigma=amap.sigma, alpha=_repaired_alpha(group, amap)), graph,
         "vertices that meet a neighbour twice: ", False),
        (twice, twice_map, graph, "cusp map is not a bijection onto the coordinates", False),
        (group, amap, moved, "edge orbits do not project bijectively onto graph edges", False),
        (twice, twice_map, doubled, "cusp map is not a bijection onto the coordinates", False),
    ):
        got = correspondence_check(g, wrong, wrong_graph)
        assert got.ok is False
        assert got.problems[0].startswith(problem)
        assert got.edges_matched is edges_matched
        # The certificate needs no graph: it refuses every wrong map.
        assert projection_certificate(g, wrong).ok is (wrong is amap)


@pytest.mark.parametrize("q,n", [(4, 5), (3, 7), (6, 7)])
def test_certificate_refuses_blocks_of_another_width(q, n):
    """A sigma that rotates blocks of width 1 or 2n, or each block of n
    backwards (t -> t - 1, the right orbits with the wrong step), fails
    fact (a), and the vertex count is still its number of orbits."""
    group = cached_group(q, n)
    amap = build_algebraic_map(group)
    backwards = np.roll(np.arange(amap.darts).reshape(-1, n), 1, axis=1).reshape(-1)
    for sigma, k in (
        (_block_rotation(amap.darts, 1), 1),
        (_block_rotation(amap.darts, 2 * n), 2 * n),
        (backwards, n),
    ):
        wrong = MapStructure(sigma=sigma, alpha=amap.alpha)
        got = projection_certificate(group, wrong)
        assert got.ok is False
        assert got.problems == [
            "vertex orbits of sigma are not the blocks of n consecutive elements"
        ]
        assert got.vertex_count == amap.darts // k


@pytest.mark.parametrize("darts", [122, 100])
def test_certificate_refuses_a_map_of_another_size(darts):
    """A map with more or fewer darts than the group has elements is one
    problem, found before any table is cut into the group's blocks."""
    group = cached_group(4, 5)
    wrong = MapStructure(sigma=np.roll(np.arange(darts), 1), alpha=np.arange(darts) ^ 1)
    graph = build_coordinate_graph(group.params)
    for got in (projection_certificate(group, wrong), correspondence_check(group, wrong, graph)):
        assert got.ok is False and got.edge_count == 0
        assert got.problems == [f"map has {darts} darts, the group 120 elements"]


def test_problem_strings_list_coordinates_sorted():
    """Dart 0 sits on 1/0; paired with a dart on 0/1 it is the first
    non-adjacent arc, and its ends print in coordinate order, 0/1 first."""
    p = HeckeParams(4, 5)
    group = cached_group(4, 5)
    amap = build_algebraic_map(group)
    zero, inf = normalize("A", 0, 1, p), normalize("A", 1, 0, p)
    heads = cusp_codes(group.rows[::5], p).tolist()
    assert heads[0] == inf
    e = 5 * heads.index(zero)
    alpha = amap.alpha.copy()
    alpha[[0, e, amap.alpha[0], amap.alpha[e]]] = [e, 0, amap.alpha[e], amap.alpha[0]]
    got = projection_certificate(group, MapStructure(sigma=amap.sigma, alpha=alpha))
    assert got.problems[0].startswith("darts that project to non-adjacent coordinates: ")
    assert got.problems[0].endswith(f", the first {code_coord(zero, p)} and {code_coord(inf, p)}")


def test_a_cusp_that_is_no_node_fails_the_edge_match():
    # The last node's code becomes 0, the class of (0, 0), which no cusp
    # has: the cusp it replaced has row -1 in every edge it ends.
    p = HeckeParams(4, 5)
    group = cached_group(4, 5)
    graph = build_coordinate_graph(p)
    codes = graph.codes.copy()
    codes[-1] = 0
    got = correspondence_check(
        group, build_algebraic_map(group), CoordGraph(params=p, codes=codes, nbrs=graph.nbrs)
    )
    assert got.vertex_bijection is False and got.edges_matched is False
    assert got.problems == [
        "cusp map is not a bijection onto the graph's nodes",
        "edge orbits do not project bijectively onto graph edges",
    ]


DOMAIN_CASES = [(q, n) for q in (3, 4, 6) for n in (3, 4, 5, 6, 7, 8, 9, 12, 15, 21, 29, 30)]


@pytest.mark.parametrize("q,n", DOMAIN_CASES)
def test_coset_domain_matches_scalar_oracle(q, n):
    group = cached_group(q, n)
    got = coset_domain_check(group)
    assert vars(got) == vars(oracles.coset_domain_check(group))
    assert got.matches_map


@pytest.mark.parametrize("q,n", DOMAIN_CASES[::5])
def test_coset_domain_does_not_depend_on_the_tree(monkeypatch, q, n):
    """Another spanning tree of the tiles, the one found with the columns of
    the tile table reversed, glues a disk with the same counts."""
    group = cached_group(q, n)
    want = vars(coset_domain_check(group))
    calls = []

    def reversed_tree(nbrs):
        found = kernels.breadth_first_tree(nbrs[:, ::-1])
        tree = found - 2 * (found % 4) + 3
        assert set(tree.tolist()) != set(kernels.breadth_first_tree(nbrs).tolist())
        calls.append(tree.size)
        return tree

    monkeypatch.setattr(polygon, "breadth_first_tree", reversed_tree)
    assert vars(coset_domain_check(group)) == want
    amap = build_algebraic_map(group)
    assert _glued_domain(amap.sigma, amap.alpha)[1].invariants().faces == 1
    assert calls == [group.order - 1] * 2


def _connected_map(rng, darts):
    while True:
        amap = _random_map(rng, darts)
        if oracles.is_connected(amap):
            return amap


def test_glued_domain_on_random_maps():
    """The tile of each dart of any connected map glues into a closed
    surface whose Euler characteristic is the map's V - E + F."""
    rng = np.random.default_rng(17)
    for darts in (2, 4, 6, 10, 24, 60, 200):
        for _ in range(8):
            amap = _connected_map(rng, darts)
            tree_edges, boundary = _glued_domain(amap.sigma, amap.alpha)
            poly = boundary.invariants()
            got = (tree_edges, poly.darts, poly.edges, poly.vertices, poly.edges)
            assert got == oracles.coset_domain(amap.sigma, amap.alpha)
            inv = amap.invariants()
            assert poly.faces == 1 and poly.chi == inv.vertices - inv.edges + inv.faces
            assert (tree_edges, poly.darts) == (darts - 1, 2 * poly.edges)


def test_glued_domain_rejects_disconnected_tiles():
    amap = build_algebraic_map(cached_group(4, 5))
    d = amap.darts
    sigma = np.concatenate([amap.sigma, amap.sigma + d])
    alpha = np.concatenate([amap.alpha, amap.alpha + d])
    for domain in (_glued_domain, oracles.coset_domain):
        with pytest.raises(RuntimeError, match="tile graph is disconnected"):
            domain(sigma, alpha)


def test_search_circuits_matches_oracle_on_bring():
    p = HeckeParams(4, 5)
    h2 = vertex_names(p).coord("H2")
    got = search_circuits(h2, 12, {0, 3, 6, 9}, p)
    assert len(got) == 80_000
    assert oracles.circuits_of(got, p) == oracles.search_circuits(h2, 12, {0, 3, 6, 9}, p)


@pytest.mark.parametrize("q", [3, 4, 6])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_search_circuits_matches_oracle(q, n):
    """A pole start and a non-pole start, lengths 1-8, seeded random pole
    sets; position 0 mostly, not always, matches the start."""
    p = HeckeParams(q, n)
    codes = coordinate_codes(p).tolist()
    starts = [next(u for u in codes if u % n == 0), next(u for u in codes if u % n)]
    rng = np.random.default_rng(100 * q + n)
    found = []
    for start in starts:
        for length in range(1, 9):
            for _ in range(2):
                poles = {k for k in range(1, length) if rng.random() < 0.4}
                if (start % n == 0) == (rng.random() < 0.8):
                    poles.add(0)
                got = search_circuits(start, length, poles, p)
                assert got.shape == (len(got), length) and got.dtype == np.int32
                assert oracles.circuits_of(got, p) == oracles.search_circuits(
                    start, length, poles, p
                )
                found.append(len(got))
    assert any(found)


@pytest.mark.parametrize(
    "q,n,start,length,poles,count",
    [
        (3, 7, "A:1/0", 6, "0", 3024),
        (4, 3, "A:1/0", 8, "0,4", 144),
        (4, 5, "E1", 4, "0", 0),
        (4, 5, "H2", 12, ",".join(map(str, range(12))), 0),
    ],
)
@pytest.mark.parametrize("block", [1000, 1 << 16])
def test_circuit_listing_matches_oracle(capsys, monkeypatch, q, n, start, length,
                                        poles, count, block):
    """The CLI listing, written in blocks of 1000 rows or in one block, as
    the default ``CIRCUIT_BLOCK`` writes each table here, is the oracle's
    circuits one line each; (3, 7) has no name table, (4, 3) and (4, 5)
    have one."""
    monkeypatch.setattr(cli, "CIRCUIT_BLOCK", block)
    p = HeckeParams(q, n)
    circuits = oracles.search_circuits(
        parse_circuit_text(start, p).seq[0], length, {int(k) for k in poles.split(",")}, p
    )
    assert len(circuits) == count
    expected = "".join(oracles.format_circuit(c, p) + "\n" for c in circuits)
    argv = ["circuit", "--search", "--q", str(q), "--n", str(n), "--start", start,
            "--length", str(length), "--poles", poles]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert _first_difference(out, expected + f"# {count} circuits\n") is None


def _first_difference(got: str, want: str):
    """None for equal texts, else the first line where they differ: a short
    failure message for documents of megabytes."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return i, a, b
    if len(got_lines) != len(want_lines):
        return "line counts", len(got_lines), len(want_lines)
    return None if got == want else "line ends"


@pytest.mark.parametrize(
    "q,depth", [(q, depth) for q in (3, 4, 6) for depth in range(render.MAX_DEPTH + 1)]
)
def test_geodesics_match_the_scalar_search(q, depth):
    """The integer-table search gives the scalar BFS's geodesics: the same
    exact ends, in the same order, with the same values."""
    got = render.universal_geodesics(q, depth)
    want = oracles.universal_geodesics(q, depth)
    assert [(g.a, g.b, g.ends) for g in got] == [(g.a, g.b, g.ends) for g in want]


@pytest.mark.parametrize("q", [3, 4, 6])
def test_geodesic_search_multiplies_each_matrix_once(monkeypatch, q):
    """Each level multiplies only matrices not seen before, one of g and -g:
    the rows multiplied down to depth 8 are the scalar search's matrices
    down to depth 7.  Without the sign rule or the dedup the geodesics
    stay the same, but the levels grow."""
    rows = []

    def counted(a, b, m):
        rows.append(len(a))
        return kernels.mat_mul_exact(a, b, m)

    monkeypatch.setattr(render, "mat_mul_exact", counted)
    render.universal_geodesics(q, 8)
    assert sum(rows) == len(oracles.tessellation_matrices(q, 7))


def test_largest_geodesic_entry_is_pinned():
    """``render.MAX_ENTRY``, on which its int64 bound rests, is the largest
    |entry| within ``MAX_DEPTH`` over every q: a deeper search fails here
    until the bound is re-derived."""
    largest = max(abs(v) for q in (3, 4, 6)
                  for g in oracles.tessellation_matrices(q, render.MAX_DEPTH) for v in g)
    assert largest == render.MAX_ENTRY


@pytest.mark.parametrize(
    "q,depth", [(q, depth) for q in (3, 4, 6) for depth in range(9)] + [(4, 12)]
)
def test_disk_render_matches_oracle(q, depth):
    got = render_universal(q, RenderConfig(model="disk", depth=depth))
    assert _first_difference(got, oracles.render_disk(q, depth)) is None


@pytest.mark.parametrize("q,depth", [(3, 6), (4, 12), (6, 6)])
def test_disk_render_floats_match_oracle_bit_for_bit(monkeypatch, q, depth):
    """Written with repr instead of five decimals, the two still agree:
    every sampled and projected float is the same."""
    monkeypatch.setattr(render, "_DISK_PATH", render._DISK_PATH.replace("%.5f", "%r"))
    monkeypatch.setattr(render, "_fmt", repr)
    monkeypatch.setattr(oracles, "_fmt", repr)
    got = render_universal(q, RenderConfig(model="disk", depth=depth))
    assert _first_difference(got, oracles.render_disk(q, depth)) is None
