"""The completion table, and the group and coordinate graph built from it,
against the former breadth-first closure and the pair-test graph
(``oracles.closure_bfs``, ``oracles.pair_test_graph``)."""

import tracemalloc
import types

import numpy as np
import oracles
import pytest

from hfmap import coords, kernels, group as group_module
from hfmap.cli import main
from hfmap.coords import adjacent_codes, completion_table, coordinate_codes
from hfmap.group import (
    GroupCheckError,
    HeckeParams,
    enumerate_group,
    generators,
    principal_congruence_index,
)
from hfmap.maps import (
    MapStructure,
    build_algebraic_map,
    build_coordinate_graph,
    projection_certificate,
)

# n prime, composite, even, and divisible by m = 2 or 3, at every q.
GROUP_CASES = [
    (4, 96), (6, 90), (4, 53), (3, 97), (4, 101), (4, 5),
    (3, 5), (6, 9), (4, 6), (3, 16), (6, 12), (4, 15),
]

GRAPH_CASES = [(q, n) for q in (3, 4, 6) for n in range(3, 32)]
GRAPH_CASES += [(4, 53), (3, 97), (6, 99)]


@pytest.mark.parametrize("q,n", [(q, n) for q in (3, 4, 6) for n in range(3, 33)])
def test_completion_solves_the_determinant(q, n):
    p = HeckeParams(q, n)
    tab = completion_table(p)
    assert np.array_equal(tab.codes, coordinate_codes(p))
    kind, rest = np.divmod(tab.codes, n * n)
    assert np.array_equal(tab.a * n + tab.c, rest)
    assert np.all((tab.ka * tab.d0 - tab.kc * tab.b0) % n == 1)
    # (ka, kc) is (a, m*c) for kind A, (m*a, c) for kind B.
    assert np.array_equal(tab.ka, np.where(kind == 0, tab.a, p.m * tab.a) % n)
    assert np.array_equal(tab.kc, np.where(kind == 0, p.m * tab.c, tab.c) % n)
    assert tab.codes.size * n == principal_congruence_index(p)


@pytest.mark.parametrize("q,n", GROUP_CASES)
def test_group_matches_the_breadth_first_closure(q, n):
    p = HeckeParams(q, n)
    group = enumerate_group(p)
    gens = oracles.eight_slots(generators(p)[:2], p.m)
    keys, cayley, done = oracles.closure_bfs(gens, n, p.m, group.order)
    assert done and keys.shape[0] == group.order
    # Same elements, each row the canonical representative.
    rows = oracles.eight_slots(group.rows, p.m)
    ours = oracles.pack_components(rows, n)
    assert np.array_equal(ours, oracles.canonical_keys(rows, n))
    assert tuple(group.rows[0].tolist()) == (0, 1, 0, 0, 1)
    order = np.argsort(keys)
    index = np.searchsorted(keys[order], ours)
    assert np.array_equal(keys[order][index], ours)
    relabel = order[index]  # closure index of each of our elements
    # The tables of (alpha, sigma) agree under the relabelling.
    amap = build_algebraic_map(group)
    assert np.array_equal(cayley[relabel], relabel[np.stack([amap.alpha, amap.sigma], axis=1)])
    # The oracle's numbering is no block numbering: its map counts orbits.
    oracle_map = MapStructure(sigma=cayley[:, 1], alpha=cayley[:, 0])
    assert amap.invariants() == oracle_map.invariants()


@pytest.mark.parametrize("q,n", GRAPH_CASES)
def test_graph_matches_the_pair_test(q, n):
    p = HeckeParams(q, n)
    graph = build_coordinate_graph(p)
    want = oracles.pair_test_graph(p)
    assert np.array_equal(graph.codes, coordinate_codes(p))
    assert graph.pairs.dtype == want.dtype
    assert np.array_equal(graph.pairs, want)
    # adjacent_codes is the edge test, and it holds on every edge.
    u, v = graph.codes[graph.pairs.T]
    assert adjacent_codes(u, v, p).all()
    assert np.all(np.bincount(graph.pairs.ravel(), minlength=graph.codes.size) == n)
    # The stored table: n neighbours per node, ascending, and symmetric.
    size = graph.codes.size
    assert graph.nbrs.dtype == np.int64 and graph.nbrs.shape == (size, n)
    assert np.all(graph.nbrs[:, 1:] > graph.nbrs[:, :-1])
    tail, head = np.repeat(np.arange(size), n), graph.nbrs.ravel()
    assert np.array_equal(tail * size + head, np.sort(head * size + tail))


def test_corrupted_alpha_is_caught(monkeypatch, capsys):
    # Every element sent to the next coordinate's block by S: the product
    # check must refuse the table.
    code_rows = coords.code_rows
    monkeypatch.setattr(
        coords, "code_rows", lambda table, codes, p: (code_rows(table, codes, p) + 1) % table.size
    )
    with pytest.raises(GroupCheckError, match=r"disagrees with the product g\*S"):
        enumerate_group(HeckeParams(4, 5))
    # A failed check is a verification failure: exit 1, one line, no traceback.
    assert main(["map", "--q", "4", "--n", "7"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Cayley table for q=4, n=7 disagrees with the product g*S\n"


def test_alpha_out_of_range_is_caught(monkeypatch, capsys):
    """Every class row shifted down by V: the negative alpha entries wrap
    onto the right elements in every numpy read, so only the range check
    refuses the table."""
    code_rows = coords.code_rows
    monkeypatch.setattr(
        coords, "code_rows", lambda table, codes, p: code_rows(table, codes, p) - table.size
    )
    with pytest.raises(GroupCheckError, match=r"disagrees with the product g\*S"):
        enumerate_group(HeckeParams(4, 7))
    assert main(["map", "--q", "4", "--n", "7"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Cayley table for q=4, n=7 disagrees with the product g*S\n"


def test_disconnected_table_is_caught(monkeypatch):
    monkeypatch.setattr(group_module.kernels, "breadth_first_tree", lambda nbrs: nbrs[:0, 0])
    with pytest.raises(GroupCheckError, match="do not generate"):
        enumerate_group(HeckeParams(4, 5))


# n odd and even at every q.
BLOCK_CASES = [(3, 7), (3, 8), (4, 9), (4, 6), (6, 7), (6, 12)]


@pytest.mark.parametrize("q,n", BLOCK_CASES)
def test_blocks_of_one_coordinate_build_the_same_group(q, n, monkeypatch):
    """One block and one block per coordinate give the same bytes: the
    table, alpha and the coordinate graph; the certificate holds."""
    p = HeckeParams(q, n)
    whole, graph = enumerate_group(p), build_coordinate_graph(p)
    size = whole.order // n
    assert len(kernels.coordinate_blocks(size, n)) == 1
    monkeypatch.setattr(kernels, "CHUNK_DARTS", n)
    assert kernels.coordinate_blocks(size, n) == [slice(v, v + 1) for v in range(size)]
    blocked = enumerate_group(p)
    for ours, want in ((blocked.rows, whole.rows), (blocked.alpha, whole.alpha),
                       (build_coordinate_graph(p).nbrs, graph.nbrs)):
        assert ours.dtype == want.dtype and ours.shape == want.shape
        assert ours.tobytes() == want.tobytes()
    assert projection_certificate(blocked, build_algebraic_map(blocked)).ok


def test_alpha_corrupted_in_the_last_block_is_caught(monkeypatch):
    """The classes of the last block's second columns rolled by one offset:
    alpha sends those darts to other neighbours, the rows stay right, and
    the check after the pass refuses the table."""
    p = HeckeParams(4, 9)
    size = principal_congruence_index(p) // p.n
    monkeypatch.setattr(kernels, "CHUNK_DARTS", p.n)
    calls = []
    second_columns = coords.Completion.second_columns

    def last_rolled(self, p):
        b, d, codes = second_columns(self, p)
        calls.append(self.codes.tolist())
        if len(calls) == size:
            codes = np.roll(codes, 1, axis=1)
        return b, d, codes

    monkeypatch.setattr(coords.Completion, "second_columns", last_rolled)
    with pytest.raises(GroupCheckError, match=r"disagrees with the product g\*S"):
        enumerate_group(p)
    assert len(calls) == size and all(len(codes) == 1 for codes in calls)


@pytest.mark.parametrize("power", [2, -1])
def test_a_wrong_t_step_is_caught(power, monkeypatch):
    """With T**2 or T**-1 in place of T, sigma is no longer the step g -> g*T
    of the generator the check multiplies by, in any block."""
    gens = group_module.generators

    def wrong_t(p):
        s, t, r = gens(p)
        step = t
        for _ in range(power % p.n - 1):
            step = kernels.mat_mul_exact(step, t, p.m) % p.n
        return np.stack([s, step, r])

    monkeypatch.setattr(group_module, "generators", wrong_t)
    for chunk in (kernels.CHUNK_DARTS, 7):
        monkeypatch.setattr(kernels, "CHUNK_DARTS", chunk)
        with pytest.raises(GroupCheckError, match=r"disagrees with the product g\*T"):
            enumerate_group(HeckeParams(4, 7))


@pytest.mark.parametrize("kind", [0, 1])
def test_rows_written_into_the_other_kinds_slots_are_caught(kind, monkeypatch):
    """The n rows of the first coordinate of one kind reach the check with
    the other kind's digit, while their keys stay right: the products,
    whose kind is read off the stored rows, disagree."""
    product_keys, moved = kernels.slot_product_keys, []

    def misplaced(rows, step, n):
        rows = rows.copy()
        if rows[0, 0] == kind and not moved:
            rows[:n, 0] = 1 - kind
            moved.append(rows[:n])
        return product_keys(rows, step, n)

    # The group's own check goes through the stand-in.
    stand_in = types.SimpleNamespace(**{**vars(kernels), "slot_product_keys": misplaced})
    monkeypatch.setattr(group_module, "kernels", stand_in)
    with pytest.raises(GroupCheckError, match=r"disagrees with the product g\*T"):
        enumerate_group(HeckeParams(4, 7))
    assert moved


@pytest.mark.parametrize("kind", [0, 1])
def test_keys_stored_with_the_other_kind_are_caught(kind, monkeypatch):
    """The group stores one coordinate's keys with the other kind's digit,
    while its rows keep the right one: the T check, whose products read
    the kind off the stored rows, refuses the disagreement before the S
    check runs."""
    four_digit_keys, flipped = kernels.four_digit_keys, []

    def flipping(kinds, digits, n, out):
        if kinds[0, 0] == kind and not flipped:
            kinds = 1 - kinds
            flipped.append(kinds.size)
        return four_digit_keys(kinds, digits, n, out)

    # One coordinate per block; the group's own pass goes through the stand-in.
    monkeypatch.setattr(kernels, "CHUNK_DARTS", 7)
    stand_in = types.SimpleNamespace(**{**vars(kernels), "four_digit_keys": flipping})
    monkeypatch.setattr(group_module, "kernels", stand_in)
    with pytest.raises(GroupCheckError, match=r"disagrees with the product g\*T"):
        enumerate_group(HeckeParams(4, 7))
    assert flipped == [1]


@pytest.mark.parametrize("kind", [0, 1])
def test_a_stored_kind_digit_past_a_runs_first_row_is_caught(kind, monkeypatch):
    """The group's stored rows of the second coordinate of a run of one kind
    get the other kind's digit, in place: the products read the kind off
    each stored row, not off the run's first, so the T check refuses them."""
    product_keys, flipped = kernels.slot_product_keys, []

    def corrupting(rows, step, n):
        if rows[0, 0] == kind and rows.shape[0] > n and not flipped:
            rows[n:2 * n, 0] = 1 - kind  # rows is a view of the group's table
            flipped.append(n)
        return product_keys(rows, step, n)

    stand_in = types.SimpleNamespace(**{**vars(kernels), "slot_product_keys": corrupting})
    monkeypatch.setattr(group_module, "kernels", stand_in)
    with pytest.raises(GroupCheckError, match=r"disagrees with the product g\*T"):
        enumerate_group(HeckeParams(4, 7))
    assert flipped == [7]


def test_group_dtypes_over_the_whole_modulus_range():
    """uint8 rows and int32 alpha entries up to kernels.MAX_MODULUS, read
    off the dtype rule and the index formula at (4, 233) and at the top,
    and off the groups at both ends of the range: 9 bytes per element, 5
    of rows (kind, a, b, c, d) and 4 of alpha, and no stored sigma."""
    top = kernels.MAX_MODULUS
    assert kernels.row_dtype(233) == kernels.row_dtype(top) == np.uint8
    assert kernels.row_dtype(3) == np.uint8
    assert principal_congruence_index(HeckeParams(4, 233)) == 12_649_104
    assert max(
        principal_congruence_index(HeckeParams(q, n)) for q in (3, 4, 6) for n in range(3, top + 1)
    ) <= top**3 < np.iinfo(np.int32).max
    for n in (3, 233, top):
        group = enumerate_group(HeckeParams(4, n))
        assert group.rows.dtype == np.uint8 and group.alpha.dtype == np.int32
        assert group.rows.shape[1] == 5
        assert group.rows.nbytes + group.alpha.nbytes == 9 * group.order
        del group


def test_group_memory_per_element_is_bounded():
    """The traced peak of enumerate_group at (4, 101) is about 18.4 bytes
    per element: 5 of rows (kind, a, b, c, d), 4 of alpha, 8 of identity
    keys and one block's temporaries.  The connectivity tree's candidates
    for a whole level took 26.2, rows of 8 slots 29.2, a stored sigma 33.2,
    and a second int64 key array, for the products with S, 42.4."""
    enumerate_group(HeckeParams(4, 5))  # imports and lazy set-up first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        group = enumerate_group(HeckeParams(4, 101))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 22 * group.order
