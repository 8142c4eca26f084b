"""The key and product kernels, and the reference closure, checked against a
pure-Python oracle."""

import tracemalloc

import numpy as np
import oracles
import pytest
from conftest import as_matrix

from hfmap import kernels
from hfmap.coords import CuspError, coordinate_codes, cusp_codes
from hfmap.group import (
    IDENTITY,
    HeckeParams,
    enumerate_group,
    generators,
    principal_congruence_index,
)
from hfmap.maps import build_algebraic_map
from ring import RingParams, canonicalize, identity_matrix, mat_mul


QS = {1: 3, 2: 4, 3: 6}  # q of each radicand m

# -g negates a, b, c, d and keeps the kind.
NEGATE = np.array([1, -1, -1, -1, -1])


def _kind_rows(rng, n, kind, size):
    """Random rows (kind, a, b, c, d) of one kind, residues mod n."""
    rows = rng.integers(0, n, size=(size, 5))
    rows[:, 0] = kind
    return rows


def _with_repeats(rows, n):
    """rows, then the negatives and copies of some of them: the pairs whose
    keys must be equal."""
    return np.concatenate([rows, rows[: len(rows) // 3] * NEGATE % n, rows[: len(rows) // 5]])


def _named_generators(p):
    s, t, r = generators(p)
    return {"I": np.array(IDENTITY), "S": s, "T": t, "R": r}


def _four_digit_oracle(rows, g, n, m, kind):
    """The key of each row * g read off the 8-digit oracle: the kind of the
    product, then the slots a, b, c, d of its canonical row, which is zero
    in every other slot.  Also returns the 8-digit keys."""
    keys = oracles.right_mult_keys(oracles.eight_slots(rows, m), oracles.eight_slots(g, m), n, m)
    canon = oracles.unpack_keys(keys, n)
    slots = oracles._SLOTS[2 if m == 1 else kind]
    assert not np.delete(canon, slots, axis=1).any()
    return kind * n**4 + canon[:, slots] @ n ** np.arange(3, -1, -1), keys


def _check_products(rows, p, n):
    """slot_product_keys of rows of each kind, stored as uint8 and as
    int64, with I, S, T and R against ``_four_digit_oracle``: the product
    kinds, the keys, and equal keys exactly where the oracle's are equal."""
    for kind, kind_rows in enumerate(rows):
        for name, g in _named_generators(p).items():
            step = kernels.slot_maps(g, n, p.m)[kind]
            to = 0 if p.q == 3 else kind ^ (name in "SR")
            assert kind ^ step[0] == to
            want, oracle = _four_digit_oracle(kind_rows, g, n, p.m, to)
            got = kernels.slot_product_keys(kind_rows.astype(kernels.row_dtype(n)), step, n)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(kernels.slot_product_keys(kind_rows, step, n), want)
            assert np.array_equal(got[:, None] == got, oracle[:, None] == oracle)


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(7)
    for n in (3, 5, 7, 30, kernels.MAX_MODULUS):
        comps = rng.integers(0, n, size=(200, 8), dtype=np.int64)
        assert np.array_equal(oracles.unpack_keys(oracles.pack_components(comps, n), n), comps)


def test_max_modulus_is_the_int64_bound():
    """Two bounds: the library's keys stay below 2 * n**4, far inside int64
    at the top of the range, and the test oracle's 8-digit keys need
    n**8 < 2**63, which holds at MAX_MODULUS and fails one above it."""
    n = kernels.MAX_MODULUS
    top_key = kernels.four_digit_keys(1, [n - 1] * 4, n, out=np.empty((), dtype=np.int64))
    assert int(top_key) == 2 * n**4 - 1
    assert 2 * 46_000**4 < 2**63
    top = np.full(8, n - 1, dtype=np.int64)
    key = oracles.pack_components(top, n)
    assert int(key) == n**8 - 1 < 2**63 <= (n + 1) ** 8
    assert np.array_equal(oracles.unpack_keys(key, n), top)


@pytest.mark.parametrize("q", [3, 4, 6])
def test_keys_at_the_top_of_the_range_do_not_wrap(q):
    """Rows of all n - 1 at n = MAX_MODULUS in each kind's slots, and rows
    with the largest canonical key: a sum of two uint8 residues would wrap,
    and so would a key in int32."""
    n = kernels.MAX_MODULUS
    p = HeckeParams(q, n)
    rows = []
    for kind in ([0] if q == 3 else [0, 1]):
        kind_rows = np.full((2, 5), n - 1)
        kind_rows[:, 0] = kind
        kind_rows[1, 1] = n // 2 - 1
        rows.append(kind_rows)
    _check_products(rows, p, n)
    # The kind-B keys pass 2**31; q = 3 has kind A alone, below n**4 / 2.
    if q > 3:
        kind_b = kernels.slot_maps(IDENTITY, n, p.m)[1]
        assert kernels.slot_product_keys(rows[1], kind_b, n).max() > np.iinfo(np.int32).max


@pytest.mark.parametrize("q,n", [(3, 7), (4, 101), (3, 234), (4, 234), (6, 234)])
def test_readers_agree_on_a_uint8_table(q, n):
    """The group stores its rows as uint8: every reader of the table gives
    on it what it gives on the int64 widening, residues up to n - 1."""
    p = HeckeParams(q, n)
    rng = np.random.default_rng(n + q)
    assert kernels.row_dtype(n) == np.uint8
    _check_products(
        [_with_repeats(_kind_rows(rng, n, kind, 600), n) for kind in range(1 + (q > 3))], p, n
    )
    wide = rng.integers(0, n, size=(2000, 5))
    wide[0] = n - 1
    narrow = wide.astype(np.uint8)
    errors = []
    for rows in (narrow, wide):
        with pytest.raises(CuspError) as exc:
            cusp_codes(rows, p)
        errors.append((str(exc.value), exc.value.row))
    assert errors[0] == errors[1]
    # Rows whose first column (kind, a, c) is a coordinate, with b and d
    # random: every row is a cusp.
    codes = rng.choice(coordinate_codes(p), size=2000)
    kind, rest = np.divmod(codes, n * n)
    b, d = rng.integers(0, n, size=(2, 2000))
    wide = np.stack([kind, rest // n, b, rest % n, d], axis=-1)
    assert np.array_equal(cusp_codes(wide.astype(np.uint8), p), codes)
    assert np.array_equal(cusp_codes(wide, p), codes)


def test_canonical_key_matches_reference():
    rng = np.random.default_rng(11)
    p = RingParams(7, 2)
    comps = rng.integers(0, 7, size=(100, 8), dtype=np.int64)
    keys = oracles.canonical_keys(comps, 7)
    for row, key in zip(comps, keys):
        g = canonicalize(as_matrix(row), p)
        assert oracles.pack_components(np.asarray(g.components(), dtype=np.int64), 7) == key
    # A row keys as its kind and the slots a, b, c, d of the ring's
    # canonical representative.
    for kind in (0, 1):
        rows = _kind_rows(rng, 7, kind, 100)
        step = kernels.slot_maps(IDENTITY, 7, 2)[kind]
        for row, key in zip(rows, kernels.slot_product_keys(rows, step, 7)):
            slots = oracles._SLOTS[kind]
            digits = np.asarray(canonicalize(as_matrix(row, 2), p).components())[slots]
            assert key == kind * 7**4 + int(digits @ 7 ** np.arange(3, -1, -1))


@pytest.mark.parametrize(
    "n,m", [(3, 1), (5, 2), (7, 3), (30, 2), (180, 3), (kernels.MAX_MODULUS, 3)]
)
def test_mat_mul_components_matches_ring(n, m):
    """The oracle's 8-component product, on which its closure and product
    keys rest, against the element-by-element ring."""
    rng = np.random.default_rng(3)
    p = RingParams(n, m)
    a = rng.integers(0, n, size=(50, 8), dtype=np.int64)
    b = rng.integers(0, n, size=(50, 8), dtype=np.int64)
    prods = oracles.mat_mul_components(a, b, n, m)
    for ra, rb, rp in zip(a, b, prods):
        want = mat_mul(as_matrix(ra), as_matrix(rb), p)
        got = canonicalize(as_matrix(rp), p)
        assert got == want
        # The exact product on Python ints reduces to the same residues.
        exact = oracles.mat_mul_exact(tuple(ra.tolist()), tuple(rb.tolist()), m)
        assert [v % n for v in exact] == rp.tolist()
    # Broadcasting: (k, 1, 8) x (2, 8) -> (k, 2, 8).
    grid = oracles.mat_mul_components(a[:, None, :], b[:2], n, m)
    assert grid.shape == (50, 2, 8)
    for i, ra in enumerate(a):
        for j in range(2):
            want = mat_mul(as_matrix(ra), as_matrix(b[j]), p)
            assert canonicalize(as_matrix(grid[i, j]), p) == want


@pytest.mark.parametrize("n,m", [(3, 1), (5, 2), (30, 2), (180, 3), (kernels.MAX_MODULUS, 3)])
def test_right_mult_map_matches_mat_mul_components(n, m):
    """The oracle closure's linear map of right multiplication."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, n, size=(200, 8), dtype=np.int64)
    for g in rng.integers(0, n, size=(4, 8), dtype=np.int64):
        linear = oracles.right_mult_map(g, n, m)
        assert linear.shape == (8, 8)
        assert np.array_equal((rows @ linear) % n, oracles.mat_mul_components(rows, g, n, m))


@pytest.mark.parametrize(
    "n,m", [(3, 1), (5, 2), (7, 3), (30, 2), (180, 3), (kernels.MAX_MODULUS, 3)]
)
def test_kind_form_product_matches_the_oracle(n, m):
    """mat_mul_exact on random rows (kind, a, b, c, d) of every kind of
    the radicand, over Z with entries in (-n, n) and reduced mod n,
    against the oracle's 8-component product of their 8-slot forms; the
    product's kind is the xor of the factors' kinds."""
    rng = np.random.default_rng(n + m)
    kinds = [0] if m == 1 else [0, 1]
    for kx in kinds:
        for ky in kinds:
            x = np.concatenate([np.full((300, 1), kx), rng.integers(1 - n, n, (300, 4))], axis=1)
            y = np.concatenate([np.full((300, 1), ky), rng.integers(1 - n, n, (300, 4))], axis=1)
            prod = kernels.mat_mul_exact(x, y, m)
            assert prod.dtype == np.int64 and prod.shape == (300, 5)
            assert (prod[:, 0] == (kx ^ ky)).all()
            want = oracles.mat_mul_exact(*(oracles.eight_slots(g, m).T for g in (x, y)), m)
            assert np.array_equal(oracles.eight_slots(prod, m), np.stack(want, axis=-1))
            residues = oracles.mat_mul_components(
                oracles.eight_slots(x % n, m), oracles.eight_slots(y % n, m), n, m)
            assert np.array_equal(oracles.eight_slots(prod % n, m), residues)
            # Broadcasting: (k, 1, 5) x (2, 5) -> (k, 2, 5), and tuples.
            grid = kernels.mat_mul_exact(x[:, None], y[:2], m)
            assert np.array_equal(grid[:, 1], kernels.mat_mul_exact(x, y[1], m))
            assert kernels.mat_mul_exact(tuple(x[0]), tuple(y[0]), m).tolist() == prod[0].tolist()


@pytest.mark.parametrize("n,m", [(3, 1), (5, 2), (30, 2), (180, 3), (kernels.MAX_MODULUS, 3)])
def test_product_keys_match_the_general_product(n, m):
    """Rows in the kind patterns of q = QS[m] times I, S, T and R, and also
    times longer words in S and T, against the general product."""
    rng = np.random.default_rng(17)
    p = HeckeParams(QS[m], n)
    rows = [_with_repeats(_kind_rows(rng, n, kind, 300), n) for kind in range(1 + (m > 1))]
    _check_products(rows, p, n)
    s, t = generators(p)[:2]
    word = np.array(IDENTITY)
    odd = 0
    for letter in rng.integers(0, 2, size=12).tolist():
        word = kernels.mat_mul_exact(word, (s, t)[letter], m) % n
        odd ^= m > 1 and letter == 0  # one more S
        assert word[0] == odd
        for kind, kind_rows in enumerate(rows):
            to = kind ^ odd
            step = kernels.slot_maps(word, n, m)[kind]
            want, _ = _four_digit_oracle(kind_rows, word, n, m, to)
            assert kind ^ step[0] == to
            assert np.array_equal(kernels.slot_product_keys(kind_rows, step, n), want)


@pytest.mark.parametrize("q,n", [(q, n) for q in (3, 4, 6) for n in (5, 7, 6, 8, 9)] + [(4, 96)])
def test_identity_keys_are_distinct(q, n, monkeypatch):
    """The keys the group builds for its elements from the residues it
    writes are N distinct keys, each the key of its stored row."""
    made = []
    four_digit_keys = kernels.four_digit_keys

    def kept(*args, **kwargs):
        keys = four_digit_keys(*args, **kwargs)
        made.append(keys.ravel().copy())
        return keys

    monkeypatch.setattr(kernels, "four_digit_keys", kept)
    p = HeckeParams(q, n)
    group = enumerate_group(p)
    keys = np.concatenate(made)
    assert keys.size == group.order == np.unique(keys).size
    kinds = group.rows[:, 0]
    for kind, step in enumerate(kernels.slot_maps(IDENTITY, n, p.m)):
        rows = group.rows[kinds == kind]
        assert np.array_equal(kernels.slot_product_keys(rows, step, n), keys[kinds == kind])


def _key(g, n):
    return int(oracles.pack_components(np.asarray(g.components(), dtype=np.int64), n))


def _reference_closure(p: HeckeParams):
    """Scalar FIFO BFS with ProjMatrix values: the independent oracle.

    Returns {key: (matrix, BFS level)}.
    """
    s, t = (as_matrix(row, p.m) for row in generators(p)[:2])
    rp = RingParams(p.n, p.m)
    ident = canonicalize(identity_matrix(rp), rp)
    order = [(ident, 0)]
    seen = {ident}
    head = 0
    while head < len(order):
        g, level = order[head]
        head += 1
        for gen in (s, t):
            h = mat_mul(g, gen, rp)
            if h not in seen:
                seen.add(h)
                order.append((h, level + 1))
    return {_key(g, p.n): (g, level) for g, level in order}


CLOSURE_CASES = [(4, 3), (3, 5), (4, 5), (6, 5), (4, 7), (6, 7)]


@pytest.mark.parametrize("q,n", CLOSURE_CASES)
def test_numpy_closure_matches_python_oracle(q, n):
    p = HeckeParams(q, n)
    gens = oracles.eight_slots(generators(p)[:2], p.m)
    keys, cayley, done = oracles.closure_bfs(gens, p.n, p.m, 10**6)
    assert done
    assert cayley.shape == (keys.shape[0], 2)
    reference = _reference_closure(p)
    # Same key set, identity first, levels in BFS order and each contiguous,
    # keys ascending within a level.
    assert sorted(keys.tolist()) == sorted(reference)
    assert reference[int(keys[0])][1] == 0
    levels = [reference[k][1] for k in keys.tolist()]
    assert levels == sorted(levels)
    for a, b, la, lb in zip(keys, keys[1:], levels, levels[1:]):
        assert la != lb or a < b
    # cayley[i, j] is the index of keys[i] * gens[j].
    s, t = (as_matrix(row) for row in gens)
    want = [
        [_key(mat_mul(reference[k][0], gen, RingParams(p.n, p.m)), p.n) for gen in (s, t)]
        for k in keys.tolist()
    ]
    assert keys[cayley].tolist() == want


@pytest.mark.parametrize("q,n", [(4, 5), (3, 7), (6, 9)])
def test_closure_stopped_at_limit_keeps_whole_levels(q, n):
    p = HeckeParams(q, n)
    gens = oracles.eight_slots(generators(p)[:2], p.m)
    keys, cayley, done = oracles.closure_bfs(gens, p.n, p.m, principal_congruence_index(p))
    assert done
    reference = _reference_closure(p)
    levels = [reference[k][1] for k in keys.tolist()]
    # First index of each level, and the end of the last one.
    starts = [i for i in range(len(levels)) if i == 0 or levels[i] != levels[i - 1]]
    starts.append(len(levels))
    limits = {b + d for b in starts for d in (-1, 0, 1)} & set(range(1, len(keys)))
    for limit in sorted(limits):
        part_keys, part_cayley, part_done = oracles.closure_bfs(gens, p.n, p.m, limit)
        count = part_keys.shape[0]
        assert not part_done
        # The levels that fit whole, and not one row of the next.
        assert count == max(b for b in starts if b <= limit)
        assert np.array_equal(part_keys, keys[:count])
        assert np.array_equal(part_cayley, cayley[:count])


# Even n, and n divisible by m = 2 or 3: the other branches of the index formula.
MORE_CLOSURE_CASES = [(q, n) for q in (3, 4, 6) for n in (6, 8, 9, 12, 15, 16)]


@pytest.mark.parametrize("q,n", CLOSURE_CASES + MORE_CLOSURE_CASES)
def test_cayley_table_matches_right_mult_perm(q, n):
    group = enumerate_group(HeckeParams(q, n))
    p = group.params
    gens = oracles.canonical_keys(oracles.eight_slots(generators(p)[:2], p.m), n)
    s, t = (oracles.index_of_key(group, int(key)) for key in gens)
    sigma = build_algebraic_map(group).sigma
    assert [int(group.alpha[0]), int(sigma[0])] == [s, t]
    assert np.array_equal(group.alpha, oracles.right_mult_perm(group, s))
    assert np.array_equal(sigma, oracles.right_mult_perm(group, t))


def _bfs_levels(nbrs) -> dict[int, int]:
    """The level of every node that a plain queue BFS from node 0 reaches."""
    level = {0: 0}
    queue = [0]
    for node in queue:
        for other in nbrs[node].tolist():
            if other not in level:
                level[other] = level[node] + 1
                queue.append(other)
    return level


def _random_tables(rng):
    """Tables of int32 and int64 with self-loops, repeated neighbours and
    graphs that fall apart into several components."""
    for dtype in (np.int32, np.int64):
        for size, k in ((1, 1), (2, 1), (5, 2), (12, 3), (40, 4), (200, 5), (1000, 2)):
            table = rng.integers(0, size, (size, k))
            yield table.astype(dtype)
            own = np.arange(size)[:, None]
            yield np.where(rng.random((size, k)) < 0.3, own, table).astype(dtype)
            yield np.repeat(table[:, :1], k, axis=1).astype(dtype)
            # Nodes of one residue mod 3 reach only each other.
            parts = table - table % 3 + own % 3
            yield np.where(parts < size, parts, own).astype(dtype)


def test_breadth_first_tree_spans_what_a_queue_reaches():
    rng = np.random.default_rng(5)
    for nbrs in _random_tables(rng):
        k = nbrs.shape[1]
        tree = kernels.breadth_first_tree(nbrs)
        assert tree.tobytes() == kernels.breadth_first_tree(nbrs).tobytes()
        level = _bfs_levels(nbrs)
        heads = nbrs.ravel()[tree].tolist()
        tails = (tree // k).tolist()
        assert len(set(heads)) == len(heads) and 0 not in heads
        assert set(heads) | {0} == set(level)
        assert tree.size == len(level) - 1
        # Each edge leaves a node of the level before its head's, and the
        # edges come level by level.
        assert all(level[t] + 1 == level[h] for t, h in zip(tails, heads))
        assert [level[h] for h in heads] == sorted(level[h] for h in heads)


def test_breadth_first_tree_does_not_depend_on_the_slices(monkeypatch):
    """A level walked in slices gives the tree of the level walked whole."""
    rng = np.random.default_rng(7)
    tables = list(_random_tables(rng))
    monkeypatch.setattr(kernels, "CHUNK_DARTS", 1 << 30)
    whole = [kernels.breadth_first_tree(nbrs).tobytes() for nbrs in tables]
    for chunk in (1, 7, 64):
        monkeypatch.setattr(kernels, "CHUNK_DARTS", chunk)
        assert [kernels.breadth_first_tree(nbrs).tobytes() for nbrs in tables] == whole


def test_breadth_first_tree_reads_the_group_table_in_place():
    """The generation pass's tree on the int32 (V, n) table of alpha // n
    traces about 0.5 bytes per entry: candidate edges of one slice of a
    level at a time, and per-node arrays.  Candidates for a whole level
    took 12.4, and widening the table to int64 and sorting node codes per
    level 28.6."""
    group = enumerate_group(HeckeParams(4, 101))
    table = (group.alpha // 101).reshape(-1, 101)
    assert table.dtype == np.int32
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = kernels.breadth_first_tree(table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert tree.size == table.shape[0] - 1
    assert peak < table.size


def test_breadth_first_tree_walks_a_level_in_slices():
    """On the complete graph of 1,024 nodes level 1 holds every node but
    the root, and its candidate edges are the whole table.  Walked in
    slices of CHUNK_DARTS // k nodes the tree traces about 21 times
    CHUNK_DARTS bytes; the whole level at once took 209 times."""
    size = 1024
    nbrs = ((np.arange(size)[:, None] + np.arange(size)) % size).astype(np.int32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = kernels.breadth_first_tree(nbrs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(tree, np.arange(1, size))
    assert peak < 32 * kernels.CHUNK_DARTS


def test_modulus_bound():
    with pytest.raises(ValueError, match="outside supported range"):
        enumerate_group(HeckeParams(4, kernels.MAX_MODULUS + 1))
    gens = np.zeros((1, 8), dtype=np.int64)
    with pytest.raises(ValueError):
        oracles.closure_bfs(gens, kernels.MAX_MODULUS + 1, 2, 100)
