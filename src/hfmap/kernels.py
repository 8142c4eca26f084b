"""The one 2x2 product over Z[sqrt(m)], four-digit keys of products, and the
one breadth-first search.

Every group element in the library is a row (kind, a, b, c, d): kind 0 is
[[a, b*sqrt(m)], [c*sqrt(m), d]] (kind A, and the one form [[a, b], [c,
d]] of q = 3, m = 1) and kind 1 is [[a*sqrt(m), b], [c, d*sqrt(m)]] (kind
B), with residues a, b, c, d in [0, n).  The group stores its rows in
``row_dtype(n)``, the smallest unsigned dtype that holds n - 1 (uint8 over
the whole modulus range), and every reader here widens them before it does
arithmetic.  ``mat_mul_exact`` is the only place the matrix product is
written out: on rows over Z (the renderer's int64 tables, and the group's
generators, which their callers reduce mod n).  Right multiplication by a
fixed g is linear in a row of a given kind, so ``slot_maps`` turns it into
one 4x4 integer block per kind, built by ``mat_mul_exact`` from the unit
rows.  A row read as base-n digits, kind*n**4 + a*n**3 + b*n**2 + c*n + d,
is an int64 key (``four_digit_keys``), and min(key(g), key(-g)), where -g
negates a, b, c, d and keeps the kind, is the canonical projective key.
The group takes the keys of its elements from the residues it writes, and
its checks of sigma (``block_successor``) and alpha key the products from
``slot_product_keys``, which applies the blocks of ``slot_maps`` to
columns 1 to 4 of the stored rows and reads the products' kind off column
0.
``residues`` takes residues by floor division in the int32 passes: the
product keys, the second columns and the group's block pass.
``breadth_first_tree`` searches the block table alpha // n a slice of
each level at a time, first to last, for the group's connectivity and the
coset domain, which take any spanning tree.
``coordinate_blocks`` cuts every pass over whole coordinates (n darts
each) into blocks of at most ``CHUNK_DARTS`` darts, so that its
temporaries stay small at every modulus.  The module imports nothing from
the package.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "CHUNK_DARTS",
    "coordinate_blocks",
    "block_successor",
    "row_dtype",
    "mat_mul_exact",
    "slot_maps",
    "residues",
    "four_digit_keys",
    "slot_product_keys",
    "breadth_first_tree",
    "resolve_backend",
]

# The top of the modulus range.  The library's own bounds lie above it:
# its keys, below 2 * n**4, fit int64 up to n of about 46,000, the uint8
# rows (kind, a, b, c, d) hold residues up to n = 256, and the int32 alpha
# entries, below n**3, up to n = 1,290.  234 is set by the test oracle:
# its 8-digit keys of the 8-slot form of a row need n**8 < 2**63 (234**8 <
# 2**63 < 235**8), and so it can check the library's keys at any n in
# range.  Memory does not hold the top down: every stage of ``map`` peaks
# within one block of what it keeps (BENCH_pipeline.json).  At (4, 233)
# the group keeps 9 bytes per element and peaks at 17.3 while its int64
# keys live, and the map, the invariants and the certificate keep 13 and
# peak at 13.0-13.7.  A higher top waits for an oracle key that is exact
# past 234.  The largest unreduced product sums, 2 * 3 * 233**2 in
# mat_mul_exact and 2 * 233**2 in slot_product_keys, are far smaller.
# The group's block pass and Completion.second_columns run in int32: their
# second columns, class codes and alpha offsets need n + n**2 < 2**31 (n
# up to 46,340), and their element indices and sign tie-break, below
# n**3, the alpha entries' bound.
MAX_MODULUS = 234

# Darts per block of every pass over whole arrays: the group's
# construction and check, the coordinate graph, the map certificate and
# MapStructure's alpha checks; and candidate edges per slice of a level of
# breadth_first_tree.  A block's temporaries are about 40 bytes a dart, and
# with every pass in blocks they are most of the peak at small sizes.  On
# a 2-vCPU x86-64 VM the perfbench map-even workload (about 0.4 million
# darts a map) peaked at 45.2 MB of RSS in 0.15-0.17 s with 1 << 14, at
# 46.0 MB in 0.16-0.17 s with 1 << 15 and at 48.0 MB in 0.19 s with
# 1 << 16; ``map --q 4 --n 233`` peaked at 241 MB with each.
CHUNK_DARTS = 1 << 14


def _check_modulus(n: int) -> None:
    if not 3 <= n <= MAX_MODULUS:
        raise ValueError(f"modulus {n} outside supported range [3, {MAX_MODULUS}]")


def coordinate_blocks(size: int, n: int) -> list[slice]:
    """Slices of size coordinates of n darts each, in order, each of
    CHUNK_DARTS darts or fewer, or of one coordinate when n is larger."""
    step = max(1, CHUNK_DARTS // n)
    return [slice(lo, min(lo + step, size)) for lo in range(0, size, step)]


def block_successor(lo: int, hi: int, n: int) -> np.ndarray:
    """sigma = *T on the darts [lo, hi) of whole blocks, as int32: v*n + t ->
    v*n + (t + 1) % n.  It is *T because the T check of
    ``group.enumerate_group`` keys every product g*T as the element here."""
    step = np.arange(lo + 1, hi + 1, dtype=np.int32)
    step[n - 1::n] -= n
    return step


def row_dtype(n: int) -> np.dtype:
    """Dtype of the rows mod n: the smallest that holds n - 1."""
    return np.min_scalar_type(n - 1)


def mat_mul_exact(x, y, m: int) -> np.ndarray:
    """The unreduced product over Z[sqrt(m)] of rows (kind, a, b, c, d);
    broadcasts (..., 5) integer arrays, tuples or lists to an int64 array.

    Entry (i, j) of a kind-k row carries sqrt(m) iff (i != j) xor k: kind A
    is [[a, b*sqrt(m)], [c*sqrt(m), d]], kind B [[a*sqrt(m), b], [c,
    d*sqrt(m)]], and q = 3 (m = 1) has kind A alone.  A term x_ij*y_jl
    carries m iff both factors carry sqrt(m), and the product's kind is
    k1 xor k2, or 0 for m = 1.
    """
    kx, a1, b1, c1, d1 = np.moveaxis(np.asarray(x, dtype=np.int64), -1, 0)
    ky, a2, b2, c2, d2 = np.moveaxis(np.asarray(y, dtype=np.int64), -1, 0)
    diag_x, diag_y = kx == 1, ky == 1  # kind B: the diagonal carries sqrt(m)

    def lift(irr_x, irr_y):
        return np.where(irr_x & irr_y, m, 1)

    return np.stack(np.broadcast_arrays(
        (kx ^ ky) * (m > 1),
        a1 * a2 * lift(diag_x, diag_y) + b1 * c2 * lift(~diag_x, ~diag_y),
        a1 * b2 * lift(diag_x, ~diag_y) + b1 * d2 * lift(~diag_x, diag_y),
        c1 * a2 * lift(~diag_x, diag_y) + d1 * c2 * lift(diag_x, ~diag_y),
        c1 * b2 * lift(~diag_x, ~diag_y) + d1 * d2 * lift(diag_x, diag_y),
    ), axis=-1)


def slot_maps(g, n: int, m: int) -> list[tuple[int, np.ndarray]]:
    """Right multiplication by g on the rows of each kind.

    Entry k, for the rows of kind k (kind 0 alone when m = 1), is (flip,
    M): a row of kind k times g is of kind k xor flip, and M is the (4, 4)
    matrix with (row[1:] @ M) % n the digits a, b, c, d of row * g, as
    signed residues in (-n/2, n/2].  Row i of M is the product with g of
    the kind-k unit row e_i; the unit rows of every kind are multiplied in
    one call, as a (kinds, 4, 5) stack.
    """
    kinds = 1 if m == 1 else 2
    units = np.zeros((kinds, 4, 5), dtype=np.int64)
    units[:, :, 0] = np.arange(kinds)[:, None]
    units[:, :, 1:] = np.eye(4, dtype=np.int64)
    prod = mat_mul_exact(units, g, m)
    block = prod[..., 1:] % n
    block = np.where(block > n // 2, block - n, block)
    return [(int(prod[k, 0, 0]) ^ k, block[k]) for k in range(kinds)]


def residues(x, n: int):
    """x mod n, taken by floor division, which numpy runs faster than %.

    An array x is overwritten, and keeps its dtype: x // n and its product
    with the Python int n stay in x's dtype under numpy 2 (NEP 50) and
    numpy 1.x (value-based casting) alike, as long as n fits it.  A scalar
    x gives a new scalar.
    """
    x -= x // n * n
    return x


# Every op of the keys below names its dtype, so that numpy 2 (NEP 50) and
# numpy 1.x (value-based casting), which pyproject.toml both allows,
# promote alike.


def four_digit_keys(kind, digits, n: int, out: np.ndarray) -> np.ndarray:
    """kind*n**4 + ((a*n + b)*n + c)*n + d, written into the int64 array
    out, for kinds and residues (a, b, c, d) that broadcast to its shape:
    the key of the row (kind, a, b, c, d), and its canonical key when the
    row is the lexicographically smaller of g and -g in the order a, b, c,
    d."""
    out[...] = kind
    for digit in digits:
        np.multiply(out, n, out=out, dtype=np.int64)
        np.add(out, digit, out=out, dtype=np.int64)
    return out


def slot_product_keys(rows: np.ndarray, step, n: int) -> np.ndarray:
    """Canonical keys min(key(h), key(-h)) (see ``four_digit_keys``) of the
    products h with g of the rows of an (N, 5) table, all of one kind,
    given that kind's entry of ``slot_maps(g, n, m)``.  The kind of h is
    read off each stored row's kind digit, so a row stored with the wrong
    kind keys as the wrong element.

    Each digit of h sums the stored residues times their entries in the
    block: one or two entries 1, -1, m or -m for S, T and the identity,
    and a lone 1 copies the stored residue.  key(-h) is the kind part plus
    the sum of (n - c) n**place over the nonzero digits c, so both keys
    build up a digit at a time, with one digit alive at a time.
    """
    flip, sub = step
    cols = [rows[:, j] for j in range(1, 5)]
    # The digit sums, below 2 * n**2 in absolute value for any g, and the
    # first three digits of a key, below n**3, are int32; the key, below
    # 2 * n**4, is int64.
    key = nonzero = 0
    for entries, dtype in zip(sub.T.tolist(), (np.int32,) * 3 + (np.int64,)):
        terms = [(col, e) for col, e in zip(cols, entries) if e]
        if len(terms) == 1 and terms[0][1] == 1:
            digit = terms[0][0]
        else:
            digit = 0
            for col, e in terms:
                digit = np.add(digit, np.multiply(col, e, dtype=np.int32), dtype=np.int32)
            digit = residues(digit, n)
        key = np.add(np.multiply(key, n, dtype=dtype), digit, dtype=dtype)
        nonzero = np.add(np.multiply(nonzero, n, dtype=dtype), digit != 0, dtype=dtype)
    # key(-h) - kind * n**4 into nonzero, then the canonical key into key.
    np.multiply(nonzero, n, out=nonzero, dtype=np.int64)
    np.subtract(nonzero, key, out=nonzero, dtype=np.int64)
    np.minimum(key, nonzero, out=key, dtype=np.int64)
    np.multiply(rows[:, 0] ^ flip, n**4, out=nonzero, dtype=np.int64)
    return np.add(key, nonzero, out=key, dtype=np.int64)


def breadth_first_tree(nbrs: np.ndarray) -> np.ndarray:
    """Tree edges of a breadth-first spanning tree from node 0, where node i
    has the neighbours nbrs[i, 0], nbrs[i, 1], ...: the flat indices i*k + j
    into the (N, k) table of one edge into each newly reached node, level by
    level.  Both callers, the group's connectivity check and
    ``polygon._glued_domain``, pass the (V, n) block table alpha // n, and
    any spanning tree serves both.  Which edge reaches a node when several
    do is not specified, but it is fixed for a given input and
    ``CHUNK_DARTS``.  The graph is connected exactly when the tree has
    N - 1 edges.

    Each level is walked in slices of CHUNK_DARTS // k frontier nodes, in
    order, so that its int64 candidate edges stay within one block whatever
    the level's size.  A node reached from several edges of one slice keeps
    one of them, and a node a slice reaches is seen by the slices after it.
    """
    size, k = nbrs.shape
    flat = nbrs.ravel()
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    via = np.empty(size, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    tree = [frontier[:0]]
    step = max(1, CHUNK_DARTS // k)
    while frontier.size:
        nodes = []
        for lo in range(0, frontier.size, step):
            cand = (np.multiply(frontier[lo:lo + step], k, dtype=np.int64)[:, None]
                    + np.arange(k)).ravel()
            reached = flat[cand]
            new = ~seen[reached]
            cand, reached = cand[new], reached[new]
            via[reached] = cand
            keep = via[reached] == cand
            cand, reached = cand[keep], reached[keep]
            seen[reached] = True
            tree.append(cand)
            nodes.append(reached)
        frontier = np.concatenate(nodes)
    return np.concatenate(tree)


def resolve_backend() -> str:
    """Name of the group construction, recorded with benchmark results."""
    return "numpy"
