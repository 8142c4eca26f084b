"""The one 2x2 product over Z[sqrt(m)], four-digit keys of products, and the
one breadth-first search.

Every group element in the library is a component row: 8 residues in
[0, n) in the scan order e11.rat, e11.irr, e12.rat, e12.irr, e21.rat,
e21.irr, e22.rat, e22.irr.  ``_SLOTS``, the one statement of the slots
of a, c, b and d in each kind of row, is read by the one row classifier
``parity_patterns``, the group, the cusps and the map certificate;
``kind_slots`` picks its row for a kind.
The group stores its rows in ``row_dtype(n)``, the smallest unsigned dtype
that holds n - 1 (uint8 over the whole modulus range), and every reader
here widens them before it does arithmetic.
``mat_mul_exact`` is the only place the matrix product is written out; it
works on tuples of Python ints (exact) and on component arrays: the
renderer's int64 tables over Z, and those reduced mod n by
``mat_mul_components``.  Right
multiplication by a fixed g is linear in the row, so ``right_mult_map``
turns it into an 8x8 integer matrix built by ``mat_mul_exact`` from the 8
unit rows.  A row's other four slots are zero, so its kind and the
residues a, b, c, d in its kind's slots, as base-n digits after the kind,
are an int64 key (``four_digit_keys``), and min(key(g), key(-g)) is the
canonical projective key.  The group takes the keys of its elements from
the residues it writes, and its checks of sigma (``block_successor``) and
alpha key the products from ``slot_product_keys``, which applies the (4, 4)
blocks of ``right_mult_map`` (``slot_maps``) to the stored rows.
``residues`` takes residues by floor division in the int32 passes: the
product keys, the second columns and the group's block pass.
``breadth_first_tree`` serves the group's connectivity pass and the
coset-domain spanning tree.  ``coordinate_blocks`` cuts every pass over
whole coordinates (n darts each) into blocks of at most ``CHUNK_DARTS``
darts, so that its temporaries stay small at every modulus.  The module
imports nothing from the package.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "CHUNK_DARTS",
    "coordinate_blocks",
    "block_successor",
    "row_dtype",
    "parity_patterns",
    "mat_mul_exact",
    "mat_mul_components",
    "right_mult_map",
    "kind_slots",
    "slot_maps",
    "residues",
    "four_digit_keys",
    "slot_product_keys",
    "breadth_first_tree",
    "resolve_backend",
]

# The top of the modulus range.  The library's own bounds lie above it:
# its keys, below 2 * n**4, fit int64 up to n of about 46,000, the uint8
# rows hold residues up to n = 256, and the int32 alpha entries, below
# n**3, up to n = 1,290.  234 is set by the test oracle: its 8-digit keys
# need n**8 < 2**63 (234**8 < 2**63 < 235**8), and so it can check the
# library's keys at any n in range.  A higher top waits for a measured
# memory plan.  The largest unreduced product sums, 4 * 3 * 233**2 in
# mat_mul_exact and 8 * 233**2 in a row times a right_mult_map, are far
# smaller.  The group's block pass and Completion.second_columns run in
# int32: their second columns, class codes and alpha offsets need
# n + n**2 < 2**31 (n up to 46,340), and their element indices and sign
# tie-break, below n**3, the alpha entries' bound.
MAX_MODULUS = 234

# Darts per block of the passes over whole coordinates: the group's
# construction and check, the coordinate graph and the map certificate.
CHUNK_DARTS = 1 << 16


# Slots of a, c, b, d in the component rows [[a, b*sqrt(m)], [c*sqrt(m), d]]
# (kind A, even), [[a*sqrt(m), b], [c, d*sqrt(m)]] (kind B, odd) and, for
# q = 3, [[a, b], [c, d]].
_SLOTS = np.array([(0, 5, 3, 6), (1, 4, 2, 7), (0, 4, 2, 6)])


def kind_slots(kind, m: int) -> np.ndarray:
    """Slots of a, c, b, d, along a last axis, in the rows of a kind or an
    array of kinds: 0 is kind A, or the one form of q = 3 (m = 1), and 1 is
    kind B."""
    return _SLOTS[np.where(m == 1, 2, kind)]


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
    """Dtype of the component rows mod n: the smallest that holds n - 1."""
    return np.min_scalar_type(n - 1)


def parity_patterns(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rows of an (..., 8) component table that match the even
    pattern (kind A of ``_SLOTS``) and the odd one (kind B): a row of one
    kind is zero in the other kind's slots.

    A corrupted row may match both or neither.
    """
    g = np.asarray(comps)
    even, odd = (np.logical_and.reduce([g[..., slot] == 0 for slot in other])
                 for other in _SLOTS[[1, 0]].tolist())
    return even, odd


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


def mat_mul_components(a: np.ndarray, b: np.ndarray, n: int, m: int) -> np.ndarray:
    """Product over Z_n[sqrt(m)] of (..., 8) component arrays; broadcasts."""
    a = np.moveaxis(np.asarray(a, dtype=np.int64), -1, 0)
    b = np.moveaxis(np.asarray(b, dtype=np.int64), -1, 0)
    out = np.empty(np.broadcast_shapes(a.shape[1:], b.shape[1:]) + (8,), dtype=np.int64)
    for i, comp in enumerate(mat_mul_exact(a, b, m)):
        np.remainder(comp, n, out=out[..., i])
    return out


def right_mult_map(g: np.ndarray, n: int, m: int) -> np.ndarray:
    """The 8x8 matrix M with (rows @ M) % n equal to rows * g over Z_n[sqrt(m)].

    Row k of M is the product of the k-th unit row with g.
    """
    return mat_mul_components(np.eye(8, dtype=np.int64), g, n, m)


def slot_maps(g, n: int, m: int) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """Right multiplication by g on the four slots of each kind of row.

    Entry k, for the rows of kind k (kind 0 alone when m = 1), is
    (slots, kind, M): ``kind_slots(k, m)``, the kind of the products, and
    the (4, 4) block of ``right_mult_map(g)`` from those slots to the
    product kind's slots of a, b, c, d, as signed residues in (-n/2, n/2].
    The product kind is the one whose slots alone receive the products: S
    flips the kind for q = 4 and 6, and T keeps it.
    """
    mat = right_mult_map(np.asarray(g, dtype=np.int64), n, m)
    mat = np.where(mat > n // 2, mat - n, mat)
    kinds = [0] if m == 1 else [0, 1]
    out = []
    for kind in kinds:
        slots = kind_slots(kind, m)
        part = mat[slots]
        to, = (k for k in kinds if not np.delete(part, kind_slots(k, m), axis=1).any())
        out.append((slots, to, part[:, kind_slots(to, m)[[0, 2, 1, 3]]]))
    return out


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
    the key of a row of that kind whose slots hold a, b, c, d, and its
    canonical key when the row is the lexicographically smaller of g and -g
    in that order."""
    out[...] = kind
    for digit in digits:
        np.multiply(out, n, out=out, dtype=np.int64)
        np.add(out, digit, out=out, dtype=np.int64)
    return out


def slot_product_keys(rows: np.ndarray, step, n: int) -> np.ndarray:
    """Canonical keys min(key(h), key(-h)) (see ``four_digit_keys``) of the
    products h with g of the rows of an (N, 8) component table, all of one
    kind, given that kind's entry of ``slot_maps(g, n, m)``.

    Each digit of h sums the stored residues times their entries in the
    block: one or two entries 1, -1, m or -m for S, T and the identity,
    and a lone 1 copies the stored residue.  key(-h) is the kind part plus
    the sum of (n - c) n**place over the nonzero digits c, so both keys
    build up a digit at a time, with one digit alive at a time.
    """
    slots, kind, sub = step
    cols = [rows[:, slot] for slot in slots.tolist()]
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
    return np.add(key, kind * n**4, out=key, dtype=np.int64)


def breadth_first_tree(nbrs: np.ndarray) -> np.ndarray:
    """Tree edges of a breadth-first spanning tree from node 0, where node i
    has the neighbours nbrs[i, 0], nbrs[i, 1], ...: the flat indices i*k + j
    into the (N, k) table of one edge into each newly reached node, level by
    level.  Any spanning tree serves both callers.  Which edge reaches a
    node when several do is not specified, but it is fixed for a given
    input.  The graph is connected exactly when the tree has N - 1 edges.
    """
    size, k = nbrs.shape
    flat = nbrs.ravel()
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    via = np.empty(size, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    tree = [frontier[:0]]
    while frontier.size:
        cand = (np.multiply(frontier, k, dtype=np.int64)[:, None] + np.arange(k)).ravel()
        reached = flat[cand]
        new = ~seen[reached]
        cand, reached = cand[new], reached[new]
        via[reached] = cand
        keep = via[reached] == cand
        cand, frontier = cand[keep], reached[keep]
        seen[frontier] = True
        tree.append(cand)
    return np.concatenate(tree)


def resolve_backend() -> str:
    """Name of the group construction, recorded with benchmark results."""
    return "numpy"
