"""The one 2x2 product over Z[sqrt(m)], canonical keys of products, and the
one breadth-first search.

Every group element in the library is a component row: 8 residues in
[0, n) in the scan order e11.rat, e11.irr, e12.rat, e12.irr, e21.rat,
e21.irr, e22.rat, e22.irr.  ``_SLOTS``, the one statement of the slots
of a, c, b and d in each kind of row, is read by ``parity``, the group,
the cusps and the map certificate.  The group stores its rows in
``row_dtype(n)``, the smallest unsigned dtype that holds n - 1 (uint8
over the whole modulus range), and every reader here widens them to int64
before it does arithmetic.
``mat_mul_exact`` is the only place the matrix product is written out; it
works on tuples of Python ints (exact, used by the renderer over Z) and on
component arrays (reduced mod n by ``mat_mul_components``).  Right
multiplication by a fixed g is linear in the row, so ``right_mult_map``
turns it into an 8x8 integer matrix built by ``mat_mul_exact`` from the 8
unit rows.  The 8 residues as base-n digits, most significant first, are
an int64 key, and min(key(g), key(-g)) is the canonical projective key
that ``product_keys`` gives the group's check of its Cayley table.
``breadth_first_tree`` serves the group's connectivity pass and the
coset-domain spanning tree.  ``coordinate_blocks`` cuts every pass over
whole coordinates (n darts each) into blocks of at most ``CHUNK_DARTS``
darts, so that its temporaries stay small at every modulus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .group import HeckeParams

__all__ = [
    "MAX_MODULUS",
    "CHUNK_DARTS",
    "coordinate_blocks",
    "row_dtype",
    "parity_patterns",
    "parity",
    "mat_mul_exact",
    "mat_mul_components",
    "right_mult_map",
    "product_keys",
    "breadth_first_tree",
    "resolve_backend",
]

# Keys need n**8 <= 2**63: 234**8 < 2**63 < 235**8.  The largest
# unreduced product sums, 4 * 3 * 233**2 in mat_mul_exact and 8 * 233**2 in
# a row times a right_mult_map, are far smaller.
MAX_MODULUS = 234

# Darts per block of the passes over whole coordinates: the group's
# construction and check, the coordinate graph and the map certificate.
CHUNK_DARTS = 1 << 16


# Slots of a, c, b, d in the component rows [[a, b*sqrt(m)], [c*sqrt(m), d]]
# (kind A, even), [[a*sqrt(m), b], [c, d*sqrt(m)]] (kind B, odd) and, for
# q = 3, [[a, b], [c, d]].
_SLOTS = np.array([(0, 5, 3, 6), (1, 4, 2, 7), (0, 4, 2, 6)])


def _check_modulus(n: int) -> None:
    if not 3 <= n <= MAX_MODULUS:
        raise ValueError(f"modulus {n} outside supported range [3, {MAX_MODULUS}]")


def coordinate_blocks(size: int, n: int) -> list[slice]:
    """Slices of size coordinates of n darts each, in order, each of
    CHUNK_DARTS darts or fewer, or of one coordinate when n is larger."""
    step = max(1, CHUNK_DARTS // n)
    return [slice(lo, min(lo + step, size)) for lo in range(0, size, step)]


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


def parity(g, p: HeckeParams) -> str:
    """'even' or 'odd' by ``parity_patterns`` of the component row g.

    Defined only for q in {4, 6}; for q = 3 every element is an integer
    matrix and the even/odd split does not exist.
    """
    if p.q == 3:
        raise ValueError("parity is undefined for q=3 (all elements even)")
    even, odd = parity_patterns(g)
    if even != odd:
        return "even" if even else "odd"
    raise ValueError(
        f"component row {[int(v) for v in g]} matches no parity pattern; corrupted element"
    )


def _digit_weights(n: int) -> np.ndarray:
    """n**[7..0]: the place values of the 8 base-n digits of a key."""
    return n ** np.arange(7, -1, -1, dtype=np.int64)


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


def product_keys(rows: np.ndarray, g, n: int, m: int) -> np.ndarray:
    """Canonical keys min(key(h), key(-h)) of the products h of the rows of
    an (N, 8) component table, of any integer dtype, with g.

    Component j of h sums rows[:, k] * M[k, j] over the nonzero entries of
    M = right_mult_map(g), as signed residues: one or two per column, each
    1, -1 or m, for S, T and the identity, and a lone 1 copies a reduced
    component.  Every column read is widened to int64 by the products,
    which are taken in int64.  key(-h) sums (n - c) n**place over the
    nonzero digits c, so both keys build up a column at a time, with no
    (N, 8) product.
    """
    mat = right_mult_map(np.asarray(g, dtype=np.int64), n, m)
    mat = np.where(mat > n // 2, mat - n, mat)
    key = np.zeros(rows.shape[0], dtype=np.int64)
    nonzero = np.zeros(rows.shape[0], dtype=np.int64)
    for j, weight in enumerate(_digit_weights(n).tolist()):
        terms = [(rows[:, k], int(mat[k, j])) for k in np.flatnonzero(mat[:, j]).tolist()]
        if len(terms) == 1 and terms[0][1] == 1:
            digit = terms[0][0]
        else:
            digit = sum(np.multiply(col, entry, dtype=np.int64) for col, entry in terms) % n
        key += np.multiply(digit, weight, dtype=np.int64)
        np.add(nonzero, weight, out=nonzero, where=digit != 0)
    return np.minimum(key, n * nonzero - key)


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
