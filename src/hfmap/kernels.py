"""The one 2x2 product over Z[sqrt(m)], packed matrix keys, and the closure.

Every group element in the library is a component row: 8 residues in
[0, n) in the scan order e11.rat, e11.irr, e12.rat, e12.irr, e21.rat,
e21.irr, e22.rat, e22.irr.  ``mat_mul_exact`` is the only place the matrix
product is written out; it works on tuples of Python ints (exact, used by
the renderer over Z) and on component arrays (reduced mod n by
``mat_mul_components``).  Right multiplication by a fixed g is linear in the
row, so ``right_mult_map`` turns it into an 8x8 integer matrix built by
``mat_mul_exact`` from the 8 unit rows.  Packing the 8 residues as base-n
digits, most significant first (a dot product with n**[7..0]), gives an
int64 key whose numeric order equals lexicographic order on the component
tuple, so the canonical projective representative is simply
min(key(g), key(-g)).

The closure is a level-synchronous vectorized BFS.  Elements come level by
level from the identity, in ascending canonical key within a level, and
each level's products with the generators are resolved to element indices
as the level is found, so the closure returns the Cayley table itself.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "pack_components",
    "unpack_keys",
    "mat_mul_exact",
    "mat_mul_components",
    "right_mult_map",
    "closure_bfs",
    "distinct",
    "resolve_backend",
]

# Packed keys need n**8 <= 2**63: 234**8 < 2**63 < 235**8.  The largest
# unreduced product sums, 4 * 3 * 233**2 in mat_mul_exact and 8 * 233**2 in
# a row times a right_mult_map, are far smaller.
MAX_MODULUS = 234


def _check_modulus(n: int) -> None:
    if not 3 <= n <= MAX_MODULUS:
        raise ValueError(f"modulus {n} outside supported range [3, {MAX_MODULUS}]")


def _digit_weights(n: int) -> np.ndarray:
    """n**[7..0]: the place values of the 8 base-n digits of a key."""
    return n ** np.arange(7, -1, -1, dtype=np.int64)


def pack_components(comps: np.ndarray, n: int) -> np.ndarray:
    """Pack (..., 8) component arrays into base-n int64 keys."""
    return np.asarray(comps, dtype=np.int64) @ _digit_weights(n)


def unpack_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_components; returns (..., 8) int64 components."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty(keys.shape + (8,), dtype=np.int64)
    rem = keys.copy()
    for i in range(7, -1, -1):
        out[..., i] = rem % n
        rem //= n
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


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array, as np.unique gives them.

    numpy 2.4's np.unique hashes integer arrays and took 0.37 s for 515,100
    values on a 2-vCPU x86-64 VM, where sorting them took 5 ms.
    """
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def resolve_backend() -> str:
    """Name of the closure implementation, recorded with benchmark results."""
    return "numpy"


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
    _check_modulus(n)
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, 8)
    k = gens.shape[0]
    # frontier @ maps gives each row's products with every generator, side
    # by side, before reduction mod n.
    maps = np.concatenate([right_mult_map(g, n, m) for g in gens], axis=1)
    weights = _digit_weights(n)
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
