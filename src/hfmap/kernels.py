"""The one 2x2 product over Z[sqrt(m)], packed matrix keys, and the closure.

Every group element in the library is a component row: 8 residues in
[0, n) in the scan order e11.rat, e11.irr, e12.rat, e12.irr, e21.rat,
e21.irr, e22.rat, e22.irr.  ``mat_mul_exact`` is the only place the matrix
product is written out; it works on tuples of Python ints (exact, used by
the renderer over Z) and on component arrays (reduced mod n by
``mat_mul_components``).  Packing the 8 residues as base-n digits, most
significant first, gives an int64 key whose numeric order equals
lexicographic order on the component tuple, so the canonical projective
representative is simply min(key(g), key(-g)).

The closure is a level-synchronous vectorized BFS.  Elements come level by
level from the identity, in ascending canonical key within a level, and the
canonical keys of every element's products with the generators come with
them, so callers get the Cayley table without multiplying again.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "pack_components",
    "unpack_keys",
    "canonical_keys",
    "mat_mul_exact",
    "mat_mul_components",
    "right_mult_keys",
    "closure_bfs",
    "distinct",
    "resolve_backend",
]

# Packed keys need n**8 <= 2**63: 234**8 < 2**63 < 235**8.  The largest
# unreduced product sum, 4 * 3 * 233**2 in mat_mul_exact, is far smaller.
MAX_MODULUS = 234


def _check_modulus(n: int) -> None:
    if not 3 <= n <= MAX_MODULUS:
        raise ValueError(f"modulus {n} outside supported range [3, {MAX_MODULUS}]")


def pack_components(comps: np.ndarray, n: int) -> np.ndarray:
    """Pack (..., 8) component arrays into base-n int64 keys."""
    comps = np.asarray(comps, dtype=np.int64)
    keys = comps[..., 0].astype(np.int64).copy()
    for i in range(1, 8):
        keys = keys * n + comps[..., i]
    return keys


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


def right_mult_keys(comps: np.ndarray, g: np.ndarray, n: int, m: int) -> np.ndarray:
    """Canonical keys of (each row of comps) * g."""
    return canonical_keys(mat_mul_components(comps, g, n, m), n)


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


def _grow(buf: np.ndarray, rows: int) -> np.ndarray:
    """``buf``, or a copy with room for twice ``rows`` rows when it holds fewer."""
    if rows <= buf.shape[0]:
        return buf
    out = np.empty((2 * rows,) + buf.shape[1:], dtype=buf.dtype)
    out[: buf.shape[0]] = buf
    return out


def closure_bfs(
    gens: np.ndarray, n: int, m: int, limit: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Breadth-first closure of canonical generator keys under right products.

    Returns (keys, products, completed).  ``keys`` lists the elements level by
    level from the identity, ascending within a level.  ``products[i, j]`` is
    the canonical key of keys[i] * gens[j].  ``completed`` is False when the
    closure would exceed ``limit`` elements; keys and products then hold the
    levels found so far.
    """
    _check_modulus(n)
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, 8)
    ident = np.zeros(8, dtype=np.int64)
    ident[0] = 1
    ident[6] = 1
    visited = canonical_keys(ident, n).reshape(1)
    # The results grow by doubling, not as one array per level: small arrays
    # kept across levels pin the heap under each level's temporaries and
    # raise peak memory.
    order = visited.copy()
    products = np.empty((1, gens.shape[0]), dtype=np.int64)
    count = 1
    frontier = ident.reshape(1, 8)
    while True:
        # The frontier is the last level, rows count - len(frontier) on.
        level = right_mult_keys(frontier[:, None, :], gens, n, m)
        products[count - level.shape[0] : count] = level
        keys = distinct(level.ravel())
        pos = np.minimum(np.searchsorted(visited, keys), visited.shape[0] - 1)
        fresh = keys[visited[pos] != keys]
        end = count + fresh.shape[0]
        if fresh.shape[0] == 0 or end > limit:
            return order[:count], products[:count], fresh.shape[0] == 0
        order = _grow(order, end)
        products = _grow(products, end)
        order[count:end] = fresh
        count = end
        visited = np.sort(np.concatenate([visited, fresh]))
        frontier = unpack_keys(fresh, n)
