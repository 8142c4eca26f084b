"""Finite quotients of Hecke groups modulo a principal congruence subgroup.

The Hecke group H_q (q in {3, 4, 6}) is generated by the translation
T: z -> z + lam_q (lam_q = 2cos(pi/q), so lam = 1, sqrt(2), sqrt(3)) and the
inversion S: z -> -1/z.  Reducing matrix entries modulo n and identifying
g with -g yields a finite group; this module computes its order by the
closed-form index formula and enumerates it.  The formula is the group's
contract: a group of any other size raises ``IndexFormulaError``.
Elements are rows (kind, a, b, c, d), stored as uint8; their format and
dtype are read from ``kernels``, and this module exports only its own
names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import coords, kernels

__all__ = [
    "HeckeParams",
    "GroupCheckError",
    "IndexFormulaError",
    "RADICAND",
    "IDENTITY",
    "exact_generators",
    "generators",
    "INDEX_MAX_MODULUS",
    "principal_congruence_index",
    "enumerate_group",
    "FiniteHeckeGroup",
    "PermGroup",
    "s5_permutation_group",
]

# Radicand m of lam_q**2, keyed by q.
RADICAND = {3: 1, 4: 2, 6: 3}

IDENTITY = (0, 1, 0, 0, 1)

# The largest n the index formula takes: factoring n by trial division up
# to sqrt(n) then takes at most 10**6 steps.
INDEX_MAX_MODULUS = 10**12


class GroupCheckError(RuntimeError):
    """Raised when a constructed group fails one of its checks."""


class IndexFormulaError(GroupCheckError):
    """Raised when a group's order differs from the index formula."""


@dataclass(frozen=True)
class HeckeParams:
    """Quotient parameters: q selects the Hecke group, n the modulus."""

    q: int
    n: int

    def __post_init__(self) -> None:
        if self.q not in (3, 4, 6):
            raise ValueError(f"q must be 3, 4 or 6, got {self.q}")
        if self.n < 3:
            raise ValueError(f"modulus must be >= 3, got {self.n}")

    @property
    def m(self) -> int:
        """Radicand of lam_q**2: 1, 2, 3 for q = 3, 4, 6."""
        return RADICAND[self.q]


def exact_generators(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows (kind, a, b, c, d) over Z of S = [[0,-1],[1,0]] and T =
    [[1,lam],[0,1]].

    T is kind A for every q: lam_3 = 1, and lam_4 and lam_6 are sqrt(m).
    S has a rational off-diagonal, so it is kind B for q = 4 and 6.
    """
    return (int(q != 3), 0, -1, 1, 0), (0, 1, 1, 0, 1)


def generators(p: HeckeParams) -> np.ndarray:
    """Canonical rows mod n of S and T (see ``exact_generators``).

    Returns a (2, 5) int64 array.
    """
    n = p.n
    # The canonical sign, compared as tuples so that any modulus works: the
    # lexicographically smaller of (a, b, c, d) and its negative.
    return np.array([[k, *min([v % n for v in g], [-v % n for v in g])]
                     for k, *g in exact_generators(p.q)], dtype=np.int64)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def principal_congruence_index(p: HeckeParams) -> int:
    """Order of the quotient H_q / H_q(n), for n > 2: the one Euler product

        n^3 / e * prod_{r | n prime} (1 - 1/r^2, or 1 - 1/m if r = m),

    with m = ``RADICAND[q]`` and e = 2 for q = 3, the projective
    identification g ~ -g of the modular group, else e = 1.  m = 1 for
    q = 3 is no prime, so every factor there is 1 - 1/r^2.  n above
    ``INDEX_MAX_MODULUS`` raises ``ValueError``.
    """
    n = p.n
    if n <= 2:
        raise ValueError(f"index formula requires n > 2, got {n}")
    if n > INDEX_MAX_MODULUS:
        raise ValueError(
            f"modulus {n} outside supported range [3, {INDEX_MAX_MODULUS}] of the index formula"
        )
    num, den = n**3, 2 if p.q == 3 else 1
    for r in _prime_factors(n):
        power = r if r == p.m else r * r
        num *= power - 1
        den *= power
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class FiniteHeckeGroup:
    """Enumerated quotient with 0-based element indices v*n + t (see
    ``enumerate_group``).

    Elements are the rows (kind, a, b, c, d) of the (N, 5) table ``rows``,
    stored in the smallest unsigned dtype that holds n - 1 (uint8 for every
    modulus the library takes); a reader that negates them widens them
    first.  The identity has index 0.  ``alpha[i]`` is the index of i*S, as
    int32; i*T, the block step of ``kernels.block_successor``, is not
    stored.  Frozen: no field is reassigned, and no reader writes the
    arrays.
    """

    params: HeckeParams
    rows: np.ndarray
    alpha: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return int(self.rows.shape[0])


def enumerate_group(p: HeckeParams) -> FiniteHeckeGroup:
    """The quotient, one element per coordinate and offset.

    Element v*n + t has the first column of the v-th coordinate, with 1/0
    first so that the identity is element 0, and the second column at
    offset t on that coordinate's line (see ``coords.completion_table``).
    V*n other than the index formula raises ``IndexFormulaError``.  g*T
    keeps the first column and steps along the line, sigma(v, t) =
    (v, t + 1), and the first column of g*S = [[b, -a], [d, -c]] (up to the
    sqrt(m) factors) is the second column of g, whose class and offset give
    alpha.  Both are checked against the general product, which shares
    nothing with the table, and a breadth-first search proves that S and T
    reach every element; a failure raises ``GroupCheckError``.

    One pass over blocks of coordinates (``kernels.coordinate_blocks``)
    writes each block's rows, in ``row_dtype(n)``, int32 alpha and the
    int64 canonical keys, the rows' digits (``kernels.four_digit_keys``).
    Then, block by block, cut where the kind changes, the keys of the
    products g*T (g*S), from the stored rows by
    ``kernels.slot_product_keys``, are compared with the keys at
    ``kernels.block_successor`` (at alpha, after a range check).
    The block pass runs in int32 (bounds at ``kernels.MAX_MODULUS``), with
    residues by floor division (``kernels.residues``).  The group keeps 9
    bytes per element: 5 of rows, 4 of alpha.
    """
    index = principal_congruence_index(p)
    n, m = p.n, p.m
    tab = coords.completion_table(p)
    size = tab.codes.size
    if size * n > index:
        raise IndexFormulaError(
            f"group closure for q={p.q}, n={p.n} exceeds the index formula's "
            f"{index} elements"
        )
    if size * n < index:
        raise IndexFormulaError(
            f"group closure for q={p.q}, n={p.n} found {size * n} elements, "
            f"fewer than the index formula's {index}"
        )
    front = int(np.flatnonzero(tab.codes == n)[0])  # 1/0
    # The block arithmetic runs in int32 (its bounds are stated at
    # kernels.MAX_MODULUS), as second_columns does: every other operand is
    # a Python int, which keeps int32 under numpy 2 and numpy 1.x alike.
    tab = coords.Completion._make(np.roll(col, -front).astype(np.int32) for col in tab)
    # Row of each class code, for the classes of the second columns.
    row_of = coords.code_rows(tab.codes, np.arange(2 * n * n), p).astype(np.int32)
    gens = generators(p)
    # One plane per column; rows, their transpose, has contiguous columns.
    planes = np.empty((5, size, n), dtype=kernels.row_dtype(n))
    rows = planes.reshape(5, -1).T
    alpha = np.empty(size * n, dtype=np.int32)
    keys = np.empty(size * n, dtype=np.int64)
    blocks = kernels.coordinate_blocks(size, n)
    kinds = tab.codes // (n * n)
    # The check's runs: the blocks, cut where the kind changes.  The codes
    # ascend, so the rolled table holds at most three runs of one kind.
    cuts = np.flatnonzero(np.diff(kinds)) + 1
    ends = sorted({*(block.start for block in blocks), *cuts.tolist(), size})

    for block in blocks:
        part = coords.Completion._make(col[block] for col in tab)
        darts = slice(block.start * n, block.stop * n)
        b, d, codes = part.second_columns(p)
        # g*S has first column (b, d) and second column -(a, c), or (-b, -d)
        # and (a, c) when the class of (b, d) is that of (-b, -d).
        nbr = row_of[codes]
        flip = kernels.residues(codes, n * n) != b * n + d
        offset = tab.b0[nbr] * part.c[:, None] - tab.d0[nbr] * part.a[:, None]
        np.negative(offset, out=offset, where=flip)
        alpha[darts] = (nbr * n + kernels.residues(offset, n)).ravel()
        del codes, nbr, flip, offset

        # A row is the lexicographically smaller of g and -g in the order
        # a, b, c, d: the first column's sign settles it unless a = -a, and
        # then (b, c, d) does.
        a = part.a[:, None]
        c = np.repeat(part.c[:, None], n, axis=1)
        tied = np.flatnonzero(2 * part.a % n == 0)
        rest = np.stack([b[tied], c[tied], d[tied]])
        neg = kernels.residues(n - rest, n)
        flip = (neg[0] * n + neg[1]) * n + neg[2] < (rest[0] * n + rest[1]) * n + rest[2]
        b[tied], c[tied], d[tied] = np.where(flip, neg, rest)
        for plane, col in zip(planes, (kinds[block, None], a, b, c, d)):
            plane[block] = col
        kernels.four_digit_keys(kinds[block, None], (a, b, c, d), n, out=keys[darts].reshape(-1, n))
        del b, c, d

    if alpha.min() < 0 or alpha.max() >= alpha.size:
        raise GroupCheckError(_product_error(p, "S"))
    for name, gen in (("T", gens[1]), ("S", gens[0])):
        steps = kernels.slot_maps(gen, n, m)
        for lo, hi in zip(ends, ends[1:]):
            darts = slice(lo * n, hi * n)
            at = alpha[darts] if name == "S" else kernels.block_successor(lo * n, hi * n, n)
            got = kernels.slot_product_keys(rows[darts], steps[kinds[lo]], n)
            if not np.array_equal(got, keys[at]):
                raise GroupCheckError(_product_error(p, name))
    del keys
    # sigma cycles through each coordinate's n elements, so S and T reach
    # every element when alpha joins the coordinates into one graph.
    if kernels.breadth_first_tree((alpha // n).reshape(size, n)).size != size - 1:
        raise GroupCheckError(f"S and T do not generate the group for q={p.q}, n={p.n}")
    return FiniteHeckeGroup(params=p, rows=rows, alpha=alpha)


def _product_error(p: HeckeParams, name: str) -> str:
    return f"Cayley table for q={p.q}, n={p.n} disagrees with the product g*{name}"


@lru_cache(maxsize=32)
def cached_group(q: int, n: int) -> FiniteHeckeGroup:
    """Memoized enumerate_group(HeckeParams(q, n)); groups are immutable."""
    return enumerate_group(HeckeParams(q, n))


# ---------------------------------------------------------------------------
# Degree-5 permutation model.
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]


def perm_compose(f: Perm, g: Perm) -> Perm:
    """Standard composition (f*g)(i) = f(g(i)): the right factor acts first."""
    return tuple(f[g[i]] for i in range(len(g)))


def perm_order(f: Perm) -> int:
    ident = tuple(range(len(f)))
    acc = f
    k = 1
    while acc != ident:
        acc = perm_compose(acc, f)
        k += 1
    return k


@dataclass
class PermGroup:
    """Finite permutation group enumerated from generators, identity first."""

    gens: dict[str, Perm]
    elements: list[Perm]
    index: dict[Perm, int]

    @property
    def order(self) -> int:
        return len(self.elements)

    def right_mult_perm(self, g: Perm) -> np.ndarray:
        return np.asarray(
            [self.index[perm_compose(e, g)] for e in self.elements], dtype=np.int64
        )


def _enumerate_perm_group(degree: int, gens: dict[str, Perm]) -> PermGroup:
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    gen_list = list(gens.values())
    while frontier:
        nxt = []
        for e in frontier:
            for g in gen_list:
                h = perm_compose(e, g)
                if h not in index:
                    index[h] = len(elements)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return PermGroup(gens=dict(gens), elements=elements, index=index)


def s5_permutation_group() -> PermGroup:
    """The order-120 group on 5 points generated by x = (1 5), y = (5 4 3 2 1).

    With the composition convention above, x*y*z is the identity for
    z = (2 3 4 5), matching the (2, 5, 4) triangle-group relations; the
    generator orders are 2, 5, 4.
    """
    x = (4, 1, 2, 3, 0)
    y = (4, 0, 1, 2, 3)
    z = (0, 2, 3, 4, 1)
    return _enumerate_perm_group(5, {"x": x, "y": y, "z": z})
