"""Farey coordinates modulo n for the maps of the Hecke groups.

A coordinate is a cusp label taken mod n up to a simultaneous sign change:
kind "A" stands for the value num/(den*sqrt(m)) and kind "B" for
num*sqrt(m)/den.  For q = 3 (sqrt(m) = 1) only kind A exists and the value
is the plain fraction num/den.  Two coordinates are joined by an edge of
the quotient map iff the determinant-style form below is +-1 mod n.
When m > 1 divides n, the classes with m dividing the kind-A numerator or
the kind-B denominator are no cusps and are not coordinates.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .group import HeckeParams, parity
from .kernels import mat_mul_exact

__all__ = [
    "HFCoord",
    "normalize",
    "enumerate_coords",
    "adjacent",
    "cusp_of",
    "coord_codes",
    "code_coord",
    "adjacent_codes",
    "cusp_codes",
    "apply_to_coord",
    "is_pole",
    "NameTable",
    "vertex_names",
    "coord_value_str",
    "Q3_N5_FRACTIONS",
    "parse_fraction",
]

# The 12 fractions mod 5 of the icosahedral map (q=3, n=5), in their
# customary printed form.
Q3_N5_FRACTIONS = [
    "1/0", "2/0", "0/1", "1/1", "2/1", "3/1",
    "4/1", "0/2", "1/2", "2/2", "3/2", "4/2",
]


class HFCoord(NamedTuple):
    """Sign-normalized coordinate: lexicographic minimum over +-(num, den)."""

    kind: str
    num: int
    den: int


def normalize(kind: str, num: int, den: int, p: HeckeParams) -> HFCoord:
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


def _unreached(kind: str, a: int, c: int, p: HeckeParams) -> bool:
    """True for the residue classes no cusp reaches when m > 1 divides n.

    Read mod m, the determinant a*d - m*b*c = 1 of an even element forces
    m not to divide its kind-A numerator a, and m*a*d - b*c = 1 of an odd
    one forces m not to divide its kind-B denominator c: the m | n branch
    of the index formula.
    """
    return p.m > 1 and p.n % p.m == 0 and (a if kind == "A" else c) % p.m == 0


def is_pole(u: HFCoord) -> bool:
    return u.den == 0


def enumerate_coords(p: HeckeParams) -> list[HFCoord]:
    """All coordinates mod n in sorted order; rejects even n.

    For even n the sign identification degenerates (pairs collide), so the
    coordinate model is only offered for odd n; the group-theoretic map
    remains available either way.
    """
    if p.n % 2 == 0:
        raise ValueError("coordinate enumeration requires odd n")
    kinds = ("A",) if p.q == 3 else ("A", "B")
    seen = set()
    for kind in kinds:
        for a in range(p.n):
            for c in range(p.n):
                if math.gcd(a, c, p.n) == 1 and not _unreached(kind, a, c, p):
                    seen.add(normalize(kind, a, c, p))
    return sorted(seen)


def adjacent(u: HFCoord, v: HFCoord, p: HeckeParams) -> bool:
    """Edge test: a*d - m*b*c = +-1 with (a,c) the A side and (b,d) the B side.

    For q = 3 both arguments are kind A and the plain two-by-two determinant
    is used.  The result does not depend on the sign representatives.
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


def cusp_of(g, p: HeckeParams) -> HFCoord:
    """Coordinate of g(infinity), read off the first column of the row g.

    Even matrices [[a, b*sqrt(m)], [c*sqrt(m), d]] give a/(c*sqrt(m)), odd
    ones the kind-B mirror.  Right multiplication by T fixes the result.
    """
    if p.q == 3:
        return normalize("A", g[0], g[4], p)
    if parity(g, p) == "even":
        return normalize("A", g[0], g[5], p)
    return normalize("B", g[1], g[4], p)


# ---------------------------------------------------------------------------
# Array forms: coordinates as integer codes.  ``adjacent`` and ``cusp_of``
# above are the scalar references these must agree with.
# ---------------------------------------------------------------------------

_KINDS = ("A", "B")


def coord_codes(coords: list[HFCoord], p: HeckeParams) -> np.ndarray:
    """Codes kind*n*n + num*n + den (kind A = 0, B = 1), ascending in coordinate order."""
    n = p.n
    return np.array(
        [_KINDS.index(u.kind) * n * n + u.num * n + u.den for u in coords], dtype=np.int64
    )


def code_coord(code: int, p: HeckeParams) -> HFCoord:
    """Inverse of coord_codes for one code."""
    kind, rest = divmod(int(code), p.n * p.n)
    return HFCoord(_KINDS[kind], *divmod(rest, p.n))


def adjacent_codes(u: np.ndarray, v: np.ndarray, p: HeckeParams) -> np.ndarray:
    """``adjacent`` on arrays of codes; broadcasts u against v.

    Residues are below n <= kernels.MAX_MODULUS, so the determinant stays
    far inside int64.
    """
    n = p.n
    ku, nu, du = u // (n * n), u // n % n, u % n
    kv, nv, dv = v // (n * n), v // n % n, v % n
    if p.q == 3:
        det = nu * dv - nv * du
    else:
        det = np.where(ku == 0, nu * dv - p.m * nv * du, nv * du - p.m * nu * dv)
    det %= n
    hit = (det == 1) | (det == n - 1)
    return hit if p.q == 3 else hit & (ku != kv)


def cusp_codes(comps: np.ndarray, p: HeckeParams) -> np.ndarray:
    """Codes of ``cusp_of`` for every row of an (N, 8) component table.

    A row that ``cusp_of`` rejects (no parity pattern, gcd > 1, or a class
    no cusp reaches) makes it raise its ValueError: the first such row is
    handed to ``cusp_of``.
    """
    n = p.n
    g = np.asarray(comps, dtype=np.int64)
    if p.q == 3:
        kind = np.zeros(g.shape[0], dtype=np.int64)
        num, den = g[:, 0] % n, g[:, 4] % n
        bad = np.zeros(g.shape[0], dtype=bool)
    else:
        even = (g[:, 1] == 0) & (g[:, 7] == 0) & (g[:, 2] == 0) & (g[:, 4] == 0)
        odd = (g[:, 0] == 0) & (g[:, 6] == 0) & (g[:, 3] == 0) & (g[:, 5] == 0)
        kind = odd.astype(np.int64)
        num = np.where(even, g[:, 0], g[:, 1]) % n
        den = np.where(even, g[:, 5], g[:, 4]) % n
        bad = even == odd
    bad |= np.gcd(np.gcd(num, den), n) != 1
    if p.m > 1 and n % p.m == 0:
        bad |= np.where(kind == 0, num, den) % p.m == 0
    if bad.any():
        cusp_of(g[int(np.argmax(bad))].tolist(), p)
    flipped = (-num % n) * n + (-den % n)
    return kind * n * n + np.minimum(num * n + den, flipped)


def apply_to_coord(g, u: HFCoord, p: HeckeParams) -> HFCoord:
    """Moebius action of the row g on the homogeneous column of u.

    The column (top, bot) is the first column of the row
    (top.rat, top.irr, 0, 0, bot.rat, bot.irr, 0, 0); the image column is
    the first column of the product.
    """
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


def coord_value_str(u: HFCoord, p: HeckeParams) -> str:
    """Human-readable value, e.g. 2/(1sqrt2), 2sqrt2/0, or 2/1 for q=3."""
    if p.q == 3:
        return f"{u.num}/{u.den}"
    root = f"sqrt{p.m}"
    if u.kind == "A":
        return f"{u.num}/({u.den}{root})"
    return f"{u.num}{root}/{u.den}"


def parse_fraction(text: str, p: HeckeParams) -> HFCoord:
    """Parse a plain q=3 fraction string like 3/2 into a coordinate."""
    if p.q != 3:
        raise ValueError("plain fractions exist only for q=3")
    num, den = text.strip().split("/", 1)
    return normalize("A", int(num), int(den), p)


# ---------------------------------------------------------------------------
# Vertex name tables.
# ---------------------------------------------------------------------------

# 24 vertices of the genus-4 map (q=4, n=5), classical letter labels with the
# printed representatives (not all of which are sign-canonical).
_NAMES_Q4_N5 = [
    ("A1", "A", 1, 0), ("B1", "A", 2, 0), ("C1", "A", 0, 1), ("D1", "A", 1, 1),
    ("E1", "A", 2, 1), ("F1", "A", 3, 1), ("G1", "A", 4, 1), ("H1", "A", 0, 2),
    ("I1", "A", 1, 2), ("J1", "A", 3, 2), ("K1", "A", 2, 2), ("L1", "A", 4, 2),
    ("A2", "B", 0, 1), ("B2", "B", 0, 2), ("C2", "B", 1, 0), ("D2", "B", 1, 1),
    ("E2", "B", 1, 2), ("F2", "B", 1, 3), ("G2", "B", 1, 4), ("H2", "B", 2, 0),
    ("I2", "B", 2, 1), ("J2", "B", 2, 2), ("K2", "B", 2, 3), ("L2", "B", 2, 4),
]

# The 8 vertices of the cube map (q=4, n=3) carry no letter labels; they are
# named by their printed fraction strings.
_NAMES_Q4_N3 = [
    ("1/(0sqrt2)", "A", 1, 0), ("0/(1sqrt2)", "A", 0, 1),
    ("1/(1sqrt2)", "A", 1, 1), ("1/(2sqrt2)", "A", 1, 2),
    ("0sqrt2/1", "B", 0, 1), ("2sqrt2/1", "B", 2, 1),
    ("1sqrt2/0", "B", 1, 0), ("1sqrt2/1", "B", 1, 1),
]


class NameTable:
    """Bijection between canonical coordinates and their customary names."""

    def __init__(self, p: HeckeParams, rows: list[tuple[str, str, int, int]]):
        self.params = p
        self._by_name: dict[str, HFCoord] = {}
        self._by_coord: dict[HFCoord, str] = {}
        self._printed: dict[str, HFCoord] = {}
        for name, kind, num, den in rows:
            u = normalize(kind, num, den, p)
            if name in self._by_name or u in self._by_coord:
                raise ValueError(f"duplicate name-table row {name}")
            self._by_name[name] = u
            self._by_coord[u] = name
            self._printed[name] = HFCoord(kind, num, den)

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> list[str]:
        return list(self._by_name)

    def coord(self, name: str) -> HFCoord:
        return self._by_name[name]

    def name(self, u: HFCoord) -> str:
        return self._by_coord[u]

    def printed_value(self, name: str) -> str:
        """The customary (not necessarily sign-canonical) fraction string."""
        return coord_value_str(self._printed[name], self.params)


@lru_cache(maxsize=None)
def vertex_names(p: HeckeParams) -> NameTable:
    """Name table for the maps that have customary labels.

    Built once per parameter set; the table is never mutated.
    """
    if (p.q, p.n) == (4, 5):
        return NameTable(p, _NAMES_Q4_N5)
    if (p.q, p.n) == (4, 3):
        return NameTable(p, _NAMES_Q4_N3)
    raise ValueError(f"no name table for q={p.q}, n={p.n}")
