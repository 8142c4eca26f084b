"""Farey coordinates modulo n for the maps of the Hecke groups.

A coordinate is a cusp label taken mod n up to a simultaneous sign change:
kind "A" stands for the value num/(den*sqrt(m)) and kind "B" for
num*sqrt(m)/den.  For q = 3 (sqrt(m) = 1) only kind A exists and the value
is the plain fraction num/den.  When m > 1 divides n, the classes with m
dividing the kind-A numerator or the kind-B denominator are no cusps and
are not coordinates.

A coordinate is its integer code kind*n*n + num*n + den (kind A = 0,
B = 1) everywhere in the library: ``normalize`` and ``parse_fraction``
return one, name tables are keyed by them, and each rule is written once,
on arrays: the class rule (``_class_codes``), the cusp read off a matrix
column (``cusp_codes``), the Moebius action (``apply_codes``) and the edge
test (``adjacent_codes``).  ``completion_table`` completes every
coordinate to the elements above it; the group and the coordinate graph
are read off it, and ``code_rows`` finds a code's row in a code array.
``code_coord`` alone builds ``HFCoord``, the (kind, num, den) form a code
is printed in, and ``coordinate_labels`` is the one rule for a node's
label.  Every n in the group's range [3, kernels.MAX_MODULUS], odd or
even, is served.  Matrices are rows (kind, a, b, c, d) (see ``kernels``),
whose first column (kind, a, c) is a coordinate's, and ``group`` builds on
this module, never the reverse.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .kernels import _check_modulus, mat_mul_exact, residues

if TYPE_CHECKING:
    from .group import HeckeParams

__all__ = [
    "HFCoord",
    "normalize",
    "coordinate_codes",
    "Completion",
    "completion_table",
    "code_rows",
    "code_coord",
    "adjacent_codes",
    "cusp_codes",
    "CuspError",
    "apply_codes",
    "NameTable",
    "vertex_names",
    "coordinate_labels",
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
    """The printed form of a code (see ``code_coord``)."""

    kind: str
    num: int
    den: int


# ---------------------------------------------------------------------------
# Codes kind*n*n + num*n + den (kind A = 0, B = 1) of sign-canonical classes.
# ---------------------------------------------------------------------------

_KINDS = ("A", "B")


def _canonical_codes(kind, num: np.ndarray, den: np.ndarray, n: int) -> np.ndarray:
    """Code of the sign-canonical representative min((num, den), (-num,
    -den)) of residues num, den in [0, n).  Every other operand is a Python
    int, so int32 kinds and residues give int32 codes."""
    flipped = residues(n - num, n) * n + residues(n - den, n)
    return kind * n * n + np.minimum(num * n + den, flipped)


def _class_codes(kind: np.ndarray, num: np.ndarray, den: np.ndarray, p: HeckeParams):
    """The class rule: (codes, coprime, reached) for arrays or scalars of
    (kind, num, den).

    The pair is reduced mod n and its code is that of the sign-canonical
    representative, min((num, den), (-num, -den)).  ``coprime`` marks
    gcd(num, den, n) = 1.  ``reached`` is True, or False on the classes no
    cusp reaches when m > 1 divides n: read mod m, the determinant
    a*d - m*b*c = 1 of an even element forces m not to divide its kind-A
    numerator a, and m*a*d - b*c = 1 of an odd one forces m not to divide
    its kind-B denominator c (the 1 - 1/m factor of the index formula).
    """
    n = p.n
    _check_modulus(n)
    num, den = num % n, den % n
    coprime = np.gcd(np.gcd(num, den), n) == 1
    reached = True
    if p.m > 1 and n % p.m == 0:
        reached = np.where(kind == 0, num, den) % p.m != 0
    return _canonical_codes(kind, num, den, n), coprime, reached


def normalize(kind: str, num: int, den: int, p: HeckeParams) -> int:
    """Code of the coordinate of (kind, num, den): reduced mod n, with the
    canonical sign representative."""
    if kind not in _KINDS:
        raise ValueError(f"coordinate kind must be 'A' or 'B', got {kind!r}")
    if p.q == 3 and kind == "B":
        raise ValueError("q=3 has only kind-A coordinates")
    # Python ints of any size reduce exactly before numpy sees them.
    code, coprime, reached = _class_codes(_KINDS.index(kind), num % p.n, den % p.n, p)
    if not coprime:
        raise ValueError(f"({num}, {den}) is not a coordinate mod {p.n}: gcd > 1")
    if not reached:
        part = "numerator" if kind == "A" else "denominator"
        raise ValueError(
            f"({num}, {den}) is not a coordinate mod {p.n}: {p.m} divides the kind-{kind} {part}"
        )
    return int(code)


def coordinate_codes(p: HeckeParams) -> np.ndarray:
    """Codes of all coordinates mod n, ascending."""
    n = p.n
    _check_modulus(n)
    every = np.arange((1 if p.q == 3 else 2) * n * n)
    kind, rest = np.divmod(every, n * n)
    codes, coprime, reached = _class_codes(kind, rest // n, rest % n, p)
    # A class is kept once, as the code that is its own canonical code.
    return np.flatnonzero((codes == every) & coprime & reached)


def code_rows(table: np.ndarray, codes: np.ndarray, p: HeckeParams) -> np.ndarray:
    """Row of each code in the code array table, or -1 for a code not in it."""
    lookup = np.full(2 * p.n * p.n, -1, dtype=np.int64)
    lookup[table] = np.arange(table.size)
    return lookup[codes]


class Completion(NamedTuple):
    """Per coordinate, in the order of ``codes``: the sign-canonical first
    column (a, c), the kernel direction (ka, kc) and a completion (b0, d0)
    with ka*d0 - kc*b0 = 1 mod n (see ``completion_table``)."""

    codes: np.ndarray
    a: np.ndarray
    c: np.ndarray
    ka: np.ndarray
    kc: np.ndarray
    b0: np.ndarray
    d0: np.ndarray

    def second_columns(self, p: HeckeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(b, d, codes), each (V, n) int32: row v holds the second columns
        (b0 + t*ka, d0 + t*kc), t = 0..n-1, and the codes of their classes,
        which are of the other kind (kind A for q = 3).

        Every value is below n + n**2 < 2**31 (see ``kernels.MAX_MODULUS``).
        The columns are cast to int32 and every other operand is a Python
        int, so the pass stays int32 under numpy 2 and numpy 1.x alike.
        """
        n = p.n
        t = np.arange(n, dtype=np.int32)
        b0, ka, d0, kc, codes = (col.astype(np.int32)[:, None]
                                 for col in (self.b0, self.ka, self.d0, self.kc, self.codes))
        b = residues(b0 + t * ka, n)
        d = residues(d0 + t * kc, n)
        kind = 0 if p.q == 3 else 1 - codes // (n * n)
        return b, d, _canonical_codes(kind, b, d, n)


def completion_table(p: HeckeParams) -> Completion:
    """The completion table of all coordinates mod n, for any n in range.

    An element with first column (a, c) is [[a, b*sqrt(m)], [c*sqrt(m), d]]
    with a*d - m*b*c = 1 (kind A), [[a*sqrt(m), b], [c, d*sqrt(m)]] with
    m*a*d - b*c = 1 (kind B), or for q = 3 [[a, b], [c, d]] with
    a*d - b*c = 1: its second column solves ka*d - kc*b = 1 with (ka, kc) =
    (a, m*c), (m*a, c) or (a, c).  That linear form is primitive mod n, so
    its solutions are the n points (b0 + t*ka, d0 + t*kc) of a line, and the
    offset of a solution (b, d) is t = d0*b - b0*d.  1/0 gets (0, 1).
    """
    n = p.n
    codes = coordinate_codes(p)
    kind, rest = np.divmod(codes, n * n)
    a, c = np.divmod(rest, n)
    ka, kc = a * p.m**kind % n, c * p.m ** (1 - kind) % n
    # The extended Euclidean algorithm on all rows at once: rows (r, x, y)
    # with r = ka*x - kc*y end at r = gcd(ka, kc), a unit mod n.
    old = np.stack([ka, np.ones_like(ka), np.zeros_like(ka)])
    new = np.stack([-kc % n, np.zeros_like(ka), np.ones_like(ka)])
    while new[0].any():
        live = new[0] != 0
        quot = old[0] // np.where(live, new[0], 1)
        old, new = np.where(live, new, old), np.where(live, old - quot * new, new)
    inverse = np.array([pow(r, -1, n) if math.gcd(r, n) == 1 else 0 for r in range(n)])
    d0, b0 = old[1:] * inverse[old[0]] % n
    return Completion(codes, a, c, ka, kc, b0, d0)


def code_coord(code: int, p: HeckeParams) -> HFCoord:
    """The digits (kind, num, den) of one code, as printed."""
    kind, rest = divmod(int(code), p.n * p.n)
    return HFCoord(_KINDS[kind], *divmod(rest, p.n))


def adjacent_codes(u: np.ndarray, v: np.ndarray, p: HeckeParams) -> np.ndarray:
    """Edge test a*d - m*b*c = +-1 mod n, with (a, c) the kind-A side and
    (b, d) the kind-B side; broadcasts u against v.

    For q = 3 every coordinate is kind A and the plain two-by-two
    determinant is used.  The result does not depend on the sign
    representatives.  Residues are below n <= kernels.MAX_MODULUS, so the
    determinant is below 4*n*n in absolute value: int32 codes, which keep
    the whole rule in int32, give the same result as int64 ones.
    """
    n = p.n
    # Residues by floor division, which numpy runs faster than %.
    qu, qv = u // n, v // n
    du, dv = u - qu * n, v - qv * n
    ku, kv = qu // n, qv // n
    nu, nv = qu - ku * n, qv - kv * n
    if p.q == 3:
        det = nu * dv - nv * du
    else:
        det = np.where(ku == 0, nu * dv - p.m * nv * du, nv * du - p.m * nu * dv)
    det -= det // n * n
    hit = (det == 1) | (det == n - 1)
    return hit if p.q == 3 else hit & (ku != kv)


class CuspError(ValueError):
    """The class rule's error on the first row of a table whose first
    column is no cusp; ``row`` is that row's index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def cusp_codes(rows: np.ndarray, p: HeckeParams) -> np.ndarray:
    """Codes of g(infinity), read off the first column (kind, a, c) of each
    row g of an (N, 5) table of any integer dtype: kind A [[a, b*sqrt(m)],
    [c*sqrt(m), d]] gives a/(c*sqrt(m)), kind B its mirror a*sqrt(m)/c, and
    q = 3 the plain fraction a/c.

    The first row whose kind is not 0 or 1 (not 0 for q = 3), or whose
    column has gcd > 1 or a class no cusp reaches, raises ``CuspError``:
    "row [...] has kind k; corrupted element", or the message of
    ``normalize``.
    """
    g = np.asarray(rows, dtype=np.int64)
    kind, num, den = g[:, 0], g[:, 1], g[:, 3]
    codes, coprime, reached = _class_codes(kind, num, den, p)
    kinded = (kind == 0) | ((kind == 1) & (p.q != 3))
    bad = ~(kinded & coprime & reached)
    if bad.any():
        i = int(np.argmax(bad))
        if not kinded[i]:
            raise CuspError(f"row {g[i].tolist()} has kind {kind[i]}; corrupted element", i)
        try:
            normalize(_KINDS[kind[i]], int(num[i]), int(den[i]), p)
        except ValueError as exc:
            raise CuspError(str(exc), i) from None
    return codes


def apply_codes(g, codes: np.ndarray, p: HeckeParams) -> np.ndarray:
    """Codes of the Moebius images of coordinates under rows g.

    The image is ``cusp_codes`` of g times the column (kind, num, 0, den,
    0) of the coordinate.  g broadcasts against the codes: rows of shape
    (N, 1, 5) and V codes give (N, V).
    """
    n = p.n
    codes = np.asarray(codes, dtype=np.int64)
    zero = np.zeros_like(codes)
    col = np.stack([codes // (n * n), codes // n % n, zero, codes % n, zero], axis=-1)
    prod = mat_mul_exact(g, col, p.m)
    return cusp_codes(prod.reshape(-1, 5), p).reshape(prod.shape[:-1])


def coord_value_str(code: int, p: HeckeParams) -> str:
    """Human-readable value of a code, e.g. 2/(1sqrt2), 2sqrt2/0, or 2/1
    for q=3."""
    kind, num, den = code_coord(code, p)
    if p.q == 3:
        return f"{num}/{den}"
    root = f"sqrt{p.m}"
    if kind == "A":
        return f"{num}/({den}{root})"
    return f"{num}{root}/{den}"


def parse_fraction(text: str, p: HeckeParams) -> int:
    """The code of a plain q=3 fraction string like 3/2."""
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
    """Bijection between coordinate codes and their customary names.  The
    printed representative of a name, which need not be sign-canonical, is
    kept as the code of its digits."""

    def __init__(self, p: HeckeParams, rows: list[tuple[str, str, int, int]]):
        self.params = p
        self._by_name: dict[str, int] = {}
        self._by_code: dict[int, str] = {}
        self._printed: dict[str, int] = {}
        for name, kind, num, den in rows:
            code = normalize(kind, num, den, p)
            if name in self._by_name or code in self._by_code:
                raise ValueError(f"duplicate name-table row {name}")
            self._by_name[name] = code
            self._by_code[code] = name
            self._printed[name] = (_KINDS.index(kind) * p.n + num) * p.n + den

    def names(self) -> list[str]:
        return list(self._by_name)

    def coord(self, name: str) -> int:
        return self._by_name[name]

    def name(self, code: int) -> str:
        return self._by_code[code]

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


def coordinate_labels(p: HeckeParams, fallback: Callable[[int, HeckeParams], str]) -> list[str]:
    """The label of every coordinate, in ``coordinate_codes`` order: its
    customary name when the map has a name table, which names every
    coordinate, else fallback(code, p)."""
    codes = coordinate_codes(p).tolist()
    try:
        table = vertex_names(p)
    except ValueError:
        return [fallback(code, p) for code in codes]
    return [table.name(code) for code in codes]
