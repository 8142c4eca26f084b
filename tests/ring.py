"""Scalar reference arithmetic in Z_n[sqrt(m)], which the tests compare against.

The library works on rows (kind, a, b, c, d) and multiplies them with
``kernels.mat_mul_exact``; ``oracles.eight_slots`` writes such a row into
the 8 components of a ``ProjMatrix``.  This module is an independent
oracle, written element by element: ``RingElem`` (a residue a + b*sqrt(m)
mod n) and ``ProjMatrix`` (a 2x2 matrix stored in a canonical sign form,
so that projective equality is plain structural equality).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RingParams",
    "RingElem",
    "ProjMatrix",
    "ring_add",
    "ring_sub",
    "ring_mul",
    "ring_neg",
    "mat_mul",
    "mat_det",
    "mat_inv",
    "proj_eq",
    "identity_matrix",
]

# Component scan order used for sign canonicalization and key packing:
# (e11.rat, e11.irr, e12.rat, e12.irr, e21.rat, e21.irr, e22.rat, e22.irr)


@dataclass(frozen=True)
class RingParams:
    """Modulus n and radicand m of the coefficient ring Z_n[sqrt(m)]."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"modulus must be >= 3, got {self.n}")
        if self.m not in (1, 2, 3):
            raise ValueError(f"radicand must be 1, 2 or 3, got {self.m}")


@dataclass(frozen=True)
class RingElem:
    """Residue rat + irr*sqrt(m), both components reduced into [0, n)."""

    rat: int
    irr: int


def ring_add(x: RingElem, y: RingElem, p: RingParams) -> RingElem:
    return RingElem((x.rat + y.rat) % p.n, (x.irr + y.irr) % p.n)


def ring_sub(x: RingElem, y: RingElem, p: RingParams) -> RingElem:
    return RingElem((x.rat - y.rat) % p.n, (x.irr - y.irr) % p.n)


def ring_neg(x: RingElem, p: RingParams) -> RingElem:
    return RingElem(-x.rat % p.n, -x.irr % p.n)


def ring_mul(x: RingElem, y: RingElem, p: RingParams) -> RingElem:
    """(a + b*sqrt(m)) * (c + d*sqrt(m)) = (ac + m*bd) + (ad + bc)*sqrt(m)."""
    return RingElem(
        (x.rat * y.rat + p.m * x.irr * y.irr) % p.n,
        (x.rat * y.irr + x.irr * y.rat) % p.n,
    )


@dataclass(frozen=True)
class ProjMatrix:
    """2x2 matrix over Z_n[sqrt(m)], canonical under the sign flip g ~ -g.

    Of g and -g we keep the lexicographically smaller component tuple in scan
    order; structural equality then coincides with projective equality.
    """

    e11: RingElem
    e12: RingElem
    e21: RingElem
    e22: RingElem

    def components(self) -> tuple[int, ...]:
        return (
            self.e11.rat, self.e11.irr,
            self.e12.rat, self.e12.irr,
            self.e21.rat, self.e21.irr,
            self.e22.rat, self.e22.irr,
        )


def _from_components(c: tuple[int, ...]) -> ProjMatrix:
    return ProjMatrix(
        RingElem(c[0], c[1]),
        RingElem(c[2], c[3]),
        RingElem(c[4], c[5]),
        RingElem(c[6], c[7]),
    )


def canonicalize(g: ProjMatrix, p: RingParams) -> ProjMatrix:
    """Reduce all components mod n and pick the canonical sign."""
    c = tuple(v % p.n for v in g.components())
    neg = tuple(-v % p.n for v in c)
    return _from_components(min(c, neg))


def identity_matrix(p: RingParams) -> ProjMatrix:
    one = RingElem(1, 0)
    zero = RingElem(0, 0)
    return ProjMatrix(one, zero, zero, one)


def mat_mul(g: ProjMatrix, h: ProjMatrix, p: RingParams) -> ProjMatrix:
    prod = ProjMatrix(
        ring_add(ring_mul(g.e11, h.e11, p), ring_mul(g.e12, h.e21, p), p),
        ring_add(ring_mul(g.e11, h.e12, p), ring_mul(g.e12, h.e22, p), p),
        ring_add(ring_mul(g.e21, h.e11, p), ring_mul(g.e22, h.e21, p), p),
        ring_add(ring_mul(g.e21, h.e12, p), ring_mul(g.e22, h.e22, p), p),
    )
    return canonicalize(prod, p)


def mat_det(g: ProjMatrix, p: RingParams) -> RingElem:
    return ring_sub(ring_mul(g.e11, g.e22, p), ring_mul(g.e12, g.e21, p), p)


def mat_inv(g: ProjMatrix, p: RingParams) -> ProjMatrix:
    """Projective inverse via the adjugate; requires det = +-1.

    A determinant other than +-1 means the value never came out of this
    module's constructors, so we refuse rather than guess.
    """
    det = mat_det(g, p)
    one = RingElem(1, 0)
    minus_one = RingElem((p.n - 1) % p.n, 0)
    if det != one and det != minus_one:
        raise ValueError(f"matrix determinant {det} is not +-1; corrupted element")
    adj = ProjMatrix(
        g.e22,
        ring_neg(g.e12, p),
        ring_neg(g.e21, p),
        g.e11,
    )
    return canonicalize(adj, p)


def proj_eq(g: ProjMatrix, h: ProjMatrix, p: RingParams) -> bool:
    """Equality up to global sign (canonical forms compare structurally)."""
    return canonicalize(g, p) == canonicalize(h, p)


def mat_pow(g: ProjMatrix, k: int, p: RingParams) -> ProjMatrix:
    if k < 0:
        return mat_pow(mat_inv(g, p), -k, p)
    acc = identity_matrix(p)
    base = canonicalize(g, p)
    while k:
        if k & 1:
            acc = mat_mul(acc, base, p)
        base = mat_mul(base, base, p)
        k >>= 1
    return acc
