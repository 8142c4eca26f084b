import itertools

import numpy as np
import pytest
from conftest import as_matrix

from hfmap.group import HeckeParams, generators
from ring import (
    ProjMatrix,
    RingElem,
    RingParams,
    canonicalize,
    identity_matrix,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    proj_eq,
    ring_mul,
)

P52 = RingParams(5, 2)


def test_ring_mul_sqrt_squares():
    # (sqrt2)^2 = 2
    assert ring_mul(RingElem(0, 1), RingElem(0, 1), P52) == RingElem(2, 0)


def test_ring_mul_identity():
    assert ring_mul(RingElem(1, 0), RingElem(3, 4), P52) == RingElem(3, 4)


def test_ring_mul_expansion():
    # (2+3*sqrt2)(1+sqrt2) = 8 + 5*sqrt2 = 3 mod 5
    assert ring_mul(RingElem(2, 3), RingElem(1, 1), P52) == RingElem(3, 0)


@pytest.mark.parametrize("n,m", [(3, 2), (5, 2), (7, 2), (5, 1), (5, 3)])
def test_ring_axioms_exhaustive(n, m):
    """Associativity, commutativity and distributivity over every triple."""
    p = RingParams(n, m)
    pairs = np.array(list(itertools.product(range(n), repeat=2)), dtype=np.int64)
    rat, irr = pairs[:, 0], pairs[:, 1]

    def mul(ar, ai, br, bi):
        return (ar * br + m * ai * bi) % n, (ar * bi + ai * br) % n

    k = len(pairs)
    i, j, l = np.meshgrid(np.arange(k), np.arange(k), np.arange(k), indexing="ij")
    xr, xi = rat[i], irr[i]
    yr, yi = rat[j], irr[j]
    zr, zi = rat[l], irr[l]
    # commutativity
    ar, ai = mul(xr, xi, yr, yi)
    br, bi = mul(yr, yi, xr, xi)
    assert np.array_equal(ar, br) and np.array_equal(ai, bi)
    # associativity
    ar, ai = mul(*mul(xr, xi, yr, yi), zr, zi)
    br, bi = mul(xr, xi, *mul(yr, yi, zr, zi))
    assert np.array_equal(ar, br) and np.array_equal(ai, bi)
    # distributivity
    sr, si = (yr + zr) % n, (yi + zi) % n
    ar, ai = mul(xr, xi, sr, si)
    br, bi = mul(xr, xi, yr, yi)
    cr, ci = mul(xr, xi, zr, zi)
    assert np.array_equal(ar, (br + cr) % n) and np.array_equal(ai, (bi + ci) % n)
    # spot-check the vectorized oracle against the scalar implementation
    for a, b in itertools.product(range(0, n * n, max(1, n - 1)), repeat=2):
        got = ring_mul(RingElem(*pairs[a]), RingElem(*pairs[b]), p)
        want = mul(*pairs[a], *pairs[b])
        assert (got.rat, got.irr) == want


def test_mat_mul_identity_and_involution():
    p = HeckeParams(4, 5)
    s, t, r = (as_matrix(row, p.m) for row in generators(p))
    ident = canonicalize(identity_matrix(P52), P52)
    assert mat_mul(s, ident, P52) == s
    assert mat_mul(s, s, P52) == ident  # S has order 2 projectively
    assert mat_mul(t, s, P52) == r
    assert mat_pow(r, 4, P52) == ident  # R has period q = 4


def test_proj_eq_sign():
    g = ProjMatrix(RingElem(1, 0), RingElem(2, 3), RingElem(0, 1), RingElem(4, 4))
    neg = ProjMatrix(RingElem(4, 0), RingElem(3, 2), RingElem(0, 4), RingElem(1, 1))
    assert proj_eq(g, neg, P52)


def test_det_and_inverse_of_translation():
    p = HeckeParams(4, 5)
    t = as_matrix(generators(p)[1], p.m)
    assert mat_det(t, P52) == RingElem(1, 0)
    # T^-1 is the translation by -sqrt2
    t_inv = canonicalize(
        ProjMatrix(RingElem(1, 0), RingElem(0, 4), RingElem(0, 0), RingElem(1, 0)),
        P52,
    )
    assert mat_inv(t, P52) == t_inv
    assert mat_mul(t, mat_inv(t, P52), P52) == canonicalize(identity_matrix(P52), P52)


def test_inverse_rejects_bad_determinant():
    # det = 2, which is neither 1 nor -1 mod 5
    g = ProjMatrix(RingElem(2, 0), RingElem(0, 0), RingElem(0, 0), RingElem(1, 0))
    with pytest.raises(ValueError):
        mat_inv(g, P52)


def test_canonicalization_idempotent_and_sign_invariant(group45):
    p = RingParams(group45.params.n, group45.params.m)
    for i in range(group45.order):
        g = as_matrix(group45.rows[i], group45.params.m)
        assert canonicalize(g, p) == g
        neg = ProjMatrix(
            RingElem(-g.e11.rat % p.n, -g.e11.irr % p.n),
            RingElem(-g.e12.rat % p.n, -g.e12.irr % p.n),
            RingElem(-g.e21.rat % p.n, -g.e21.irr % p.n),
            RingElem(-g.e22.rat % p.n, -g.e22.irr % p.n),
        )
        assert canonicalize(neg, p) == g


def test_det_multiplicative_over_group(group43, group35):
    for group in (group43, group35):
        p = RingParams(group.params.n, group.params.m)
        one = RingElem(1, 0)
        mats = [as_matrix(row, group.params.m) for row in group.rows]
        for g in mats:
            assert mat_det(g, p) == one
        for g in mats[:12]:
            for h in mats:
                prod = mat_mul(g, h, p)
                got = mat_det(prod, p)
                assert got == ring_mul(mat_det(g, p), mat_det(h, p), p) == one
