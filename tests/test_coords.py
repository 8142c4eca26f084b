from collections import Counter

import oracles
import pytest
from conftest import as_matrix

from hfmap.coords import (
    HFCoord,
    Q3_N5_FRACTIONS,
    apply_codes,
    code_coord,
    coord_value_str,
    coordinate_codes,
    normalize,
    parse_fraction,
    vertex_names,
)
from hfmap.group import HeckeParams, cached_group, generators
from oracles import adjacent, code_of, cusp_of, enumerate_coords
from ring import (
    RingElem,
    RingParams,
    canonicalize,
    identity_matrix,
    mat_mul,
    ring_add,
    ring_mul,
)

P45 = HeckeParams(4, 5)
P43 = HeckeParams(4, 3)
P35 = HeckeParams(3, 5)


def test_normalize_sign_examples():
    # -(4,2) = (1,3) mod 5, and (1,3) is the canonical representative (F2)
    assert code_coord(normalize("B", 4, 2, P45), P45) == HFCoord("B", 1, 3)
    assert vertex_names(P45).name(normalize("B", 4, 2, P45)) == "F2"
    assert normalize("A", 1, 0, P45) == P45.n  # 1/0 has code n
    # sqrt2/2 and 2sqrt2/1 are the same vertex of the cube map
    assert normalize("B", 1, 2, P43) == normalize("B", 2, 1, P43)


def test_normalize_rejects_non_coprime():
    with pytest.raises(ValueError):
        normalize("A", 0, 0, P45)
    with pytest.raises(ValueError):
        normalize("A", 3, 0, HeckeParams(4, 9))
    with pytest.raises(ValueError):
        normalize("B", 1, 1, P35)  # no kind B when q = 3
    # With m = 3 dividing n = 9 no cusp has 3 | kind-A num or 3 | kind-B den.
    p69 = HeckeParams(6, 9)
    with pytest.raises(ValueError, match="3 divides the kind-A numerator"):
        normalize("A", 3, 1, p69)
    with pytest.raises(ValueError, match="3 divides the kind-B denominator"):
        normalize("B", 1, 6, p69)
    assert code_coord(normalize("B", 3, 1, p69), p69) == HFCoord("B", 3, 1)


def test_normalize_idempotent_exhaustive():
    for p in (P45, P43, HeckeParams(4, 7)):
        for code in coordinate_codes(p).tolist():
            kind, num, den = code_coord(code, p)
            assert normalize(kind, num, den, p) == code
            assert normalize(kind, -num, -den, p) == code


@pytest.mark.parametrize(
    "p,count",
    [(P45, 24), (P43, 8), (P35, 12), (HeckeParams(6, 5), 24), (HeckeParams(4, 7), 48),
     (HeckeParams(4, 6), 16)],
)
def test_enumeration_count_is_group_order_over_n(p, count):
    coords = coordinate_codes(p)
    assert len(coords) == count
    assert len(coords) == cached_group(p.q, p.n).order // p.n


def test_names_table_is_bijective():
    t45 = vertex_names(P45)
    assert len(t45.names()) == 24
    assert sorted(t45.coord(n) for n in t45.names()) == coordinate_codes(P45).tolist()
    t43 = vertex_names(P43)
    assert len(t43.names()) == 8
    assert sorted(t43.coord(n) for n in t43.names()) == coordinate_codes(P43).tolist()
    with pytest.raises(ValueError):
        vertex_names(P35)


def test_name_table_is_built_once_per_params():
    assert vertex_names(P45) is vertex_names(HeckeParams(4, 5))
    for _ in range(2):
        with pytest.raises(ValueError, match="no name table for q=3, n=5"):
            vertex_names(P35)


def test_icosahedron_fraction_list():
    assert len(Q3_N5_FRACTIONS) == 12
    listed = {parse_fraction(s, P35) for s in Q3_N5_FRACTIONS}
    assert listed == set(coordinate_codes(P35).tolist())


def _named(name, p):
    """The coordinate of a customary name, as the oracles take it."""
    return code_coord(vertex_names(p).coord(name), p)


def test_adjacency_examples():
    assert adjacent(_named("H2", P45), _named("E1", P45), P45)  # 2*0 - 2*2*1 = -4 = 1 mod 5
    assert adjacent(_named("A1", P45), _named("A2", P45), P45)  # infinity joined to 0
    for u in enumerate_coords(P45):
        assert not adjacent(u, u, P45)
    # symmetry
    coords = enumerate_coords(P45)
    for u in coords:
        for v in coords:
            assert adjacent(u, v, P45) == adjacent(v, u, P45)


def test_adjacency_is_kind_bipartite():
    for u in enumerate_coords(P45):
        for v in enumerate_coords(P45):
            if adjacent(u, v, P45):
                assert u.kind != v.kind


def _poles(p):
    return [u for u in enumerate_coords(p) if u.den == 0]


def test_poles():
    t = vertex_names(P45)
    assert {t.name(code_of(u, P45)) for u in _poles(P45)} == {"A1", "B1", "C2", "H2"}
    assert {coord_value_str(code_of(u, P35), P35) for u in _poles(P35)} == {"1/0", "2/0"}
    assert len(_poles(P43)) == 2
    # The library finds poles by the den digit of their codes.
    assert (coordinate_codes(P43) % P43.n == 0).sum() == 2


def test_cusp_examples(group45):
    t = vertex_names(P45)
    s, _, r = oracles.eight_slots(generators(P45), P45.m)
    assert cusp_of(oracles.eight_slots(group45.rows[0], P45.m), P45) == HFCoord("A", 1, 0)
    assert t.name(code_of(cusp_of(s, P45), P45)) == "A2"  # S sends infinity to 0
    assert t.name(code_of(cusp_of(r, P45), P45)) == "D2"  # R sends infinity to sqrt2/1


def test_cusp_constant_on_translation_cosets(group45, map45):
    sigma = oracles.right_mult_perm(group45, map45.sigma[0])
    cusps = [cusp_of(g, P45) for g in oracles.eight_slots(group45.rows, P45.m).tolist()]
    for i in range(group45.order):
        assert cusps[int(sigma[i])] == cusps[i]


@pytest.mark.parametrize("qn", [(4, 3), (4, 5), (3, 5)])
def test_cusp_fibers_have_size_n(qn):
    p = HeckeParams(*qn)
    group = cached_group(*qn)
    fibers = Counter(cusp_of(g, p) for g in oracles.eight_slots(group.rows, p.m).tolist())
    assert set(fibers.values()) == {p.n}
    assert [code_of(u, p) for u in sorted(fibers)] == coordinate_codes(p).tolist()


def test_even_columns_realize_the_adjacency_determinant(group45):
    # for even g with columns A(a,c), B(b,d): a*d - m*b*c = det = 1
    for row in group45.rows:
        if row[0]:
            continue
        g = as_matrix(row, P45.m)
        a, c = g.e11.rat, g.e21.irr
        b, d = g.e12.irr, g.e22.rat
        assert (a * d - 2 * b * c) % 5 == 1
        u = oracles.normalize("A", a, c, P45)
        v = oracles.normalize("B", b, d, P45)
        assert adjacent(u, v, P45)


def _apply(g, u, p):
    """The library's action of the row g on the oracle coordinate u."""
    return code_coord(apply_codes(g, code_of(u, p), p), p)


def _translate(code, p):
    return int(apply_codes(generators(p)[1], code, p))


def test_translation_action_examples():
    t = vertex_names(P45)
    assert t.name(_translate(t.coord("E1"), P45)) == "G1"
    assert t.name(_translate(t.coord("H2"), P45)) == "H2"
    assert t.name(_translate(t.coord("F2"), P45)) == "E2"


def test_translation_matches_matrix_action():
    # The T row's action is the formula "add lam_q" on every coordinate.
    for q, n in [(q, n) for q in (3, 4, 6) for n in (3, 5, 7)] + [(6, 9)]:
        p = HeckeParams(q, n)
        _, tmat, _ = generators(p)
        for u in enumerate_coords(p):
            assert _apply(tmat, u, p) == oracles.translate(u, p)


def test_translation_orbit_structure():
    # fixed: the four poles; every other orbit has length 5
    sizes = Counter()
    seen = set()
    for u in coordinate_codes(P45).tolist():
        if u in seen:
            continue
        orbit = {u}
        v = _translate(u, P45)
        while v != u:
            orbit.add(v)
            v = _translate(v, P45)
        seen |= orbit
        sizes[len(orbit)] += 1
    assert sizes == {1: 4, 5: 4}


def test_inversion_swaps_kinds():
    s, _, _ = generators(P45)
    for u in enumerate_coords(P45):
        assert _apply(s, u, P45).kind != u.kind


@pytest.mark.parametrize("qn", [(4, 3), (4, 5), (3, 5)])
def test_adjacency_equivariance_exhaustive(qn):
    p = HeckeParams(*qn)
    group = cached_group(*qn)
    coords = enumerate_coords(p)
    adj = {
        (u, v) for u in coords for v in coords if adjacent(u, v, p)
    }
    for g in group.rows:
        images = {u: _apply(g, u, p) for u in coords}
        assert {(images[u], images[v]) for u, v in adj} == adj


def _ring_image(g, u, p):
    """Oracle: image of u under the ProjMatrix g, by the scalar ring."""
    rp = RingParams(p.n, p.m)
    if p.q == 3:
        top, bot = RingElem(u.num, 0), RingElem(u.den, 0)
    elif u.kind == "A":
        top, bot = RingElem(u.num, 0), RingElem(0, u.den)
    else:
        top, bot = RingElem(0, u.num), RingElem(u.den, 0)
    w1 = ring_add(ring_mul(g.e11, top, rp), ring_mul(g.e12, bot, rp), rp)
    w2 = ring_add(ring_mul(g.e21, top, rp), ring_mul(g.e22, bot, rp), rp)
    if p.q == 3:
        return oracles.normalize("A", w1.rat, w2.rat, p)
    if w1.irr == 0 and w2.rat == 0:
        return oracles.normalize("A", w1.rat, w2.irr, p)
    assert w1.rat == 0 and w2.irr == 0
    return oracles.normalize("B", w1.irr, w2.rat, p)


def _ring_order(g, p):
    """Oracle: least k with g**k = +-1, by repeated ring.mat_mul."""
    rp = RingParams(p.n, p.m)
    ident = canonicalize(identity_matrix(rp), rp)
    acc, k = g, 1
    while acc != ident:
        acc, k = mat_mul(acc, g, rp), k + 1
    return k


def _word_parities(p):
    """Oracle: number of S letters mod 2, over a BFS of words in S and T."""
    rp = RingParams(p.n, p.m)
    s, t = (as_matrix(row, p.m) for row in generators(p)[:2])
    odd = {canonicalize(identity_matrix(rp), rp): False}
    frontier = list(odd)
    while frontier:
        nxt = []
        for g in frontier:
            for gen, flip in ((s, True), (t, False)):
                h = mat_mul(g, gen, rp)
                if h not in odd:
                    odd[h] = odd[g] ^ flip
                    nxt.append(h)
                assert odd[h] == odd[g] ^ flip
        frontier = nxt
    return odd


@pytest.mark.parametrize("qn", [(4, 5), (3, 5), (6, 5)])
def test_row_api_matches_ring_oracle(qn):
    p = HeckeParams(*qn)
    group = cached_group(*qn)
    coords = enumerate_coords(p)
    infinity = oracles.normalize("A", 1, 0, p)
    odd = _word_parities(p) if p.q != 3 else None
    assert odd is None or len(odd) == group.order
    for row, slot_row in zip(group.rows.tolist(), oracles.eight_slots(group.rows, p.m).tolist()):
        g = as_matrix(slot_row)
        assert cusp_of(slot_row, p) == _ring_image(g, infinity, p)
        assert [_apply(row, u, p) for u in coords] == [
            _ring_image(g, u, p) for u in coords
        ]
        assert oracles.element_order(slot_row, p) == _ring_order(g, p)
        if odd is not None:
            assert oracles.parity(slot_row, p) == ("odd" if odd[g] else "even")
            assert row[0] == odd[g]
