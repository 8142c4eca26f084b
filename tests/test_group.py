import numpy as np
import oracles
import pytest
from conftest import as_matrix

from hfmap import group as group_module
from hfmap import kernels
from hfmap.group import (
    HeckeParams,
    IndexFormulaError,
    enumerate_group,
    generators,
    perm_compose,
    perm_order,
    principal_congruence_index,
    s5_permutation_group,
)
from ring import RingParams, mat_mul, proj_eq


def _slot_generators(p):
    """S, T and R in the oracle's 8 slots."""
    return oracles.eight_slots(generators(p), p.m)


def test_generator_orders():
    p = HeckeParams(4, 5)
    s, t, r = _slot_generators(p)
    assert oracles.element_order(s, p) == 2
    assert oracles.element_order(t, p) == 5
    assert oracles.element_order(r, p) == 4
    # q = 3: lam = 1 and R has order 3
    p3 = HeckeParams(3, 5)
    assert oracles.element_order(_slot_generators(p3)[2], p3) == 3
    # T^n = identity: translation order equals the modulus
    p43 = HeckeParams(4, 3)
    assert oracles.element_order(_slot_generators(p43)[1], p43) == 3


@pytest.mark.parametrize(
    "q,n,expected",
    [
        (4, 5, 120),
        (4, 3, 24),
        (3, 5, 60),
        (4, 7, 336),
        (6, 5, 120),
        (4, 6, 96),
        (3, 3, 12),
        (3, 7, 168),
        (6, 3, 18),
        (6, 7, 336),
    ],
)
def test_index_formula_equals_enumeration(q, n, expected):
    p = HeckeParams(q, n)
    assert principal_congruence_index(p) == expected
    assert enumerate_group(p).order == expected


@pytest.mark.parametrize("q", [3, 4, 6])
def test_index_formula_equals_the_two_branch_reference(q):
    """The one Euler product against the q = 3 and m | n branches of
    ``oracles.index_formula``, on every modulus up to 3000."""
    got = [principal_congruence_index(HeckeParams(q, n)) for n in range(3, 3001)]
    assert got == [oracles.index_formula(q, n) for n in range(3, 3001)]


def test_index_rejects_small_modulus():
    with pytest.raises(ValueError):
        HeckeParams(4, 2)


def test_closure_is_bounded_by_the_index_formula(monkeypatch):
    monkeypatch.setattr(group_module, "principal_congruence_index", lambda p: 119)
    with pytest.raises(IndexFormulaError, match="index formula's 119 elements"):
        enumerate_group(HeckeParams(4, 5))


def test_closure_short_of_the_index_formula(monkeypatch):
    monkeypatch.setattr(group_module, "principal_congruence_index", lambda p: 121)
    with pytest.raises(IndexFormulaError) as exc:
        enumerate_group(HeckeParams(4, 5))
    assert str(exc.value) == (
        "group closure for q=4, n=5 found 120 elements, "
        "fewer than the index formula's 121"
    )


def test_enumeration_deterministic(group45):
    again = enumerate_group(HeckeParams(4, 5))
    assert np.array_equal(group45.rows, again.rows)
    assert np.array_equal(group45.alpha, again.alpha)
    assert tuple(group45.rows[0].tolist()) == (0, 1, 0, 0, 1)


def test_group_relations(group45, group43, group35):
    for group in (group45, group43, group35):
        p = group.params
        rp = RingParams(p.n, p.m)
        s, t, r = _slot_generators(p)
        assert proj_eq(mat_mul(as_matrix(t), as_matrix(s), rp), as_matrix(r), rp)
        assert oracles.element_order(s, p) == 2
        assert oracles.element_order(t, p) == p.n
        assert oracles.element_order(r, p) == p.q
        # closure under inverse and product at the index level
        i = oracles.index_of_key(group, int(oracles.canonical_keys(r, p.n)))
        assert oracles.mult(group, i, oracles.inv(group, i)) == 0


def test_parity_examples(group45):
    """The kind digit is the parity of the oracle's slot patterns: T is
    even, and S and t*s*t, one S, are odd."""
    p = HeckeParams(4, 5)
    s, t, _ = generators(p)
    rp = RingParams(p.n, p.m)
    tst = kernels.mat_mul_exact(kernels.mat_mul_exact(t, s, p.m), t, p.m) % p.n
    want = mat_mul(mat_mul(as_matrix(t, p.m), as_matrix(s, p.m), rp), as_matrix(t, p.m), rp)
    assert proj_eq(as_matrix(tst, p.m), want, rp)
    rows = np.array([t, s, tst])
    assert rows[:, 0].tolist() == [0, 1, 1]
    slot_rows = oracles.eight_slots(rows, p.m).tolist()
    assert [oracles.parity(row, p) for row in slot_rows] == ["even", "odd", "odd"]


def test_parity_undefined_for_modular_group(group35):
    """q = 3 has one form of row, kind 0, and no even and odd slot
    patterns: T = [[1, 1], [0, 1]] matches neither."""
    p = HeckeParams(3, 5)
    with pytest.raises(ValueError):
        oracles.parity(_slot_generators(p)[1], p)
    assert not group35.rows[:, 0].any() and not generators(p)[:, 0].any()


@pytest.mark.parametrize("qn", [(4, 3), (4, 5), (6, 5)])
def test_even_elements_form_index_two_subgroup(qn):
    p = HeckeParams(*qn)
    group = enumerate_group(p)
    odd = group.rows[:, 0] == 1
    slot_rows = oracles.eight_slots(group.rows, p.m).tolist()
    assert [oracles.parity(row, p) == "odd" for row in slot_rows] == odd.tolist()
    assert odd.sum() * 2 == group.order
    # parity is a homomorphism to C2: check over all pairs via column perms
    for j in range(group.order):
        perm = oracles.right_mult_perm(group, j)
        assert np.array_equal(odd[perm], odd ^ odd[j])


def test_s5_model():
    pg = s5_permutation_group()
    assert pg.order == 120
    x, y, z = pg.gens["x"], pg.gens["y"], pg.gens["z"]
    assert (perm_order(x), perm_order(y), perm_order(z)) == (2, 5, 4)
    ident = tuple(range(5))
    assert perm_compose(perm_compose(x, y), z) == ident
    assert perm_compose(x, y) == oracles.perm_inverse(z)
    assert perm_order(perm_compose(x, y)) == 4
    # nonabelian with the symmetric-group order spectrum
    assert perm_compose(x, y) != perm_compose(y, x)
    assert {perm_order(e) for e in pg.elements} == {1, 2, 3, 4, 5, 6}


def test_element_orders_spot(group45):
    p = group45.params
    orders = {oracles.element_order(g, p) for g in oracles.eight_slots(group45.rows, p.m)}
    # S5 spectrum again, via the matrix model
    assert orders == {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 401])
def test_rotation_has_period_q_for_every_modulus(n):
    for q in (3, 4, 6):
        p = HeckeParams(q, n)
        assert oracles.element_order(_slot_generators(p)[2], p) == q
