"""Every (q, n) the benchmark's sweep covers, plus the even moduli, end to end.

For odd n both models are built and cross-checked; for even n the
coordinate model is not offered yet, so the order and connectivity of the
dart system are what is checked.
"""

import oracles
import pytest

from hfmap.group import HeckeParams, enumerate_group, principal_congruence_index
from hfmap.maps import build_algebraic_map, build_coordinate_graph, correspondence_check
from hfmap.polygon import coset_domain_check

ODD = [(q, n) for q in (3, 4, 6) for n in range(3, 32, 2)]
EVEN = [(q, n) for q in (3, 4, 6) for n in range(4, 31, 2)]


@pytest.mark.parametrize("q,n", ODD)
def test_odd_modulus_models_agree(q, n):
    p = HeckeParams(q, n)
    group = enumerate_group(p)
    order = group.order
    assert order == principal_congruence_index(p)
    amap = build_algebraic_map(group)
    inv = amap.invariants()
    # sigma = *T has orbits of length n, alpha = *S of length 2, phi of length q.
    assert (inv.vertices, inv.edges, inv.faces) == (order // n, order // 2, order // q)
    rep = correspondence_check(group, amap, build_coordinate_graph(p))
    assert rep.ok, rep.problems
    dom = coset_domain_check(group)
    assert dom.matches_map and dom.chi == inv.vertices - inv.edges + inv.faces


@pytest.mark.parametrize("q,n", EVEN)
def test_even_modulus_order_and_connectivity(q, n):
    p = HeckeParams(q, n)
    group = enumerate_group(p)
    assert group.order == principal_congruence_index(p)
    assert oracles.is_connected(build_algebraic_map(group))
