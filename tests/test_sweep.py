"""Every (q, n) with q in {3, 4, 6} and n in 3..31, end to end.

For every modulus, odd or even, both models are built and cross-checked,
and the coset-domain chi must equal the map's.  A dart system that S and T
do not connect fails the coset domain with "tile graph is disconnected".
The odd and even moduli keep separate test names; the check is the same.
Past the sweep, a sample of moduli runs ``hfmap map --json`` against the
closed forms of its invariants, and a smaller one the coset domain.
"""

import json
from fractions import Fraction

import pytest

from hfmap.cli import main
from hfmap.group import HeckeParams, enumerate_group, principal_congruence_index
from hfmap.maps import (
    MapStructure,
    build_algebraic_map,
    build_coordinate_graph,
    correspondence_check,
)
from hfmap.polygon import coset_domain_check

ODD = [(q, n) for q in (3, 4, 6) for n in range(3, 32, 2)]
EVEN = [(q, n) for q in (3, 4, 6) for n in range(4, 31, 2)]
# 2**5, 2**6, 3**4, 5**2, 5**3 and 7**2, the products 5*7 and 5*11 of two
# odd primes, the products 3*11, 3*13 and 2*19, where m = 3 (q = 6) or
# m = 2 (q = 4) divides n beside a second prime, and one prime in each
# residue class mod 24, the class that decides whether 2 and 3 are squares
# mod p.
PAST = [(q, n) for q in (3, 4, 6)
        for n in (25, 32, 33, 35, 37, 38, 39, 41, 43, 47, 49, 53, 55, 59, 64, 73, 79, 81, 125)]

# The coset domain past the sweep: 2**6, 7**2, 5*11 and 3**4.
DOMAIN_PAST = [(3, 64), (4, 49), (6, 55), (4, 81)]


def _closed_form_genus(q, n):
    order = principal_congruence_index(HeckeParams(q, n))
    return order, 1 + order * (Fraction(1, 2) - Fraction(1, n) - Fraction(1, q)) / 2


def _models_agree(q, n):
    p = HeckeParams(q, n)
    group = enumerate_group(p)
    order = group.order
    assert order == principal_congruence_index(p)
    amap = build_algebraic_map(group)
    inv = amap.invariants()
    # sigma = *T has orbits of length n, alpha = *S of length 2, phi of length q.
    assert (inv.vertices, inv.edges, inv.faces) == (order // n, order // 2, order // q)
    # The builder's counts from the orders of T and R are the label rule's.
    assert inv == MapStructure(sigma=amap.sigma, alpha=amap.alpha).invariants()
    rep = correspondence_check(group, amap, build_coordinate_graph(p))
    assert rep.ok, rep.problems
    dom = coset_domain_check(group)
    assert dom.matches_map and dom.chi == inv.vertices - inv.edges + inv.faces


@pytest.mark.parametrize("q,n", ODD)
def test_odd_modulus_models_agree(q, n):
    _models_agree(q, n)


@pytest.mark.parametrize("q,n", EVEN)
def test_even_modulus_order_and_connectivity(q, n):
    _models_agree(q, n)


@pytest.mark.parametrize("q,n", PAST)
def test_map_meets_the_closed_forms(capsys, q, n):
    """darts = N, V = N/n, E = N/2, F = N/q and genus = 1 + N(1/2 - 1/n -
    1/q)/2, with N the index formula."""
    assert main(["map", "--q", str(q), "--n", str(n), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    order, genus = _closed_form_genus(q, n)
    assert got == {
        "q": q, "n": n, "darts": order,
        "vertices": Fraction(order, n), "edges": Fraction(order, 2), "faces": Fraction(order, q),
        "genus": genus, "group_order": order,
    }


@pytest.mark.parametrize("q,n", DOMAIN_PAST)
def test_coset_domain_meets_the_closed_form(q, n):
    """The glued domain's chi is the map's and 2 - 2g, with g the closed
    form above."""
    order, genus = _closed_form_genus(q, n)
    dom = coset_domain_check(enumerate_group(HeckeParams(q, n)))
    assert dom.matches_map and dom.tiles == order
    assert (dom.chi, dom.genus) == (2 - 2 * genus, genus)
