"""Hecke groups modulo n, Farey coordinates, and the regular maps they carry.

The package enumerates the finite quotients H_q / H_q(n) for q in {3, 4, 6}
with exact arithmetic in Z_n[sqrt(m)], builds the associated regular maps in
two models (dart systems on group elements and adjacency graphs on
coordinates mod n), and reconstructs the fundamental 20-gon of the genus-4
map of type {5, 4} together with its side pairing and vertex
identifications.

Both models are read off one table, ``coords.completion_table``.  The
runtime checks that share nothing with it are the generation breadth-first
search in ``enumerate_group`` and ``kernels.slot_product_keys`` on every
element: each stored row (kind, a, b, c, d), the digits of its key, times
T (S) must key as the element at sigma, ``kernels.block_successor`` (at
the stored alpha).  A row of kind 0 is [[a, b*sqrt(m)], [c*sqrt(m), d]]
(kind A, and [[a, b], [c, d]] for q = 3), one of kind 1 [[a*sqrt(m), b],
[c, d*sqrt(m)]] (kind B); the group keeps 9 bytes per element, 5 of the
uint8 row and 4 of int32 alpha.
``maps.projection_certificate``, which ``hfmap map`` runs on every modulus,
then proves that g -> g(infinity) carries the dart model onto the
adjacency-rule graph, in the element numbering v*n + t:
(a) the vertex orbits are the blocks v*n .. v*n + n - 1 and every row
has its block head's first column up to sign; (b) the head cusps, sorted,
are the coordinates; (c) ``coords.adjacent_codes`` holds on every arc
(v, alpha(v*n + t) // n); (d) each row of the (V, n) table alpha // n has
n distinct entries.  The rule graph is n-regular, so the projection is a
bijection onto it.  (a) reads back first columns written from the table;
(c) and (d) share nothing with it.
"""

from .coords import HFCoord, apply_to_coord, enumerate_coords
from .group import (
    FiniteHeckeGroup,
    HeckeParams,
    IndexFormulaError,
    enumerate_group,
    generators,
    principal_congruence_index,
    s5_permutation_group,
)
from .maps import (
    MapInvariants,
    MapStructure,
    build_algebraic_map,
    build_coordinate_graph,
    correspondence_check,
    is_isomorphic,
    permutation_model_map,
    projection_certificate,
)
from .polygon import (
    BoundarySequence,
    Circuit,
    PairingTable,
    boundary_from_circuit,
    bring_circuit,
    bring_side_pairing,
    coset_domain_check,
    pairing_rule_check,
    search_circuits,
    side_label_analysis,
    validate_circuit,
    vertex_classes,
)

__version__ = "0.1.0"
