import tracemalloc
from collections import Counter

import numpy as np
import oracles
import pytest

from hfmap import cli, polygon
from hfmap.coords import code_coord, vertex_names
from hfmap.group import HeckeParams, cached_group
from hfmap.maps import build_coordinate_graph
from hfmap.polygon import (
    BRING_CIRCUIT_NAMES,
    BRING_SIDE_LABELS,
    Circuit,
    PairingTable,
    boundary_from_circuit,
    bring_circuit,
    bring_side_pairing,
    circuit_labels,
    coset_domain_check,
    format_circuit_text,
    format_pairing_text,
    pairing_rule_check,
    parse_circuit_text,
    parse_pairing_text,
    rule_pairing,
    search_circuits,
    side_label_analysis,
    validate_circuit,
    vertex_classes,
)

P45 = HeckeParams(4, 5)


@pytest.fixture(scope="module")
def table():
    return vertex_names(P45)


@pytest.fixture(scope="module")
def boundary():
    return boundary_from_circuit(bring_circuit(), P45)


# -- circuits ---------------------------------------------------------------


def test_reference_circuit_validates():
    assert len(BRING_CIRCUIT_NAMES) == 12
    assert validate_circuit(bring_circuit(), P45)


def test_two_step_walks(table):
    ok = Circuit((table.coord("H2"), table.coord("E1")))
    assert validate_circuit(ok, P45)
    bad = Circuit((table.coord("H2"), table.coord("C2")))  # both kind B
    assert not validate_circuit(bad, P45)


def test_search_finds_reference_circuit(table):
    found = search_circuits(table.coord("H2"), 12, {0, 3, 6, 9}, P45)
    assert found.shape == (80_000, 12) and found.dtype == np.int32
    assert bring_circuit() in oracles.circuits_of(found, P45)
    # deterministic ordering
    again = search_circuits(table.coord("H2"), 12, {0, 3, 6, 9}, P45)
    assert np.array_equal(found, again)


def test_search_edge_cases(table):
    h2 = table.coord("H2")
    assert search_circuits(h2, 3, {0}, P45).shape == (0, 3)  # bipartite: no odd walks
    assert len(search_circuits(h2, 4, {0}, P45)) > 0  # quadrilateral faces
    with pytest.raises(ValueError):
        search_circuits(h2, 17, {0}, P45)
    with pytest.raises(ValueError, match="^circuit search length 0 must be at least 1$"):
        search_circuits(h2, 0, set(), P45)
    with pytest.raises(ValueError, match=r"^pole position 12 is outside 0\.\.11$"):
        search_circuits(h2, 12, {0, 12}, P45)
    # Codes below 0 or from 2*n*n on are no coordinates, and neither is 20,
    # A:4/0, which is no sign-canonical class: its code is no node's
    for start in (-45, -1, 2 * 5 * 5, 20):
        with pytest.raises(ValueError, match=rf"^start {start} is not a coordinate mod 5$"):
            search_circuits(start, 4, {0}, P45)
    # start poleness must match position 0: the start row is not kept
    found = search_circuits(table.coord("E1"), 4, {0}, P45)
    assert found.shape == (0, 4) and found.dtype == np.int32
    assert oracles.circuits_of(found, P45) == []
    # two poles are never adjacent, so an all-pole walk does not exist
    every = set(range(12))
    assert search_circuits(h2, 12, every, P45).shape == (0, 12)
    assert oracles.search_circuits(h2, 12, every, P45) == []
    # the exact count bounds the listing: 2,621,440 at length 12, 16x that at 14
    with pytest.raises(
        ValueError, match="^circuit search would list more than 4194304 circuits$"
    ):
        search_circuits(h2, 14, {0}, P45)


def test_search_memory_is_about_one_table(table):
    """The traced peak of a 163,840 x 10 listing stays under twice its
    table: the walks grow in place in one table.  Copying the table so far
    at each position peaked at 3.1 times."""
    h2 = table.coord("H2")
    search_circuits(h2, 4, {0}, P45)  # imports and lazy set-up first
    tracemalloc.start()
    try:
        found = search_circuits(h2, 10, {0}, P45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.shape == (163_840, 10)
    assert peak < 2 * found.nbytes


def test_search_bound_is_exact(monkeypatch, table):
    """Counts are clipped just above the bound, so a search of exactly the
    bound is listed and one circuit more is refused."""
    h2 = table.coord("H2")
    monkeypatch.setattr(polygon, "MAX_CIRCUITS", 80_000)
    assert len(search_circuits(h2, 12, {0, 3, 6, 9}, P45)) == 80_000
    monkeypatch.setattr(polygon, "MAX_CIRCUITS", 79_999)
    with pytest.raises(ValueError, match="^circuit search would list more than 79999 circuits$"):
        search_circuits(h2, 12, {0, 3, 6, 9}, P45)


# -- boundary ---------------------------------------------------------------


def test_boundary_structure(boundary, table):
    assert len(boundary.slots) == 60
    assert len(boundary.pole_slots) == 20
    assert boundary.pole_slots == tuple(range(0, 60, 3))
    assert table.name(boundary.slots[12]) == "H2"
    assert table.name(boundary.slots[13]) == "G1"  # E1 + sqrt2
    counts = Counter(table.name(boundary.slots[i]) for i in boundary.pole_slots)
    assert counts == {"H2": 5, "C2": 5, "B1": 10}


def test_boundary_rejects_wrong_circuit(table):
    short = Circuit((table.coord("H2"), table.coord("E1")))
    with pytest.raises(ValueError):
        boundary_from_circuit(short, P45)
    # valid 12-circuit but poles in the wrong slots: rotate the reference
    rotated = Circuit(bring_circuit().seq[1:] + bring_circuit().seq[:1])
    with pytest.raises(ValueError):
        boundary_from_circuit(rotated, P45)


# -- pairing ----------------------------------------------------------------


def test_reference_pairing_contents():
    t = bring_side_pairing()
    assert (1, 18) in t.pairs
    assert (8, 19) in t.pairs
    assert len(t.pairs) == 10


def test_pairing_rule():
    assert pairing_rule_check(bring_side_pairing())
    # swapping two targets breaks the rule
    broken = PairingTable(
        pairs=tuple(sorted([
            (2, 9), (5, 6), (10, 13), (14, 17), (1, 18),
            (3, 12), (7, 16), (11, 20), (4, 15), (8, 19),
        ]))
    )
    assert not pairing_rule_check(broken)
    antipodal = PairingTable(pairs=tuple((k, k + 10) for k in range(1, 11)))
    assert not pairing_rule_check(antipodal)


def _random_matchings(seed, count, num_sides=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sides = rng.permutation(num_sides) + 1
        yield PairingTable(pairs=tuple(zip(sides[::2].tolist(), sides[1::2].tolist())))


def _rule_holds(t):
    """The rule side by side: 2 mod 4 pairs to +3, 3 mod 4 to +9, wrapping."""
    partner = {a: b for pair in t.pairs for a, b in (pair, pair[::-1])}
    return all(
        partner[k] == (k + shift - 1) % 20 + 1
        for k in range(1, 21)
        for rest, shift in ((2, 3), (3, 9))
        if k % 4 == rest
    )


def test_pairing_rule_check_matches_the_side_rule():
    assert _rule_holds(bring_side_pairing())
    for t in _random_matchings(3, 5000):
        assert pairing_rule_check(t) == _rule_holds(t)
    # Unsorted pairs name the same matching.
    swapped = PairingTable(pairs=tuple((b, a) for a, b in reversed(rule_pairing().pairs)))
    assert swapped == rule_pairing() and pairing_rule_check(swapped)


def test_rule_forces_the_unique_matching():
    forced = rule_pairing()
    assert set(forced.pairs) == set(bring_side_pairing().pairs)
    # the rule already constrains ten disjoint pairs covering every side,
    # so any matching satisfying it equals the forced one
    covered = sorted(s for pair in forced.pairs for s in pair)
    assert covered == list(range(1, 21))


def test_pairing_table_validation():
    for pairs in ([(1, 2)] * 10, [], [(1, 2), (3, 5)], [(1, 2, 3), (4,)]):
        with pytest.raises(ValueError, match="^pairs are not a perfect matching of the sides$"):
            PairingTable(pairs=tuple(pairs))
    # Any even number of sides: a digon, a hexagon.
    assert PairingTable(pairs=((2, 1),)).pairs == ((1, 2),)
    assert PairingTable(pairs=((4, 1), (2, 5), (6, 3))).pairs == ((1, 4), (2, 5), (3, 6))


# -- corner classes ---------------------------------------------------------


def test_vertex_classes_reference():
    part = vertex_classes(bring_side_pairing())
    assert set(part.classes) == {
        frozenset({1, 3, 5, 7, 9, 11, 13, 15, 17, 19}),
        frozenset({2, 6, 10, 14, 18}),
        frozenset({4, 8, 12, 16, 20}),
    }
    assert part.vertex_count == 3
    assert part.genus == 4  # 2 - 2g = 3 - 10 + 1


def test_vertex_classes_antipodal():
    part = vertex_classes(PairingTable(pairs=tuple((k, k + 10) for k in range(1, 11))))
    assert part.vertex_count == 1
    assert part.genus == 5


def test_vertex_classes_all_nonnegative():
    # genus >= 0 and V >= 1 for a sample of matchings
    import itertools
    import random

    rng = random.Random(5)
    sides = list(range(1, 21))
    for _ in range(100):
        rng.shuffle(sides)
        pairs = tuple(
            tuple(sorted((sides[2 * i], sides[2 * i + 1]))) for i in range(10)
        )
        part = vertex_classes(PairingTable(pairs=tuple(sorted(pairs))))
        assert part.vertex_count >= 1
        assert part.genus >= 0


def test_vertex_classes_match_union_find():
    """On the paper's 20-gon and on random matchings of 2k sides, k in 1..15."""
    cases = [(20, t) for t in [bring_side_pairing(), *_random_matchings(11, 2000)]]
    for k in range(1, 16):
        cases += [(2 * k, t) for t in _random_matchings(k, 200, 2 * k)]
    for num_sides, t in cases:
        zero_based = [(a - 1, b - 1) for a, b in t.pairs]
        want = oracles.polygon_corner_classes(num_sides, zero_based)
        part = vertex_classes(t)
        assert part.classes == tuple(frozenset(c + 1 for c in cls) for cls in want)
        assert part.genus == (2 - (len(want) - num_sides // 2 + 1)) // 2


def test_corner_classes_match_pole_labels(boundary, table):
    # the three vertex classes land on the three boundary poles: the class
    # sizes 10/5/5 match the corner labels B1 x10, H2 x5, C2 x5
    part = vertex_classes(bring_side_pairing())
    report = side_label_analysis(boundary)
    offset = report.alignment_offsets[0]
    label_of_corner = {}
    for k in range(1, 21):
        span = (k - 1 + offset) % 20
        label_of_corner[k] = table.name(boundary.slots[boundary.pole_slots[span]])
    for cls in part.classes:
        labels = {label_of_corner[c] for c in cls}
        assert len(labels) == 1, f"class {sorted(cls)} has mixed labels {labels}"
    sizes = {len(cls): label_of_corner[min(cls)] for cls in part.classes}
    assert sizes[10] == "B1"
    assert {sizes[5] for cls in part.classes if len(cls) == 5} <= {"H2", "C2"}


# -- side labels ------------------------------------------------------------


def test_side_label_analysis(boundary):
    rep = side_label_analysis(boundary)
    assert rep.orbit_b == ["F2", "E2", "K2", "B2", "J2"]
    assert rep.orbit_a == ["K1", "I1", "H1", "L1", "J1"]
    assert rep.span_interiors[0] == ("E1", "F2")
    assert rep.designation_counts_ok
    assert rep.fixture_counts_ok
    assert len(rep.alignment_offsets) == 1
    assert rep.pairing_consistent
    assert rep.ok


def test_side_label_fixture_multiset():
    counts = Counter(BRING_SIDE_LABELS.values())
    assert len(counts) == 10
    assert set(counts.values()) == {2}
    # classically paired sides carry the same label
    for a, b in bring_side_pairing().pairs:
        assert BRING_SIDE_LABELS[a] == BRING_SIDE_LABELS[b]


# -- coset fundamental domain -----------------------------------------------


@pytest.mark.parametrize(
    "qn,chi",
    [((4, 5), -6), ((4, 3), 2), ((3, 5), 2), ((6, 5), -16), ((4, 7), -36), ((4, 6), -8)],
)
def test_coset_domain_chi(qn, chi):
    report = coset_domain_check(cached_group(*qn))
    assert report.chi == chi
    assert report.matches_map
    assert report.genus == (2 - chi) // 2
    # every boundary pairing element lies in the congruence kernel
    assert report.pairings_in_kernel == report.edge_pairs
    # tree + boundary bookkeeping
    assert report.tree_edges == report.tiles - 1
    assert report.boundary_sides == 2 * report.edge_pairs


def test_polygon_corner_classes_square_torus():
    # abab identification of a square gives the torus: V=1, chi = 1-2+1 = 0
    classes = oracles.polygon_corner_classes(4, [(0, 2), (1, 3)])
    assert len(classes) == 1


# -- text formats -----------------------------------------------------------


def test_pairing_text_roundtrip():
    t = bring_side_pairing()
    text = format_pairing_text(t)
    assert parse_pairing_text(text) == t
    commented = "# classical pairing\n" + text.replace("\n", "   # pair\n", 1)
    assert parse_pairing_text(commented) == t
    with pytest.raises(ValueError):
        parse_pairing_text("1 2 3\n")
    with pytest.raises(ValueError, match=r"^line 2: side numbers must be integers, got '3 4.5'$"):
        parse_pairing_text("1 2\n3 4.5\n")


def _rows(circuit, p):
    """A one-row walk table of the circuit's node indices."""
    codes = build_coordinate_graph(p).codes.tolist()
    return np.array([[codes.index(u) for u in circuit.seq]], dtype=np.int32)


@pytest.mark.parametrize("qn,count", [((4, 5), 24), ((4, 3), 8)])
def test_name_tables_name_every_graph_node(qn, count):
    """A name per node, not per circuit: the listing writes names on a map
    with a name table only because the table names every graph node."""
    p = HeckeParams(*qn)
    table = vertex_names(p)
    codes = build_coordinate_graph(p).codes.tolist()
    assert len(codes) == count
    names = [table.name(u) for u in codes]
    assert circuit_labels(p).tolist() == names


def test_circuit_text_roundtrip(table):
    c = bring_circuit()
    named = format_circuit_text(_rows(c, P45), circuit_labels(P45))
    assert named == ",".join(BRING_CIRCUIT_NAMES) + "\n"
    assert named == oracles.format_circuit(c, P45) + "\n"
    assert parse_circuit_text(named, P45) == c
    raw = ",".join("%s:%d/%d" % code_coord(u, P45) for u in c.seq)
    assert parse_circuit_text(raw, P45) == c
    # Without a name table the circuit is written as kind:num/den triples.
    p47 = HeckeParams(4, 7)
    c47 = parse_circuit_text("B:2/0, A:2/1", p47)
    assert format_circuit_text(_rows(c47, p47), circuit_labels(p47)) == "B:2/0,A:2/1\n"
    assert oracles.format_circuit(c47, p47) == "B:2/0,A:2/1"
    assert format_circuit_text(np.zeros((0, 2), dtype=np.int32), circuit_labels(p47)) == ""
    assert parse_circuit_text("B:2/0, A:2/1", P45) == Circuit(
        (table.coord("H2"), table.coord("E1"))
    )


# Label characters: ASCII, and code points of 2, 3 and 4 bytes in UTF-8.
_LABEL_CHARS = list("AHz09:/-") + ["é", "λ", "√", "😀"]


@pytest.mark.parametrize("seed", range(6))
def test_circuit_text_matches_join(seed):
    """The byte formatter writes what one ",".join per row writes, on random
    tables of 1- to 8-character labels, with one column or many."""
    rng = np.random.default_rng(seed)
    labels = np.array(["".join(rng.choice(_LABEL_CHARS, size=rng.integers(1, 9)))
                       for _ in range(rng.integers(1, 40))], dtype=object)
    for width in (1, int(rng.integers(2, 17))):
        rows = rng.integers(0, len(labels), size=(int(rng.integers(1, 60)), width))
        rows = rows.astype(np.int32)
        assert format_circuit_text(rows, labels) == oracles.circuit_text(rows, labels)
    assert format_circuit_text(np.zeros((0, 1), dtype=np.int32), labels) == ""


def test_circuit_listing_across_block_edges(monkeypatch, capsys, table):
    """Blocks of 3 rows give the listing of the whole table: 200 circuits,
    so the last block is short."""
    found = search_circuits(table.coord("H2"), 6, {0, 3}, P45)
    assert len(found) == 200
    monkeypatch.setattr(cli, "CIRCUIT_BLOCK", 3)
    assert cli.main(["circuit", "--search", "--length", "6", "--poles", "0,3"]) == 0
    want = oracles.circuit_text(found, circuit_labels(P45)) + f"# {len(found)} circuits\n"
    assert capsys.readouterr().out == want
