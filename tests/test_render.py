import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from hfmap import render
from hfmap.group import RADICAND, HeckeParams
from hfmap.polygon import boundary_from_circuit, bring_circuit, bring_side_pairing
from hfmap.render import (
    Cusp,
    Geodesic,
    RenderConfig,
    render_polygon,
    render_quotient,
    render_universal,
    universal_geodesics,
)


def test_depth_zero_is_the_imaginary_axis():
    geos = universal_geodesics(4, 0)
    assert len(geos) == 1
    assert {geos[0].a, geos[0].b} == {Cusp(0, 0, 1), Cusp(1, 0, 0)}


def test_principal_face_appears_at_depth_two():
    geos = universal_geodesics(4, 2)
    endpoints = {g.a for g in geos} | {g.b for g in geos}
    # infinity, 0/1, 1/sqrt2 = sqrt2/2, sqrt2/1
    for cusp in (Cusp(1, 0, 0), Cusp(0, 0, 1), Cusp(0, 1, 2), Cusp(0, 1, 1)):
        assert cusp in endpoints


@pytest.mark.parametrize("q", [3, 4, 6])
def test_edge_counts_strictly_increase(q):
    counts = [len(universal_geodesics(q, d)) for d in range(5)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("model", ["halfplane", "disk"])
def test_render_evaluates_no_cusp(monkeypatch, model):
    """A render reads the geodesics' ends from integer tables: it builds no
    Cusp or Geodesic, so it takes no cusp's value or scalar sort key.  Each
    geodesic of the list still carries its ends' values."""
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for cls in (Cusp, Geodesic):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    monkeypatch.setattr(Cusp, "value", counted("value", Cusp.value))
    render_universal(4, RenderConfig(model=model, depth=6))
    monkeypatch.undo()
    assert calls == Counter()
    m = RADICAND[4]
    assert all(g.ends == (g.a.value(m), g.b.value(m)) for g in universal_geodesics(4, 6))


def test_no_duplicate_endpoint_pairs():
    geos = universal_geodesics(4, 4)
    pairs = {(g.a, g.b) for g in geos}
    assert len(pairs) == len(geos)
    assert all(g.a != g.b for g in geos)


def test_depth_bound():
    with pytest.raises(ValueError):
        universal_geodesics(4, 13)
    with pytest.raises(ValueError):
        RenderConfig(depth=-1)
    with pytest.raises(ValueError):
        RenderConfig(model="sphere")


@pytest.mark.parametrize("t,error", [
    # [[1, 1], [1, 1]]: both columns end at 1.
    ((0, 1, 1, 1, 1), "geodesic endpoints coincide"),
])
def test_degenerate_generator_errors(monkeypatch, t, error):
    """The search refuses what no Hecke group produces: a geodesic with one
    endpoint.  A column's denominator is c or m*c, so it is zero only at
    infinity."""
    s = (0, 0, -1, 1, 0)
    monkeypatch.setattr(render, "exact_generators", lambda q: (s, t))
    with pytest.raises(ValueError, match=error):
        universal_geodesics(3, 1)


def _assert_well_formed(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    return root


@pytest.mark.parametrize("model", ["halfplane", "disk"])
def test_universal_svg(model):
    cfg = RenderConfig(model=model, depth=3)
    svg = render_universal(4, cfg)
    _assert_well_formed(svg)
    # one path per geodesic
    paths = svg.count("<path ")
    assert paths == len(universal_geodesics(4, 3))
    assert svg == render_universal(4, cfg)  # byte-identical


@pytest.mark.parametrize(
    "qn,ve", [((4, 5), (24, 60)), ((4, 3), (8, 12)), ((3, 5), (12, 30))]
)
def test_quotient_dot_counts(qn, ve):
    dot = render_quotient(HeckeParams(*qn), "dot")
    lines = dot.splitlines()
    assert lines[0] == "graph {"
    nodes = [l for l in lines if l.strip().endswith('";') and "--" not in l]
    edges = [l for l in lines if "--" in l]
    assert (len(nodes), len(edges)) == ve
    assert dot == render_quotient(HeckeParams(*qn), "dot")


def test_quotient_labels_without_a_name_table():
    """Maps with no name table label their nodes by coord_value_str, not
    by the kind:num/den triples of circuit listings."""
    dot = render_quotient(HeckeParams(3, 5), "dot").splitlines()
    assert dot[1:13] == [f'  "{u}";' for u in (
        "0/1", "0/2", "1/0", "1/1", "1/2", "1/3", "1/4", "2/0", "2/1", "2/2", "2/3", "2/4",
    )]
    assert dot[13] == '  "0/1" -- "1/0";'
    lines = render_quotient(HeckeParams(4, 7), "dot").splitlines()
    first = ["0/(1sqrt2)", "0/(2sqrt2)", "0/(3sqrt2)", "1/(0sqrt2)"]
    assert len(lines) == 218 and not any(":" in line for line in lines)
    assert lines[1:5] == [f'  "{u}";' for u in first]
    assert lines[-2] == '  "3/(6sqrt2)" -- "3sqrt2/3";'
    labels = re.findall(r">([^<]+)</text>", render_quotient(HeckeParams(4, 7), "svg"))
    assert labels[:4] == first and labels[-1] == "3sqrt2/6" and len(labels) == 48


def test_quotient_svg():
    svg = render_quotient(HeckeParams(4, 5), "svg")
    _assert_well_formed(svg)
    assert svg.count("<circle ") == 24
    with pytest.raises(ValueError):
        render_quotient(HeckeParams(4, 5), "png")


def test_polygon_svg():
    p = HeckeParams(4, 5)
    boundary = boundary_from_circuit(bring_circuit(), p)
    svg = render_polygon(boundary, bring_side_pairing())
    _assert_well_formed(svg)
    assert svg.count('class="corner">H2<') == 5
    assert svg.count('class="corner">B1<') == 10
    assert svg.count('class="corner">C2<') == 5
    assert svg.count("<line ") == 20
    colors = set(re.findall(r'stroke="(#[0-9a-f]{6})" stroke-width="2"', svg))
    assert len(colors) == 10  # one style per side pair
    assert svg == render_polygon(boundary, bring_side_pairing())
