import re
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from hfmap import decimals, render
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


def test_disk_render_memory_is_bounded():
    """The traced peak of the (4, 12) disk render is about 2.1 times its
    4.45 MB document: the document, the blocks of text it is joined from,
    and the float and byte arrays of one block of paths.  Sampled and
    projected on whole-page arrays it was 3.6 times."""
    render_universal(4, RenderConfig(model="disk", depth=3))  # lazy set-up first
    tracemalloc.start()
    try:
        svg = render_universal(4, RenderConfig(model="disk", depth=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * len(svg)


# The page writer of the disk model against "%.5f", one float at a time.


def _written(x):
    """The text ``write_decimals`` writes for each float of x."""
    x = np.asarray(x, dtype=float)
    cells = np.zeros(x.shape + (decimals.CELL,), dtype=np.uint8)
    decimals.write_decimals(x, cells, decimals.decimal_tables())
    return [cell[cell != 0].tobytes().decode() for cell in cells.reshape(-1, decimals.CELL)]


def _printed(x):
    return ["%.5f" % v for v in np.ravel(x).tolist()]


def test_decimals_of_random_floats():
    rng = np.random.default_rng(34)
    x = np.concatenate([rng.uniform(0, 1e4, 30000), rng.uniform(0, 10, 5000),
                        rng.uniform(0, 1e-4, 1000)])
    assert _written(x.reshape(-1, 4, 10)) == _printed(x)


def test_decimals_of_integers():
    x = np.concatenate([[0.0], 10.0 ** np.arange(4), 10.0 ** np.arange(1, 5) - 1,
                        np.arange(0, 10**4, 7)])
    assert _written(x) == _printed(x)


def test_decimals_at_the_top_of_the_range():
    """Past 9999.999995 "%.5f" prints 10000.00000, which has no cell."""
    x = np.array([9999.999995])
    for _ in range(40):
        x = np.concatenate([np.nextafter(x[:1], 0), x, np.nextafter(x[-1:], np.inf)])
    kept = [v for v in x.tolist() if float("%.5f" % v) < 1e4]
    assert 0 < len(kept) < len(x)
    assert _written(kept) == _printed(kept)
    for v in x.tolist():
        if v not in kept:
            with pytest.raises(ValueError, match="rounds to 10000"):
                _written([1.0, v])


def test_decimals_at_near_ties():
    """Halfway between two printed values the rounded product does not
    decide the digits: these cells are read back from "%.5f"."""
    rng = np.random.default_rng(5)
    ties = (rng.integers(0, 10**9 - 10, 3000) + 0.5) / 1e5
    x = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    t = x * 1e5
    assert np.all(np.abs(t - np.rint(t)) >= 0.5 - 1e-6)
    assert _written(x) == _printed(x)


@pytest.mark.parametrize("bad", [-0.0, -1e-9, 1e4, np.inf, np.nan])
def test_decimals_outside_the_range_raise(bad):
    with pytest.raises(ValueError):
        _written([1.0, bad, 2.0])


def test_decimal_lines_match_a_format_template():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1e4, (50, 3))
    seps = ["(", ", ", " -- "]
    template = "<" + "".join(sep + "%.5f" for sep in seps) + ">"
    want = "\n".join(template % tuple(row) for row in x.tolist())
    assert decimals.decimal_lines(x, "<", seps, ">", decimals.decimal_tables()) == want
    assert decimals.decimal_lines(x[:0], "<", seps, ">", decimals.decimal_tables()) == ""
