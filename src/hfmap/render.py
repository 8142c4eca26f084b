"""SVG and DOT exports: universal tessellations, quotient graphs, the 20-gon.

All identity and deduplication decisions use exact integer arithmetic in
Z[sqrt(m)]; floating point enters only when projecting to page coordinates,
so repeated renders are byte-identical.  The tessellation is searched on
int64 tables: within ``MAX_DEPTH`` no matrix entry exceeds ``MAX_ENTRY``
in absolute value, so every integer of the search, the cusp numerators and
norms included, stays below 5 * 10**5, far inside int64 and exact in
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coords import coord_value_str, coordinate_labels, vertex_names
from .group import IDENTITY, RADICAND, HeckeParams, exact_generators
from .kernels import mat_mul_exact
from .maps import build_coordinate_graph
from .polygon import BoundarySequence, PairingTable, side_label_analysis

__all__ = [
    "Cusp",
    "Geodesic",
    "RenderConfig",
    "universal_geodesics",
    "render_universal",
    "render_quotient",
    "render_polygon",
]

MAX_DEPTH = 12

# The largest |entry| of a matrix of word length <= MAX_DEPTH, over every
# q (reached at q = 6).  A cusp numerator or norm is a sum of two products
# of entries, one times m <= 3, so it stays below 4 * MAX_ENTRY**2 < 5 * 10**5.
# The tests pin this value: a larger MAX_DEPTH must re-derive the bound.
MAX_ENTRY = 265

# Page of the universal tessellation: the half-plane window
# [XMIN, XMAX] x [0, YMAX], WIDTH pixels wide, edges drawn in STROKE, each
# disk-model geodesic through SAMPLES points.
XMIN, XMAX, YMAX = -3.0, 3.0, 3.0
WIDTH = 800
SAMPLES = 48
STROKE = "#1a1a80"

# Sample k of a disk-model geodesic in the half-plane: the point at angle
# pi*k/(SAMPLES - 1) on a half-circle (unit _COS, _SIN), or the height
# _RAY[k] on a vertical ray.  A path is written with one template, which
# formats each float as "{:.5f}" does.
_ANGLES = [math.pi * k / (SAMPLES - 1) for k in range(SAMPLES)]
_COS = np.array([math.cos(t) for t in _ANGLES])
_SIN = np.array([math.sin(t) for t in _ANGLES])
_RAY = np.array([YMAX * (k / (SAMPLES - 1)) ** 2 * 400 for k in range(SAMPLES)])
_DISK_PATH = (
    '<path d="M %.5f %.5f' + " L %.5f %.5f" * (SAMPLES - 1)
    + f'" fill="none" stroke="{STROKE}" stroke-width="1"/>'
)


@dataclass(frozen=True, order=False)
class Cusp:
    """Exact boundary point (p + q*sqrt(m)) / d, or infinity when d = 0.

    Stored normalized: gcd(p, q, d) = 1 with d > 0, and infinity as (1, 0, 0).
    """

    p: int
    q: int
    d: int

    @property
    def is_infinity(self) -> bool:
        return self.d == 0

    def value(self, m: int) -> float:
        if self.is_infinity:
            return math.inf
        return (self.p + self.q * math.sqrt(m)) / self.d


@dataclass(frozen=True)
class Geodesic:
    """Unordered pair of distinct exact endpoints, a before b in the
    boundary order (by value, infinity last, then p and q); ``ends`` holds
    their values, a's first."""

    a: Cusp
    b: Cusp
    ends: tuple[float, float] = field(compare=False, repr=False)


@dataclass
class RenderConfig:
    model: str = "halfplane"
    depth: int = 4

    def __post_init__(self) -> None:
        if self.model not in ("halfplane", "disk"):
            raise ValueError(f"model must be halfplane or disk, got {self.model!r}")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


def _geodesic_table(q: int, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``universal_geodesics`` as integer tables: the distinct cusps as (C, 3)
    rows (p, q, d) in boundary order, their (C,) values, and the geodesics
    as (G, 2) rows of cusp ranks, a < b, in order.

    Each BFS level is a (k, 5) table of rows (kind, a, b, c, d) over Z,
    multiplied by S, T and T^-1 in one broadcast ``mat_mul_exact``; g ~ -g
    is made canonical by a positive first nonzero of a, b, c, d.
    """
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the bound {MAX_DEPTH}")
    m = RADICAND[q]
    s, t = exact_generators(q)
    t_inv = (*t[:2], -t[2], *t[3:])  # lam negated
    gens = np.array([s, t, t_inv], dtype=np.int64)

    frontier = np.array([IDENTITY], dtype=np.int64)
    seen = {IDENTITY}
    levels = [frontier]
    for _ in range(depth):
        prods = mat_mul_exact(frontier[:, None], gens, m).reshape(-1, 5)
        entries = prods[:, 1:]
        lead = entries[np.arange(len(prods)), (entries != 0).argmax(axis=1)]
        entries *= np.sign(lead)[:, None]
        fresh = set(map(tuple, prods.tolist()))
        fresh -= seen
        seen |= fresh
        frontier = np.array(list(fresh), dtype=np.int64).reshape(-1, 5)
        levels.append(frontier)
    kind, a, b, c, d = np.concatenate(levels).T

    # Column (a, c) ends at a/(c*sqrt(m)) = a*sqrt(m)/(m*c) in kind A,
    # a*sqrt(m)/c in kind B and a/c for q = 3, and column (b, d) at
    # b*sqrt(m)/d, b/(d*sqrt(m)) and b/d: (p, q, d) with d = 0 at infinity.
    ends = np.empty((len(kind), 2, 3), dtype=np.int64)
    for j, (top, bot) in enumerate(((a, m ** (1 - kind) * c), (b, m**kind * d))):
        zero = np.zeros_like(top)
        end = np.stack([top, zero, bot] if m == 1 else [zero, top, bot], axis=1)
        end *= np.sign(bot)[:, None]
        end[bot == 0] = (1, 0, 0)
        end //= np.gcd.reduce(end, axis=1)[:, None]
        ends[:, j] = end
    if np.any(np.all(ends[:, 0] == ends[:, 1], axis=1)):
        raise ValueError("geodesic endpoints coincide")

    # Sort the endpoints in the boundary order (is infinity, value, p, q),
    # then by d, so that equal cusps are adjacent, and rank the distinct ones.
    flat = ends.reshape(-1, 3)
    p, r, d = flat.T
    finite = d != 0
    value = np.full(len(flat), math.inf)
    value[finite] = (p[finite] + r[finite] * math.sqrt(m)) / d[finite]
    order = np.lexsort((d, r, p, value, ~finite))
    ranked = flat[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    rank = np.empty(len(flat), dtype=np.int64)
    rank[order] = np.cumsum(first) - 1

    pairs = np.sort(rank.reshape(-1, 2), axis=1)
    count = int(first.sum())
    codes = np.sort(pairs[:, 0] * count + pairs[:, 1])
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    return ranked[first], value[order][first], np.stack(np.divmod(codes, count), axis=1)


def universal_geodesics(q: int, depth: int) -> list[Geodesic]:
    """Distinct images of the imaginary axis under words of length <= depth
    in S, T, T^-1, ordered by exact endpoints."""
    cusps, values, geodesics = _geodesic_table(q, depth)
    points = [Cusp(*c) for c in cusps.tolist()]
    vals = values.tolist()
    return [Geodesic(points[a], points[b], (vals[a], vals[b]))
            for a, b in geodesics.tolist()]


# ---------------------------------------------------------------------------
# SVG helpers.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.5f}"


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_universal(q: int, cfg: RenderConfig) -> str:
    """SVG of the universal tessellation's edges down to the given depth."""
    _, values, geodesics = _geodesic_table(q, cfg.depth)
    # Only b can be infinity: infinity sorts last and the ends differ.
    ends = values[geodesics]
    width = WIDTH
    if cfg.model == "halfplane":
        scale = width / (XMAX - XMIN)
        height = int(round(YMAX * scale))

        def to_page(x: float, y: float) -> tuple[float, float]:
            return ((x - XMIN) * scale, (YMAX - y) * scale)

        body = [
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="0" y1="{height}" x2="{width}" y2="{height}" '
            'stroke="black" stroke-width="1"/>',
        ]
        for a, b in ends.tolist():
            if b == math.inf:
                x, _ = to_page(a, 0.0)
                body.append(
                    f'<path d="M {_fmt(x)} {height} L {_fmt(x)} 0" fill="none" '
                    f'stroke="{STROKE}" stroke-width="1"/>'
                )
            else:
                x1, y1 = to_page(a, 0.0)
                x2, y2 = to_page(b, 0.0)
                r = abs(x2 - x1) / 2.0
                body.append(
                    f'<path d="M {_fmt(x1)} {_fmt(y1)} A {_fmt(r)} {_fmt(r)} 0 0 1 '
                    f'{_fmt(x2)} {_fmt(y2)}" fill="none" stroke="{STROKE}" '
                    'stroke-width="1"/>'
                )
        return _svg_document(width, height, body)

    # Disk model: sample in the half-plane, project pointwise.
    height = width
    radius = width * 0.48
    cx = cy = width / 2.0
    body = [
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    body += _disk_paths(ends, cx, cy, radius)
    return _svg_document(width, height, body)


def _disk_paths(ends: np.ndarray, cx: float, cy: float,
                radius: float) -> list[str]:
    """One disk-model path per row (a, b) of geodesic ends, b = inf for a
    vertical ray, through its SAMPLES points.

    All points are sampled and projected at once, on (G, SAMPLES) arrays.
    Every float comes from the same operations, in the same order, as a
    point sampled and projected on its own, so the text is the same.
    """
    vertical = np.isinf(ends[:, 1])
    xs = np.empty((len(ends), SAMPLES))
    ys = np.empty_like(xs)
    x1, x2 = ends[~vertical].T
    center, r = (x1 + x2) / 2.0, np.abs(x2 - x1) / 2.0
    xs[~vertical] = center[:, None] + r[:, None] * _COS
    ys[~vertical] = r[:, None] * _SIN
    xs[vertical] = ends[vertical, :1]
    ys[vertical] = _RAY
    # (z - i)/(z + i) sends i to 0 and the real line to the unit circle;
    # with z = x + iy it is (x + i(y - 1)) / (x + i(y + 1)).
    zi, wi = ys - 1.0, ys + 1.0
    xx = xs * xs
    norm = xx + wi * wi
    page = np.empty((len(ends), 2 * SAMPLES))
    page[:, 0::2] = cx + radius * ((xx + zi * wi) / norm)
    page[:, 1::2] = cy - radius * ((zi * xs - xs * wi) / norm)
    # The paths are the largest part of the document: free the samples,
    # and unpack the page one row at a time, while they are written.
    del xs, ys, zi, wi, xx, norm
    return [_DISK_PATH % tuple(row.tolist()) for row in page]


# ---------------------------------------------------------------------------
# Quotient graphs.
# ---------------------------------------------------------------------------


def render_quotient(p: HeckeParams, fmt: str = "dot") -> str:
    """DOT or schematic SVG of the coordinate graph."""
    graph = build_coordinate_graph(p)
    labels = coordinate_labels(p, coord_value_str)
    if fmt == "dot":
        lines = ["graph {"]
        for name in labels:
            lines.append(f'  "{name}";')
        for a, b in graph.edges:
            lines.append(f'  "{labels[a]}" -- "{labels[b]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt != "svg":
        raise ValueError(f"format must be dot or svg, got {fmt!r}")

    width = 640
    cx = cy = width / 2.0
    radius = width * 0.42
    count = graph.codes.size
    pos = [
        (cx + radius * math.cos(2 * math.pi * i / count - math.pi / 2),
         cy + radius * math.sin(2 * math.pi * i / count - math.pi / 2))
        for i in range(count)
    ]
    body = [f'<rect width="{width}" height="{width}" fill="white"/>']
    for a, b in graph.edges:
        body.append(
            f'<line x1="{_fmt(pos[a][0])}" y1="{_fmt(pos[a][1])}" '
            f'x2="{_fmt(pos[b][0])}" y2="{_fmt(pos[b][1])}" '
            'stroke="#777777" stroke-width="1"/>'
        )
    for i, (x, y) in enumerate(pos):
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#1a1a80"/>'
        )
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y - 6)}" font-size="9" '
            f'text-anchor="middle">{labels[i]}</text>'
        )
    return _svg_document(width, width, body)


# ---------------------------------------------------------------------------
# The 20-gon.
# ---------------------------------------------------------------------------

_PAIR_COLORS = [
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#9a6324", "#008080", "#808000",
]


def render_polygon(b: BoundarySequence, t: PairingTable) -> str:
    """Schematic regular 20-gon: corner pole names, classical side numbers,
    interior labels, and one stroke color per side pair."""
    num = len(b.pole_slots)
    if 2 * len(t.pairs) != num:
        raise ValueError(f"pairing has {2 * len(t.pairs)} sides, the polygon has {num}")
    p = b.params
    table = vertex_names(p)
    report = side_label_analysis(b)
    offset = report.alignment_offsets[0] if len(report.alignment_offsets) == 1 else 0

    width = 720
    cx = cy = width / 2.0
    radius = width * 0.40

    def corner_pos(j: int, rad: float = radius) -> tuple[float, float]:
        ang = -math.pi / 2 + 2 * math.pi * j / num
        return (cx + rad * math.cos(ang), cy + rad * math.sin(ang))

    color_of_side: dict[int, str] = {}
    for idx, (a, bb) in enumerate(t.pairs):
        color_of_side[a] = _PAIR_COLORS[idx % len(_PAIR_COLORS)]
        color_of_side[bb] = _PAIR_COLORS[idx % len(_PAIR_COLORS)]

    body = [f'<rect width="{width}" height="{width}" fill="white"/>']
    for span in range(num):
        # Classical side number of this span under the derived alignment.
        side = (span - offset) % num + 1
        x1, y1 = corner_pos(span)
        x2, y2 = corner_pos((span + 1) % num)
        color = color_of_side.get(side, "#000000")
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        body.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my - 8)}" font-size="11" '
            f'text-anchor="middle">{side}</text>'
        )
        body.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my + 14)}" font-size="10" '
            f'text-anchor="middle" fill="#555555">{report.designated[span]}</text>'
        )
    for j, slot in enumerate(b.pole_slots):
        x, y = corner_pos(j, radius * 1.08)
        name = table.name(b.slots[slot])
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" font-weight="bold" '
            f'text-anchor="middle" class="corner">{name}</text>'
        )
    center = table.name(p.n)  # the pole 1/0, code n, sits at the center
    body.append(
        f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="12" '
        f'text-anchor="middle">{center}</text>'
    )
    return _svg_document(width, width, body)
