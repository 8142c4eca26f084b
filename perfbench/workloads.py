"""The benchmark's workloads: hfmap operations and the checks on their answers.

An operation is one thing a user does: a CLI invocation through
``hfmap.cli.main``, or, in the sweep, one (q, n) problem carried through the
library's public functions.  ``run`` is the timed part.  ``check`` inspects
the result afterwards and raises WrongAnswer; it returns the canonical text
whose digest must match the one recorded in expected.json.  hfmap is
called through its modules, never through names imported from them, so
that a traced pass sees every call (see tracing.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import xml.parsers.expat
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable

from hfmap import cli, group, maps, polygon, verify

WORKLOADS = ("map-odd", "map-even", "sweep", "bring-search")

# Every odd n in 3..31 for each q: small problems through every layer of
# the map pipeline, including the coordinate model and coset-domain chi.
SWEEP_PAIRS = [(q, n) for q in (3, 4, 6) for n in range(3, 32, 2)]

BRING_CIRCUITS = 80_000


class WrongAnswer(Exception):
    """The operation completed but its answer fails a check."""


@dataclass(frozen=True)
class Checked:
    text: str  # canonical output, digested and compared with expected.json
    darts: int = 0
    circuits: int = 0


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongAnswer(msg)


def digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_op(argv: list[str], check: Callable[[str], Checked]) -> Op:
    def checked(result: tuple[int, str]) -> Checked:
        rc, out = result
        _require(rc == 0, f"exit code {rc}")
        return check(out)
    return Op(" ".join(argv), lambda: _cli(argv), checked)


def _check_invariants(q: int, n: int, order: int, v: int, e: int, f: int,
                      genus: int) -> None:
    """Closure = index formula, and V/E/F = darts/n, darts/2, darts/q.

    sigma = *T has every orbit of length n (T has order n mod n) and
    phi = *TS every orbit of length q (TS is elliptic of order q).
    """
    index = group.principal_congruence_index(group.HeckeParams(q, n))
    _require(order == index, f"closure has {order} elements, formula {index}")
    _require((v * n, 2 * e, f * q) == (order,) * 3,
             f"V/E/F {v}/{e}/{f} do not match {order} darts")
    _require(v - e + f == 2 - 2 * genus, f"genus {genus} disagrees with V-E+F")


def _map_op(q: int, n: int) -> Op:
    def check(out: str) -> Checked:
        got = json.loads(out)
        _require((got["q"], got["n"]) == (q, n), "wrong (q, n) echoed")
        _require(got["darts"] == got["group_order"], "darts != group order")
        _check_invariants(q, n, got["group_order"], got["vertices"], got["edges"],
                          got["faces"], got["genus"])
        return Checked(out, darts=got["darts"])
    return _cli_op(["map", "--q", str(q), "--n", str(n), "--json"], check)


def _pipeline(q: int, n: int) -> tuple:
    p = group.HeckeParams(q, n)
    g = group.enumerate_group(p)
    amap = maps.build_algebraic_map(g)
    inv = amap.invariants()
    graph = maps.build_coordinate_graph(p)
    rep = maps.correspondence_check(g, amap, graph)
    dom = polygon.coset_domain_check(g)
    return g.order, inv, graph, rep, dom


def _check_pipeline(q: int, n: int) -> Callable[[tuple], Checked]:
    def check(result: tuple) -> Checked:
        order, inv, graph, rep, dom = result
        _check_invariants(q, n, order, inv.vertices, inv.edges, inv.faces, inv.genus)
        chi = inv.vertices - inv.edges + inv.faces
        _require(dom.matches_map and dom.chi == chi,
                 f"coset-domain chi {dom.chi} != map chi {chi}")
        # Last, with the graph's size in the message: a known failure is
        # matched by its message, so that message pins what it gets right.
        _require(rep.ok and (len(graph.nodes), len(graph.edges)) == (inv.vertices, inv.edges),
                 f"correspondence: {'; '.join(rep.problems) or 'ok'}; coordinate graph "
                 f"has {len(graph.nodes)} nodes and {len(graph.edges)} edges")
        nodes = [(u.kind, u.num, u.den) for u in graph.nodes]
        summary = {
            "q": q, "n": n, "order": order, "invariants": vars(inv),
            "graph": digest(json.dumps([nodes, sorted(graph.edges)])),
            "correspondence": [rep.vertex_count, rep.edge_count],
            "coset_domain": vars(dom),
        }
        return Checked(json.dumps(summary, sort_keys=True), darts=order)
    return check


def _check_verify(out: str) -> Checked:
    lines = out.splitlines()
    _require(len(lines) == len(verify.CHECK_NAMES), f"{len(lines)} check lines")
    failed = [line for line in lines if not line.startswith("PASS")]
    _require(not failed, "verify: " + "; ".join(failed))
    return Checked(out)


def _check_circuits(out: str) -> Checked:
    lines = out.splitlines()
    _require(lines[-1] == f"# {BRING_CIRCUITS} circuits", f"footer {lines[-1]!r}")
    _require(len(lines) == BRING_CIRCUITS + 1, f"{len(lines) - 1} circuit lines")
    _require(all(line.count(",") == 11 for line in lines[:-1]),
             "a circuit is not 12 vertices long")
    return Checked(out, circuits=BRING_CIRCUITS)


def _check_polygon(out: str) -> Checked:
    lines = out.splitlines()
    _require("rule-check OK" in lines and "genus 4" in lines, "polygon summary wrong")
    return Checked(out)


def _check_svg(out: str) -> Checked:
    parser = xml.parsers.expat.ParserCreate()
    try:
        parser.Parse(out, True)
    except xml.parsers.expat.ExpatError as exc:
        raise WrongAnswer(f"SVG does not parse: {exc}") from None
    return Checked(out)


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass.  The seed shuffles the sweep's (q, n)
    pairs; the other workloads run in a fixed order, which keeps their peak
    memory from depending on the seed."""
    if workload == "map-odd":
        return [_map_op(4, 53)]
    if workload == "map-even":
        return [_map_op(4, 96), _map_op(6, 90)]
    if workload == "sweep":
        pairs = list(SWEEP_PAIRS)
        random.Random(seed).shuffle(pairs)
        ops = [Op(f"pipeline --q {q} --n {n}", lambda q=q, n=n: _pipeline(q, n),
                  _check_pipeline(q, n)) for q, n in pairs]
        return ops + [_cli_op(["verify"], _check_verify)]
    if workload == "bring-search":
        return [
            _cli_op(["circuit", "--q", "4", "--n", "5", "--search"], _check_circuits),
            _cli_op(["polygon"], _check_polygon),
            _cli_op(["render", "polygon"], _check_svg),
            _cli_op(["render", "universal", "--q", "4", "--depth", "12",
                     "--model", "disk"], _check_svg),
        ]
    raise ValueError(f"unknown workload {workload!r}")
