"""Command-line surface: index, map, coords, circuit, polygon, render, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error or out of
memory, 141 stdout closed by its reader.  Identical invocations produce
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import coords as C
from . import maps as M
from . import polygon as P
from . import render as R
from . import verify as V
from .group import GroupCheckError, HeckeParams, enumerate_group, principal_congruence_index


# Circuits formatted and written per block: one write per block, and the
# text of one block alive at a time.
CIRCUIT_BLOCK = 1 << 13

# The options only ``circuit --search`` reads, with their defaults.
SEARCH_DEFAULTS = {"start": "H2", "length": 12, "poles": "0,3,6,9"}


class VerificationFailure(Exception):
    pass


def _params(args: argparse.Namespace) -> HeckeParams:
    return HeckeParams(args.q, args.n)


def _path(option: str, value: str) -> Path:
    """The path given to option; an empty one would name the current directory."""
    if not value:
        raise ValueError(f"{option} needs a path, got ''")
    return Path(value)


def cmd_index(args: argparse.Namespace) -> None:
    p = _params(args)
    idx = principal_congruence_index(p)
    lines = [str(idx)]
    if args.check:
        enumerate_group(p)
        lines.append("check OK")
    print("\n".join(lines))


def cmd_map(args: argparse.Namespace) -> None:
    p = _params(args)
    group = enumerate_group(p)
    amap = M.build_algebraic_map(group)
    inv = amap.invariants()
    rep = M.projection_certificate(group, amap)
    if not rep.ok:
        raise VerificationFailure("; ".join(rep.problems))
    if args.json:
        print(M.invariants_json(p, inv, group.order))
    else:
        print(f"darts    {inv.darts}")
        print(f"vertices {inv.vertices}")
        print(f"edges    {inv.edges}")
        print(f"faces    {inv.faces}")
        print(f"genus    {inv.genus}")
        print(f"valency  {inv.vertex_valency}")
        print(f"face_sz  {inv.face_size}")


def cmd_coords(args: argparse.Namespace) -> None:
    p = _params(args)
    if args.names:
        table = C.vertex_names(p)
        for name in table.names():
            print(f"{name}: {table.printed_value(name)}")
        return
    for u in C.enumerate_coords(p):
        print(C.coord_value_str(u, p))


def _load_circuit(option: str, spec: str, p: HeckeParams) -> P.Circuit:
    if spec == "bring":
        if (p.q, p.n) != (4, 5):
            raise ValueError("the built-in circuit 'bring' is on the q=4, n=5 map")
        return P.bring_circuit()
    return P.parse_circuit_text(_path(option, spec).read_text(encoding="utf-8"), p)


def cmd_circuit(args: argparse.Namespace) -> None:
    p = _params(args)
    given = [f"--{name}" for name in SEARCH_DEFAULTS if name in vars(args)]
    if args.verify is not None:
        if given:
            raise ValueError(f"--verify takes no search options, got {' '.join(given)}")
        circuit = _load_circuit("--verify", args.verify, p)
        if not P.validate_circuit(circuit, p):
            raise VerificationFailure("circuit fails adjacency validation")
        print("OK")
        return
    if not args.search:
        raise ValueError("nothing to do: pass --verify or --search")
    for name, value in SEARCH_DEFAULTS.items():
        vars(args).setdefault(name, value)
    start = P.parse_circuit_text(args.start, p).seq
    if len(start) != 1:
        raise ValueError(f"--start must give exactly one vertex, got {args.start!r}")
    try:
        poles = {int(x) for x in args.poles.split(",") if x.strip() != ""}
    except ValueError:
        raise ValueError(
            f"--poles must be comma-separated integers, got {args.poles!r}"
        ) from None
    found = P.search_circuits(start[0], args.length, poles, p)
    labels = P.circuit_labels(p)
    for i in range(0, len(found), CIRCUIT_BLOCK):
        sys.stdout.write(P.format_circuit_text(found[i:i + CIRCUIT_BLOCK], labels))
    print(f"# {len(found)} circuits")


def _load_pairing(path: str | None) -> P.PairingTable:
    if path is None:
        return P.bring_side_pairing()
    return P.parse_pairing_text(_path("--pairing", path).read_text(encoding="utf-8"))


def cmd_polygon(args: argparse.Namespace) -> None:
    pairing = _load_pairing(args.pairing)
    wants_all = not (args.classes or args.genus or args.rule_check)
    if args.rule_check or wants_all:
        ok = P.pairing_rule_check(pairing)
        print(f"rule-check {'OK' if ok else 'FAIL'}")
        if not ok:
            raise VerificationFailure("side pairing violates the pairing rule")
    part = P.vertex_classes(pairing)
    if args.classes or wants_all:
        for cls in part.classes:
            print("class " + " ".join(str(c) for c in sorted(cls)))
    if args.genus or wants_all:
        print(f"genus {part.genus}")


def cmd_render(args: argparse.Namespace) -> None:
    out = None if args.out is None else _path("--out", args.out)
    text = args.draw(args)
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def cmd_verify(args: argparse.Namespace) -> None:
    circuit = None
    if args.circuit is not None:
        circuit = _load_circuit("--circuit", args.circuit, HeckeParams(4, 5))
    results = V.run_checks(circuit=circuit, pairing=_load_pairing(args.pairing))
    if args.json:
        print(json.dumps(
            [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
        ))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:18s} {r.detail}")
    if not all(r.ok for r in results):
        raise VerificationFailure("verification suite failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfmap",
        description="Hecke groups modulo n, Farey coordinates, and their maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qn(sp, q_default=4, n_default=5):
        sp.add_argument("--q", type=int, default=q_default, choices=(3, 4, 6))
        sp.add_argument("--n", type=int, default=n_default)

    sp = sub.add_parser("index", help="print the subgroup index formula value")
    add_qn(sp)
    sp.add_argument("--check", action="store_true",
                    help="also enumerate the group and compare")
    sp.set_defaults(fn=cmd_index)

    sp = sub.add_parser("map", help="print map invariants")
    add_qn(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_map)

    sp = sub.add_parser("coords", help="list coordinates mod n")
    add_qn(sp)
    sp.add_argument("--names", action="store_true",
                    help="use the customary vertex names")
    sp.set_defaults(fn=cmd_coords)

    sp = sub.add_parser("circuit", help="verify or search circuits")
    add_qn(sp)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--verify", metavar="bring|FILE",
                      help="validate the built-in circuit or a circuit file")
    mode.add_argument("--search", action="store_true")
    # Absent from the namespace unless given, so that cmd_circuit can
    # refuse them with --verify; their defaults are SEARCH_DEFAULTS.
    sp.add_argument("--start", default=argparse.SUPPRESS)
    sp.add_argument("--length", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--poles", default=argparse.SUPPRESS,
                    help="comma-separated pole positions")
    sp.set_defaults(fn=cmd_circuit)

    sp = sub.add_parser("polygon", help="side pairing, corner classes, genus")
    sp.add_argument("--classes", action="store_true")
    sp.add_argument("--genus", action="store_true")
    sp.add_argument("--rule-check", action="store_true")
    sp.add_argument("--pairing", metavar="FILE",
                    help="pairing table file (lines 'i j')")
    sp.set_defaults(fn=cmd_polygon)

    sp = sub.add_parser("render", help="emit SVG/DOT documents")
    targets = sp.add_subparsers(dest="what", required=True)
    tp = targets.add_parser("universal", help="SVG of the universal tessellation")
    tp.add_argument("--q", type=int, default=4, choices=(3, 4, 6))
    tp.add_argument("--depth", type=int, default=4)
    tp.add_argument("--model", choices=("halfplane", "disk"), default="halfplane")
    tp.set_defaults(draw=lambda a: R.render_universal(
        a.q, R.RenderConfig(model=a.model, depth=a.depth)))
    tp = targets.add_parser("quotient", help="DOT or SVG of the coordinate graph")
    add_qn(tp)
    tp.add_argument("--format", choices=("svg", "dot"), default="dot")
    tp.set_defaults(draw=lambda a: R.render_quotient(_params(a), a.format))
    tp = targets.add_parser("polygon", help="SVG of Bring's 20-gon")
    tp.add_argument("--pairing", metavar="FILE")
    tp.set_defaults(draw=lambda a: R.render_polygon(
        P.boundary_from_circuit(P.bring_circuit(), HeckeParams(4, 5)),
        _load_pairing(a.pairing)))
    for tp in targets.choices.values():
        tp.add_argument("--out", metavar="PATH")
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("verify", help="run the whole verification suite")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--pairing", metavar="FILE")
    sp.add_argument("--circuit", metavar="FILE")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point fd 1 at devnull so that the final
        # flush at exit does not raise again, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (VerificationFailure, GroupCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
