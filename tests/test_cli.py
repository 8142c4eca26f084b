import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import oracles
import pytest
from conftest import same_turn_cube

from hfmap import group, kernels, maps, verify
from hfmap.cli import main
from hfmap.coords import coord_value_str
from hfmap.group import HeckeParams


# A hexagon glued to the torus: sides 1-4, 2-5 and 3-6.
HEXAGON = "1 4\n2 5\n3 6\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_index(capsys):
    code, out, _ = run(capsys, "index", "--q", "4", "--n", "5")
    assert code == 0 and out == "120\n"
    code, out, _ = run(capsys, "index", "--q", "4", "--n", "3")
    assert code == 0 and out == "24\n"
    code, out, _ = run(capsys, "index", "--q", "4", "--n", "6", "--check")
    assert code == 0 and out == "96\ncheck OK\n"


def test_index_past_the_formula_bound_exits_2(capsys):
    """Trial division of a 30-digit prime would not finish: a modulus above
    INDEX_MAX_MODULUS is refused before it starts, with or without --check."""
    assert group.INDEX_MAX_MODULUS == 10**12
    for n in (10**12 + 1, 100000000000000000000000000319):
        message = (
            f"error: modulus {n} outside supported range [3, 1000000000000] of the index formula\n"
        )
        for argv in (f"index --q 4 --n {n}", f"index --q 6 --n {n} --check"):
            code, out, err = run(capsys, *argv.split())
            assert code == 2 and out == ""
            assert err == message
    # The largest prime in range is factored within the bound.
    n = 999999999989
    code, out, _ = run(capsys, "index", "--q", "4", "--n", str(n))
    assert code == 0 and out == f"{n**3 - n}\n"


def test_index_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["index", "--q", "5"])
    assert exc.value.code == 2


def test_closure_beyond_index_formula_exits_1(capsys, monkeypatch):
    # A formula one short of the true order: the closure must not fit.
    monkeypatch.setattr(group, "principal_congruence_index", lambda p: 119)
    message = "error: group closure for q=4, n=5 exceeds the index formula's 119 elements\n"
    for argv in ("map --q 4 --n 5", "index --q 4 --n 5 --check"):
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err == message


def test_closure_short_of_index_formula_exits_1(capsys, monkeypatch):
    # A formula one above the true order: the closure ends short of it.
    monkeypatch.setattr(group, "principal_congruence_index", lambda p: 121)
    message = (
        "error: group closure for q=4, n=5 found 120 elements, "
        "fewer than the index formula's 121\n"
    )
    for argv in ("map --q 4 --n 5", "index --q 4 --n 5 --check"):
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err == message


@pytest.mark.parametrize(
    "detail,line",
    [
        ("Unable to allocate 52.5 MiB", "error: out of memory: Unable to allocate 52.5 MiB"),
        ("", "error: out of memory"),
    ],
)
def test_out_of_memory_exits_2(capsys, monkeypatch, detail, line):
    def exhausted(*args):
        raise MemoryError(detail)

    monkeypatch.setattr(kernels, "slot_product_keys", exhausted)
    code, out, err = run(capsys, "map", "--q", "4", "--n", "5")
    assert code == 2 and out == ""
    assert err == line + "\n"


def test_out_of_memory_in_verify_exits_2(capsys, monkeypatch):
    # Running out of memory is not a failed check.
    def exhausted(q, n):
        raise MemoryError("Unable to allocate 1.00 MiB")

    monkeypatch.setattr(verify, "cached_group", exhausted)
    code, out, err = run(capsys, "verify")
    assert code == 2 and out == ""
    assert err == "error: out of memory: Unable to allocate 1.00 MiB\n"


def test_address_space_cap_exits_2(tmp_path):
    """The documented command, run as a plain script: no PYTHONPATH, and
    a working directory outside the checkout."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/statm"):
        pytest.skip("RLIMIT_AS or /proc/self/statm unavailable")
    script = Path(__file__).resolve().parent / "memory_capped.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(script), "map", "--q", "4", "--n", "151", "--json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_map_json(capsys):
    code, out, _ = run(capsys, "map", "--q", "4", "--n", "5", "--json")
    assert code == 0
    assert json.loads(out) == {
        "q": 4, "n": 5, "darts": 120, "vertices": 24, "edges": 60,
        "faces": 30, "genus": 4, "group_order": 120,
    }
    code, out, _ = run(capsys, "map", "--q", "4", "--n", "3", "--json")
    assert json.loads(out)["genus"] == 0
    code, out, _ = run(capsys, "map", "--q", "3", "--n", "5", "--json")
    assert json.loads(out)["genus"] == 0


def test_map_with_a_failing_rule_exits_1(capsys, monkeypatch):
    """The certificate runs on every modulus, even n too: a rule that holds
    on no pair fails it with one error line."""
    def nowhere(u, v, p):
        return np.zeros(np.broadcast(u, v).shape, dtype=bool)

    monkeypatch.setattr(maps, "adjacent_codes", nowhere)
    code, out, err = run(capsys, "map", "--q", "4", "--n", "6")
    assert code == 1 and out == ""
    assert err.startswith("error: darts that project to non-adjacent coordinates: 96, ")
    assert err.count("\n") == 1


def test_map_with_a_corrupted_block_head_exits_1(capsys, monkeypatch):
    """A block head that is no cusp fails the certificate: exit 1, not the
    usage error's 2, with one error line that names the head."""
    build = group.enumerate_group

    def corrupted(p):
        built = build(p)
        rows = built.rows.copy()
        rows[p.n] = [2, 1, 0, 0, 1]  # a kind digit that names no kind
        return group.FiniteHeckeGroup(p, rows, built.alpha)

    monkeypatch.setattr("hfmap.cli.enumerate_group", corrupted)
    code, out, err = run(capsys, "map", "--q", "4", "--n", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert err.endswith(
        "block heads that are no cusp, the first 5: row [2, 1, 0, 0, 1] has kind 2; "
        "corrupted element\n"
    )
    assert err.count("\n") == 1


def test_map_counts_each_orbit_kind_once(capsys, monkeypatch):
    """One map run labels no orbit: sigma is a block rotation, alpha pairs
    its darts, and every face has ord(R) darts."""
    counted = []
    orbit_labels = maps._orbit_labels

    def counting(perm):
        counted.append(perm.copy())
        return orbit_labels(perm)

    monkeypatch.setattr(maps, "_orbit_labels", counting)
    code, _, _ = run(capsys, "map", "--q", "4", "--n", "5")
    assert code == 0
    assert counted == []


def test_coords_names(capsys):
    code, out, _ = run(capsys, "coords", "--q", "4", "--n", "5", "--names")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 24
    assert lines[0] == "A1: 1/(0sqrt2)"
    assert "F1: 3/(1sqrt2)" in lines  # customary representative, as printed
    code, out, _ = run(capsys, "coords", "--q", "3", "--n", "5")
    assert code == 0 and len(out.strip().splitlines()) == 12


def test_circuit_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "circuit", "--verify", "bring")
    assert code == 0 and out == "OK\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("H2,C2,H2,C2,H2,C2,H2,C2,H2,C2,H2,C2")
    code, _, err = run(capsys, "circuit", "--verify", str(bad))
    assert code == 1 and "adjacency" in err


def test_circuit_search(capsys):
    code, out, _ = run(
        capsys, "circuit", "--search", "--start", "H2", "--length", "4",
        "--poles", "0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# ")
    assert int(lines[-1].split()[1]) == len(lines) - 1 > 0


@pytest.mark.parametrize("q,n,search", [
    (4, 6, "--start A:1/0 --length 4 --poles 0"),  # raw kind:num/den triples
    (4, 5, "--length 6 --poles 0,3"),  # vertex names
])
def test_searched_circuits_pass_verify(capsys, tmp_path, q, n, search):
    """Every line of a search listing, written to a file, reads back as a
    circuit that ``circuit --verify`` accepts."""
    qn = ["--q", str(q), "--n", str(n)]
    code, out, _ = run(capsys, "circuit", *qn, "--search", *search.split())
    lines = out.splitlines()
    assert code == 0 and len(lines) > 1 and lines[-1] == f"# {len(lines) - 1} circuits"
    path = tmp_path / "circuit.txt"
    for line in lines[:-1]:
        path.write_text(line + "\n")
        assert run(capsys, "circuit", *qn, "--verify", str(path)) == (0, "OK\n", "")


def test_polygon(capsys, tmp_path):
    hexagon = tmp_path / "hexagon.txt"
    hexagon.write_text(HEXAGON)
    code, out, err = run(capsys, "polygon", "--classes", "--genus", "--pairing", str(hexagon))
    assert (code, out, err) == (0, "class 1 3 5\nclass 2 4 6\ngenus 1\n", "")
    code, out, _ = run(capsys, "polygon", "--classes")
    assert code == 0
    assert out.splitlines() == [
        "class 1 3 5 7 9 11 13 15 17 19",
        "class 2 6 10 14 18",
        "class 4 8 12 16 20",
    ]
    code, out, _ = run(capsys, "polygon", "--genus")
    assert code == 0 and out == "genus 4\n"
    code, out, _ = run(capsys, "polygon", "--rule-check")
    assert code == 0 and out == "rule-check OK\n"


def test_polygon_rejects_broken_pairing(capsys, tmp_path):
    path = tmp_path / "pairing.txt"
    path.write_text("\n".join(f"{k} {k + 10}" for k in range(1, 11)) + "\n")
    code, out, _ = run(capsys, "polygon", "--rule-check", "--pairing", str(path))
    assert code == 1 and "FAIL" in out
    # A pairing on another number of sides fails the rule of the 20-gon.
    path.write_text(HEXAGON)
    code, out, _ = run(capsys, "polygon", "--pairing", str(path))
    assert code == 1 and out == "rule-check FAIL\n"
    # An empty table pairs no sides at all.
    path.write_text("# no pairs\n")
    code, out, err = run(capsys, "polygon", "--pairing", str(path))
    assert (code, out) == (2, "")
    assert err == "error: pairs are not a perfect matching of the sides\n"


def test_render_to_file(capsys, tmp_path):
    out_svg = tmp_path / "u.svg"
    code, _, _ = run(capsys, "render", "universal", "--q", "4", "--depth", "2",
                     "--model", "disk", "--out", str(out_svg))
    assert code == 0
    ET.fromstring(out_svg.read_text())
    out_dot = tmp_path / "g.dot"
    code, _, _ = run(capsys, "render", "quotient", "--q", "4", "--n", "3",
                     "--out", str(out_dot))
    assert code == 0
    assert out_dot.read_text().startswith("graph {")
    out_poly = tmp_path / "p.svg"
    code, _, _ = run(capsys, "render", "polygon", "--out", str(out_poly))
    assert code == 0
    ET.fromstring(out_poly.read_text())


def test_deterministic_stdout(capsys):
    _, first, _ = run(capsys, "coords", "--q", "4", "--n", "5")
    _, second, _ = run(capsys, "coords", "--q", "4", "--n", "5")
    assert first == second
    _, first, _ = run(capsys, "render", "quotient", "--q", "3", "--n", "5")
    _, second, _ = run(capsys, "render", "quotient", "--q", "3", "--n", "5")
    assert first == second


def test_verify_suite(capsys, tmp_path):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)

    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 10 and all(item["ok"] for item in payload)

    corrupted = tmp_path / "pairing.txt"
    corrupted.write_text("2 9\n5 6\n10 13\n14 17\n18 1\n3 12\n7 16\n11 20\n15 4\n19 8\n")
    code, out, err = run(capsys, "verify", "--pairing", str(corrupted))
    assert code == 1
    assert any(line.startswith("FAIL  pairing-genus") for line in out.splitlines())


def test_verify_fails_a_cube_of_the_wrong_turn(capsys, monkeypatch):
    """The cube check compares rotation systems, not graphs: with the cube's
    graph turned the same way at every vertex, only the cube check fails."""
    monkeypatch.setattr(maps, "cube_map", same_turn_cube)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    failed = [line for line in out.splitlines() if not line.startswith("PASS")]
    assert len(failed) == 1 and failed[0].startswith("FAIL  cube ")


@pytest.mark.parametrize(
    "start,message",
    [
        ("A:1", "error: vertex 'A:1' is not of the form kind:num/den"),
        ("", "error: --start must give exactly one vertex, got ''"),
        ("H2,E1", "error: --start must give exactly one vertex, got 'H2,E1'"),
    ],
)
def test_circuit_search_rejects_bad_start(capsys, start, message):
    code, out, err = run(capsys, "circuit", "--search", "--start", start,
                         "--length", "4", "--poles", "0")
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_circuit_file_with_unknown_name(capsys, tmp_path):
    path = tmp_path / "circuit.txt"
    path.write_text("H2,ZZ,F2")
    code, out, err = run(capsys, "circuit", "--verify", str(path))
    assert code == 2 and out == ""
    assert err == "error: unknown vertex name 'ZZ'\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        ("map --n 2", "error: modulus must be >= 3, got 2"),
        ("map --n 235", "error: modulus 235 outside supported range [3, 234]"),
        ("index --q 4 --n 300 --check",
         "error: modulus 300 outside supported range [3, 234]"),
        ("coords --q 3 --n 5 --names", "error: no name table for q=3, n=5"),
        ("circuit", "error: nothing to do: pass --verify or --search"),
        ("circuit --search --length 17",
         "error: circuit search length 17 exceeds the bound 16"),
        ("circuit --search --length 0",
         "error: circuit search length 0 must be at least 1"),
        ("circuit --search --length -2",
         "error: circuit search length -2 must be at least 1"),
        ("circuit --search --poles 99", "error: pole position 99 is outside 0..11"),
        ("circuit --search --poles 0,3,-1", "error: pole position -1 is outside 0..11"),
        ("circuit --search --poles x",
         "error: --poles must be comma-separated integers, got 'x'"),
        ("circuit --search --length 14 --poles 0",
         "error: circuit search would list more than 4194304 circuits"),
        ("circuit --q 4 --n 3 --verify bring",
         "error: the built-in circuit 'bring' is on the q=4, n=5 map"),
        ("render polygon --pairing {hexagon}",
         "error: pairing has 6 sides, the polygon has 20"),
        ("render universal --depth 13", "error: depth 13 exceeds the bound 12"),
        ("render universal --depth -1", "error: depth must be >= 0"),
        ("coords --q 4 --n 1001", "error: modulus 1001 outside supported range [3, 234]"),
        ("circuit --q 4 --n 1001 --search --start A:1/0 --length 16 --poles 0,4,8,12",
         "error: modulus 1001 outside supported range [3, 234]"),
        ("render quotient --q 4 --n 1001",
         "error: modulus 1001 outside supported range [3, 234]"),
        ("circuit --q 6 --n 9 --search --start A:3/1 --length 4 --poles 0",
         "error: vertex 'A:3/1': (3, 1) is not a coordinate mod 9: "
         "3 divides the kind-A numerator"),
        # An empty path would name the current directory, or stdout for --out.
        ("polygon --pairing ''", "error: --pairing needs a path, got ''"),
        ("verify --pairing ''", "error: --pairing needs a path, got ''"),
        ("render polygon --pairing ''", "error: --pairing needs a path, got ''"),
        ("verify --circuit ''", "error: --circuit needs a path, got ''"),
        ("circuit --verify ''", "error: --verify needs a path, got ''"),
        ("render quotient --q 4 --n 5 --out ''", "error: --out needs a path, got ''"),
        ("render universal --out ''", "error: --out needs a path, got ''"),
        ("render polygon --out ''", "error: --out needs a path, got ''"),
        # --verify reads none of the search options.
        ("circuit --verify bring --start ZZ --length 99 --poles x",
         "error: --verify takes no search options, got --start --length --poles"),
        ("circuit --verify bring --start H2",
         "error: --verify takes no search options, got --start"),
        ("circuit --verify {hexagon} --length 12",
         "error: --verify takes no search options, got --length"),
        ("circuit --verify bring --poles 0,3,6,9",
         "error: --verify takes no search options, got --poles"),
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, argv, message):
    hexagon = tmp_path / "hexagon.txt"
    hexagon.write_text(HEXAGON)
    code, out, err = run(capsys, *shlex.split(argv.format(hexagon=hexagon)))
    assert code == 2 and out == ""
    assert err == message + "\n"


# Options that the render target or circuit mode does not read, and the
# last line of argparse's usage error for each.
FOREIGN_OPTIONS = {
    "render universal --n 7": "hfmap: error: unrecognized arguments: --n 7",
    "render universal --q 4 --n 77 --format svg --pairing /nonexistent --depth 1":
        "hfmap: error: unrecognized arguments: --n 77 --format svg --pairing /nonexistent",
    "render quotient --depth 3": "hfmap: error: unrecognized arguments: --depth 3",
    "render polygon --q 4 --n 5": "hfmap: error: unrecognized arguments: --q 4 --n 5",
    "render polygon --q 3 --n 7": "hfmap: error: unrecognized arguments: --q 3 --n 7",
    "circuit --verify bring --search":
        "hfmap circuit: error: argument --search: not allowed with argument --verify",
}


@pytest.mark.parametrize("argv", list(FOREIGN_OPTIONS))
def test_foreign_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith("usage: ")
    assert out.err.endswith("\n" + FOREIGN_OPTIONS[argv] + "\n")


@pytest.mark.parametrize("target", ["universal", "quotient", "polygon"])
def test_render_help_lists_only_the_target_options(capsys, target):
    reads = {
        "universal": ["--q", "--depth", "--model", "--out"],
        "quotient": ["--q", "--n", "--format", "--out"],
        "polygon": ["--pairing", "--out"],
    }
    with pytest.raises(SystemExit) as exc:
        main(["render", target, "--help"])
    assert exc.value.code == 0
    options = re.findall(r"^ +(?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    assert options == ["--help", *reads[target]]


def test_empty_circuit_file_fails_verify(capsys):
    code, out, _ = run(capsys, "verify", "--circuit", os.devnull)
    assert code == 1
    assert "FAIL  circuit-boundary   circuit fails adjacency validation" in out.splitlines()


def test_coords_on_even_modulus(capsys):
    p = HeckeParams(4, 6)
    code, out, err = run(capsys, "coords", "--q", "4", "--n", "6")
    want = "".join(coord_value_str(oracles.code_of(u, p), p) + "\n"
                   for u in oracles.enumerate_coords(p))
    assert (code, out, err) == (0, want, "")
    assert len(out.splitlines()) == 16


def test_missing_pairing_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "polygon", "--pairing", str(missing))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize("command", ["polygon", "verify", "render polygon"])
def test_pairing_with_a_non_integer_side_exits_2(capsys, tmp_path, command):
    path = tmp_path / "pairing.txt"
    path.write_text("# one bad line\n1 x\n")
    code, out, err = run(capsys, *command.split(), "--pairing", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2: side numbers must be integers, got '1 x'\n"


def test_closed_stdout_pipe_exits_141():
    """A reader that stops early (``| head -1``) ends the listing quietly,
    with the exit status of a process killed by SIGPIPE."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # About 2.5 MB of circuits, far more than a pipe buffers.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hfmap.cli", "circuit", "--search"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert first == b"H2,C1,I2,A1,A2,D1,H2,C1,I2,A1,A2,D1\n"
    assert err == b""
