"""Byte-equality gate on the CLI: stdout, stderr and exit code per invocation.

``golden_cli.json`` holds the sha256 of stdout and of stderr plus the exit
code of each invocation below.  A refactor that keeps the CLI's behaviour
keeps every entry.  After a deliberate change of output, re-record with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import io
import json
from hashlib import sha256
from pathlib import Path

import pytest

from hfmap.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

INVOCATIONS = [
    "map --q 4 --n 5",
    "map --q 4 --n 5 --json",
    "map --q 3 --n 5 --json",
    "map --q 6 --n 5 --json",
    "map --q 3 --n 7",
    "map --q 4 --n 6 --json",
    "map --q 6 --n 9",
    "index --q 4 --n 6 --check",
    "coords --q 4 --n 5",
    "coords --q 4 --n 5 --names",
    "coords --q 3 --n 5",
    "coords --q 6 --n 6",
    "circuit --verify bring",
    "circuit --search --length 6 --poles 0,3",
    "circuit --q 4 --n 5 --search",
    "circuit --q 4 --n 6 --search --start A:1/0 --length 4 --poles 0",
    "polygon",
    "render universal --q 4 --depth 3 --model disk",
    "render universal --q 4 --depth 12 --model disk",
    "render universal --q 6 --depth 12",
    "render universal --q 3 --depth 12 --model disk",
    "render quotient --q 4 --n 3",
    "render quotient --q 4 --n 6",
    "render polygon",
    "verify",
    "verify --json",
]


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def run_invocation(argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return {"exit": code, "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue())}


@pytest.mark.parametrize("argv", INVOCATIONS)
def test_cli_output_is_byte_identical(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_invocation(argv) == golden[argv]


def test_golden_file_covers_the_invocations():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(INVOCATIONS)


if __name__ == "__main__":
    record = {argv: run_invocation(argv) for argv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} invocations in {GOLDEN}")
