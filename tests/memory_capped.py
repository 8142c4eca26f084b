"""Run the hfmap CLI with its address space capped at current use + 64 MiB.

    python tests/memory_capped.py map --q 4 --n 233 --json

The cap is RLIMIT_AS, set after hfmap.cli and numpy are imported, so it is
the command itself that runs out of memory.  Exits with the CLI's code.
hfmap is imported from the src/ of the checkout that holds this script, so
it runs without an install and from any directory.  Linux only: the
current use is read from /proc/self/statm.
"""

import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from hfmap.cli import main  # noqa: E402

HEADROOM = 64 << 20


def capped_main(argv: list[str]) -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        used = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = used + HEADROOM
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return main(argv)


if __name__ == "__main__":
    raise SystemExit(capped_main(sys.argv[1:]))
