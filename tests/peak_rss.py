"""Run a command with its stdout passed through, and fail when its peak
resident set size reaches a bound in MB.

    python tests/peak_rss.py 550 timeout 120 hfmap map --q 4 --n 233 --json

The peak is ru_maxrss over the waited-for children, which Linux reports in
KiB, so a command run under ``timeout`` is covered too.  The peak goes to
stderr.  Exits with the command's code, or 1 when that is 0 and the peak
is at or above the bound.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound_mb, command = float(argv[0]), argv[1:]
    code = subprocess.run(command, check=False).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB, bound {bound_mb:.0f} MB", file=sys.stderr)
    if code == 0 and peak_mb >= bound_mb:
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
