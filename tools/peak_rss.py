"""Peak resident memory of one subaddlab command, run in a child process.

    python tools/peak_rss.py [SUBADDLAB ARGS...]      (e.g. report --seed 2)

Runs `python -m subaddlab ARGS` with this interpreter and prints its exit
code and its peak resident size, ru_maxrss of the waited-for children, in
MiB.  The figure is informational: nothing compares it with a threshold,
and the script exits 0 whatever the command's exit code.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv) -> int:
    cmd = [sys.executable, "-m", "subaddlab", *argv[1:]]
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"subaddlab {' '.join(argv[1:])}: exit {rc}, peak RSS {peak:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
