"""Peak resident memory and time of one subaddlab command, run in a child process.

    python tools/peak_rss.py [SUBADDLAB ARGS...]      (e.g. report --seed 2)

Runs `python -m subaddlab ARGS` with this interpreter and prints its exit
code, its wall seconds, its CPU seconds (ru_utime + ru_stime) and its peak
resident size (ru_maxrss) in MiB, each from the rusage of the waited-for
children.  The figures are informational: nothing compares them with a
threshold, and the script exits 0 whatever the command's exit code.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv) -> int:
    cmd = [sys.executable, "-m", "subaddlab", *argv[1:]]
    start = time.perf_counter()
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    print(
        f"subaddlab {' '.join(argv[1:])}: exit {rc}, wall {wall:.2f} s, "
        f"CPU {usage.ru_utime + usage.ru_stime:.2f} s, peak RSS {peak:.1f} MiB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
