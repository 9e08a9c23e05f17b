"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one `subaddlab report` process from the source tree it is started in,
then checks that the recorded digests give a fail ratio of 0, and that a
corrupted reference digest, and a changed seeded output, each drive the
fail ratio above 0.  Exits 0 when all three hold.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import run


def fail_ratio(checks: list) -> float:
    return sum(not ok for _, ok in checks) / len(checks)


def main() -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "subaddlab", "cli.py")):
        print("error: run from the root of a subaddlab source tree", file=sys.stderr)
        return 2
    os.makedirs(".bench_tmp", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=".bench_tmp")
    try:
        args = run.workload_args("report", run.WORKLOAD_SEEDS[0])
        first = run.launch(src, workdir, "run0", False, args)
        digests = run.load_digests()
        clean = run.check_outputs("report", [first], digests)

        corrupted = dict(digests, **{"probe.csv": "0" * 64})
        bad_digest = run.check_outputs("report", [first], corrupted)

        # a second "process" whose seeded output differs from the first
        second = dict(first, outdir=os.path.join(workdir, "run1"))
        shutil.copytree(first["outdir"], second["outdir"])
        with open(os.path.join(second["outdir"], "simulate.csv"), "a") as fh:
            fh.write("0,0,0,false\n")
        bad_simulate = run.check_outputs("report", [first, second], digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [
        ("recorded digests: fail_ratio == 0", fail_ratio(clean) == 0),
        ("corrupted digest: fail_ratio > 0", fail_ratio(bad_digest) > 0),
        ("changed simulate.csv: fail_ratio > 0", fail_ratio(bad_simulate) > 0),
    ]
    for name, ok in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"fail_ratio: clean {fail_ratio(clean):.4g} of {len(clean)} checks, "
          f"corrupted digest {fail_ratio(bad_digest):.4g} of {len(bad_digest)}, "
          f"changed simulate.csv {fail_ratio(bad_simulate):.4g} of {len(bad_simulate)}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
