"""Benchmark of the subaddlab command line: one workload per run.

    python3 bench/run.py --workload report|exact_core|mc_tail \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree: it runs `src/subaddlab` from there,
one fresh process at a time, and never an installed copy.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced processes and reports the per-layer metrics and the tracing overhead.
Times are scaled to a fixed reference speed of the CPU, probed while each
child runs (README.md, "Noise").  Every run checks the outputs.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  A fuller record (quartiles, sample counts, unscaled
times, machine, checks) goes to .bench_out/.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

MC_TRIALS = 2_000_000

# Seeded verdicts are statistical (3-sigma and chi-square tests), so a small
# share of seeds fails one by chance (seed 1 fails mc_agreement).  A run maps
# --seed onto these seeds, on each of which every verdict of `report` and
# `mc_tail` passes.
WORKLOAD_SEEDS = tuple(range(2, 18))

SETUP_PROBES = 16  # import-only processes per untraced run, for setup_s
MIN_SAMPLES = 2  # measured processes per run, even past --seconds
CPU_LIMIT_S = 100  # a child that spins longer is killed

# The reported times are scaled to a fixed machine speed: the speed at which
# speed_probe() takes REF_PROBE_S CPU seconds (its median on the 2-core
# reference machine).  See "Noise" in README.md.
REF_PROBE_S = 0.00088
PROBE_GAP_S = 0.02  # the parent probes the speed once per this interval

# the JSON reports each workload must write; a missing one fails a check
EXPECTED_JSON = {
    "report": ("alpha", "verify", "growth", "blowup", "maximal", "probe",
               "sato", "simulate", "summary"),
    "exact_core": ("verify",),
    "mc_tail": ("simulate",),
}

# report outputs that depend on no seed; their digests are in digests.json
SEED_FREE_CSV = ("alpha.csv", "probe.csv", "maximal.csv", "sato.csv")

VERIFY_CHECKS = (
    "exact_table", "closed_form_vs_convolution", "subadditivity",
    "normalized_monotonicity", "tail_identity", "asymptotic_constant",
    "backend_agreement", "pgf_point_checks", "barycenter_residual_zero",
    "cesaro_identities", "operator_subadditivity", "semigroup_identity",
    "normalized_decrease", "sato_closed_form", "sato_norms", "normalized_decay",
    "norm_upper_bound", "contraction_bound", "growth_slopes", "blowup_monotone",
    "pointwise_divergence", "probe_positive", "maximal_growth", "mc_agreement",
)
EXPERIMENTS = ("growth_curve", "blowup_curve", "pointwise_divergence",
               "lower_bound_probe", "maximal_ratio_T")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def workload_args(name: str, seed: int) -> list:
    if name == "report":
        return ["report", "--seed", str(seed)]
    if name == "exact_core":
        return ["verify", "--suite", "core"]  # unseeded suite
    if name == "mc_tail":
        return ["simulate", "--fn", "power", "--beta", "0.2", "--n", "8", "--k", "0",
                "--seed", str(seed), "--trials", str(MC_TRIALS)]
    raise ValueError(f"unknown workload {name!r}")


# --- machine speed --------------------------------------------------------


def speed_probe() -> float:
    """CPU seconds this thread takes for a fixed bit of work, none of it subaddlab.

    About a millisecond of pure-Python work: small Fraction sums, `lgamma`
    and dict updates.  Thread CPU time leaves out the time the scheduler
    gives to the child, so on a CPU shared with the child it measures the
    speed of that CPU while the child runs.
    """
    start = time.thread_time()
    s = Fraction(0)
    for k in range(1, 60):
        s += Fraction(1, k)
    x = 0.0
    for k in range(1, 2000):
        x += math.lgamma(k * 0.5 + 1.0)
    d = {}
    for k in range(2000):
        d[k % 100] = d.get(k % 100, 0) + k
    return time.thread_time() - start


# --- launching ------------------------------------------------------------


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def launch(src: str, workdir: str, tag: str, trace: bool, args: list) -> dict:
    """Run one child to completion; return its timings, RSS and output dir.

    While the child runs, the parent probes the speed of the machine every
    PROBE_GAP_S.  main() pins both to one CPU, so the probes measure the
    CPU the child runs on, at the same time.  `wall_s` and `setup_s` leave
    out the CPU time the probes took and are scaled by `speed`, which is
    REF_PROBE_S over the mean probe time: seconds at the reference speed.
    """
    outdir = os.path.join(workdir, tag)
    os.makedirs(outdir)
    sidefile = os.path.join(workdir, tag + ".side.json")
    argv = [sys.executable, CHILD, sidefile, "1" if trace else "0"]
    if args:
        argv += args + ["--outdir", outdir]
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUBADDLAB_")}
    env["PYTHONPATH"] = src
    probes = []  # (monotonic start, CPU seconds) of each speed probe
    with open(os.path.join(workdir, tag + ".log"), "wb") as log:
        gc.disable()  # no collector pause inside a probe
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, preexec_fn=_limit_cpu)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                t = time.clock_gettime(time.CLOCK_MONOTONIC)
                probes.append((t, speed_probe()))
                if select.select([pidfd], [], [], PROBE_GAP_S)[0]:
                    break  # the child has exited
            end = time.clock_gettime(time.CLOCK_MONOTONIC)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
            gc.enable()
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe_s = statistics.fmean(cpu for _, cpu in probes)
    speed = REF_PROBE_S / probe_s
    run = {"rc": proc.returncode, "wall_s.unscaled": end - start,
           "wall_s": (end - start - sum(cpu for _, cpu in probes)) * speed,
           "cpu_s.unscaled": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "outdir": outdir,
           "probe_s": probe_s, "speed": speed}
    try:
        with open(sidefile) as fh:
            side = json.load(fh)
    except (OSError, ValueError):
        side = {}
    if "ready" in side:
        ready = side["ready"]
        run["setup_s.unscaled"] = ready - start
        run["setup_s"] = (ready - start - sum(cpu for t, cpu in probes if t < ready)) * speed
    run["package"] = side.get("package")
    run["trace"] = side.get("trace")
    return run


# --- output checks ---------------------------------------------------------


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _comparable(report):
    """A JSON report without its one run-dependent field."""
    if isinstance(report, dict):
        return {k: v for k, v in report.items() if k != "wallTimeSeconds"}
    return report


def check_outputs(workload: str, runs: list, digests: dict) -> list:
    """(check name, passed) for every output check of one run's processes.

    Each process must exit 0 and write every expected report with every
    verdict true; `report` must reproduce the seed-free CSV digests; and
    every process of the run must write the same bytes as the first one
    (JSON reports up to wallTimeSeconds), which covers the seeded
    simulate.csv.
    """
    checks = []
    first = runs[0]["outdir"] if runs else None
    for i, run in enumerate(runs):
        out = run["outdir"]
        checks.append((f"{i}: exit code 0", run["rc"] == 0))
        for name in EXPECTED_JSON[workload]:
            report = _load_json(os.path.join(out, name + ".json"))
            checks.append((f"{i}: {name}.json written", isinstance(report, dict)))
            verdicts = report.get("verdicts", {}) if isinstance(report, dict) else {}
            checks.extend((f"{i}: {name}.{k} true", v is True) for k, v in verdicts.items())
        if workload == "report":
            for csv_name in SEED_FREE_CSV:
                path = os.path.join(out, csv_name)
                ok = os.path.exists(path) and _sha256(path) == digests.get(csv_name)
                checks.append((f"{i}: {csv_name} digest", ok))
        if i == 0:
            continue
        for name in sorted(os.listdir(first)):
            a, b = os.path.join(first, name), os.path.join(out, name)
            if name.endswith(".csv"):
                same = os.path.exists(b) and _sha256(a) == _sha256(b)
            elif name.endswith(".json"):
                same = _comparable(_load_json(a)) == _comparable(_load_json(b))
            else:
                continue
            checks.append((f"{i}: {name} same as run 0", same))
    return checks


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


# --- statistics ------------------------------------------------------------


def summarize(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(trace: dict, speed: float) -> dict:
    """Per-layer numbers of one traced process, times scaled by `speed`.

    Spans of one process are strictly nested (one thread), so the time the
    children of a span cover is the sum of their durations; self time is the
    span's duration minus that.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, total, self_s = {}, {}, {}
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start) * speed
        self_s[name] = self_s.get(name, 0.0) + ((end - start) - covered[i]) * speed

    m = {"cli.self_s": self_s.get("cli.main", 0.0)}
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = total.get(f"verify.{check}", 0.0)
    layers = [f"experiments.{e}" for e in EXPERIMENTS]
    layers += ["lpspace.apply_A_pow", "lpspace.image_p_norm", "lpspace.p_norm",
               "weights.exact_row", "weights.log_row", "weights.convolve",
               "weights.alpha_pow_log", "mc.mc_apply_A", "reporting.write_csv",
               "reporting.write_json", "limits.current_limits"]
    for layer in layers:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("weights.exact_row", "weights.log_row"):
        m[f"{layer}.points"] = trace["points"].get(layer, 0)
    m["weights.pgf_check.self_s"] = self_s.get("weights.pgf_check", 0.0)
    m["weights.scan.self_s"] = self_s.get("weights.scan", 0.0)

    widths = trace["rel_widths"]
    m["lpspace.enclosures"] = len(widths)
    m["lpspace.enclosure_rel_width.max"] = max(widths, default=0.0)
    m["lpspace.enclosure_rel_width.median"] = statistics.median(widths) if widths else 0.0

    for key, cache in trace["caches"].items():
        lookups = cache["hits"] + cache["misses"]
        m[f"{key}.cache_lookups"] = lookups
        m[f"{key}.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0

    mc_s = total.get("mc.mc_apply_A", 0.0)
    m["mc.mc_apply_A.s"] = mc_s
    m["mc.draws"] = trace["draws"]
    m["mc.draws_per_s"] = trace["draws"] / mc_s if mc_s > 0 else 0.0
    for writer in ("reporting.write_csv", "reporting.write_json"):
        m[f"{writer}.bytes"] = trace["bytes"].get(writer, 0)
    m["trace.spans"] = len(spans)
    return m


LAYER_UNITS = {".calls": "count", ".points": "count", ".bytes": "B", ".draws": "count",
               ".cache_lookups": "count", ".enclosures": "count", ".spans": "count",
               "_ratio": "ratio", ".max": "ratio", ".median": "ratio",
               ".draws_per_s": "1/s", "_s": "s", ".s": "s"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


# --- machine record --------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(src, "subaddlab")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def machine_record(src: str, workload_seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(src),
        "workload_seed": workload_seed,
    }


# --- one run ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, src: str,
            workdir: str):
    """Launch processes for about `seconds`; return (set-up probes, plain, traced)."""
    args = workload_args(workload, seed)
    t0 = time.monotonic()
    plain, traced, probes = [], [], []
    if not trace:
        probes = [launch(src, workdir, f"probe{i}", False, []) for i in range(SETUP_PROBES)]
    last = 0.0
    while True:
        elapsed = time.monotonic() - t0
        if len(plain) >= (1 if trace else MIN_SAMPLES) and elapsed + last > seconds:
            break
        t = time.monotonic()
        plain.append(launch(src, workdir, f"run{len(plain)}", False, args))
        if trace:
            traced.append(launch(src, workdir, f"traced{len(traced)}", True, args))
        last = time.monotonic() - t
        if any(r["rc"] != 0 for r in plain + traced):
            break  # a failing program is not worth more samples
    return probes, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_JSON))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "subaddlab", "cli.py")):
        print("error: run from the root of a subaddlab source tree "
              "(src/subaddlab/cli.py not found)", file=sys.stderr)
        return 2

    workload_seed = WORKLOAD_SEEDS[opts.seed % len(WORKLOAD_SEEDS)]
    machine = machine_record(src, workload_seed)
    # the children inherit this: they and the speed probes share one CPU
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    machine["cpu_used"] = cpu
    digests = load_digests()
    os.makedirs(".bench_tmp", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=".bench_tmp")
    try:
        probes, plain, traced = measure(opts.workload, workload_seed, opts.seconds,
                                        bool(opts.trace), src, workdir)
        checks = check_outputs(opts.workload, plain + traced, digests)
        checks += [(f"probe{i}: exit code 0", p["rc"] == 0) for i, p in enumerate(probes)]
        # the package measured must be the one in this tree
        expected_pkg = os.path.join(src, "subaddlab")
        checks += [(f"process {i}: ran {expected_pkg}", r["package"] == expected_pkg)
                   for i, r in enumerate(probes + plain + traced)]
        spans_kept = None
        if traced and traced[-1]["trace"] is not None:
            spans_kept = traced[-1]["trace"]["spans"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]

    stats = {"wall_s": summarize([r["wall_s"] for r in plain]),
             "peak_rss_mb": summarize([r["peak_rss_mb"] for r in plain]),
             "setup_s": summarize([r.get("setup_s") for r in probes])}
    measured = {"wall_s.unscaled": summarize([r["wall_s.unscaled"] for r in plain]),
                "cpu_s.unscaled": summarize([r["cpu_s.unscaled"] for r in plain]),
                "setup_s.unscaled": summarize([r.get("setup_s.unscaled") for r in probes]),
                "probe_s": summarize([r["probe_s"] for r in probes + plain + traced])}
    if opts.trace:
        layer_runs = [layer_metrics(r["trace"], r["speed"])
                      for r in traced if r["trace"] is not None]
        names = list(layer_runs[0]) if layer_runs else []
        layers = {k: summarize([lr[k] for lr in layer_runs]) for k in names}
        traced_wall = summarize([r["wall_s"] for r in traced])
        layers["trace.untraced_wall_s"] = stats["wall_s"]
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_s"] = {
            "median": traced_wall["median"] - stats["wall_s"]["median"], "n": len(traced)}
        metrics = {k: {"value": v["median"], "unit": layer_unit(k)} for k, v in layers.items()}
        detail = layers
    else:
        metrics = {k: {"value": v["median"], "unit": END_TO_END_UNITS[k]}
                   for k, v in stats.items()}
        detail = stats

    for name in failed:
        print(f"FAILED check: {name}")
    attempted = len(checks)
    print(f"workload {opts.workload}: seed {opts.seed} -> workload seed {workload_seed}, "
          f"{len(plain)} untraced + {len(traced)} traced processes, {len(probes)} set-up probes")
    print(f"  fail_ratio {len(failed) / attempted:.4g} ({len(failed)} of {attempted} checks)")
    if not opts.trace:
        for k, v in stats.items():
            print(f"  {k} {v['median']:.4f} {END_TO_END_UNITS[k]} "
                  f"(q1 {v['q1']:.4f}, q3 {v['q3']:.4f}, n={v['n']})")
    else:
        print(f"  tracing overhead {metrics['trace.overhead_s']['value']:.3f} s "
              f"(traced {layers['trace.traced_wall_s']['median']:.3f} s, "
              f"untraced {stats['wall_s']['median']:.3f} s)")
    for k, v in measured.items():
        if v["n"]:
            print(f"  {k} {v['median']:.4f} s (q1 {v['q1']:.4f}, q3 {v['q3']:.4f}, n={v['n']})")
    print(f"  machine {json.dumps(machine)}")

    os.makedirs(".bench_out", exist_ok=True)
    stem = os.path.join(".bench_out", f"{opts.workload}-seed{opts.seed}-trace{opts.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
                   "trace": opts.trace, "machine": machine, "metrics": detail,
                   "ref_probe_s": REF_PROBE_S, "measured": measured,
                   "processes": {os.path.basename(r["outdir"]):
                                 {k: r.get(k) for k in ("wall_s", "wall_s.unscaled", "setup_s", "probe_s")}
                                 for r in probes + plain + traced},
                   "fail_ratio": {"failed": len(failed), "attempted": attempted},
                   "failed_checks": failed}, fh, indent=1)
    if spans_kept is not None:
        with open(os.path.join(".bench_out", f"{opts.workload}.spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans_kept}, fh)

    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
