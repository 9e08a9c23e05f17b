"""Command-line front end.

Every command validates its flags, computes rows, writes <command>.csv and
<command>.json into --outdir, prints one [PASS]/[FAIL] line per verdict, and
exits with the shared contract: 0 all verdicts pass, 1 verdict failure,
2 usage error (an unwritable --outdir included), 3 resource limit.  Outputs
are deterministic for a fixed configuration (seed included); wallTimeSeconds
in the JSON is the one field that varies between reruns.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction

from . import experiments, mc, verify, weights
from .errors import ResourceLimitError, SubaddLabError
from .lpspace import FiniteTable, IndicatorGE, PowerGrowth, apply_A_pow
from .reporting import csv_text, write_csv, write_json

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _rational(text: str) -> Fraction:
    """A rational flag value such as 3/2 or 0.75 that converts to a finite float."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a finite rational: {text!r}") from None
    return value


def _int_at_least(low: int):
    """An argparse type: an integer flag value of at least low."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subaddlab",
        description="Numerical laboratory for a subadditive operator family "
        "on weighted sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run=None) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--outdir", default=".", help="directory for reports")
        sp.set_defaults(run=run)
        return sp

    sp = add("alpha", "tabulate convolution-power weights", _run_alpha)
    sp.add_argument("--n", type=int, required=True, help="convolution power, >= 1")
    sp.add_argument("--jmax", type=int, default=16, help="row count (indices 0..jmax-1)")
    sp.add_argument("--backend", choices=("exact", "log", "auto"), default="auto")

    sp = add("verify", "run the verification suites", _run_verify)
    sp.add_argument("--suite", choices=("core", "all"), default="core")
    sp.add_argument("--seed", type=_int_at_least(0), default=verify.DEFAULT_SEED)
    sp.add_argument(
        "--inject-float-bias",
        type=float,
        default=0.0,
        help="fault injection: add this to every log-domain value, and scale "
        "every float-row weight by e^bias, before the agreement scan (a "
        "correct build passes only at 0)",
    )

    sp = add("growth", "norm growth of A^n on the moving-window witnesses", _run_growth)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--nmax", type=int, default=32)
    sp.add_argument("--fit-from", type=int, default=None)

    sp = add("blowup", "growth of E f(S_n) for the fractional-power witness", _run_blowup)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--beta", type=float, default=None, help="default 2/(5p)")
    sp.add_argument("--nmax", type=int, default=32)
    sp.add_argument("--trunc", type=int, default=1 << 20)

    sp = add("maximal", "maximal-function to function norm ratios", _run_maximal)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--mgrid", default="4,16,64,256", help="comma-separated window sizes")

    sp = add("probe", "minimum of alpha^n_j/(n alpha_j) on the far grid", _run_probe)
    sp.add_argument(
        "--c0", type=_rational, default="1", help="grid constant (rational, e.g. 3/2)"
    )
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--jmax", type=int, default=2000)

    sp = add("sato", "norm growth for the 2x2 unipotent family", _run_sato)
    sp.add_argument(
        "--a", type=_rational, default="1", help="off-diagonal entry (rational)"
    )
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--nmax", type=int, default=32)

    sp = add(
        "simulate", "Monte Carlo estimate of A^n(f)(k) vs the enclosure", _run_simulate
    )
    sp.add_argument("--fn", choices=("table", "indicator", "power"), default="table")
    sp.add_argument("--m", type=int, default=1, help="indicator threshold")
    sp.add_argument("--beta", type=float, default=0.2, help="power exponent")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--trials", type=_int_at_least(1), default=10**5)
    sp.add_argument("--seed", type=_int_at_least(0), default=42)
    sp.add_argument("--trunc", type=int, default=1 << 20, help="enclosure truncation")

    sp = add("report", "run every command at desk defaults and aggregate")
    sp.add_argument("--seed", type=_int_at_least(0), default=verify.DEFAULT_SEED)
    sp.add_argument("--trials", type=_int_at_least(1), default=10**5)

    return parser


def _run_alpha(args):
    if args.n < 1:
        raise ValueError("need --n >= 1")
    if args.jmax < 1:
        raise ValueError("need --jmax >= 1")
    n, J = args.n, args.jmax
    backend = args.backend
    if backend == "auto":
        backend = "exact" if weights.exact_ok(n, J) else "log"
    if backend == "exact":
        row = weights.exact_row(n, J)
        prefix, slop = sum(row), 0
        tail = weights.tail_pow_bound(n, J)
    else:
        values = weights.float_row(n, J)
        row = values.tolist()
        # the float prefix mass is within slop of the true one
        prefix, slop = weights.row_dot(n, values)
        tail = min(1.0, n * weights.tail_float_bounds(J)[1])
    verdicts = {
        "prefix_mass_le_one": bool(prefix <= 1 + slop),
        "prefix_plus_tail_covers_one": bool(prefix + tail >= 1 - slop),
    }
    parameters = {"n": n, "jMax": J, "backend": backend, "tailBound": tail}
    rows = [[n, j, w, backend] for j, w in enumerate(row)]
    return parameters, ("n", "j", "weight", "backend"), csv_text(rows), verdicts


def _run_verify(args):
    bias = args.inject_float_bias
    verdicts = verify.run_suite(args.suite, seed=args.seed, bias=bias)
    parameters = {
        "suite": args.suite,
        "seed": args.seed,
        # NaN and inf are not JSON numbers; record them by name
        "injectFloatBias": bias if math.isfinite(bias) else str(bias),
    }
    return parameters, None, [], verdicts


def _run_growth(args):
    res = experiments.growth_curve(args.p, args.nmax, args.fit_from)
    parameters = {
        "p": res.p,
        "nMax": args.nmax,
        "fitFrom": res.fit_window[0],
        "slope": res.slope,
        "slopeWindow": res.slope_window,
    }
    header = ("n", "norm_fn", "norm_Anfn_lower", "ratio", "upper_bound")
    return parameters, header, csv_text(res.rows), experiments.growth_verdicts(res)


def _run_blowup(args):
    rows_b = experiments.blowup_curve(args.p, args.beta, args.nmax, args.trunc)
    beta = args.beta if args.beta is not None else 2.0 / (5.0 * args.p)
    parameters = {
        "p": args.p,
        "beta": beta,
        "nMax": args.nmax,
        "truncation": args.trunc,
        "quarterIndex": experiments.quarter_index(args.nmax),
    }
    header = ("n", "E_lower", "norm_lower")
    return parameters, header, csv_text(rows_b), experiments.blowup_verdicts(rows_b)


def _run_maximal(args):
    grid = [int(tok) for tok in args.mgrid.split(",") if tok.strip()]
    if not grid or any(m < 1 for m in grid):
        raise ValueError("--mgrid needs positive integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("--mgrid must be strictly increasing")
    ratios = experiments.maximal_ratios(grid, args.p)
    parameters = {"p": args.p, "mGrid": grid}
    rows = csv_text(zip(grid, ratios))
    return parameters, ("m", "ratio"), rows, experiments.maximal_verdicts(ratios)


def _run_probe(args):
    rep = experiments.lower_bound_probe(args.c0, args.nmax, args.jmax)
    parameters = {
        "c0": args.c0,
        "nMax": rep.n_max,
        "jMax": rep.j_max,
        "minObserved": rep.min_observed,
        "argmin": rep.argmin,
    }
    lines = (run.lines for run in rep.runs)
    return parameters, ("n", "j", "ratio"), lines, experiments.probe_verdicts(rep)


def _run_sato(args):
    if args.nmax < 2:
        raise ValueError("need --nmax >= 2")
    rows_s = experiments.sato_norm_growth(args.a, args.p, args.nmax)
    parameters = {"a": args.a, "p": args.p, "nMax": args.nmax}
    verdicts = experiments.sato_verdicts(args.a, rows_s)
    return parameters, ("n", "norm"), csv_text(rows_s), verdicts


def _make_fn(args):
    if args.fn == "table":
        return FiniteTable((1,))
    if args.fn == "indicator":
        return IndicatorGE(args.m)
    return PowerGrowth(args.beta)


def _run_simulate(args):
    f = _make_fn(args)
    est = mc.mc_apply_A(f, args.n, args.k, args.trials, mc.make_generator(args.seed))
    J = args.trunc if isinstance(f, PowerGrowth) and args.n >= 1 else None
    enc = apply_A_pow(f, args.n, args.k, J=J)
    ok = mc.within(est, enc)
    verdicts = {"within_three_half_widths": ok}
    parameters = {
        "fn": args.fn,
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "seed": args.seed,
        "method": est.method,
        "enclosureLower": float(enc.lower),
        "enclosureUpper": float(enc.upper),
    }
    rows = csv_text([[est.mean, est.half_width, float(enc.midpoint), ok]])
    return parameters, ("estimate", "half_width", "exact_mid", "ok"), rows, verdicts


def _execute(args) -> dict:
    """Run one parsed command, write <command>.csv/.json, print its verdicts.

    A command's run returns its parameters, its CSV header (None for no
    CSV), its CSV text chunks and its verdicts.
    """
    t0 = time.perf_counter()
    parameters, header, chunks, verdicts = args.run(args)
    paths, csv_block = [], None
    if header is not None:
        paths.append(os.path.join(args.outdir, f"{args.command}.csv"))
        csv_block = write_csv(paths[-1], header, chunks)
    paths.append(os.path.join(args.outdir, f"{args.command}.json"))
    write_json(paths[-1], args.command, parameters, csv_block, verdicts, time.perf_counter() - t0)
    for name, ok in verdicts.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {args.command}.{name}")
    for path in paths:
        print(f"wrote {path}")
    return verdicts


def _report(args, parser: argparse.ArgumentParser) -> dict:
    """Every command at desk defaults, parsed by parser, then summary.json with all their verdicts."""
    t0 = time.perf_counter()
    plans = [
        ["alpha", "--n", "2", "--jmax", "32"],
        ["verify", "--suite", "all", "--seed", str(args.seed)],
        ["growth", "--p", "2"],
        ["blowup", "--p", "2"],
        ["maximal", "--p", "2"],
        ["probe"],
        ["sato", "--nmax", "32"],
        ["simulate", "--trials", str(args.trials), "--seed", str(args.seed)],
    ]
    summary = {}
    for argv in plans:
        sub_args = parser.parse_args(argv + ["--outdir", args.outdir])
        for name, ok in _execute(sub_args).items():
            summary[f"{sub_args.command}.{name}"] = ok
    summary_path = os.path.join(args.outdir, "summary.json")
    parameters = {"seed": args.seed, "trials": args.trials}
    write_json(summary_path, "report", parameters, None, summary, time.perf_counter() - t0)
    print(f"wrote {summary_path}")
    return summary


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        verdicts = _report(args, parser) if args.command == "report" else _execute(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SubaddLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(verdicts.values()) else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
