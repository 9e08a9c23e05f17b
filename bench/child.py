"""One measured `subaddlab` process, launched by bench/run.py.

    python bench/child.py SIDEFILE TRACE [SUBADDLAB ARGS...]

The process imports `subaddlab.cli` and numpy, scipy and mpmath, stamps the
system-wide monotonic clock (the parent stamped the same clock before the
launch, so the difference is the set-up time), then runs `cli.main(args)`
and exits with its code.  With no SUBADDLAB ARGS it only measures set-up.

With TRACE = 1 it first installs timing wrappers on the public functions of
the layers, from outside: every namespace of the package that holds a
reference to a wrapped function gets the wrapper, and the check tuples in
`verify` are rebuilt around wrapped checks, so no file of the package
changes.  Spans (name, start, end, parent) stay in memory and are written
to SIDEFILE, with the counters, after `main` returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Records one span per wrapped call, plus argument and result counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = [-1]
        self.points = {}  # row layer -> sum of requested row lengths
        self.draws = 0  # trials * n over every mc_apply_A call
        self.bytes = {}  # writer -> bytes of the files it wrote
        self.enclosures = []  # (lower, upper) of every returned enclosure

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --- counters taken from arguments and return values -----------------

    def count_points(self, layer):
        def after(args, kwargs, result):
            J = args[1] if len(args) > 1 else kwargs["J"]
            self.points[layer] = self.points.get(layer, 0) + J

        return after

    def count_draws(self, args, kwargs, result):
        n = args[1] if len(args) > 1 else kwargs["n"]
        trials = args[3] if len(args) > 3 else kwargs["trials"]
        self.draws += n * trials

    def keep_enclosure(self, args, kwargs, result):
        self.enclosures.append((result.lower, result.upper))

    def count_bytes(self, layer):
        def after(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            self.bytes[layer] = self.bytes.get(layer, 0) + os.path.getsize(path)

        return after


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "subaddlab" or name.startswith("subaddlab."))]


def _patch_everywhere(original, wrapper) -> None:
    for module in _namespaces():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions the benchmark reports on.

    A function a later version of the package no longer has is skipped; its
    metrics then read 0.
    """
    import subaddlab.cli  # noqa: F401  (loads every module that holds references)
    from subaddlab import experiments, limits, lpspace, mc, reporting, verify, weights

    plan = [
        (limits, "current_limits", "limits.current_limits", None),
        (weights, "exact_row", "weights.exact_row", tracer.count_points("weights.exact_row")),
        (weights, "log_row", "weights.log_row", tracer.count_points("weights.log_row")),
        (weights, "convolve", "weights.convolve", None),
        (weights, "alpha_pow_log", "weights.alpha_pow_log", None),
        (weights, "pgf_check", "weights.pgf_check", None),
        (lpspace, "apply_A_pow", "lpspace.apply_A_pow", tracer.keep_enclosure),
        (lpspace, "image_p_norm", "lpspace.image_p_norm", tracer.keep_enclosure),
        (lpspace, "p_norm", "lpspace.p_norm", tracer.keep_enclosure),
        (mc, "mc_apply_A", "mc.mc_apply_A", tracer.count_draws),
        (reporting, "write_csv", "reporting.write_csv", tracer.count_bytes("reporting.write_csv")),
        (reporting, "write_json", "reporting.write_json", tracer.count_bytes("reporting.write_json")),
    ]
    plan += [(weights, attr, "weights.scan", None)
             for attr in sorted(vars(weights)) if attr.startswith("scan_")]
    plan += [(experiments, attr, f"experiments.{attr}", None)
             for attr in ("growth_curve", "blowup_curve", "pointwise_divergence",
                          "lower_bound_probe", "maximal_ratio_T")]
    for module, attr, name, after in plan:
        original = getattr(module, attr, None)
        if callable(original):
            _patch_everywhere(original, tracer.wrap(name, original, after))

    # the suites iterate these tuples, which hold the check functions themselves
    for suite in ("CORE_CHECKS", "FULL_CHECKS"):
        checks = getattr(verify, suite, ())
        wrapped = tuple((name, tracer.wrap(f"verify.{name}", fn)) for name, fn in checks)
        setattr(verify, suite, wrapped)
        for (_, fn), (_, new) in zip(checks, wrapped):
            _patch_everywhere(fn, new)


def _cache_info(module, attr):
    fn = getattr(module, attr, None)
    if fn is None or not hasattr(fn, "cache_info"):
        return {"hits": 0, "misses": 0}
    info = fn.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _rel_width(lower, upper) -> float:
    lo, hi = float(lower), float(upper)
    scale = max(abs(lo), abs(hi))
    return (hi - lo) / scale if scale > 0 else 0.0


def trace_record(tracer: Tracer) -> dict:
    from subaddlab import mc, weights

    return {
        "spans": tracer.spans,
        "points": tracer.points,
        "draws": tracer.draws,
        "bytes": tracer.bytes,
        "rel_widths": [_rel_width(lo, hi) for lo, hi in tracer.enclosures],
        "caches": {
            "weights.row_exact": _cache_info(weights, "_row_exact"),
            "weights.row_log": _cache_info(weights, "_row_log"),
            "mc.exact_cdf": _cache_info(mc, "_exact_cdf"),
        },
    }


def main() -> int:
    sidefile, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import subaddlab
    import subaddlab.cli

    ready = _mono()
    record = {"ready": ready, "package": os.path.dirname(os.path.abspath(subaddlab.__file__))}
    rc = 0
    if argv:
        tracer = Tracer() if trace else None
        main_fn = subaddlab.cli.main
        if tracer is not None:
            install(tracer)
            main_fn = tracer.wrap("cli.main", main_fn)
        rc = main_fn(argv)
        record["done"] = _mono()
        if tracer is not None:
            record["trace"] = trace_record(tracer)
    with open(sidefile, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
