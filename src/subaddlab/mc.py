"""Monte Carlo corroboration of the exact machinery.

Sampling is inverse-CDF: an exact integer cumulative table decides indices
below 1024, and beyond it the draw is resolved in the log domain through the
closed tail T(J) = binom(2J,J) 4^(-J).  Path simulation of the first-passage
construction would have infinite expected cost per sample; inversion is
O(log of the sampled index).

The law has infinite mean, so nothing here normalizes sums; only
expectations E f(S_n + k) with summable f are estimated.  Variance may still
be infinite for power growth with beta >= 1/4, where estimation switches to
median-of-means and the half-width reports inter-block dispersion rather
than a Gaussian interval.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import weights
from .errors import HeavyTailUnreliableError
from .lpspace import PowerGrowth, SeqFunction

_TABLE_SIZE = 1024
# indices past this are clipped; reached with probability ~ T(2^62) ~ 8e-10
# per draw, and the clipped value still dwarfs every scale in use
_INDEX_CAP = 1 << 62
_MOM_BLOCKS = 32


@dataclass(frozen=True)
class McEstimate:
    mean: float
    half_width: float
    trials: int
    method: str


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator; parallel strands get (seed, stream) substreams."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


@lru_cache(maxsize=1)
def _exact_cdf() -> tuple:
    """(C, D) with P(X <= j) = C[j + 1] / D for j < _TABLE_SIZE, as integers.

    The table is fixed and small, so it is exact whatever the exact limit.
    """
    return weights._prefix_exact(1, _TABLE_SIZE)


@lru_cache(maxsize=1)
def _float_cdf() -> np.ndarray:
    C, D = _exact_cdf()
    arr = np.array([c / D for c in C[1:]])  # int division rounds correctly
    arr.flags.writeable = False
    return arr


def _log_tail(J: int) -> float:
    # log T(J); double lgamma is plenty here (boundary error ~1e-9 in log
    # only perturbs bucket edges, invisible next to sampling noise)
    return math.lgamma(2 * J + 1) - 2 * math.lgamma(J + 1) - 2 * J * weights.LN2


def _invert_tail(u: float) -> int:
    """Smallest j >= 1024 with T(j+1) < 1-u, resolved by log-domain bisection."""
    v = 1.0 - u  # exact: u >= 1/2 here (Sterbenz)
    if v <= 0.0:
        return _INDEX_CAP
    logv = math.log(v)
    hi = max(2 * _TABLE_SIZE, 4 * int(1.0 / (math.pi * v * v)))
    while _log_tail(hi + 1) >= logv:
        hi *= 4
    lo = _TABLE_SIZE
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_tail(mid + 1) < logv:
            hi = mid
        else:
            lo = mid + 1
    return min(lo, _INDEX_CAP)


def _sample_array(gen: np.random.Generator, size: int) -> np.ndarray:
    """size iid draws from alpha, as int64; one uniform consumed per draw."""
    u = gen.random(size)
    F = _float_cdf()
    idx = np.searchsorted(F, u, side="right")
    # draws within an ulp of a table edge are re-decided exactly
    lo = np.clip(idx - 1, 0, _TABLE_SIZE - 1)
    hi = np.clip(idx, 0, _TABLE_SIZE - 1)
    near = (np.abs(u - F[lo]) < 1e-15) | (np.abs(u - F[hi]) < 1e-15)
    if np.any(near):
        C, D = _exact_cdf()
        for i in np.nonzero(near)[0]:
            # u D is an integer: u is a multiple of 2^-1074 and D = 2^2049
            num, den = float(u[i]).as_integer_ratio()
            idx[i] = bisect.bisect_right(C, num * D // den) - 1
    out = idx.astype(np.int64)
    in_tail = np.nonzero(idx >= _TABLE_SIZE)[0]
    for i in in_tail:
        out[i] = _invert_tail(float(u[i]))
    return out


def walk(n: int, gen: np.random.Generator) -> int:
    """S_n, the sum of n independent draws; S_0 = 0."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return 0
    return int(_sample_array(gen, n).sum())


def _eval_on_indices(f: SeqFunction, idx: np.ndarray) -> np.ndarray:
    if isinstance(f, PowerGrowth):
        vals = np.power(idx.astype(np.float64), f.beta)
        return np.where(idx == 0, 0.0, vals)
    # runs starting past the index cap are never reached; clamp to fit int64
    starts = np.array([min(s, _INDEX_CAP + 1) for s in f.starts], dtype=np.int64)
    levels = np.array([float(v) for v in f.levels])
    return levels[np.searchsorted(starts, idx, side="right") - 1]


def mc_apply_A(
    f: SeqFunction, n: int, k: int, trials: int, gen: np.random.Generator
) -> McEstimate:
    """Estimate A^n(f)(k) = E f(S_n + k) from `trials` simulated walks."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    method = "mean"
    if isinstance(f, PowerGrowth):
        if f.beta >= 0.5:
            raise HeavyTailUnreliableError(
                f"E f(S_n) is infinite for beta = {f.beta} >= 1/2"
            )
        if f.beta >= 0.25:
            # infinite-variance regime
            method = "median-of-means"
            if trials < _MOM_BLOCKS:
                raise ValueError(
                    f"median-of-means needs at least {_MOM_BLOCKS} trials"
                )
    sums = np.zeros(trials, dtype=np.int64)
    if n > 0:
        rows_per_chunk = max(1, (1 << 16) // n)
        for start in range(0, trials, rows_per_chunk):
            stop = min(start + rows_per_chunk, trials)
            block = _sample_array(gen, (stop - start) * n)
            s = block.reshape(stop - start, n).sum(axis=1)
            sums[start:stop] = np.minimum(s, _INDEX_CAP)
    values = _eval_on_indices(f, np.minimum(sums + k, _INDEX_CAP))
    if method == "median-of-means":
        blocks = [float(b.mean()) for b in np.array_split(values, _MOM_BLOCKS)]
        center = float(np.median(blocks))
        mad = float(np.median(np.abs(np.asarray(blocks) - center)))
        half = 1.4826 * mad / math.sqrt(_MOM_BLOCKS)
        return McEstimate(center, half, trials, method)
    mean = float(values.mean())
    half = float(values.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return McEstimate(mean, half, trials, method)
