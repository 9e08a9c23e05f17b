"""Monte Carlo corroboration of the exact machinery.

Sampling is inverse-CDF: an exact integer cumulative table decides indices
below 1024, and beyond it the draw is resolved in the log domain through the
closed tail T(J) = binom(2J,J) 4^(-J).  Path simulation of the first-passage
construction would have infinite expected cost per sample; inversion is
O(log of the sampled index).

The tail draws of one call are inverted together: a vectorized bisection
replays the scalar search (_invert_tail) step for step on int64 arrays, and
decides each step with a Stirling series for log T that is cheap in numpy.
Where the series lies within a derived tie band of log(1 - u), the step is
decided by the scalar double log-gamma expression itself, so the integers
are those of the scalar search even where that expression is not monotone.
Draws whose search would leave int64 (1 - u below about 1e-9) take the
scalar search.

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


# the vectorized search seeds hi = 4 int(1/(pi v^2)) below 2^60 and grows it
# to at most 2^62, so lo + hi stays inside int64; other draws go scalar
_VEC_SEED_MAX = 2.0**58
_VEC_GROW_MAX = 1 << 60


def _tie_band(x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """Bound on |_log_tail(m) - weights._log_tail_series(m)| at float m = x > 1024.

    In units of u = 2^-53, with S = (2m+1) log(2m+1) and CPython's lgamma
    taken to be within 4 ulps (8u relative) of the true value, the scalar
    _log_tail errs by at most: lgamma(2m+1), of size <= S, 8u S, plus u S
    for rounding 2m+1 to a float (lgamma' = digamma < log(2m+1));
    2 lgamma(m+1) <= S likewise, 9u S; their difference rounds once, u S;
    2m log 2 <= S carries the rounding of LN2 and of the product, 2u S; the
    last subtraction rounds once, u S.  That is 21u S, and 24u S leaves
    room for second-order terms.

    The series in float, for log m <= 44: np.log within 2 ulps (128u),
    halved, 64u; adding log pi and halving, 16u; the closing subtraction,
    8u; rounding m to a float moves log m by u; truncation, under 1e-17.
    That is under 90u, and 128u covers it.  The margins also absorb the
    rounding of this band and of the difference compared with it.

    The band is evaluated with log(2m+1) <= log(m) + 0.6936, which holds
    for m > 1024, so it only widens.  A sweep in tests/test_mc.py checks it
    against the scalar expression.
    """
    return 2.0**-53 * ((48.0 * x + 24.0) * (log_x + 0.6936) + 128.0)


def _tail_below(m: np.ndarray, logv: np.ndarray) -> np.ndarray:
    """_log_tail(m + 1) < logv elementwise, decided as the scalar decides it.

    Outside the tie band the series and the scalar expression lie on the
    same side of logv; inside it the scalar expression is evaluated.
    """
    x = (m + 1).astype(np.float64)
    log_x = np.log(x)
    d = weights._log_tail_series(x, log_x) - logv
    below = d < 0.0
    for i in np.nonzero(np.abs(d) <= _tie_band(x, log_x))[0]:
        below[i] = _log_tail(int(m[i]) + 1) < logv[i]
    return below


def _invert_tails(u: np.ndarray) -> np.ndarray:
    """[_invert_tail(x) for x in u], by one bisection over the whole array.

    Each draw takes the scalar search's steps: the same hi seed (the same
    float operations, truncated the same way), the same hi *= 4 growth and
    the same mids, each decided by _tail_below.  Draws whose hi would pass
    the int64-safe range take _invert_tail itself.
    """
    out = np.empty(u.shape, dtype=np.int64)
    v = 1.0 - u
    with np.errstate(divide="ignore", over="ignore"):
        seed = 1.0 / (np.pi * v * v)
    vec = (v > 0.0) & (seed < _VEC_SEED_MAX)
    pos = np.nonzero(vec)[0]
    logv = np.array([math.log(t) for t in v[pos].tolist()])
    hi = np.maximum(2 * _TABLE_SIZE, 4 * seed[pos].astype(np.int64))
    grow = ~_tail_below(hi, logv)
    while np.any(grow):
        stuck = grow & (hi > _VEC_GROW_MAX)
        vec[pos[stuck]] = False
        grow &= ~stuck
        hi[grow] *= 4
        g = np.nonzero(grow)[0]
        grow[g] = ~_tail_below(hi[g], logv[g])
    keep = vec[pos]
    pos, logv, hi = pos[keep], logv[keep], hi[keep]
    lo = np.full_like(hi, _TABLE_SIZE)  # < hi, as hi >= 2 _TABLE_SIZE
    while pos.size:
        mid = (lo + hi) >> 1
        below = _tail_below(mid, logv)
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid + 1)
        done = lo >= hi
        if done.any():
            out[pos[done]] = lo[done]  # lo <= hi <= 2^62 = _INDEX_CAP
            live = ~done
            pos, logv, lo, hi = pos[live], logv[live], lo[live], hi[live]
    for i in np.nonzero(~vec)[0]:
        out[i] = _invert_tail(float(u[i]))
    return out


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
    in_tail = idx >= _TABLE_SIZE
    if np.any(in_tail):
        out[in_tail] = _invert_tails(u[in_tail])
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
        vals = idx.astype(np.float64)
        np.power(vals, f.beta, out=vals)
        vals[idx == 0] = 0.0
        return vals
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
    # in place: with 2e6 trials each int64 copy is 16 MB
    sums += k
    values = _eval_on_indices(f, np.minimum(sums, _INDEX_CAP, out=sums))
    if method == "median-of-means":
        blocks = [float(b.mean()) for b in np.array_split(values, _MOM_BLOCKS)]
        center = float(np.median(blocks))
        mad = float(np.median(np.abs(np.asarray(blocks) - center)))
        half = 1.4826 * mad / math.sqrt(_MOM_BLOCKS)
        return McEstimate(center, half, trials, method)
    mean = float(values.mean())
    half = float(values.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return McEstimate(mean, half, trials, method)
