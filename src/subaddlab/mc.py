"""Monte Carlo corroboration of the exact machinery.

Sampling is inverse-CDF: an exact integer cumulative table decides indices
below 1024, and beyond it the draw is resolved in the log domain through the
closed tail T(J) = binom(2J,J) 4^(-J).  Path simulation of the first-passage
construction would have infinite expected cost per sample; inversion is
O(log of the sampled index).

The tail draws of one call are inverted together by one vectorized
bisection (_invert_tails) that decides T(m+1) < v = 1 - u as
log T(m+1) < log v, with log T the Stirling series weights._log_tail_series,
the one log T of the package.  That series is within 163u of log T for
m < 2^63 (u = 2^-53; derived there) and np.log(v) within 256u (4 ulps of
|log v| < 64, as v >= 2^-53), so a step can differ from the exact decision
only where log T(m+1) is within d = 419u < 5e-14 of log v: every sampled
m >= 1024 below _INDEX_CAP has T(m+1) < v e^d and T(m) >= v e^-d.

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


def _tail_below(m: np.ndarray, logv: np.ndarray) -> np.ndarray:
    """log T(m + 1) < logv elementwise, with log T the series of weights."""
    x = (m + 1).astype(np.float64)
    return weights._log_tail_series(x, np.log(x)) < logv


def _invert_tails(u: np.ndarray) -> np.ndarray:
    """For each u >= 1/2, the smallest m >= 1024 with T(m+1) < 1 - u, as int64.

    One bisection over the whole array.  hi starts at 4 int(1/(pi v^2)),
    v = 1 - u (T(m) ~ 1/sqrt(pi m)), and grows fourfold until the test holds
    there, clamped at _INDEX_CAP so that lo + hi fits int64; a draw whose
    test fails at the cap, or with v = 0, takes the cap.
    """
    out = np.full(u.shape, _INDEX_CAP, dtype=np.int64)
    v = 1.0 - u  # exact: u >= 1/2 here (Sterbenz)
    pos = np.nonzero(v > 0.0)[0]
    v = v[pos]
    logv = np.log(v)
    seed = np.minimum(1.0 / (np.pi * v * v), _INDEX_CAP >> 2)
    hi = np.maximum(2 * _TABLE_SIZE, 4 * seed.astype(np.int64))
    grow = np.nonzero((hi < _INDEX_CAP) & ~_tail_below(hi, logv))[0]
    while grow.size:
        hi[grow] = 4 * np.minimum(hi[grow], _INDEX_CAP >> 2)
        grow = grow[(hi[grow] < _INDEX_CAP) & ~_tail_below(hi[grow], logv[grow])]
    lo = np.full_like(hi, _TABLE_SIZE)  # < hi, as hi >= 2 _TABLE_SIZE
    while pos.size:
        mid = (lo + hi) >> 1
        below = _tail_below(mid, logv)
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid + 1)
        done = lo >= hi
        out[pos[done]] = lo[done]
        live = ~done
        pos, logv, lo, hi = pos[live], logv[live], lo[live], hi[live]
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
    out[in_tail] = _invert_tails(u[in_tail])
    return out


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


def _value_chunks(f: SeqFunction, n: int, k: int, trials: int, gen):
    """f(S_n + k) for `trials` walks in turn, in chunks of at most 2^16 draws."""
    rows = max(1, (1 << 16) // max(n, 1))
    for start in range(0, trials, rows):
        size = min(rows, trials - start)
        s = np.minimum(_sample_array(gen, size * n).reshape(size, n).sum(axis=1), _INDEX_CAP)
        s += k
        yield _eval_on_indices(f, np.minimum(s, _INDEX_CAP, out=s))


def _moments(chunks) -> tuple:
    """(mean, sum of squared deviations) of the values of all the chunks.

    Chunk moments are merged one by one (Chan, Golub and LeVeque 1979), so
    memory stays one chunk however many trials there are.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for v in chunks:
        c, mu = len(v), float(v.mean())
        d = mu - mean
        count += c
        mean += d * c / count
        m2 += float(np.square(v - mu).sum()) + d * d * c * (count - c) / count
    return mean, m2


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
    if method == "median-of-means":
        # np.array_split's blocks of the trials, each drawn in trial order
        q, r = divmod(trials, _MOM_BLOCKS)
        chunks = (_value_chunks(f, n, k, q + (b < r), gen) for b in range(_MOM_BLOCKS))
        blocks = [_moments(c)[0] for c in chunks]
        center = float(np.median(blocks))
        mad = float(np.median(np.abs(np.asarray(blocks) - center)))
        half = 1.4826 * mad / math.sqrt(_MOM_BLOCKS)
        return McEstimate(center, half, trials, method)
    mean, m2 = _moments(_value_chunks(f, n, k, trials, gen))
    half = math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0
    return McEstimate(mean, half, trials, method)
