"""Monte Carlo corroboration of the exact machinery.

Sampling is inverse-CDF, one uniform u per draw.  Below 1024 the index is
decided exactly by a table of the CDF rounded up to doubles (_cdf_up): a
double u passes an exact CDF value exactly when it passes the rounded-up
one.  A guide table of 2^16 cells (_guide) gives the index of a draw
outright unless its cell holds a table edge, and then within two compare
steps, so a table draw costs O(1).  Beyond 1024 the draw is resolved in the
log domain through the closed tail T(J) = binom(2J,J) 4^(-J), nearly always
by confirming its asymptotic answer with two tests, so a tail draw costs a
few steps.  Path simulation of the first-passage construction would have
infinite expected cost per sample.

The tail draws of one call are inverted together (_invert_tails), each test
deciding T(m+1) < v = 1 - u as log T(m+1) < log v, with log T the Stirling
series weights._log_tail_series, the one log T of the package.  That series
is within 163u of log T for m < 2^63 (u = 2^-53; derived there) and
np.log(v) within 256u (4 ulps of |log v| < 64, as v >= 2^-53), so a test
can differ from the exact decision only where log T(m+1) is within
d = 419u < 5e-14 of log v: every sampled m >= 1024 below _INDEX_CAP has
T(m+1) < v e^d and T(m) >= v e^-d.

The law has infinite mean, so nothing here normalizes sums; only
expectations E f(S_n + k) with summable f are estimated.  Variance may still
be infinite for power growth with beta >= 1/4, where estimation switches to
median-of-means and the half-width reports inter-block dispersion rather
than a Gaussian interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import weights
from .errors import HeavyTailUnreliableError
from .limits import check_work, memo
from .lpspace import PowerGrowth, SeqFunction

_TABLE_SIZE = 1024
# indices past this are clipped; reached with probability ~ T(2^62) ~ 8e-10
# per draw, and the clipped value still dwarfs every scale in use
_INDEX_CAP = 1 << 62
_MOM_BLOCKS = 32
_GUIDE_CELLS = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    mean: float
    half_width: float
    trials: int
    method: str


def within(est: McEstimate, enc) -> bool:
    """Interval-overlap agreement: the 3-half-width ball around the estimate
    must reach the enclosure midpoint after discounting the enclosure's own
    radius.  Degenerate enclosures reduce this to plain |mc - exact| <= 3 hw.
    """
    mid = float(enc.midpoint)
    radius = float(enc.width) / 2.0
    return abs(est.mean - mid) <= 3.0 * est.half_width + radius + 1e-12


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator; parallel strands get (seed, stream) substreams."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


@memo(1)
def _cdf_up() -> np.ndarray:
    """F_up[j], the smallest double >= P(X <= j) = C[j+1]/D, for j < 1024; then +inf.

    A double u has u >= C[j+1]/D exactly when u >= F_up[j], so the count of
    F_up[j] <= u is the exact table index of u, with no near-edge repair.
    The +inf at index 1024 stops any step past the table.  The integer table
    (C, D) is fixed and small, so it is exact whatever the exact limit.
    """
    C, D = weights._prefix_exact(1, _TABLE_SIZE)
    F = []
    for c in C[1:]:
        x = c / D  # int division rounds correctly
        num, den = x.as_integer_ratio()
        F.append(math.nextafter(x, math.inf) if num * D < c * den else x)
    arr = np.array(F + [math.inf])
    arr.flags.writeable = False
    return arr


@memo(1)
def _guide() -> np.ndarray:
    """g = #{j : F_up[j] <= c / 2^16} for each cell c = 0 .. 2^16, or ~g (Chen and Asau 1974).

    The entry is the flag ~g < 0 when a table edge F_up[j] lies strictly
    inside the cell, between c / 2^16 and (c + 1) / 2^16; 933 cells are
    flagged.  A double u in [0, 1] lies in cell int(u 2^16), computed
    exactly as u is a multiple of 2^-53; cell 2^16 holds u = 1.0 alone.  g
    is the index of every u in an unflagged cell.  In a flagged one the
    index is reached by stepping up past the edges inside the cell, and no
    cell holds more than two, so two steps reach it.
    """
    F = _cdf_up()
    cells = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS  # exact
    guide = np.searchsorted(F, cells, side="right")
    inner = np.append(np.searchsorted(F, cells[1:], side="left") > guide[:-1], False)
    guide[inner] = ~guide[inner]
    guide.flags.writeable = False
    return guide


def _table_index(u: np.ndarray, cells: np.ndarray, out: np.ndarray) -> np.ndarray:
    """#{j < 1024 : F_up[j] <= u} for each u in [0, 1], into out; 1024 is the tail.

    u 2^16 <= 2^16 casts exactly to an int64 cell, into cells (as long as
    u, like out); only the draws in flagged cells, about 1.4%, take the two
    compare steps.  Every cell is in the guide's range, so take's clip mode
    clips nothing; unlike the default mode it fills out with no copy.
    """
    np.multiply(u, _GUIDE_CELLS, out=cells, casting="unsafe")
    idx = _guide().take(cells, out=out, mode="clip")
    edge = np.nonzero(idx < 0)[0]
    F, ue, i = _cdf_up(), u[edge], ~idx[edge]
    i += F[i] <= ue
    i += F[i] <= ue
    idx[edge] = i
    return idx


def _tail_below(m: np.ndarray, logv: np.ndarray) -> np.ndarray:
    """log T(m + 1) < logv elementwise, with log T the series of weights."""
    x = (m + 1).astype(np.float64)
    return weights._log_tail_series(x, np.log(x)) < logv


def _invert_tails(u: np.ndarray) -> np.ndarray:
    """For each u >= 1/2, the smallest m >= 1024 with T(m+1) < 1 - u, as int64.

    Write below(m) for the test log T(m+1) < log v in floats, v = 1 - u.

    Point guess.  With s = 1/(pi v^2), log T(m) ~ -log(pi m)/2 - 1/(8m)
    puts the answer near s - 1/4, so a draw with s < 2^42 first tries
    c = max(1024, floor(s - 1/4)) and takes it when below(c) holds and
    below(c - 1) does not.  That is the answer, and the one any valid
    bracket gives, the wide one below included, because for such a draw
    below is false up to one m and true from there on.  The float series is
    within 163u of log T and np.log(v) within 256u of log v (u = 2^-53), so
    - for m >= 2^43 > 2 s, log T(m+1) < log v + log(1/2)/2 < log v - 0.34,
      far past those errors, and below(m) holds;
    - for m < 2^43.6, the exact step log T(m+1) - log T(m+2) =
      log(1 + 1/(2m+3)) exceeds 2 x 163u, so the float series is strictly
      decreasing in m and below switches at most once from false to true.
    Past s = 2^42 the float series is no longer monotone where below is in
    doubt, so the result may depend on the path of the bisection, and those
    draws take the wide bracket.  So do the few whose two tests fail, where
    the guess is off (0 to 3 in each 74,000 seeded tail draws).

    Wide bracket, one bisection over all those draws, each in its own
    [lo, hi]: no m < lo passes below(m), and below(hi) holds or hi is the
    cap.  lo = 1024 and hi starts at 4 int(1/(pi v^2)), growing fourfold
    until the test holds there, clamped at _INDEX_CAP so that lo + hi fits
    int64; a draw whose test fails at the cap, or with v = 0, takes the cap.
    """
    out = np.full(u.shape, _INDEX_CAP, dtype=np.int64)
    v = 1.0 - u  # exact: u >= 1/2 here (Sterbenz)
    pos = np.nonzero(v > 0.0)[0]
    v = v[pos]
    logv = np.log(v)
    s = 1.0 / (np.pi * v * v)
    c = np.maximum(_TABLE_SIZE, np.floor(np.minimum(s, 2.0**42) - 0.25).astype(np.int64))
    hit = (s < 2.0**42) & _tail_below(c, logv) & ~_tail_below(c - 1, logv)
    out[pos[hit]] = c[hit]
    miss = ~hit
    pos, logv, s = pos[miss], logv[miss], s[miss]
    lo = np.full(pos.shape, _TABLE_SIZE, dtype=np.int64)
    hi = np.maximum(2 * _TABLE_SIZE, 4 * np.minimum(s, _INDEX_CAP >> 2).astype(np.int64))
    grow = np.nonzero((hi < _INDEX_CAP) & ~_tail_below(hi, logv))[0]
    while grow.size:
        hi[grow] = 4 * np.minimum(hi[grow], _INDEX_CAP >> 2)
        grow = grow[(hi[grow] < _INDEX_CAP) & ~_tail_below(hi[grow], logv[grow])]
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


def _sampler(gen: np.random.Generator, size: int):
    """draw(m) -> (m iid draws from alpha as int64, their uniforms), for m <= size.

    One uniform is consumed per draw: gen.random(out=...) consumes the
    stream as gen.random(m) does, so the draws of successive calls are
    those of one call for all of them.  Every call fills the same three
    buffers, made here once, so its draws are a view that the next call
    overwrites (copy them to keep them); the uniforms are spent once the
    draws are made, and the caller may overwrite them.
    """
    u, cells, idx = np.empty(size), np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)

    def draw(m: int) -> tuple:
        um, im = u[:m], idx[:m]
        gen.random(out=um)
        _table_index(um, cells[:m], im)
        tail = np.nonzero(im == _TABLE_SIZE)[0]
        im[tail] = _invert_tails(um[tail])
        return im, um

    return draw


def _sample_array(gen: np.random.Generator, size: int) -> np.ndarray:
    """size iid draws from alpha, as int64; one uniform consumed per draw."""
    return _sampler(gen, size)(size)[0]


def _eval_on_indices(f: SeqFunction, idx: np.ndarray, out=None) -> np.ndarray:
    """f at each index, as float64, into out when given."""
    out = np.empty(len(idx)) if out is None else out
    if isinstance(f, PowerGrowth):
        out[...] = idx
        np.power(out, f.beta, out=out)
        out[idx == 0] = 0.0
        return out
    # runs starting past the index cap are never reached; clamp to fit int64
    starts = np.array([min(s, _INDEX_CAP + 1) for s in f.starts], dtype=np.int64)
    levels = np.array([float(v) for v in f.levels])
    pos = np.searchsorted(starts, idx, side="right")
    pos -= 1  # at least 0, as starts[0] = 0, so clip clips nothing
    return levels.take(pos, out=out, mode="clip")


def _value_chunks(f: SeqFunction, n: int, k: int, trials: int, gen):
    """f(S_n + k) for `trials` walks in turn, in chunks of at most 2^16 draws.

    The draws, their sums and the values of every chunk go into buffers
    made once for the call (the values into the chunk's spent uniforms, at
    least one a walk for n >= 1), so each chunk is a view that the next one
    overwrites.  S_n + k saturates at _INDEX_CAP; k <= _INDEX_CAP, so
    nothing wraps int64.
    """
    rows = max(1, (1 << 16) // max(n, 1))
    first = min(rows, trials)
    draw = _sampler(gen, first * n)
    # a walk of one step is its own sum, summed in the draws' buffer
    sums = np.empty(first if n != 1 else 0, dtype=np.int64)
    for start in range(0, trials, rows):
        size = min(rows, trials - start)
        draws, u = draw(size * n)
        draws = draws.reshape(size, n)
        # the ints of sum(axis=1), some 3x faster on short rows
        s = draws[:, 0] if n == 1 else np.einsum("ij->i", draws, out=sums[:size])
        if n * int(draws.max(initial=0)) >= 1 << 63:
            # the int64 sums may have wrapped: redo them in Python integers
            s[:] = [min(sum(r), _INDEX_CAP) for r in draws.tolist()]
        np.minimum(s, _INDEX_CAP - k, out=s)
        s += k
        yield _eval_on_indices(f, s, u[:size] if n else None)


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
        dev = v - mu
        m2 += float(np.square(dev, out=dev).sum()) + d * d * c * (count - c) / count
        del dev  # before the next chunk is drawn
    return mean, m2


def mc_apply_A(
    f: SeqFunction, n: int, k: int, trials: int, gen: np.random.Generator
) -> McEstimate:
    """Estimate A^n(f)(k) = E f(S_n + k) from `trials` simulated walks.

    Draws (max(n, 1) per walk) past the work budget raise a
    ResourceLimitError before any is made.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if n < 0 or not 0 <= k <= _INDEX_CAP:
        raise ValueError(f"need n >= 0 and 0 <= k <= {_INDEX_CAP}")
    # 4 entry steps a draw (limits docstring)
    check_work(4 * max(n, 1) * trials, f"{trials} walks of {n} steps")
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
