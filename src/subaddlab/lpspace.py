"""The weighted sequence space l^p(N, alpha) and the barycenter operator A.

A function f on N lives in the space when sum_k alpha_k |f(k)|^p is finite.
The operator is A = sum_j alpha_j T^j (T the translation f -> f(.+1)), so
A^n(f)(k) = sum_j alpha^n_j f(j+k) = E f(S_n + k) for the random walk S_n.

Two function kinds cover every witness: PowerGrowth (k^beta) and
EventuallyConstant, a table v_0..v_{L-1} followed by a constant c, which
IndicatorGE, IndicatorWindow and FiniteTable build.  For the latter both key
sums close with finitely many terms.  With runs [a_s, b_s) at levels v_s and
P_n the prefix mass of alpha^n (offsets clipped to [0, L - k]):

    A^n f(k)  = c + sum_s (v_s - c) (P_n(b_s - k) - P_n(a_s - k))
    ||f||_p^p = sum_{k<L} alpha_k |v_k|^p + |c|^p T(L)

So one prefix row serves every k.  _image evaluates A^n f over a range of k
from one exact prefix (integers over one power of two) or one compensated
float prefix (weights._float_prefix: a few u of each segment's own mass
beside weights.row_error), and apply_A_pow, image_p_norm and
experiments.growth_curve all read it; for many n, the exact prefixes share
one pass of integers over one denominator.  Neither the image nor the
masses depend on the exponent, so image_p_norm_table reads every p off one
image line and one mass list, and forms the ends of every (n, p) as arrays
in one pass (_norm_table_ends, which verify's norm_upper_bound reads
directly); image_p_norm and p_norm, for such f, are its one-n,
one-exponent cases, p_norm at n = 0.  Infinite sums are returned as
Enclosure(lower, upper) pairs of Python numbers, exact whenever
the function and the backend allow it.  For PowerGrowth, _power_image adds
a certified tail bound to a float row sum with the derived allowance of
weights.row_dot (about 1e-13 relative, whatever the row length);
apply_A_pow and experiments.pointwise_divergence take that sum from
weights.row_dots, slice by slice, and image_p_norm from row_dot on one row.
A float norm sum has the derived allowance of _norm_sum_ends.  Its powers,
and the roots of every norm, are np.float_power: libm's pow, within one ulp,
as Python's ** is.  np.power is not used there: its vector loop (AVX-512
where the CPU has it) is not libm's, differs from it by an ulp at about 5%
of points, and would make the ends depend on the host.

A truncated enclosure (apply_A_pow with J given) is the sum over j < J plus
a bracket on the discarded remainder: the discarded mass times
[min(0, inf), max(0, sup)] of the levels not yet summed.  For f >= 0 the
lower end is the truncated sum itself; for signed f both ends move, so the
enclosure contains the true value for any sign pattern.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import weights
from .errors import NotInLpError, NotSummableError
from .limits import Limits, Memo, current_limits

Real = Union[int, float, Fraction]

# the truncation of a k^beta sum when J (or K) is omitted: min(max_j, this)
_POWER_CAP = 1 << 21
# image_p_norm's default k and j extents for k^beta
_IMAGE_SIZE = 1 << 12


def check_exponent(p) -> float:
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    return p


@dataclass(frozen=True)
class PowerGrowth:
    """k^beta, with the value at k = 0 defined as 0."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and >= 0")

    def __call__(self, k: int):
        if k < 0:
            raise ValueError("index must be >= 0")
        return 0.0 if k == 0 else float(k) ** self.beta


@dataclass(frozen=True)
class EventuallyConstant:
    """A finite table followed by a constant, stored as runs.

    f(k) = levels[i] for starts[i] <= k < starts[i+1], and the last run never
    ends: with L = starts[-1] and c = levels[-1], f(k) = c for every k >= L.
    starts must begin at 0 and not decrease; construction drops empty runs
    and merges equal neighbours, so each function has one representation
    and == compares functions.  IndicatorGE, IndicatorWindow and FiniteTable
    build the common cases.
    """

    starts: tuple
    levels: tuple

    def __post_init__(self):
        if len(self.starts) != len(self.levels) or tuple(self.starts[:1]) != (0,):
            raise ValueError("need one level per run start, and starts[0] == 0")
        starts, levels = [], []
        for s, v in zip(self.starts, self.levels):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("levels must be finite")
            if starts and s <= starts[-1]:
                if s < starts[-1]:
                    raise ValueError("run starts must not decrease")
                starts.pop()
                levels.pop()
            if not levels or v != levels[-1]:
                starts.append(s)
                levels.append(v)
        object.__setattr__(self, "starts", tuple(starts))
        object.__setattr__(self, "levels", tuple(levels))

    def __call__(self, k: int):
        if k < 0:
            raise ValueError("index must be >= 0")
        return self.levels[bisect.bisect_right(self.starts, k) - 1]


# the two function kinds every operation dispatches on
SeqFunction = Union[PowerGrowth, EventuallyConstant]


def IndicatorGE(m: int) -> EventuallyConstant:
    """1 on {k >= m}, else 0."""
    if m < 0:
        raise ValueError("threshold must be >= 0")
    return EventuallyConstant((0, m), (0, 1))


def IndicatorWindow(a: int, b: int) -> EventuallyConstant:
    """1 on the half-open window [a, b), else 0."""
    if a < 0 or a > b:
        raise ValueError("need 0 <= a <= b")
    return EventuallyConstant((0, a, b), (0, 1, 0))


def FiniteTable(values: Sequence[Real]) -> EventuallyConstant:
    """Finitely supported function given by a value table; 0 beyond it."""
    vals = tuple(values)
    return EventuallyConstant(tuple(range(len(vals) + 1)), vals + (0,))


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _pad_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _pad_up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Enclosure:
    """A certified bracket [lower, upper] around a (possibly infinite) sum."""

    lower: Real
    upper: Real

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"inverted enclosure: {self.lower} > {self.upper}")

    @classmethod
    def point(cls, v: Real) -> "Enclosure":
        return cls(v, v)

    def __iter__(self):  # lo, hi = enclosure
        return iter((self.lower, self.upper))

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def midpoint(self):
        if _is_exact(self.lower) and _is_exact(self.upper):
            return (Fraction(self.lower) + Fraction(self.upper)) / 2
        return (float(self.lower) + float(self.upper)) / 2


def _root_ends(lo, hi, p) -> tuple:
    """Ends of [lo, hi] mapped through x -> max(x, 0)^(1/p), each padded outward by 4 ulps.

    lo, hi and p are floats or float arrays that broadcast, and so are the
    ends.  The power is np.float_power: libm's pow, as Python's ** is (see
    _norm_sum_ends).
    """
    r_lo, r_hi = (np.float_power(np.maximum(x, 0.0), 1.0 / p) for x in (lo, hi))
    for _ in range(4):
        r_lo, r_hi = np.nextafter(r_lo, -np.inf), np.nextafter(r_hi, np.inf)
    return np.maximum(r_lo, 0.0), r_hi


# the rounding budget of a float norm sum, in units of u = 2^-53 beside the
# p u that each rounding of a power's base adds; derived in _norm_sum_ends
_NORM_SUM_ULPS = 10


def _norm_sum_ends(masses, lo_abs, hi_abs, ps) -> tuple:
    """Root ends of (sum_i masses[i] |v_i|^p)^(1/p) for |v_i| in [lo_abs[r][i], hi_abs[r][i]].

    masses is a float array of length L; lo_abs and hi_abs hold one row of
    L reals per line (a 2-D array or nested lists), and ps is a float array.
    The ends hold one line per row and one column per p: floats, or exact
    Fractions past the float range.  Each (row, p) sum is one fsum of the
    nonnegative float terms mass * |v|^p.  The power is np.float_power,
    which is libm's pow, as Python's ** is; not np.power, whose vector loop
    (AVX-512 where the CPU has it) is not libm's and differs from it by an
    ulp at about 5% of points, so the ends would change with the host.

    Each term's relative error, in units of u = 2^-53 (half an ulp): the
    mass, a float (the caller rounds an exact mass or alpha_k once, 1; a
    _run_mass float is within one ulp, 2); |v|^p, where float(|v|) rounds
    once (1) and the power multiplies that p-fold, and libm's pow is within
    one ulp (2); the product (1).  So a term is within (p + 5) u; fsum
    rounds the nonnegative sum once (1) and padding its ends rounds twice
    more (2), (p + 8) u in all, which _NORM_SUM_ULPS = 10 covers with room
    for the second-order terms.  A term that underflows loses at most
    2^-1074 absolutely instead, and so does a term whose base underflows (by
    at most 2^-1075, which the power, p > 1, does not magnify past 2^-1074),
    so both ends also move by that much per term.

    When a level of a row, a power or a padded sum leaves the float range
    (the line's upper end is then inf), that line's sums are taken of
    mass * (|v| 2^-e)^p, with 2^e above every level of the row (e the bit
    length of the largest), and the root is scaled back by 2^e:
    sum mass |v|^p = 2^(ep) sum mass (|v| 2^-e)^p.  The quotient is exact
    and rounds once to a float, as float(|v|) does, so the budget stays
    (p + _NORM_SUM_ULPS) u; the scaling back is exact too, giving a float
    end when it fits and an exact Fraction end when it does not.
    """
    def sums(rows):  # one fsum per (row, p)
        terms = masses * np.float_power(_float_rows(rows)[:, None], ps[:, None])
        return np.array([[_fsum(t) for t in line] for line in terms.tolist()])

    pad, tiny = (ps + _NORM_SUM_ULPS) * 2.0**-53, math.ulp(0.0) * (len(masses) + 1)
    with np.errstate(over="ignore"):  # an inf power or sum sends its line to the scaled path
        lo = sums(lo_abs)
        hi = lo if hi_abs is lo_abs else sums(hi_abs)
        lo, hi = _root_ends(lo * (1 - pad) - tiny, hi * (1 + pad) + tiny, ps)
    for r, i in np.argwhere(hi == np.inf):
        lo, hi = lo.astype(object), hi.astype(object)
        e = max(map(_bit_exponent, hi_abs[r]))
        rows = ([[Fraction(a) / 2**e for a in v[r]]] for v in (lo_abs, hi_abs))
        ends = _norm_sum_ends(masses, *rows, ps[i : i + 1])
        lo[r, i], hi[r, i] = (_times_pow2(x.item(), e) for x in ends)
    return lo, hi


def _float_rows(rows) -> np.ndarray:
    """Rows of reals as a 2-D float array; a row with a value past the float range reads inf."""
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError:
        return np.array([[np.inf] * len(r) if len(rows) < 2 else _float_rows([r])[0] for r in rows])


def _fsum(terms) -> float:
    """math.fsum, or inf when a partial sum leaves the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _bit_exponent(a: Real) -> int:
    """An e with |a| < 2^e: for a = P/Q in lowest terms, bits(P) - bits(Q) + 1."""
    x = Fraction(a)
    return x.numerator.bit_length() - x.denominator.bit_length() + 1


def _times_pow2(x: float, e: int) -> Real:
    """x 2^e exactly: a float when it fits, else a Fraction."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return Fraction(x) * 2**e


def p_norm(f: SeqFunction, p, K: Optional[int] = None) -> Enclosure:
    """Enclosure of (sum_k alpha_k |f(k)|^p)^(1/p).

    An eventually-constant f is image_p_norm_table's n = 0, one-exponent
    case, which sums run by run, sum_k alpha_k |v_k|^p + |c|^p T(L), exactly
    when every level is 0 or +-1 (indicators).  For PowerGrowth
    the sum is A(k^(beta p))(0), with 0^(beta p) = 0: apply_A_pow's
    enclosure at n = 1 and J = K, which sums k < K slice by slice and adds
    the integral-comparison tail power_tail_bound(beta p, K).  It is rejected
    outright when beta*p >= 1/2 (the function is then outside the space).
    K < 1 is refused, although apply_A_pow sums one term at J = 0.  K
    omitted means K = min(SUBADDLAB_MAX_J, 2^21), with no search for a
    smaller K: the tail decays like K^(beta p - 1/2), so no K below that cap
    brings the width within 1e-10 of the value.
    """
    if isinstance(f, EventuallyConstant):
        return image_p_norm_table(f, (0,), (p,))[0][0]
    p = check_exponent(p)
    q = f.beta * p
    if q >= 0.5:
        raise NotInLpError(
            f"k^{f.beta} is outside l^{p}(N, alpha): needs beta*p < 1/2, got {q}"
        )
    K = min(current_limits().max_j, _POWER_CAP) if K is None else K
    if K < 1:
        raise ValueError("K must be >= 1")
    e = apply_A_pow(PowerGrowth(q), 1, 0, J=K)
    return Enclosure(*map(float, _root_ends(e.lower, e.upper, p)))


def _exact_value(v) -> Union[int, Fraction]:
    return Fraction(v) if isinstance(v, float) else v


def apply_A_pow(
    f: SeqFunction,
    n: int,
    k: int,
    J: Optional[int] = None,
    backend: str = "auto",
) -> Enclosure:
    """Enclosure of A^n(f)(k) = sum_j alpha^n_j f(j+k).

    With J omitted, an eventually-constant f resolves to the exact value
    (degenerate enclosure) on the exact backend: past the table the series
    closes as c times 1 minus a finite prefix mass.  With J given, the
    enclosure is the truncated sum over j < J plus a certified bracket on
    the discarded remainder (module docstring).  For an eventually-constant
    f both come from _image.

    For k^beta the enclosure is _power_image's: the sum over j < J
    (J = 0 sums one term) plus a certified tail.  J omitted means
    J = min(SUBADDLAB_MAX_J, 2^21), with no search for a smaller J: the
    tail decays like J^(beta - 1/2), so no J below that cap brings the
    width within 1e-10 of the value.  The sum is _power_sums' when a sweep
    of experiments.pointwise_divergence covered n, the same bits, and else
    steps row n alone; the ceilings of stepping it are checked either way.
    """
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    if isinstance(f, PowerGrowth) and n >= 1 and f.beta >= 0.5:
        raise NotSummableError(
            f"sum of alpha^n_j (j+k)^{f.beta} diverges: needs beta < 1/2"
        )
    if n == 0:
        return Enclosure.point(f(k))
    if J is not None and J < 0:
        raise ValueError("truncation must be >= 0")
    if isinstance(f, PowerGrowth):
        J = max(min(current_limits().max_j, _POWER_CAP) if J is None else J, 1)
        weights._check_steps(J, n)
        sums = _power_sums.get((f.beta, k, J), ())
        if n <= len(sums):
            s, err = sums[n - 1]
        else:
            ((s, err),) = weights.row_dots(
                n, J, lambda a, b: _powers(f.beta, k + a, b - a), _POW_ULPS, n_min=n
            )
        lo, hi = _power_image(f, n, k, J, s, err)
        return Enclosure(float(lo), float(hi))
    if J is None and k >= f.starts[-1]:
        return Enclosure.point(Fraction(f.levels[-1]))
    lo, hi = (ends.tolist() for ends in _image(f, (n,), k, k + 1, J, backend, current_limits()))
    return Enclosure(lo[0][0], hi[0][0])


# the error of np.power in float64, in units of u = 2^-53 (4 ulps)
_POW_ULPS = 8

# the power-row sums of apply_A_pow for k^beta: by (beta, k, J), the (s, err)
# of weights.row_dots against (j+k)^beta, j < J, for n = 1, 2, ... in turn.
# experiments.pointwise_divergence fills it (a limits.Memo: clear_memos()
# empties it); apply_A_pow reads it for the n it covers
_power_sums = Memo()


def _powers(beta: float, k: int, J: int) -> np.ndarray:
    """(j+k)^beta for j < J, with 0^beta = 0, each within _POW_ULPS u."""
    out = np.arange(k, k + J, dtype=np.float64)
    np.power(out, beta, out=out)  # in place: no second vector of length J
    if k == 0 and J:
        out[0] = 0.0
    return out


def _power_image(f: PowerGrowth, n: int, k, J: int, s, err) -> tuple:
    """Ends (lo, hi) of the enclosure of A^n(k^beta)(k), n >= 1 and J >= 1.

    (s, err) is the sum over j < J: weights.row_dot(n, float_row(n, J),
    _powers(f.beta, k, J), _POW_ULPS), or its twin weights.row_dots.  k may
    be an array of ks, with one line of powers per k, and the ends are then
    arrays.  The tail uses alpha^n_j <= n alpha_j and
    (j+k)^beta <= (1+k/J)^beta j^beta for j >= J, so it is at most
    n (1+k/J)^beta power_tail_bound(beta, J).
    """
    tail = n * (1.0 + k / J) ** f.beta * weights.power_tail_bound(f.beta, J)
    lo = np.maximum(np.nextafter(s - err, -np.inf), 0.0)
    return lo, np.nextafter(np.nextafter(s + err, np.inf) + tail, np.inf)


def _image(f, ns, k0: int, k1: int, J, backend: str, lim, floats=False, row=None):
    """Ends (lo, hi) of the enclosures of A^n f(k) for n in ns (each >= 1) and k0 <= k < k1.

    Each k sums f over the window [k, k + W), W = J, or W = max(L - k, 0)
    when J is omitted (every level past L is c), and brackets the rest.
    With P the prefix mass of alpha^n and runs [a_s, b_s) at levels v_s,

        A^n f(k) in sum_s v_s (P(hi_s) - P(lo_s)) + R [lo_level, hi_level],

    lo_s, hi_s the run's offsets a_s - k, b_s - k clipped to [0, W] and
    R = 1 - P(W).  With J omitted both levels are c, and this is the closed
    identity A^n f(k) = c + sum_s (v_s - c)(P(b_s - k) - P(a_s - k)); with
    J given they are min(0, inf) and max(0, sup) of the levels not yet
    summed.  A k takes the exact prefix, integers over one power of two
    (weights._prefix_exact), when exact_ok(n, W) holds on the "auto"
    backend, and every k does on "exact"; its ends are the exact ratios
    x / d, as Fractions, or with floats as the floats they round to (a
    Fraction past the float range).  The other ks take the compensated
    float prefix of weights._float_prefix, which bounds each segment mass;
    their ends are floats.  When every k of every n is exact, one
    _exact_image pass forms them all; else each n is formed on its own.  A
    caller that steps rows in n may pass, with one n, row n of a float row
    longer than every window, which the float prefix reads.  Each exact
    prefix is built for the call alone.  lo and hi hold one line per n;
    they are float64 when every end was formed in float64 (by the float
    prefix, or as floats by the int64 pass), else objects.
    """
    ks = np.arange(k0, k1)
    if not len(ks):
        return (np.empty((len(ns), 0)),) * 2
    if J is None:  # refuse a window past the ceiling before W holds it in int64
        lim.check_row_length(f.starts[-1] - k0)
    W = np.full(len(ks), J) if J is not None else np.maximum(f.starts[-1] - ks, 0)

    def cut(n):  # W does not grow with k, so the exact ks are the last ones
        if backend != "auto":
            return 0 if backend == "exact" else len(ks)
        return int(np.count_nonzero(~weights._exact_ok(n, W, lim)))

    cuts = [cut(n) for n in ns]
    if not any(cuts):
        return _exact_image(f, ns, ks, W, J, lim, floats)
    lines = []
    for n, c in zip(ns, cuts):
        parts = [_float_image(f, n, ks[:c], W[:c], J, row)] if c else []
        if c < len(ks):
            parts.append([e[0] for e in _exact_image(f, [n], ks[c:], W[c:], J, lim, floats)])
        lines.append(tuple(np.concatenate(e) for e in zip(*parts)))
    return tuple(np.stack(e) for e in zip(*lines))


# _runs forms at most about this many (run, k) cells at a time
_RUN_CELLS = 1 << 16


def _runs(f: EventuallyConstant, levels, ks, W, width: int = 1):
    """Yield (vs, lo, hi) for the runs [a, b) of f at a level v = levels[i] != 0 that meet a window.

    vs lists those levels in run order; lo and hi hold the offsets a - k and
    b - k clipped to [0, W], one line per run and one column per k.  The
    runs come in order, in blocks of at most
    max(1, _RUN_CELLS // (len(ks) width)) lines, so a long table never
    holds a (runs x ks x width) array, width the caller's terms per cell;
    a short one (norm_upper_bound's) is one block.
    """
    end = int((ks + W).max())  # no window reaches past this
    runs = [
        (a, b, v)
        for a, b, v in zip(f.starts, f.starts[1:] + (end,), levels)
        if v and a < end and b > ks[0]
    ]
    size = max(1, _RUN_CELLS // (len(ks) * width))
    for block in (runs[i : i + size] for i in range(0, len(runs), size)):
        a, b = (np.array([r[i] for r in block], dtype=np.int64).reshape(-1, 1) for i in (0, 1))
        vs = [v for _, _, v in block]
        yield vs, np.minimum(np.maximum(a - ks, 0), W), np.minimum(np.maximum(b - ks, 0), W)


def _rest(f: EventuallyConstant, levels, ks, J: Optional[int], dtype) -> tuple:
    """The remainder's level bracket (lows, highs) for each k, from f's levels.

    Both are c with J omitted; else min(0, ...) and max(0, ...) of the
    levels from the run at k + J on, as arrays over ks.
    """
    if J is None:
        return levels[-1], levels[-1]
    at = np.searchsorted(f.starts, ks + J, "right") - 1
    rest = ([*itertools.accumulate(levels[::-1], op, initial=0)][:0:-1] for op in (min, max))
    return tuple(np.array(r, dtype=dtype)[at] for r in rest)


# the int64 pass of _exact_image is exact while every integer in it is below this
_INT64_EXACT = 1 << 53


def _exact_image(f, ns, ks, W, J, lim: Limits, floats: bool) -> tuple:
    """_image's exact ends for every n in ns, one line per n, from one pass.

    The levels are integers over q, the lcm of their denominators.  Row n's
    prefix C^n, over 2^(2w + n) with w = max(W), is scaled by 2^(n_max - n)
    onto the one denominator D = 2^(2w + n_max), n_max = max(ns).  Each end
    is then the integer x = partial + level (D - C[W]) over d = q D, and
    one pass forms the (run, k, n) terms of every line.

    The pass runs in int64 when max(M, q) D < 2^53, M the largest |level|
    as an integer over q; else on Python ints in object arrays.  In int64
    every integer formed is exact and below 2^53 in magnitude: a prefix
    entry or difference is at most D; a run term v (C[b] - C[a]) at most M
    times that run's share of the window's mass, so every partial sum over
    the disjoint runs is at most M C[W], and x at most M D.  x and d are
    then exact floats too, so float(x) / float(d), one IEEE division, is
    x / d correctly rounded: the float that int / int gives.
    """
    fracs = [_exact_value(v) for v in f.levels]
    q = math.lcm(*(x.denominator for x in fracs))
    levels = [x.numerator * (q // x.denominator) for x in fracs]
    w, n_max = int(W.max()), max(ns)
    for n in ns:
        weights._check_exact(n, w, lim)
    D = 1 << (2 * w + n_max)
    dtype = np.int64 if max(*map(abs, levels), q) * D < _INT64_EXACT else object
    # one column per n, each row's prefix scaled onto the denominator D
    C = np.array([weights._prefix_exact(n, w)[0] for n in ns], dtype=dtype).T
    C *= np.array([1 << (n_max - n) for n in ns], dtype=dtype)
    total = np.zeros((len(ks), len(ns)), dtype=dtype)
    for vs, lo, hi in _runs(f, levels, ks, W, len(ns)):
        # a block's run terms at every k and n in one pass, one (k, n) plane
        # per run; in place, so each run's difference is replaced by its
        # term, and the planes are summed onto the running total
        terms = C[hi]
        terms -= C[lo]
        terms *= np.array(vs, dtype=dtype).reshape(-1, 1, 1)
        total += terms.sum(axis=0)
    rem, d = D - C[W], q * D
    total, rem = total.T, rem.T  # one line per n
    to_value = np.frompyfunc(_float_or_exact if floats else Fraction, 2, 1)

    def ends(level):
        # an indicator's remainder level, 1, needs no pass over the numerators
        x = total + (rem if type(level) is int and level == 1 else level * rem)
        return x / float(d) if floats and dtype is np.int64 else to_value(x, d)

    lows, highs = _rest(f, levels, ks, J, dtype)
    lo = ends(lows)
    return lo, (lo if J is None else ends(highs))


def _float_image(f, n, ks, W, J, row) -> tuple:
    """_image's float ends, from one float row and its compensated prefix.

    Each run level v rounds once to a float (u |v|), and so does its product
    with a segment mass (u); the run sum s is compensated (TwoSum), so it
    errs by u |s| plus 2 r^2 u^2 sum |terms| for r runs: err in all.  A
    product that underflows, in a sum or in its bound, loses at most
    2^-1075, which 2^-1073 per run and 2^-1072 at the close cover.
    R = 1 - P(W) is within m_err + u |R~| of R~ = fl(1 - m), m the float
    mass P(W) and m_err its bound.  With a the remainder's level as a
    float, y = fl(s + a R~) is within
    err + |a| (m_err + 2u |R~|) + u |y| of that end: u |a R~| for R~,
    u |a R~| for the product and u |y| for the sum (none when there is no
    run), plus u |a R~| more when a level rounded.  Each end is y -+ B,
    B = (that + u |y|)(1 + 8u): rounding y -+ B moves it by at most
    u (|y| + B), which u |y| and the factor cover also after B itself
    rounds, and a sum in the subnormal range is exact.  With
    |y| <= |s| + |a R~| (1 + u), B is taken as
    (err + t u |s| + |a| (m_err + (2 + t + i) u |R~|)) (1 + 8u), with t the
    roundings of y (1 when there is no run, s = 0, else 2) and i = 1 when a
    level rounded.  A level past the float range is refused (ValueError).
    """
    try:
        levels = [float(v) for v in f.levels]
    except OverflowError:
        raise ValueError(
            "f has a level past the float range (about 1.8e308), so its image "
            "past the exact limit cannot be formed in floats"
        ) from None
    mass = weights._float_prefix(n, int(W.max()), row)
    s = comp = size = err = runs = 0
    for v, lo, hi in (run for block in _runs(f, levels, ks, W) for run in zip(*block)):
        m, m_err = mass(lo, hi)
        t = v * m
        s, e = weights._two_sum(s, t)
        comp, size, runs = comp + e, size + np.abs(t), runs + 1
        err = err + abs(v) * m_err + 3 * weights.U * np.abs(t) + 2 * weights.TINY
    s = s + comp
    err = err + weights.U * (np.abs(s) + 2 * runs**2 * weights.U * size) + 4 * weights.TINY
    m, m_err = mass(0, W)
    rem = 1.0 - m

    y_ulps = 1 + (runs > 0)
    rem_ulps = (2 + y_ulps + any(a != v for a, v in zip(levels, f.levels))) * weights.U

    def bracket(a):
        b = err + y_ulps * weights.U * np.abs(s) + np.abs(a) * (m_err + rem_ulps * np.abs(rem))
        return s + a * rem, b * (1 + 8 * weights.U)

    lows, highs = _rest(f, levels, ks, J, float)
    (y_lo, b_lo), (y_hi, b_hi) = (bracket(lows),) * 2 if J is None else map(bracket, (lows, highs))
    return y_lo - b_lo, y_hi + b_hi


def cesaro_T(f: SeqFunction, n: int, k: int):
    """M_n(T)(f)(k) = (1/n) sum_{j<n} f(j+k), an exact finite sum."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        raise ValueError("index must be >= 0")
    vals = [f(k + j) for j in range(n)]
    if all(_is_exact(v) for v in vals):
        return Fraction(sum(vals), n)
    return math.fsum(float(v) for v in vals) / n


def cesaro_A(f: SeqFunction, n: int, k: int, J: Optional[int] = None) -> Enclosure:
    """Enclosure of (1/n) sum_{i<n} A^i(f)(k), with A^0 the identity.

    The ends of apply_A_pow(f, i, k, J=J) for i < n are summed once per
    side.  When every end is exact, each side is its exact sum over n, one
    Fraction.  Else the upper end is _mean_up of the upper ends, and the
    lower end is -_mean_up of the negated lower ends: the same rounding,
    mirrored, so each end moves outward.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    los, his = zip(*(apply_A_pow(f, i, k, J=J) for i in range(n)))
    if all(map(_is_exact, los + his)):
        return Enclosure(Fraction(sum(los), n), Fraction(sum(his), n))
    return Enclosure(-_mean_up([-x for x in los], n), _mean_up(his, n))


def _mean_up(xs, n: int) -> float:
    """A float at or above (1/n) sum xs, for xs floats and exact reals.

    float(x) rounds an exact x to the nearest float, within half an ulp, so
    one ulp up (_pad_up, also a step of the subnormal spacing) is at or
    above x.  math.fsum correctly rounds the sum of those floats, and one
    IEEE division correctly rounds its quotient by n, so one ulp up after
    each keeps the bound.  A sum past the float range reads inf (_fsum).
    """
    s = _fsum([_pad_up(float(x)) if _is_exact(x) else x for x in xs])
    return _pad_up(_pad_up(s) / n)


def barycenter_residual(f: SeqFunction, k: int, J: int):
    """|A(f)(k) truncated at J, via the operator route, minus the direct sum|.

    Both routes are the same finite rational sum, so the residual is exactly
    zero; it is computed and returned for audit rather than asserted.
    """
    if isinstance(f, PowerGrowth):
        raise ValueError("needs a bounded function (indicator or finite table)")
    lhs = apply_A_pow(f, 1, k, J=J, backend="exact").lower
    rhs = sum(
        (weights.alpha_exact(j) * _exact_value(f(j + k)) for j in range(J)),
        Fraction(0),
    )
    return abs(lhs - rhs)


def image_p_norm(
    f: SeqFunction,
    n: int,
    p,
    K: Optional[int] = None,
    J: Optional[int] = None,
) -> Enclosure:
    """Enclosure of ||A^n f||_p.

    An eventually-constant f is image_p_norm_table's one-n, one-exponent
    case.  For PowerGrowth the k-tail is bounded through
    A^n(f)(k) <= C_n k^beta with C_n = sum_j alpha^n_j (1+j)^beta, and each
    image value for k < K is _power_image's enclosure at truncation J; K and
    J omitted mean 4096 each for n >= 1.  At n = 0 this is p_norm(f, p, K), so an omitted K there means
    p_norm's cap min(SUBADDLAB_MAX_J, 2^21).
    """
    p = check_exponent(p)
    if n < 0:
        raise ValueError("need n >= 0")
    if isinstance(f, EventuallyConstant):
        return image_p_norm_table(f, (n,), (p,), J)[0][0]
    if J is not None and J < 1:
        raise ValueError("need J >= 1")
    if n == 0:
        return p_norm(f, p, K)
    if f.beta >= 0.5:
        raise NotSummableError("image diverges pointwise: needs beta < 1/2")
    q = f.beta * p
    if q >= 0.5:
        raise NotInLpError(f"image outside the space: beta*p = {q} >= 1/2")
    K_eff = _IMAGE_SIZE if K is None else K
    J_eff = _IMAGE_SIZE if J is None else J
    if K_eff < 1:
        raise ValueError("need K >= 1")
    dot = functools.partial(weights.row_dot, n, weights.float_row(n, J_eff), w_ulps=_POW_ULPS)
    # (j+k)^beta for j < J and k < K is the sliding window k of one vector
    windows = np.lib.stride_tricks.sliding_window_view(
        _powers(f.beta, 0, K_eff + J_eff - 1), J_eff
    )
    ks = np.arange(K_eff, dtype=np.float64)
    blocks = [
        _power_image(f, n, ks[s : s + 1024], J_eff, *dot(windows[s : s + 1024]))
        for s in range(0, K_eff, 1024)
    ]
    lo_img, hi_img = (np.concatenate(ends) for ends in zip(*blocks))
    base = weights.float_row(1, K_eff)
    lo_sum, lo_err = weights.row_dot(1, base, lo_img**p, _POW_ULPS)
    hi_sum, hi_err = weights.row_dot(1, base, hi_img**p, _POW_ULPS)
    # k-tail: A^n f(k) <= C_n k^beta for k >= 1 since (j+k)^beta <= ((1+j)k)^beta
    c_n = float(_power_image(f, n, 1, J_eff, *dot(_powers(f.beta, 1, J_eff)))[1])
    outer_tail = _pad_up(c_n**p * weights.power_tail_bound(q, K_eff))
    hi = _pad_up(_pad_up(hi_sum + hi_err) + outer_tail)
    return Enclosure(*map(float, _root_ends(_pad_down(lo_sum - lo_err), hi, p)))


def image_p_norm_table(f: EventuallyConstant, ns, ps, J: Optional[int] = None) -> tuple:
    """Lines (image_p_norm(f, n, p, J=J) for p in ps) for n in ns, for an eventually-constant f.

    The sum over k closes exactly: the image is c on the mass T(L) past the
    table, and A^n f(k), bracketed by its enclosure from _image, on alpha_k
    for each k < L; alpha_k is rounded once, from one pass over the base
    numerators (weights._alpha_floats).  None of it depends on p, so one
    image line serves every p, and one _image pass forms the lines of every
    n >= 1, whose norms _norm_sum_ends forms in one pass too
    (_norm_table_ends).  That image pass runs in int64 while
    max(M, q) 2^(2w + n_max) < 2^53, with w = L (J omitted) or J, q the lcm
    of the levels' denominators and M the largest |level| as an integer
    over q (derived in _exact_image).  At n = 0 the line is p_norm(f, p)
    for p in ps.
    """
    lo, hi = _norm_table_ends(f, ns, ps, J)
    return tuple(tuple(map(Enclosure, *line)) for line in zip(lo.tolist(), hi.tolist()))


def _norm_table_ends(f: EventuallyConstant, ns, ps, J: Optional[int] = None) -> tuple:
    """image_p_norm_table's ends (lower, upper), arrays with one line per n and one column per p."""
    ps, ns = np.array([check_exponent(p) for p in ps]), list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("need n >= 0")
    if J is not None and J < 0:
        raise ValueError("truncation must be >= 0")
    lim, L, c = current_limits(), f.starts[-1], f.levels[-1]
    lines = {}
    if 0 in ns:  # run i carries mass T(starts[i]) - T(starts[i+1]), the last run T(L)
        masses = [weights._run_mass(a, b, lim) for a, b in zip(f.starts, f.starts[1:] + (None,))]
        levels = [[abs(v) for v in f.levels]]
        exact = all(isinstance(m, Fraction) for m in masses)
        if exact and all(_is_exact(a) and a in (0, 1) for a in levels[0]):
            mass = float(sum(m for m, a in zip(masses, levels[0]) if a))
            lines[0] = _root_ends(mass, mass, ps)
        else:
            lines[0] = [e[0] for e in _norm_sum_ends(np.array(masses, float), levels, levels, ps)]
    image_ns = [n for n in ns if n]
    if image_ns:
        lim.check_row_length(L)  # before islice, which takes no stop past sys.maxsize
        alphas = itertools.islice(weights._alpha_floats(), L)
        masses = np.array([float(weights._run_mass(L, None, lim)), *alphas])
        lo, hi = _image(f, image_ns, 0, L, J, "auto", lim, True)
        a, b = np.abs(lo), np.abs(hi)
        if lo is not hi:  # a truncated image: |v| for v in [lo, hi] lies in [a, b]
            a, b = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(a, b)), np.maximum(a, b)
        # |c| on the mass T(L) heads each row; c fits a float unless lo holds objects
        rest = np.full((len(image_ns), 1), abs(c), dtype=lo.dtype if L else object)
        a = np.concatenate((rest, a), axis=1)
        b = a if lo is hi else np.concatenate((rest, b), axis=1)
        lines.update(zip(image_ns, zip(*_norm_sum_ends(masses, a, b, ps))))
    return tuple(np.array([lines[n][i] for n in ns]).reshape(len(ns), len(ps)) for i in (0, 1))


def _float_or_exact(x: int, d: int) -> Real:
    """x / d as a float, or as a Fraction past the float range (_norm_sum_ends scales it)."""
    try:
        return x / d
    except OverflowError:
        return Fraction(x, d)


class BoundCheck(NamedTuple):
    lhs: Real
    rhs: Real
    ok: bool


def norm_bound_check(img, nf, factor) -> BoundCheck:
    """Check ||A^n f||_p <= factor ||f||_p from enclosures of the two norms.

    lhs is the upper end of the image norm; rhs is factor times the lower
    end of ||f||_p; the tolerance absorbs both enclosure widths plus a 1e-9
    relative allowance.  In floats, lhs and rhs are numpy floats and ok a
    numpy bool; when an end is a Fraction past the float range, the same
    inequality is decided exactly, and lhs and rhs are Fractions.  img and
    nf may also be (lower, upper) pairs of arrays, and factor an array, that
    broadcast: each element is then checked by the same rule, and lhs, rhs
    and ok are arrays.
    """
    (img_lo, img_hi), (nf_lo, nf_hi) = img, nf
    values = (img_hi, img_lo, nf_lo, nf_hi, factor, 1e-9)
    try:
        lhs, img_lo, nf_lo, nf_hi, c, eps = map(np.float64, values)
    except OverflowError:  # an end past the float range: decide exactly
        lhs, img_lo, nf_lo, nf_hi, c, eps = map(np.frompyfunc(Fraction, 1, 1), values)
    with np.errstate(over="ignore"):  # an inf rhs or tolerance holds, as in Python floats
        rhs = c * nf_lo
        tol = eps * (1 + abs(rhs)) + c * (nf_hi - nf_lo) + (lhs - img_lo)
    return BoundCheck(lhs, rhs, lhs <= rhs + tol)


def contraction_bound_check(
    f: SeqFunction, p, K: Optional[int] = None, J: Optional[int] = None
) -> BoundCheck:
    """Verify ||A f||_p <= 2^(1/p) ||f||_p up to enclosure resolution."""
    p = check_exponent(p)
    nf = p_norm(f, p, K)
    return norm_bound_check(image_p_norm(f, 1, p, K=K, J=J), nf, 2.0 ** (1.0 / p))
