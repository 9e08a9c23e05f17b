"""Exact and floating evaluation of the Catalan-type distribution and its powers.

The base law is alpha_j = C_j / 2^(2j+1) (C_j the j-th Catalan number): the
number of up-steps a simple symmetric walk makes before it first hits -1.
Its generating function is (1 - sqrt(1-x))/x, and the n-fold convolution
power has the closed form

    alpha^n_j = n / (2(j+n)) * 2^(1-2j-n) * binom(2j+n-1, j).

The base tail is exactly T(J) = sum_{j>=J} alpha_j = binom(2J, J) * 4^(-J).

Two backends.  "exact" is the authority for every certified statement.
Every exact weight is dyadic, alpha^n_j = N^n_j / 2^(2j+n) with the integer
(ballot) numerator N^n_j = n/(j+n) * binom(2j+n-1, j), so an exact row is a
tuple of Python ints with an implicit denominator 2^(2j+n), built by the
exact integer recurrence N_{j+1} = N_j (2j+n)(2j+n+1) / ((j+1)(j+n+1)).
The exact checks run on these integers: convolution is a plain integer
convolution, subadditivity and monotonicity are integer comparisons, and
prefix masses (_prefix_sums) are integer prefix sums over the one
denominator 2^(2J+n).  Fractions are built only at the API boundary
(exact_row, alpha_pow_exact, tail_exact).  exact_ok is the one rule for
which rows the exact backend takes; it reads the resource limits, and its
private twin _exact_ok, like _exact_prefix and _run_mass, takes them, for
callers that read the limits once per public call.

"log" carries value-domain float64 rows for index ranges where exact
integers get too wide: a base row of correctly rounded weights
(_alpha_floats) and a Stirling series, stepped in n by an exact ratio,
under one derived per-entry bound (row_error) that does not grow with the
row length.  One generator, _stepped, makes every float row, slice by
slice, each slice stepped through n while it is in cache; float_row
assembles one whole row from it.  The ratio alpha^(n+1)_j / alpha^n_j is
a_n / b_n with t = 2j, a_n = (n+1)(t+n), c_n = t+2n+2 and b_n = n c_n, and
a step (_step) carries its factors to the next n by a_(n+1) = a_n + c_n and
c_(n+1) = c_n + 2: five vector passes.  Every factor is an exact float
integer, as b_n <= n(2J+2n) < 2^53 for 2J + n <= 6e7 (derived in _stepped),
so each quotient rounds once.  A weighted sum over a row is a block_sum,
formed by one slice loop (_slice_dots) that serves both row_dot, over a
given row, and row_dots, over rows n = 1, 2, ... from the slices with no
full-length row, writing the block sums of every n into one block table;
the masses of many segments of one row come from its compensated
prefix sums (_float_prefix), the float twin of _exact_prefix.  The 40-digit log-gamma
values (alpha_pow_log, _run_mass) stand in for exact binomials past the exact
limit.  Binomials are never formed from factorial tables.  The
generating-function check (pgf_check) and the base floats (_alpha_floats)
step one fixed-point integer recurrence (_fixed_terms), at _FIXED_BITS
bits.  All public functions are pure.  The rows kept for the process
(_row_exact, _prefix_exact, _head_row) are limits.memo caches, which fill idempotently,
so concurrent callers see behavior as if nothing were cached, and
limits.clear_memos() empties them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
import numpy as np

from .errors import NotSummableError, ResourceLimitError
from .limits import Limits, check_work, current_limits, memo

Weight = Union[Fraction, float]

# Limit of alpha_k * k^(3/2), by Stirling on the closed form.  The approach is
# monotone from below: alpha_k = T(k)/(2(k+1)) <= k^(-3/2)/(2 sqrt(pi)) for
# every k >= 1, which is what power_tail_bound leans on.
ASYMPTOTIC_CONSTANT = 0.28209479177387814  # 1/(2 sqrt(pi))

# unit roundoff of float64 (half an ulp of 1) and the smallest subnormal
U = 2.0**-53
TINY = math.ulp(0.0)
# block_sum adds numpy sums of this many terms with math.fsum
SUM_BLOCK = 1024
# the base float row is rounded from exact numerators below this index
_HEAD = 1024
# relative error of a base-row entry in units of U, derived in _stepped
_BASE_ULPS = 96
# the float row ratios stay exact integers while 2J + n is at most this
_RATIO_EXACT_MAX = 60_000_000
# float rows are built, stepped and summed in slices of this many entries
# (whole SUM_BLOCK blocks)
_SLICE = 1 << 14
# binary precision P of the fixed-point terms of pgf_check and _alpha_floats (_fixed_terms)
_FIXED_BITS = 192
_LOG_PI = math.log(math.pi)


def alpha_exact(j: int) -> Fraction:
    """alpha_j = C_j / 2^(2j+1), reduced."""
    if j < 0:
        raise ValueError("index must be >= 0")
    return Fraction(math.comb(2 * j, j), (j + 1) << (2 * j + 1))


def alpha_pow_exact(n: int, j: int) -> Fraction:
    """The n-fold convolution weight alpha^n_j, exact."""
    if n < 1:
        raise ValueError("power must be >= 1")
    if j < 0:
        raise ValueError("index must be >= 0")
    # n/(2(j+n)) * 2^(1-2j-n) * binom(2j+n-1, j) == n*binom / ((j+n) << (2j+n))
    return Fraction(n * math.comb(2 * j + n - 1, j), (j + n) << (2 * j + n))


def alpha_pow_log(n: int, j: int) -> float:
    """log(alpha^n_j), accurate to ~1e-13 relative in the value for j+n <= 1e7.

    Plain double log-gamma differences lose eight digits here (three terms of
    size ~3e8 cancel), so the difference is formed at 40-digit working
    precision and rounded once at the end.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    if j < 0:
        raise ValueError("index must be >= 0")
    with mpmath.workdps(40):
        val = (
            mpmath.log(mpmath.mpf(n))
            - mpmath.log(2 * (j + n))
            + (1 - 2 * j - n) * mpmath.log(2)
            + mpmath.loggamma(2 * j + n)
            - mpmath.loggamma(j + 1)
            - mpmath.loggamma(j + n)
        )
        return float(val)


def _numerators(n: int):
    """Yield N^n_0, N^n_1, ...: alpha^n_j = N^n_j / 2^(2j+n)."""
    N = 1
    for j in itertools.count():
        yield N
        # alpha^n_{j+1} / alpha^n_j = (2j+n)(2j+n+1) / (4(j+1)(j+n+1)); the
        # factor 4 is the denominator's step, and the division is exact
        N = N * (2 * j + n) * (2 * j + n + 1) // ((j + 1) * (j + n + 1))


@memo(128)
def _row_exact(n: int, J: int) -> tuple:
    """Numerators N^n_0 .. N^n_{J-1}: alpha^n_j = N^n_j / 2^(2j+n)."""
    return tuple(itertools.islice(_numerators(n), max(J, 0)))


def _prefix_sums(n: int, J: int) -> tuple:
    """(C, D): sum_{j<i} alpha^n_j = C[i] / D for i = 0..J, with D = 2^(2J+n)."""
    out = [0]
    for j, N in enumerate(itertools.islice(_numerators(n), max(J, 0))):
        out.append(out[-1] + (N << 2 * (J - j)))
    return tuple(out), 1 << (2 * J + n)


# _prefix_sums kept for the process, for the windows read again
_prefix_exact = memo(128)(_prefix_sums)


def _dyadic(num: int, e: int) -> Fraction:
    """num / 2^e as a reduced Fraction, by stripping common factors of two."""
    z = min((num & -num).bit_length() - 1, e) if num else e
    return Fraction(num >> z, 1 << (e - z))


def _convolve_numerators(a, b) -> list:
    """Integer convolution on the common prefix.

    Numerators over 2^(2i+n) and 2^(2(j-i)+m) share the denominator
    2^(2j+n+m) for every i, so the product row needs no rational arithmetic.
    """
    J = min(len(a), len(b))
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(J)]


def exact_ok(n: int, J: int) -> bool:
    """Whether the exact backend takes the row alpha^n_0 .. alpha^n_{J-1}.

    It does when the largest j + n, (J - 1) + n, is within exact_limit.
    """
    return _exact_ok(n, J, current_limits())


def _exact_ok(n: int, J: int, lim: Limits) -> bool:
    return J == 0 or (J - 1) + n <= lim.exact_limit


def _check_exact(n: int, J: int, lim: Limits) -> None:
    if n < 1 or J < 0:
        raise ValueError("need n >= 1 and J >= 0")
    lim.check_row_length(J)
    if not _exact_ok(n, J, lim):
        raise ResourceLimitError(
            f"exact backend limited to j + n <= {lim.exact_limit}; "
            f"requested j + n = {(J - 1) + n}"
        )


def exact_row(n: int, J: int) -> tuple:
    """Weights alpha^n_0 .. alpha^n_{J-1} as reduced Fractions."""
    _check_exact(n, J, current_limits())
    return tuple(_dyadic(N, 2 * j + n) for j, N in enumerate(_row_exact(n, J)))


def _exact_prefix(n: int, J: int, lim: Limits, keep: bool = True) -> tuple:
    """_prefix_exact(n, J), refused past the row and exact limits of lim.

    With keep false the prefix is built for the caller alone (_prefix_sums)
    and neither read from nor left in the memo.
    """
    _check_exact(n, J, lim)
    return (_prefix_exact if keep else _prefix_sums)(n, J)


def _log_tail_series(x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """log T(m) at float m = x >= 1024, given log_x = np.log(x).

    The Stirling series -log(pi m)/2 - 1/(8m) + 1/(192 m^3) of
    log binom(2m, m) - 2m log 2 = lgamma(2m+1) - 2 lgamma(m+1) - 2m log 2.
    Each lgamma remainder is bounded by its first omitted term (DLMF
    5.11(ii)), so the truncation error is at most
    1/(1260 (2m)^5) + 2/(1260 m^5) < 1e-17.  This is the one definition of
    log T in the package: the float rows (_stepped) read it for m < 3e7 and
    the sampler (mc._invert_tails) for m up to 2^62.

    Rounding, in units of u = 2^-53 with np.log within 4 ulps, for
    log m < 18 (the float rows) and, in brackets, log m < 44 (the sampler): x
    is m rounded once, moving log m by 0 (u); np.log(x) errs by 4 ulps of a
    number below 32 (64), 128u (256u); _LOG_PI carries u, and adding it
    rounds once, 16u (32u); halving is exact, so -log(pi m)/2 errs by at
    most 72.5u (145u).  The correction r(1/8 - r^2/192), r = 1/x <= 2^-10,
    is below 2^-13 and errs by under u; the closing subtraction rounds a
    number below 16 (32) once, 8u (16u); truncation adds 0.1u.  So the float
    series is within 82u (163u) of log T(m).
    """
    r = 1.0 / x
    return -0.5 * (log_x + _LOG_PI) - r * (0.125 - r * r / 192.0)


def _fixed_terms(X: int, D: int):
    """Yield t_0, t_1, ...: t_0 = 2^(P-1), t_{j+1} = floor(t_j X (2j+1) / (D (2j+4))).

    P = _FIXED_BITS.  alpha_{j+1}/alpha_j = (2j+1)/(2(j+2)), so t_j is
    alpha_j x^j 2^P at x = X/D with each step's floor, which loses less
    than one unit; as the step ratio is below 1, t_j falls short by less
    than j units.
    """
    t = 1 << (_FIXED_BITS - 1)
    for j in itertools.count():
        yield t
        t = t * X * (2 * j + 1) // (D * (2 * j + 4))


def _alpha_floats():
    """Yield alpha_0, alpha_1, ..., each correctly rounded, in linear time.

    The terms a_j of _fixed_terms at x = 1 have a_j <= alpha_j 2^P < a_j + j + 1.
    When both ends of that bracket round to the same float, alpha_j rounds
    to it too; otherwise alpha_j is rounded from its exact value.
    """
    for j, a in enumerate(_fixed_terms(1, 1)):
        lo = float(a)
        yield math.ldexp(lo, -_FIXED_BITS) if lo == float(a + j + 1) else float(alpha_exact(j))


@memo(1)
def _head_row() -> np.ndarray:
    """alpha_j for j < _HEAD (_alpha_floats)."""
    return np.fromiter(_alpha_floats(), np.float64, _HEAD)


def _base_values(j: np.ndarray) -> np.ndarray:
    """alpha_j at the ascending float integers j: the head table below _HEAD, then the series."""
    h = int(np.searchsorted(j, _HEAD))
    x = j[h:]
    # T(j) = 2 (j+1) alpha_j
    tail = np.exp(_log_tail_series(x, np.log(x))) / (2.0 * (x + 1.0))
    return np.concatenate((_head_row()[j[:h].astype(np.int64)], tail)) if h else tail


def _step_work(n: int, J: int) -> int:
    """Entry steps of stepping a float row of length J to row n (limits docstring)."""
    return (n - 1) * (J + 5_000)


def _step(row: np.ndarray, n: int, a: np.ndarray, c: np.ndarray, b: np.ndarray) -> None:
    """alpha^n -> alpha^(n+1) in place, by the exact ratio a_n / (n c_n) of _stepped.

    a and c hold a_n and c_n for the entries of row, and hold a_(n+1) and
    c_(n+1) on return; b is scratch as long as row.  Five vector passes:
    b = n c, b = a / b, row *= b, a += c, c += 2.
    """
    np.multiply(c, n, out=b)
    np.divide(a, b, out=b)
    row *= b
    a += c
    c += 2.0


def _stepped(J: int, n_max: int, n_min: int = 1, size: Optional[int] = None):
    """Yield (start, n, row) with row[i] = alpha^n_(start+i) in float64, j < J.

    Each size-entry slice of the row (by default _SLICE, read at each call,
    as row_dot reads it: whole SUM_BLOCK blocks) is made and
    stepped through n = 1..n_max while it stays in cache, and yielded for
    n >= n_min: slice by slice, and within a slice n by n; with size >= J
    the whole row is one slice.  A yielded row is a read-only view that the
    next step overwrites; copy it to keep it.  The ratio ceiling, the work
    budget and the row ceiling are checked here, before any allocation or
    step.

    The base row (n = 1) is N^1_j / 2^(2j+1) rounded once from the exact
    numerators below index 1024, and exp(log T(j)) / (2(j+1)) from 1024 on,
    with log T the Stirling series _log_tail_series (_base_values).  Each
    next power multiplies by the exact ratio

        alpha^(n+1)_j / alpha^n_j = (n+1)(2j+n) / (n(2j+2(n+1))) = a_n / b_n,

    with t = 2j, a_n = (n+1)(t+n), c_n = t+2n+2 and b_n = n c_n.  The step
    (_step) carries a and c from one n to the next:
    a_(n+1) - a_n = (n+2)(t+n+1) - (n+1)(t+n) = t+2n+2 = c_n, and
    c_(n+1) = c_n + 2, from a_1 = 2(t+1) and c_1 = t+4.  Stepping to row n
    forms a_k, c_k and b_k for k < n, with a_k < n(2J+n) and
    b_k <= (n-1)(2J+2n) < n(2J+2n); for 2J + n <= 6e7 both are below
    6e7 * 1.2e8 = 7.2e15 < 2^53, so every a_k and b_k, and every sum that
    forms them, is an exact float integer, and each quotient rounds once
    from the exact ratio (a ResourceLimitError past 2J + n = 6e7).  Cost:
    row n takes n - 1 steps of five vector passes of length J, charged to
    the work budget as _step_work(n, J).

    The error bound (row_error), in units of u = 2^-53, with numpy's float64
    log and exp taken to be within 4 ulps:
    - a head entry rounds once: u.
    - a series entry, j >= 1024 and log j < 18 (J <= 3e7): log T errs by at
      most 82u absolutely (derived in _log_tail_series), which exp turns
      into 82u relative; np.exp adds 8u and the division by the float
      integer 2(j+1) one more u: 91u, and _BASE_ULPS = 96 covers the
      second-order terms.
    - each step rounds the quotient once and the product once: 2u.
    So |row[j] - alpha^n_j| <= (96 + 2n) u alpha^n_j: the products
    (1 + u)^(2n) stay within 2nu (1 + 1e-8) for n <= 6e7.  The bound does not
    grow with J.

    Underflow.  For n <= 1021 every entry, and every product formed on the
    way, is at least min(2^-n, alpha^n_(J-1)) > 2^-1022 (the row is unimodal
    in j, and alpha^n_j > 1e-13 for j < 3e7), so nothing underflows.  Past
    that the entries at small j fall below the normal range, where a product
    may lose up to 2^-1075 absolutely.  Such an entry has j < n(n+1)/2,
    where every later ratio is below 1, so a lost amount is never magnified
    (beyond (1 + u)^(2n)), and after n steps the absolute error is at most
    n 2^-1074: the second term of row_error.
    """
    if n_min < 1 or n_max < n_min or J < 0:
        raise ValueError("need 1 <= n_min <= n_max and J >= 0")
    _check_steps(J, n_max)
    size = min(J, size or _SLICE) or 1
    scratch = np.empty((3, size))

    def walk():
        for start in range(0, J or 1, size):
            row = _base_values(np.arange(start, min(start + size, J), dtype=np.float64))
            a, c, t = scratch[:, : len(row)]  # t = 2j, then _step's scratch b
            np.add(np.arange(0.0, 2 * len(row), 2.0), 2 * start, out=t)
            np.multiply(np.add(t, 1, out=a), 2, out=a)  # a_1 = 2(t + 1)
            np.add(t, 4, out=c)  # c_1 = t + 4
            view = row.view()
            view.flags.writeable = False
            for n in range(1, n_max + 1):
                if n > 1:
                    _step(row, n - 1, a, c, t)
                if n >= n_min:
                    yield start, n, view

    return walk()


def _check_steps(J: int, n: int) -> None:
    """Refuse a float row of length J stepped to row n past a ceiling of _stepped."""
    if 2 * J + n > _RATIO_EXACT_MAX:
        raise ResourceLimitError("float row too long for exact float ratios")
    check_work(_step_work(n, J), f"float row n = {n} of length {J}")
    current_limits().check_row_length(J)


def float_row(n: int, J: int) -> np.ndarray:
    """alpha^n_0 .. alpha^n_{J-1} in float64 (read-only), from _stepped.

    A row past a ceiling of _stepped is refused before any allocation or
    step.
    """
    slices = _stepped(J, n, n)
    out = np.empty(J)
    for start, _, row in slices:
        out[start : start + len(row)] = row
    out.flags.writeable = False
    return out


def row_error(n: int) -> tuple[float, float]:
    """(rel, tiny) with |float_row(n, J)[j] - alpha^n_j| <= rel alpha^n_j + tiny.

    Derived in _stepped; tiny is 0 unless entries can underflow.
    """
    return (_BASE_ULPS + 2 * n) * U, (0.0 if n <= 1021 else n * TINY)


def block_sum(t: np.ndarray):
    """Sums of t along its last axis: numpy sums of SUM_BLOCK-term blocks, then
    math.fsum of the block sums.

    The error is at most SUM_BLOCK u sum |t| per sum, whatever order numpy
    uses inside a block: any order of m - 1 additions errs by at most
    gamma_(m-1) sum |t| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, eq. (4.4)), which is (SUM_BLOCK - 1) u plus
    second-order terms for one block, and fsum rounds the total once, u.
    """
    return _fsum_lines(_block_sums(t, _block_table(t.shape[:-1], t.shape[-1])))


def _block_table(lines: tuple, m: int) -> np.ndarray:
    """Zeroed room for the block sums of m terms per line: m // SUM_BLOCK blocks and a rest."""
    return np.zeros(lines + (m // SUM_BLOCK + 1,))


def _block_sums(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the block sums of t along its last axis to the first columns of out.

    The full SUM_BLOCK blocks come first, then the sum of the rest, if
    any, each the pairwise numpy sum of its terms.  Slices of a row that
    hold whole blocks fill one _block_table, each from its first block's
    column on; a row of whole blocks leaves the rest column 0.0.
    """
    m = t.shape[-1]
    full = m - m % SUM_BLOCK
    blocks = t[..., :full].reshape(t.shape[:-1] + (full // SUM_BLOCK, SUM_BLOCK))
    np.add.reduce(blocks, axis=-1, out=out[..., : full // SUM_BLOCK])
    if full < m:
        np.add.reduce(t[..., full:], axis=-1, out=out[..., full // SUM_BLOCK])
    return out


def _fsum_lines(parts: np.ndarray):
    if parts.ndim == 1:
        return math.fsum(parts.tolist())
    return np.array([math.fsum(p) for p in parts.tolist()])


def row_dot(n: int, row: np.ndarray, w: Optional[np.ndarray] = None, w_ulps: float = 0):
    """(s, err) with |s - sum_j alpha^n_j w*_j| <= err, for row = float_row(n, J).

    w (all ones when None) holds floats w >= 0 within w_ulps u, relative, of
    the true weights w*, or within 2^-1075 where they underflow; a w with a
    leading axis gives one sum per line.  Every caller passes such weights:
    ones for a prefix mass, powers, and |ends|^p.  s is the block_sum of the
    products row * w, formed by row_dots' loop (_slice_dots) over the row's
    _SLICE slices.  A product's error is the row's rel (row_error), the
    weight's w_ulps u and its own rounding u; the sum adds SUM_BLOCK u of
    sum |row * w|, which is s itself as w >= 0, and 3u more cover the
    second-order terms and the rounding of err itself.  Absolutely, each
    term may lose tiny |w| from the row, 2^-1075 from an underflowing weight
    and 2^-1075 from an underflowing product, which the last term of err
    covers twice.
    """
    m = row.shape[-1]
    slices = ((start, n, row[start : start + _SLICE]) for start in range(0, m or 1, _SLICE))
    w_at = (lambda a, b: np.ones(b - a)) if w is None else (lambda a, b: w[..., a:b])
    return _slice_dots(slices, m, w_at, w_ulps, n, n)[0]


def _dot_error(n: int, a, length: int, w_ulps: float, w: Optional[np.ndarray]):
    """row_dot's err, given a = block_sum(|row * w|) over length terms.

    w may be any array with each line's largest |w| along its last axis; it
    is read only where row entries can underflow (row_error's tiny).
    """
    rel, tiny = row_error(n)
    big = np.abs(w).max(axis=-1) if tiny and w is not None and w.size else 1.0
    return (rel + (w_ulps + SUM_BLOCK + 4) * U) * a + 2 * length * (tiny * big + TINY)


def row_dots(n_max: int, J: int, w_at, w_ulps: float = 0, n_min: int = 1) -> list:
    """[row_dot(n, float_row(n, J), w, w_ulps) for n = n_min..n_max], to the bit.

    The weights are w >= 0, given slice by slice: w_at(start, stop) returns
    w[..., start:stop], one line per sum when w has a leading axis.  No row
    or weight vector as long as J is built: the rows come slice by slice
    from _stepped, and each slice's weights are made once.  row_dot sums
    through the same loop (_slice_dots), and a step acts on each j alone,
    so every product, block and fsum is row_dot's.
    """
    return _slice_dots(_stepped(J, n_max, n_min), J, w_at, w_ulps, n_min, n_max)


def _slice_dots(slices, J: int, w_at, w_ulps: float, n_min: int, n_max: int) -> list:
    """[(s, err) for n = n_min..n_max]: the sums of row_dot and row_dots.

    slices yields (start, n, row) as _stepped does, slice by slice of whole
    SUM_BLOCK blocks, the first the longest, and within a slice n = n_min ..
    n_max.  Each slice's weights w_at(start, stop) >= 0 are read once, at
    n_min.  Each (slice, n) forms its products row * w in one reused buffer
    and writes their block sums (_block_sums) into one block table, with one
    line per n and weight line and one column per block; each line then
    closes by fsum.  The blocks are block_sum's over the whole row, and so
    is the fsum, to the bit.  With w >= 0, sum |row * w| is s itself.
    """
    table, tops = None, []
    for start, n, row in slices:
        if n == n_min:
            w = w_at(start, start + len(row))
            if w.size:
                tops.append(w.max(axis=-1))
            if table is None:  # the first slice is the longest
                table = _block_table((n_max - n_min + 1,) + w.shape[:-1], J)
                buf = np.empty(w.shape)
            t = buf[..., : len(row)]
        np.multiply(row, w, out=t)
        _block_sums(t, table[n - n_min, ..., start // SUM_BLOCK :])
    tops = np.array(tops).T  # one line per sum, one entry per slice
    sums = (_fsum_lines(line) for line in table)
    return [(s, _dot_error(n, s, J, w_ulps, tops)) for n, s in enumerate(sums, n_min)]


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth's TwoSum).

    Exact elementwise for float64 arrays or scalars, subnormals included,
    unless a sum overflows.
    """
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _float_prefix(n: int, J: int, row: Optional[np.ndarray] = None):
    """mass(lo, hi) -> (m, err) with |m - sum_{lo<=j<hi} alpha^n_j| <= err.

    One float_row(n, J), or the first J entries of row n of a longer one,
    and its compensated prefix sums (Ogita, Rump and Oishi, "Accurate sum
    and dot product", SIAM J. Sci. Comput. 26, 2005) serve every segment;
    lo and hi are integers or integer arrays with 0 <= lo <= hi <= J, and
    m and err have their shape.

    With x the row (x >= 0) and u = 2^-53: s_0 = 0 and
    s_i = fl(s_(i-1) + x_(i-1)) (np.cumsum adds in order); TwoSum gives
    each step's error e_i exactly, |e_i| <= u s_i <= u s_J; and
    E_i = fl(E_(i-1) + e_i) = E_(i-1) + e_i + eta_i with
    |eta_i| <= u |E_i| <= u g, g the largest |E_i|.  For a segment of width
    w = hi - lo the row sum is X = A + B - sum_(lo<i<=hi) eta_i, with
    A = s_hi - s_lo and B = E_hi - E_lo, |B| <= w u (s_J + g).
    m = fl(fl(A) + fl(B)) is within 2u |m| (1 + 2u) + 2u |B| (1 + 2u) of
    A + B, so |m - X| <= 2u |m| (1 + 2u) + w u (g + 3u (s_J + g)).  The
    row's own error (row_error) adds rel X + w tiny.  So
    err = (rel + 4u) m + w (u (2g + 4u s_J) + 2 tiny), whose spare 2u m,
    w u g and w tiny cover the second-order terms and the rounding of err
    itself; err is 0 on an empty segment.  The terms in g and s_J are of
    order w u^2 s_J (g <= J u s_J at worst), so in practice err is
    (rel + 4u) m: a few u of the segment's own mass beside row_error.
    """
    x = float_row(n, J) if row is None else row[:J]
    s = np.concatenate(([0.0], np.cumsum(x)))
    e = np.concatenate(([0.0], np.cumsum(_two_sum(s[:-1], x)[1])))
    rel, tiny = row_error(n)
    per_entry = U * (2 * float(np.abs(e).max()) + 4 * U * float(s[-1])) + 2 * tiny

    def mass(lo, hi):
        m = (s[hi] - s[lo]) + (e[hi] - e[lo])
        return m, (rel + 4 * U) * m + (hi - lo) * per_entry

    return mass


def tail_exact(J: int) -> Fraction:
    """T(J) = sum_{j>=J} alpha_j = binom(2J, J) / 4^J, exact."""
    if J < 0:
        raise ValueError("index must be >= 0")
    return Fraction(math.comb(2 * J, J), 1 << (2 * J))


def _run_mass(a: int, b: Optional[int], lim: Limits) -> Weight:
    """T(a) - T(b) = sum_{a<=j<b} alpha_j, or T(a) when b is None.

    Exact when the tail index (b, or a when b is None) is within
    lim.exact_limit, that is when _exact_ok(1, index, lim) holds.
    Past it the binomial alone costs seconds (4.9 s for binom(6e5, 3e5)), so
    both tails come from log-gamma values, as in alpha_pow_log, at 40 + 2d
    digits for a d-digit tail index, and the difference is rounded once to a
    float within one ulp of the true mass: the log tails carry an absolute
    error near 2b ln(2b) 10^-(40+2d), which the difference, at least
    alpha_a = T(a)/(2(a+1)), magnifies at most 2(a+1)-fold, leaving a
    relative working error below 1e-35.
    """
    if a < 0 or (b is not None and b < a):
        raise ValueError("need 0 <= a <= b")
    last = a if b is None else b
    if _exact_ok(1, last, lim):  # T(a) - T(b) = (binom(2a, a) 4^(b-a) - binom(2b, b)) / 4^b
        top = math.comb(2 * a, a) << 2 * (last - a)
        return Fraction(top - (0 if b is None else math.comb(2 * b, b)), 1 << 2 * last)
    with mpmath.workdps(40 + 2 * len(str(last))):

        def tail(J):
            log_t = mpmath.loggamma(2 * J + 1) - 2 * mpmath.loggamma(J + 1)
            return mpmath.exp(log_t - 2 * J * mpmath.log(2))

        return float(tail(a) if b is None else tail(a) - tail(b))


def tail_pow_bound(n: int, J: int) -> Fraction:
    """Certified upper bound min(1, n*T(J)) on sum_{j>=J} alpha^n_j."""
    if n < 1:
        raise ValueError("power must be >= 1")
    return min(Fraction(1), n * tail_exact(J))


def tail_float_bounds(J: int) -> tuple[float, float]:
    """Certified float bracket for T(J).

    For J >= 1:  1/sqrt(pi (J + 1/2)) <= T(J) <= 1/sqrt(pi J).  Both follow
    from the Wallis-type monotonicity of T(J) sqrt(pi J) (increasing to 1)
    and T(J) sqrt(pi (J + 1/2)) (decreasing to 1).  A couple of ulps of
    outward rounding absorb the float evaluation itself.
    """
    if J < 0:
        raise ValueError("index must be >= 0")
    if J == 0:
        return (1.0, 1.0)
    hi = 1.0 / math.sqrt(math.pi * J)
    lo = 1.0 / math.sqrt(math.pi * (J + 0.5))
    for _ in range(3):
        hi = math.nextafter(hi, math.inf)
        lo = math.nextafter(lo, 0.0)
    return (lo, hi)


def power_tail_bound(q: float, K: int) -> float:
    """Certified upper bound on sum_{k>=K} alpha_k * k^q for 0 <= q < 1/2.

    Uses alpha_k <= k^(-3/2)/(2 sqrt(pi)) (valid for all k >= 1, see
    ASYMPTOTIC_CONSTANT) plus an integral comparison of the decreasing
    summand: sum_{k>=K} k^(q-3/2) <= K^(q-3/2) + K^(q-1/2)/(1/2-q).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if q < 0:
        raise ValueError("q must be >= 0")
    if q >= 0.5:
        raise NotSummableError("tail sum diverges for exponent q >= 1/2")
    bound = ASYMPTOTIC_CONSTANT * (K ** (q - 1.5) + K ** (q - 0.5) / (0.5 - q))
    return bound * (1.0 + 1e-12)


@dataclass(frozen=True)
class PgfCheck:
    """Point check of the generating function against its partial sums."""

    partial_sum: float
    closed_form: float
    gap: float


def pgf_check(x, J: int) -> PgfCheck:
    """Compare sum_{j<J} alpha_j x^j with (1 - sqrt(1-x))/x, the closed form at 40 digits.

    The true gap is the (positive) discarded tail, at most
    alpha_J x^J / (1-x), since every term ratio x(2j+1)/(2j+4) is below x.

    The sum is of the fixed-point terms t_j of _fixed_terms at P
    (_FIXED_BITS) bits, on x = X/D exactly, taken while t > 0 and j < J;
    t_j falls short of alpha_j x^j 2^P by less than j units.  When K terms are
    taken, the total falls short of sum_{j<J} alpha_j x^j by at most
    (K^2/2 + K/(1-x)) 2^-P: under K^2/2 units over the terms taken, and, when
    the sum stops at t_K = 0, under K/(1-x) units over the terms left, as
    alpha_K x^K 2^P < K and the terms fall by a factor below x per step.
    For x = 0.99, K is about 13,800, which leaves about 1e-50 at P = 192.
    partial_sum is the total rounded once; gap is closed_form - total,
    formed exactly from the two dyadic values and rounded once.
    """
    if not 0 <= x < 1:
        raise ValueError("x must lie in [0, 1)")
    if J < 0:
        raise ValueError("truncation must be >= 0")
    with mpmath.workdps(40):
        xm = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x)
        if xm == 0:
            closed = mpmath.mpf(1) / 2
        else:
            closed = (1 - mpmath.sqrt(1 - xm)) / xm
    P = _FIXED_BITS
    acc = sum(itertools.takewhile(bool, itertools.islice(_fixed_terms(*x.as_integer_ratio()), J)))
    # closed = m 2^e and acc 2^-P over the one denominator 2^s; int true division rounds correctly
    m, e = closed.man_exp
    s = max(P, -e)
    gap = ((m << (s + e)) - (acc << (s - P))) / (1 << s)
    return PgfCheck(acc / (1 << P), float(closed), gap)


@dataclass(frozen=True)
class ScanResult:
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def scan_subadditivity(nm_max: int = 24, j_max: int = 400) -> ScanResult:
    """Exact check of alpha^{n+m}_j <= alpha^n_j + alpha^m_j on a full grid.

    Over the denominator 2^(2j+n+m) this is N^{n+m}_j <= 2^m N^n_j + 2^n N^m_j.
    """
    rows = {n: _row_exact(n, j_max + 1) for n in range(1, nm_max + 1)}
    pairs = [(n, m) for n in range(1, nm_max) for m in range(n, nm_max - n + 1)]
    bad = tuple(
        (n, m, j)
        for n, m in pairs
        for j, (nm, a, b) in enumerate(zip(rows[n + m], rows[n], rows[m]))
        if nm > (a << m) + (b << n)
    )
    return ScanResult(len(pairs) * (j_max + 1), bad)


def scan_normalized_monotonicity(n_max: int = 20, j_max: int = 200) -> ScanResult:
    """Exact check that alpha^{n+1}_j/(n+1) <= alpha^n_j/n.

    Over the denominator 2^(2j+n+1) this is n N^{n+1}_j <= 2(n+1) N^n_j.
    """
    rows = {n: _row_exact(n, j_max + 1) for n in range(1, n_max + 2)}
    bad = tuple(
        (n, j)
        for n in range(1, n_max + 1)
        for j, (a, b) in enumerate(zip(rows[n], rows[n + 1]))
        if b * n > a * 2 * (n + 1)
    )
    return ScanResult(n_max * (j_max + 1), bad)


def scan_convolution_agreement(n_max: int = 6, j_max: int = 200) -> ScanResult:
    """Closed form vs iterated convolution, exact equality on the full grid."""
    J = j_max + 1
    base = _row_exact(1, J)
    convs = itertools.accumulate(
        range(n_max - 1), lambda acc, _: _convolve_numerators(acc, base), initial=base
    )
    bad = tuple(
        (n, j)
        for n, acc in enumerate(convs, 1)
        for j, (closed, conv) in enumerate(zip(_row_exact(n, J), acc))
        if closed != conv
    )
    return ScanResult(n_max * J, bad)


def scan_tail_identity(j_max: int = 300) -> ScanResult:
    """Prefix + closed-form tail == 1, and T(J) - T(J+1) == alpha_J, exact.

    With P = 4^J sum_{j<J} alpha_j = sum_{j<J} 2 N^1_j 4^(J-1-j), the first
    is P + binom(2J, J) == 4^J, and over 4^(J+1) the second is
    4 binom(2J, J) - binom(2J+2, J+1) == 2 N^1_J.
    """
    row = _row_exact(1, j_max + 1)
    c = [math.comb(2 * J, J) for J in range(j_max + 2)]
    P = itertools.accumulate(row, lambda acc, N: 4 * acc + 2 * N, initial=0)
    bad = [("prefix", J) for J, prefix in zip(range(len(row)), P) if prefix + c[J] != 1 << (2 * J)]
    bad += [("difference", J) for J, N in enumerate(row) if 4 * c[J] - c[J + 1] != 2 * N]
    return ScanResult(len(row), tuple(bad))


@dataclass(frozen=True)
class AgreementResult:
    checked: int
    max_rel_diff: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_diff <= self.tolerance


def scan_backend_agreement(bias: float = 0.0, tolerance: float = 1e-9) -> AgreementResult:
    """Float routes vs exact on j + n in [500, 2000]; the engine vs log at (7, 2^14 + 500).

    On j + n in [500, 2000] the 40-digit log value alpha_pow_log is compared
    with the exact weight at each point, and the float row engine
    (_stepped, 2,000 points long, one slice) at each point with n <= 100,
    which keeps the sweep to 100 steps.  One more point, (7, _SLICE + 500),
    lies in the second slice of a longer float_row; its reference is the
    unbiased 40-digit log value, not the exact one (its binomial alone takes
    tens of milliseconds), so there the engine is checked against log, and the log
    route only against its own biased value; the other points tie log to
    exact.
    bias is a fault-injection hook: it is added to every log-domain value,
    and every engine entry is scaled by e^bias, before comparison, so a
    nonzero bias must trip the verdict.
    """
    points = {(1, 500), (1, 2000 - 1), (2, 1998), (1000, 1000)}
    for n in (1, 2, 3, 7, 20, 100, 500):
        for j in (0, 1, 5, 50, 199, 450, 500, 900, 1400, 1900):
            if 500 <= j + n <= 2000:
                points.add((n, j))
    rows = _stepped(2000, 100)
    engine = {(m, j): float(row[j]) for _, n, row in rows for m, j in points if m == n}
    engine[7, _SLICE + 500] = float(float_row(7, _SLICE + 501)[-1])
    points.add((7, _SLICE + 500))
    try:
        scale = math.exp(bias)
    except OverflowError:
        scale = math.inf
    worst = 0.0
    for n, j in sorted(points):
        exact = float(alpha_pow_exact(n, j)) if j < _SLICE else math.exp(alpha_pow_log(n, j))
        try:
            approx = math.exp(alpha_pow_log(n, j) + bias)
        except OverflowError:
            approx = math.inf
        values = (approx, engine[n, j] * scale) if (n, j) in engine else (approx,)
        for value in values:
            rel = abs(value / exact - 1.0)
            # max() would keep the old value past a NaN; any non-finite value fails
            worst = max(worst, rel) if math.isfinite(rel) else math.inf
    return AgreementResult(len(points), worst, tolerance)
