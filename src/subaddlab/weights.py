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
prefix masses (exact_prefix) are integer prefix sums over the one
denominator 2^(2J+n).  Fractions are built only at the API boundary
(exact_row, alpha_pow_exact, tail_exact).  exact_ok is the one rule for
which rows the exact backend takes.  exact_ok, exact_prefix and run_mass
read the resource limits; each has a private twin that takes them, for
callers that read the limits once per public call.

"log" carries log-domain float64 weights for index ranges where exact
integers get too wide, and the 40-digit log-gamma values (alpha_pow_log,
run_mass) stand in for exact binomials past the exact limit.  Binomials are
never formed from factorial tables.  All public functions are pure, and
cached rows fill idempotently, so concurrent callers see behavior as if
nothing were cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import mpmath
import numpy as np

from .errors import NotSummableError, ResourceLimitError
from .limits import Limits, current_limits

Weight = Union[Fraction, float]

LN2 = math.log(2.0)

# Limit of alpha_k * k^(3/2), by Stirling on the closed form.  The approach is
# monotone from below: alpha_k = T(k)/(2(k+1)) <= k^(-3/2)/(2 sqrt(pi)) for
# every k >= 1, which is what power_tail_bound leans on.
ASYMPTOTIC_CONSTANT = 0.28209479177387814  # 1/(2 sqrt(pi))

# Worst-case relative drift of a cumulative float row of length J (each step
# multiplies/adds one correctly-rounded factor).  Used to pad enclosures.
def row_slop(J: int) -> float:
    return 1e-13 + 4e-16 * max(J, 0)


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


@lru_cache(maxsize=128)
def _row_exact(n: int, J: int) -> tuple:
    """Numerators N^n_0 .. N^n_{J-1}: alpha^n_j = N^n_j / 2^(2j+n)."""
    if J <= 0:
        return ()
    out = [1]
    N = 1
    for j in range(J - 1):
        # alpha^n_{j+1} / alpha^n_j = (2j+n)(2j+n+1) / (4(j+1)(j+n+1)); the
        # factor 4 is the denominator's step, and the division is exact
        N = N * (2 * j + n) * (2 * j + n + 1) // ((j + 1) * (j + n + 1))
        out.append(N)
    return tuple(out)


@lru_cache(maxsize=128)
def _prefix_exact(n: int, J: int) -> tuple:
    """(C, D): sum_{j<i} alpha^n_j = C[i] / D for i = 0..J, with D = 2^(2J+n)."""
    out = [0]
    for j, N in enumerate(_row_exact(n, J)):
        out.append(out[-1] + (N << 2 * (J - j)))
    return tuple(out), 1 << (2 * J + n)


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


def _build_log_row(n: int, J: int) -> np.ndarray:
    """log alpha^n_j for j = 0..J-1, by cumulative sum of exact-in-float ratios."""
    if 2 * J + n > 60_000_000:
        # (2j+n)(2j+n+1) must stay below 2^53 for the ratio to be exact
        raise ResourceLimitError("log row too long for exact float ratios")
    out = np.empty(max(J, 1))
    out[0] = -n * LN2
    if J > 1:
        j = np.arange(J - 1, dtype=np.float64)
        num = (2.0 * j + n) * (2.0 * j + n + 1.0)
        den = 4.0 * (j + 1.0) * (j + n + 1.0)
        out[1:] = out[0] + np.cumsum(np.log(num / den))
    out = out[:J]
    out.flags.writeable = False
    return out


# only modest rows are worth keeping around; a 2^20-point row is 8 MB and is
# cheaper to rebuild than to evict useful entries for
_LOG_CACHE_MAX_J = 1 << 16

_row_log = lru_cache(maxsize=64)(_build_log_row)


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


def exact_prefix(n: int, J: int) -> tuple:
    """Prefix masses of alpha^n over one denominator, as integers.

    Returns (C, D) with sum_{j<i} alpha^n_j = C[i] / D for i = 0..J, where
    D = 2^(2J+n) and C[i+1] = C[i] + N^n_i 4^(J-i).
    """
    return _exact_prefix(n, J, current_limits())


def _exact_prefix(n: int, J: int, lim: Limits) -> tuple:
    _check_exact(n, J, lim)
    return _prefix_exact(n, J)


def log_row(n: int, J: int) -> np.ndarray:
    """log alpha^n_j for j = 0..J-1 (read-only array)."""
    if n < 1 or J < 0:
        raise ValueError("need n >= 1 and J >= 0")
    current_limits().check_row_length(J)
    if J > _LOG_CACHE_MAX_J:
        return _build_log_row(n, J)
    return _row_log(n, J)[:J]


def tail_exact(J: int) -> Fraction:
    """T(J) = sum_{j>=J} alpha_j = binom(2J, J) / 4^J, exact."""
    if J < 0:
        raise ValueError("index must be >= 0")
    return Fraction(math.comb(2 * J, J), 1 << (2 * J))


def run_mass(a: int, b: Optional[int] = None) -> Weight:
    """T(a) - T(b) = sum_{a<=j<b} alpha_j, or T(a) when b is None.

    Exact when the tail index (b, or a when b is None) is within exact_limit,
    that is when exact_ok(1, index) holds.
    Past it the binomial alone costs seconds (4.9 s for binom(6e5, 3e5)), so
    both tails come from log-gamma values, as in alpha_pow_log, at 40 + 2d
    digits for a d-digit tail index, and the difference is rounded once to a
    float within one ulp of the true mass: the log tails carry an absolute
    error near 2b ln(2b) 10^-(40+2d), which the difference, at least
    alpha_a = T(a)/(2(a+1)), magnifies at most 2(a+1)-fold, leaving a
    relative working error below 1e-35.
    """
    return _run_mass(a, b, current_limits())


def _run_mass(a: int, b: Optional[int], lim: Limits) -> Weight:
    if a < 0 or (b is not None and b < a):
        raise ValueError("need 0 <= a <= b")
    last = a if b is None else b
    if _exact_ok(1, last, lim):
        t = tail_exact(a)
        return t if b is None else t - tail_exact(b)
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
    """Compare sum_{j<J} alpha_j x^j with (1 - sqrt(1-x))/x at 40-digit precision.

    The true gap is the (positive) discarded tail, at most T(J); the returned
    float gap carries working-precision rounding of order 1e-30, so it can dip
    that far below zero when the true gap is smaller still.

    The sum stops at the first term that leaves the 40-digit total unchanged:
    the terms decrease (ratio x(2j+1)/(2j+4) < 1) and rounding is monotone,
    so no later term could change it either, and the result is the same to
    the bit as summing all J terms.
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
        term = mpmath.mpf(1) / 2
        total = mpmath.mpf(0)
        for j in range(J):
            if total + term == total:
                break
            total += term
            # alpha_{j+1}/alpha_j = (2j+1)/(2(j+2)); one extra factor of x per step
            term = term * xm * (2 * j + 1) / (2 * (j + 2))
        gap = closed - total
        return PgfCheck(float(total), float(closed), float(gap))


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
    checked = 0
    bad = []
    for n in range(1, nm_max):
        for m in range(n, nm_max - n + 1):
            rn, rm, rnm = rows[n], rows[m], rows[n + m]
            for j in range(j_max + 1):
                checked += 1
                if rnm[j] > (rn[j] << m) + (rm[j] << n):
                    bad.append((n, m, j))
    return ScanResult(checked, tuple(bad))


def scan_normalized_monotonicity(n_max: int = 20, j_max: int = 200) -> ScanResult:
    """Exact check that alpha^{n+1}_j/(n+1) <= alpha^n_j/n.

    Over the denominator 2^(2j+n+1) this is n N^{n+1}_j <= 2(n+1) N^n_j.
    """
    rows = {n: _row_exact(n, j_max + 1) for n in range(1, n_max + 2)}
    checked = 0
    bad = []
    for n in range(1, n_max + 1):
        rn, rn1 = rows[n], rows[n + 1]
        for j in range(j_max + 1):
            checked += 1
            if rn1[j] * n > rn[j] * 2 * (n + 1):
                bad.append((n, j))
    return ScanResult(checked, tuple(bad))


def scan_convolution_agreement(n_max: int = 6, j_max: int = 200) -> ScanResult:
    """Closed form vs iterated convolution, exact equality on the full grid."""
    J = j_max + 1
    checked = 0
    bad = []
    base = _row_exact(1, J)
    acc = base
    for n in range(1, n_max + 1):
        if n > 1:
            acc = _convolve_numerators(acc, base)
        closed = _row_exact(n, J)
        for j in range(J):
            checked += 1
            if closed[j] != acc[j]:
                bad.append((n, j))
    return ScanResult(checked, tuple(bad))


def scan_tail_identity(j_max: int = 300) -> ScanResult:
    """Prefix + closed-form tail == 1, and T(J) - T(J+1) == alpha_J, exact.

    With P = 4^J sum_{j<J} alpha_j = sum_{j<J} 2 N^1_j 4^(J-1-j), the first
    is P + binom(2J, J) == 4^J, and over 4^(J+1) the second is
    4 binom(2J, J) - binom(2J+2, J+1) == 2 N^1_J.
    """
    checked = 0
    bad = []
    prefix = 0
    for J, N in enumerate(_row_exact(1, j_max + 1)):
        checked += 1
        c, c_next = math.comb(2 * J, J), math.comb(2 * J + 2, J + 1)
        if prefix + c != 1 << (2 * J):
            bad.append(("prefix", J))
        if 4 * c - c_next != 2 * N:
            bad.append(("difference", J))
        prefix = 4 * prefix + 2 * N
    return ScanResult(checked, tuple(bad))


@dataclass(frozen=True)
class AgreementResult:
    checked: int
    max_rel_diff: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_diff <= self.tolerance


def scan_backend_agreement(bias: float = 0.0, tolerance: float = 1e-9) -> AgreementResult:
    """Cross-validate the two backends on the overlap window j + n in [500, 2000].

    bias is a fault-injection hook: it is added to every log-domain value
    before comparison, so a nonzero bias must trip the verdict.
    """
    points = []
    for n in (1, 2, 3, 7, 20, 100, 500):
        for j in (0, 1, 5, 50, 199, 450, 500, 900, 1400, 1900):
            if 500 <= j + n <= 2000:
                points.append((n, j))
    points.extend([(1, 500), (1, 2000 - 1), (2, 1998), (1000, 1000)])
    worst = 0.0
    seen = set()
    for n, j in points:
        if (n, j) in seen or j + n > 2000:
            continue
        seen.add((n, j))
        exact = alpha_pow_exact(n, j)
        try:
            approx = math.exp(alpha_pow_log(n, j) + bias)
        except OverflowError:
            approx = math.inf
        rel = abs(approx / float(exact) - 1.0)
        # max() would keep the old value past a NaN; any non-finite value fails
        worst = max(worst, rel) if math.isfinite(rel) else math.inf
    return AgreementResult(len(seen), worst, tolerance)
