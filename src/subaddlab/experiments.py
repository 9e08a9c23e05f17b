"""Desk-scale experiments that exercise the counterexample's moving parts.

Each experiment returns plain rows (tuples, named where the fields are
read) with fields in the CSV's column order, so the CLI writes them as they
come, and each has one *_verdicts function next to it that turns its rows
into named booleans; the CLI and the verify suites both call these, so
every verdict threshold is written once, here.  Exact arithmetic is used
wherever the grid allows it, certified lower bounds elsewhere: a growth
row's norm column is a lower bound obtained by truncation, never an estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import weights
from .errors import EmptyGridError, NotInLpError
from .limits import Limits, Memo, check_work, current_limits, memo
from .lpspace import EventuallyConstant, IndicatorGE, PowerGrowth
from .lpspace import _POW_ULPS, _image, _power_image, _power_sums, _powers, _root_ends
from .lpspace import check_exponent


def witness_fn(n: int) -> EventuallyConstant:
    """The blow-up witness: the indicator of {k >= n^2}."""
    if n < 1:
        raise ValueError("need n >= 1")
    return IndicatorGE(n * n)


class GrowthRow(NamedTuple):
    n: int
    norm_fn: float
    norm_anfn_lower: float
    ratio: float
    upper_bound: float


@dataclass(frozen=True)
class GrowthResult:
    rows: tuple
    slope: float
    fit_window: tuple
    p: float

    @property
    def slope_window(self) -> tuple:
        """The slopes the growth_verdicts accept: 1/p within 15%."""
        return 0.85 / self.p, 1.15 / self.p


def growth_curve(p, n_max: int = 32, fit_from: Optional[int] = None):
    """Certified lower bounds on R(n) = ||A^n f_n||_p / ||f_n||_p and a slope fit.

    The norm lower bound truncates the defining sum at K = n^2:
    ||A^n f_n||_p^p >= sum_{k<n^2} alpha_k P(S_n + k >= n^2)^p.  Every
    omitted term is nonnegative, and the truncated bound tracks the n^(1/p)
    growth without the constant-offset term that flattens a log-log fit at
    desk scale.  The survival values P(S_n + k >= n^2) = A^n f_n(k) are the
    lower ends of lpspace._image: exact (rounded once) while the row is
    within the exact limit, else from the compensated prefix of row n of
    one whole float row of length n_max^2, stepped once through n.  They do
    not depend on p, so p may be one exponent, or a tuple of them, for which
    a tuple of results comes back in p's order: each n's survival values
    close the norm sum of every p as they come, and are not kept.  The work
    charges the sweep and the windows of n^2 entries that row n's image and
    norm sums read.  The fit is ordinary least squares on (log n, log R(n))
    for n >= fit_from, with 1 <= fit_from <= n_max - 1 (default n_max//4,
    at least 2).  Each p's result is kept per (p, n_max, fit_from, limits)
    in _growth_results, a limits.Memo (limits.clear_memos() empties it),
    and the survival rows are stepped only for the p not kept yet, so the
    growth command after verify, in one report, reads verify's p = 2 result.  The row ceiling and the work
    budget are checked on every call, ahead of the memo.
    """
    ps = tuple(map(check_exponent, p if isinstance(p, tuple) else (p,)))
    if not ps:
        raise ValueError("need at least one exponent p")
    if n_max < 8:
        raise ValueError("need n_max >= 8 for a meaningful fit")
    lim = current_limits()
    lim.check_row_length(n_max * n_max)
    windows = n_max * (n_max + 1) * (2 * n_max + 1) // 6  # sum of n^2
    # 28 entry steps a window entry (limits docstring)
    work = weights._step_work(n_max, n_max * n_max) + 28 * windows
    check_work(work, f"growth to n = {n_max}, its rows to build and use")
    if fit_from is None:
        fit_from = max(2, n_max // 4)
    if not 1 <= fit_from <= n_max - 1:
        raise ValueError(
            f"need 1 <= fit_from <= n_max - 1 = {n_max - 1} for a two-point fit, got {fit_from}"
        )
    keys = {q: (q, n_max, fit_from, lim) for q in ps}
    missing = [q for q, key in keys.items() if key not in _growth_results]
    if missing:
        results = _growth_sweep(missing, n_max, fit_from, lim)
        _growth_results.keep(zip((keys[q] for q in missing), results))
    res = tuple(_growth_results[keys[q]] for q in ps)
    return res if isinstance(p, tuple) else res[0]


# growth_curve's results by (p, n_max, fit_from, limits)
_growth_results = Memo()


def _growth_sweep(ps, n_max: int, fit_from: int, lim: Limits) -> list:
    """growth_curve's result for each p in ps, from one pass over the survival rows."""
    rows = [[] for _ in ps]
    # row n's norm sum reads the first n^2 entries of one base row: the bits
    # of float_row(1, n^2), as every entry is made on its own (_base_values)
    base = weights.float_row(1, n_max * n_max)
    for n, t_m, surv in _survival_rows(n_max, lim):
        # surv**q is np.power of the float lower bounds surv
        sums = [weights.row_dot(1, base[: n * n], surv**q, _POW_ULPS) for q in ps]
        # the norms' lower ends at every p, from one _root_ends pass
        lows = _root_ends([s - err for s, err in sums], [s for s, _ in sums], np.array(ps))[0]
        for q, out, low in zip(ps, rows, lows.tolist()):
            norm_fn = float(t_m) ** (1.0 / q)
            out.append(GrowthRow(n, norm_fn, low, low / norm_fn, (n + 1) ** (1.0 / q)))
    return [_growth_fit(q, out, fit_from, n_max) for q, out in zip(ps, rows)]


def _growth_fit(p: float, rows: list, fit_from: int, n_max: int) -> GrowthResult:
    """p's result from its rows: the least-squares slope over n >= fit_from."""
    fit = [r for r in rows if r.n >= fit_from]
    if any(r.ratio <= 0.0 for r in fit):
        raise ValueError(
            f"p = {p} is too large to fit: the norm lower bounds underflow to 0"
        )
    xs = [math.log(r.n) for r in fit]
    ys = [math.log(r.ratio) for r in fit]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return GrowthResult(tuple(rows), slope, (fit_from, n_max), p)


def _survival_rows(n_max: int, lim: Limits):
    """Yield (n, T(n^2), lower ends of A^n f_n(k) for k < n^2) for n = 1..n_max.

    The limits pick the exact or float path of both _run_mass and _image.
    T(n^2) is a Fraction, or a float padded up by an ulp past the exact
    limit.
    """
    sweep = None
    for n in range(1, n_max + 1):
        m = n * n
        t_m = weights._run_mass(m, None, lim)
        if not isinstance(t_m, Fraction):
            t_m = math.nextafter(t_m, math.inf)  # within an ulp; pad the denominator up
        # lower ends of A^n f_n(k) = P(S_n >= m - k), k < m, from one row
        # kind: past the exact limit the float prefix serves every k, since
        # exact rows for the short windows cost more than the sums they tighten
        # exactness ends at one n for good (n^2 + n grows); from there one
        # whole row of length n_max^2, stepped once in n, serves every n
        backend = "auto" if weights._exact_ok(n, m, lim) else "log"
        if backend == "log":
            sweep = sweep or weights._stepped(n_max * n_max, n_max, n, n_max * n_max)
        row = next(sweep)[2] if sweep else None
        lo = _image(witness_fn(n), (n,), 0, m, None, backend, lim, True, row)[0][0]
        yield n, t_m, lo.astype(float)


def growth_verdicts(res: GrowthResult) -> dict:
    """Slope inside res.slope_window, and every ratio below (n+1)^(1/p)."""
    lo, hi = res.slope_window
    return {
        "slope_in_window": bool(lo <= res.slope <= hi),
        "ratio_below_norm_bound": all(
            r.ratio <= r.upper_bound * (1 + 1e-12) for r in res.rows
        ),
    }


class BlowupRow(NamedTuple):
    n: int
    e_lower: float
    norm_lower: float


def blowup_curve(p, beta: Optional[float] = None, n_max: int = 32, J: int = 1 << 20):
    """Lower bounds on E f(S_n) for f = k^beta, and the induced norm bound.

    The norm bound is ||A^n f||_p >= alpha_0^(1/p) * E f(S_n), applied to the
    pointwise_divergence rows at k = 0.  A fixed truncation J keeps the rows
    comparable across n, so the (strict) growth of the underlying
    expectations survives the float slop.
    """
    p = check_exponent(p)
    if beta is None:
        beta = 2.0 / (5.0 * p)
    if not 0 < beta * p < 0.5:
        raise NotInLpError(f"needs 0 < beta*p < 1/2, got beta*p = {beta * p}")
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    scale = 0.5 ** (1.0 / p)  # alpha_0^(1/p)
    return tuple(
        BlowupRow(n, e, scale * e)
        for n, e in pointwise_divergence(PowerGrowth(beta), 0, n_max, J)
    )


def quarter_index(n_max: int) -> int:
    """The row a blow-up run's end is compared with."""
    return max(1, n_max // 4)


def blowup_verdicts(rows) -> dict:
    """Strict growth of the lower bounds, and a 1.3 gain from the quarter row to the end."""
    e = [r.e_lower for r in rows]
    return {
        "strictly_increasing": all(b > a for a, b in zip(e, e[1:])),
        "surpasses_quarter": bool(e[-1] >= 1.3 * e[quarter_index(rows[-1].n)]),
    }


def pointwise_divergence(f, k: int = 0, n_max: int = 32, J: int = 1 << 20):
    """Rows (n, lower(A^n f(k))) for n = 0..n_max at a fixed truncation.

    Each lower end is that of apply_A_pow(f, n, k, J=J).  f is one
    PowerGrowth, or a tuple of them, for which a tuple of row tuples comes
    back in f's order: one weights.row_dots sweep serves several exponents,
    stepping each slice of the row through n = 1..n_max once and summing it
    against each exponent's (j+k)^beta, made once per slice.  The sweep's
    power-row sums (s, err) of each n go to lpspace._power_sums, a
    limits.Memo by (beta, k, J) (limits.clear_memos() empties it), and a
    sweep runs only for the exponents whose kept sums stop short of n_max.
    So a repeat (the blowup command after verify, in one report) steps no
    row, and apply_A_pow(f, n, k, J), for n the sums cover (verify's
    mc_agreement at n = 4), reads its sum from there.  The row ceiling and
    the work budget are checked on every call, ahead of the memo.
    """
    fs = f if isinstance(f, tuple) else (f,)
    if not fs or not all(isinstance(g, PowerGrowth) and 0 < g.beta < 0.5 for g in fs):
        raise ValueError("needs PowerGrowth with 0 < beta < 1/2")
    if k < 0 or J < 0 or n_max < 0:
        raise ValueError("need k >= 0, n_max >= 0 and J >= 0")
    current_limits().check_row_length(J)
    J = max(J, 1)
    check_work(weights._step_work(n_max, J), f"the divergence sweep to n = {n_max}, J = {J}")
    keys = {g: (g.beta, k, J) for g in fs}
    missing = [g for g, key in keys.items() if len(_power_sums.get(key, ())) < n_max]
    if missing:
        _power_sums.keep(zip((keys[g] for g in missing), _divergence_sweep(missing, k, n_max, J)))
    rows = tuple(
        ((0, float(g(k))),)
        + tuple(
            (n, float(_power_image(g, n, k, J, s, err)[0]))
            for n, (s, err) in enumerate(_power_sums[keys[g]][:n_max], 1)
        )
        for g in fs
    )
    return rows if isinstance(f, tuple) else rows[0]


def _divergence_sweep(fs, k: int, n_max: int, J: int) -> list:
    """Each f's power-row sums (s, err) for n = 1..n_max, from one weights.row_dots pass.

    The exponents' powers are stacked as one weight with a line per f, made
    a slice at a time, so the pass keeps no row or power vector of length J.
    """

    def powers(a, b):
        return np.array([_powers(f.beta, k + a, b - a) for f in fs])

    dots = weights.row_dots(n_max, J, powers, _POW_ULPS)
    return [tuple((float(s[i]), float(err[i])) for s, err in dots) for i in range(len(fs))]


def divergence_verdicts(rows) -> dict:
    """Monotonicity and the end-vs-quarter doubling of a divergence run.

    Doubling of the lower bounds between n_max/4 and n_max needs the growth
    rate n^(2*beta) to cover a factor 2 over that span, i.e. 4^(2*beta) >= 2;
    below beta = 1/4 it genuinely does not happen, and the verdict says so.
    """
    values = [v for _, v in rows]
    nondecreasing = all(b + 1e-12 >= a for a, b in zip(values, values[1:]))
    quarter = values[(len(values) - 1) // 4]
    doubled = values[-1] >= 2.0 * quarter
    return {"nondecreasing": nondecreasing, "doubled": doubled}


def probe_ratio_exact(n: int, j: int) -> Fraction:
    """alpha^n_j / (n * alpha_j) as an exact small product.

    Equals (j+1)/(j+n) * 2^(1-n) * prod_{i=1}^{n-1} (2j+i)/(j+i); never goes
    through full rows, so it stays cheap at any j.
    """
    if n < 1 or j < 0:
        raise ValueError("need n >= 1 and j >= 0")
    num = j + 1
    den = (j + n) << (n - 1)
    for i in range(1, n):
        num *= 2 * j + i
        den *= j + i
    return Fraction(num, den)


class ProbeRun(NamedTuple):
    """One n's run of the probe grid: its least ratio, at j = argmin, and its last, at j_max.

    lines holds the run's probe.csv lines, "n,j,ratio" each with its
    newline (the ratio as num/den in lowest terms), for j up to j_max.
    """

    n: int
    minimum: Fraction
    argmin: int
    last: Fraction
    lines: str


@dataclass(frozen=True)
class ProbeReport:
    """The probe grid and its least ratio.

    runs holds each n's ProbeRun; min_observed is the least ratio and argmin
    its (n, j), the first in (n, j) order.
    """

    c0: float
    n_max: int
    j_max: int
    min_observed: Fraction
    argmin: tuple
    runs: tuple


def lower_bound_probe(c0=1, n_max: int = 12, j_max: int = 2000) -> ProbeReport:
    """Minimum of alpha^n_j/(n alpha_j) over {2 <= n <= n_max, j <= j_max, c0*j >= n^2}.

    The report is kept per (c0, n_max, j_max) by _probe, a limits.memo
    cache (limits.clear_memos() empties it), so the probe command after
    verify, in one report, reads verify's grid.
    """
    if c0 < 1:
        raise ValueError("need c0 >= 1")
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    c0 = Fraction(c0)
    # row n holds j = ceil(n^2 / c0)..j_max, so rows n <= t hold at most
    # (t - 1)(j_max + 1) - sum_{2<=n<=t} n^2 / c0 entries and later ones none
    t = max(1, min(n_max, math.isqrt(max(0, math.floor(c0 * j_max)))))
    rows = n_max + (t - 1) * (j_max + 1) - (t * (t + 1) * (2 * t + 1) - 6) / (6 * c0)
    # 2^11 entry steps a row (limits docstring)
    check_work(rows * (1 << 11), "the probe grid")
    return _probe(c0, n_max, j_max)


@memo(4)
def _probe(c0_exact: Fraction, n_max: int, j_max: int) -> ProbeReport:
    runs = [
        _probe_run(n, j0, j_max)
        for n in range(2, n_max + 1)
        if (j0 := math.ceil(n * n / c0_exact)) <= j_max
    ]
    if not runs:
        raise EmptyGridError(
            f"no admissible (n, j) with c0*j >= n^2 for c0={c0_exact}, "
            f"n_max={n_max}, j_max={j_max}"
        )
    best = min(runs, key=lambda r: r.minimum)  # the first least run, as a scan finds it
    return ProbeReport(
        float(c0_exact), n_max, j_max, best.minimum, (best.n, best.argmin), tuple(runs)
    )


def _probe_run(n: int, j0: int, j_max: int) -> ProbeRun:
    """Row n's run of the probe grid, j0 <= j <= j_max.

    The ratio r(n, j) = probe_ratio_exact(n, j) is stepped in j by the exact
    integer recurrence

        r(n, j+1) = r(n, j) (j+2)(2j+n)(2j+n+1) / ((j+n+1)(2j+1)(2j+2)),

    the quotient of the closed products at j + 1 and j.  num / den stays in
    lowest terms with no gcd of two long integers: once the step's own
    a / b is reduced, the common factors of num a and den b are
    gcd(num, b) gcd(a, den), as num, den and a, b are coprime pairs.  The
    least ratio is tracked by integer cross-multiplication, first j on ties.
    """
    r = probe_ratio_exact(n, j0)
    num, den = r.numerator, r.denominator
    bn, bd, bj = num, den, j0
    j, lines = j0, []
    while True:
        lines.append(f"{n},{j},{num}/{den}\n" if den != 1 else f"{n},{j},{num}\n")
        if num * bd < bn * den:  # denominators are positive
            bn, bd, bj = num, den, j
        if j == j_max:
            return ProbeRun(n, Fraction(bn, bd), bj, Fraction(num, den), "".join(lines))
        a = (j + 2) * (2 * j + n) * (2 * j + n + 1)
        b = (j + n + 1) * (2 * j + 1) * (2 * j + 2)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        g, h = math.gcd(num, b), math.gcd(a, den)
        num, den, j = num // g * (a // h), den // h * (b // g), j + 1


def probe_verdicts(rep: ProbeReport) -> dict:
    """The probe's minimum is strictly positive."""
    return {"min_positive": rep.min_observed > 0}


def maximal_profile(m: int) -> tuple:
    """sup_{n>=1} M_n(T)(g)(k) for g the window [m, 2m), at each k < 2m.

    M_n(T)(g)(k) counts the window hits among k..k+n-1, divided by n.  For
    k < m the count is 0 up to n = m - k and n - (m - k) up to n = 2m - k,
    then m, so the ratio rises to m/(2m - k) at n = 2m - k and falls after
    it; for m <= k < 2m it is 1 at n = 1.  Both are reached by n = 2m.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return tuple(Fraction(m, 2 * m - k) if k < m else Fraction(1) for k in range(2 * m))


def maximal_ratios(grid, p) -> list:
    """[maximal_ratio_T(m, p) for m in grid], refused before any work past the work budget."""
    # m^2 entry steps a window (limits docstring)
    check_work(sum(m * m for m in grid), "maximal windows")
    return [maximal_ratio_T(m, p) for m in grid]


def maximal_ratio_T(m: int, p) -> float:
    """||sup_n M_n(T)(g_m)||_p / ||g_m||_p for the window witness g_m.

    The maximal function vanishes for k >= 2m, so both norms are finite sums
    closed by exact tails; maximal_profile gives the supremum over all n.
    """
    p = check_exponent(p)
    sup = maximal_profile(m)
    num = math.fsum(a * float(s) ** p for a, s in zip(weights._alpha_floats(), sup) if s)
    den = float(weights._run_mass(m, 2 * m, current_limits()))
    return (num / den) ** (1.0 / p)


def maximal_verdicts(ratios) -> dict:
    """Maximal ratios over an increasing window grid: strict growth, each gain >= 1.15."""
    pairs = list(zip(ratios, ratios[1:]))
    return {
        "strictly_increasing": all(b > a for a, b in pairs),
        "gain_ge_1_15": all(b >= 1.15 * a for a, b in pairs),
    }


@dataclass(frozen=True)
class SatoMatrix:
    """A 2x2 unipotent upper-triangular matrix; the family is closed under products."""

    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    def __post_init__(self):
        if self.a21 != 0 or self.a11 != 1 or self.a22 != 1:
            raise ValueError("matrix must be unipotent upper-triangular")


def sato_power(n: int, a) -> SatoMatrix:
    """Closed form of the n-th power of [[1, a], [0, 1]]: [[1, n a], [0, 1]]."""
    if n < 0:
        raise ValueError("need n >= 0")
    a = Fraction(a)
    if a <= 0:
        raise ValueError("need a > 0")
    return SatoMatrix(Fraction(1), n * a, Fraction(0), Fraction(1))


def sato_matrix_product(n: int, a) -> SatoMatrix:
    """Brute-force n-fold product oracle for sato_power: term n of _sato_products."""
    if n < 0:
        raise ValueError("need n >= 0")
    a = Fraction(a)
    if a <= 0:
        raise ValueError("need a > 0")
    return next(itertools.islice(_sato_products(a), n, None))


def _sato_products(a: Fraction):
    """Yield [[1, a], [0, 1]]^n for n = 0, 1, ...: one running product, one factor a step."""
    m11, m12, m21, m22 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    while True:
        yield SatoMatrix(m11, m12, m21, m22)
        # multiply on the right by [[1, a], [0, 1]]
        m11, m12 = m11, m11 * a + m12
        m21, m22 = m21, m21 * a + m22


def sato_norm_growth(a, p, n_max: int):
    """Rows (n, ||A^n e2||_p) = (n, ((n a)^p + 1)^(1/p)), strictly increasing."""
    p = check_exponent(p)
    a = Fraction(a)
    if a <= 0:
        raise ValueError("need a > 0")
    # 2^13 entry steps a row (limits docstring)
    check_work(n_max * (1 << 13), f"{n_max} Sato rows")
    try:
        return tuple(
            (n, (float(n * a) ** p + 1.0) ** (1.0 / p)) for n in range(n_max + 1)
        )
    except OverflowError:
        raise ValueError(
            f"(n a)^p overflows a double for n <= {n_max}, a = {a}, p = {p}"
        ) from None


def sato_verdicts(a, rows) -> dict:
    """Closed form vs product for every n in rows, norms >= n a, strict growth.

    The products are the terms of one running product (_sato_products, the
    oracle behind sato_matrix_product), walked once to the largest n of the
    rows, and each row's n is compared with its own term.
    """
    a = Fraction(a)
    vals = [v for _, v in rows]
    closed = {n: sato_power(n, a) for n, _ in rows}
    products = itertools.islice(_sato_products(a), max(closed, default=-1) + 1)
    return {
        "closed_form_matches_product": all(
            closed[n] == prod for n, prod in enumerate(products) if n in closed
        ),
        "norm_ge_n_a": all(v >= float(n * a) - 1e-12 for n, v in rows),
        "strictly_increasing": all(x < y for x, y in zip(vals, vals[1:])),
    }


def normalized_decay_check(p, n_max: int):
    """Rows (n, (n+1)^(1/p)/n): the normalized norm bound, decreasing to 0."""
    p = check_exponent(p)
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    return tuple((n, (n + 1.0) ** (1.0 / p) / n) for n in range(1, n_max + 1))
