"""Verification suites: named boolean verdicts over the whole construction.

The core suite is exact-arithmetic identities plus the two-backend agreement
scan; it is what a correctness mutation should trip.  The full suite adds the
desk-scale quantitative experiments (norm growth, blow-up, maximal function,
probe, Monte Carlo agreement).  Every check is deterministic: randomized
checks draw from fixed seeds, so a verdict flip always means a real change.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import astuple
from fractions import Fraction

import mpmath
import numpy as np

from . import experiments, lpspace, mc, weights
from .errors import ResourceLimitError
from .limits import current_limits
from .lpspace import (
    FiniteTable,
    IndicatorGE,
    IndicatorWindow,
    PowerGrowth,
    _image,
    apply_A_pow,
    barycenter_residual,
    cesaro_A,
    cesaro_T,
    contraction_bound_check,
    norm_bound_check,
)

DEFAULT_SEED = 104729

_PINNED = {
    (1, 0): Fraction(1, 2),
    (1, 1): Fraction(1, 8),
    (1, 2): Fraction(1, 16),
    (1, 3): Fraction(5, 128),
    (2, 0): Fraction(1, 4),
    (2, 1): Fraction(1, 8),
    (2, 2): Fraction(5, 64),
    (2, 4): Fraction(21, 512),
    (3, 0): Fraction(1, 8),
    (3, 1): Fraction(3, 32),
    (3, 2): Fraction(9, 128),
}


def check_exact_table() -> bool:
    ok = all(weights.alpha_pow_exact(n, j) == v for (n, j), v in _PINNED.items())
    ok &= all(
        weights.alpha_exact(j) == weights.alpha_pow_exact(1, j) for j in range(64)
    )
    # independent route: iterated convolution of the base numerators, over
    # 2^(2j+n): 1/4 = 1/2^2, 5/64 = 5/2^6 (n = 2) and 9/128 = 9/2^7 (n = 3)
    base = weights._row_exact(1, 8)
    conv2 = weights._convolve_numerators(base, base)
    conv3 = weights._convolve_numerators(conv2, base)
    ok &= conv2[0] == 1 and conv2[2] == 5 and conv3[2] == 9
    return bool(ok)


def check_asymptotic_constant() -> bool:
    k = 10**6
    val = math.exp(weights.alpha_pow_log(1, k) + 1.5 * math.log(k))
    return abs(val / weights.ASYMPTOTIC_CONSTANT - 1.0) <= 0.01


def check_pgf_point_checks() -> bool:
    def within(c, x, J):
        # the true gap, the discarded tail, lies in [0, alpha_J x^J / (1-x)],
        # alpha_J = T(J) / (2(J+1)); the returned gap adds the sum's shortfall,
        # at most (J^2/2 + J/(1-x)) 2^-P (weights.pgf_check), and the 136-bit
        # closed form's rounding: with x and 1 - x exact, three roundings of
        # relative size 2^-136 of a value below 1, under 2^-134; doubling that
        # covers the float evaluation of both ends
        x = float(x)
        e = (J * J / 2 + J / (1 - x)) * 2.0**-weights._FIXED_BITS + 2.0**-133
        tail = weights.tail_float_bounds(J)[1] / (2 * (J + 1)) * x**J / (1 - x)
        return -e <= c.gap <= tail + e

    c0 = weights.pgf_check(0, 10)
    ok = c0.closed_form == 0.5 and c0.partial_sum == 0.5 and within(c0, 0, 10)
    c1 = weights.pgf_check(Fraction(3, 4), 200)
    ok &= abs(c1.closed_form - 2.0 / 3.0) <= 1e-14 and within(c1, Fraction(3, 4), 200)
    c2 = weights.pgf_check(0.99, 10**5)
    ok &= abs(c2.closed_form - 10.0 / 11.0) <= 1e-13 and within(c2, 0.99, 10**5)
    return bool(ok)


def check_barycenter_residual_zero() -> bool:
    cases = (
        (IndicatorGE(3), 0, 50),
        (IndicatorWindow(2, 7), 1, 40),
        (FiniteTable((Fraction(1), Fraction(-2), Fraction(3, 2))), 0, 30),
    )
    return all(barycenter_residual(f, k, J) == 0 for f, k, J in cases)


def check_cesaro_identities() -> bool:
    ok = cesaro_T(IndicatorGE(1), 4, 0) == Fraction(3, 4)
    enc = cesaro_A(IndicatorGE(1), 3, 0)
    ok &= enc.lower == enc.upper == Fraction(5, 12)
    # the finite average of a step function telescopes to a hit count
    for m in (0, 2, 5, 9):
        f = IndicatorGE(m)
        for n in range(1, 11):
            for k in range(7):
                hits = n - min(n, max(0, m - k))
                ok &= cesaro_T(f, n, k) == Fraction(hits, n)
    return bool(ok)


def check_sato_closed_form() -> bool:
    for a in (1, Fraction(3, 2)):
        rows = experiments.sato_norm_growth(a, 2, 100)
        if not experiments.sato_verdicts(a, rows)["closed_form_matches_product"]:
            return False
    # entrywise subadditivity: (A^(n+m))_ij <= (A^n)_ij + (A^m)_ij, on the
    # entries 0, 1 and n as ints; a non-integer entry fails the check
    entries = [astuple(experiments.sato_power(n, 1)) for n in range(101)]
    if any(x.denominator != 1 for power in entries for x in power):
        return False
    powers = [tuple(x.numerator for x in power) for power in entries]
    return all(
        x <= y + z
        for n in range(51)
        for m in range(51)
        for x, y, z in zip(powers[n + m], powers[n], powers[m])
    )


def check_sato_norms() -> bool:
    rows = experiments.sato_norm_growth(1, 2, 10)
    ok = all(experiments.sato_verdicts(1, rows).values())
    ok &= abs(rows[2][1] - math.sqrt(5.0)) <= 1e-12
    ok &= all(v <= n + 1 + 1e-12 for n, v in rows)
    return bool(ok)


def check_normalized_decay() -> bool:
    rows = experiments.normalized_decay_check(2, 10**4)
    ok = abs(rows[2][1] - 2.0 / 3.0) <= 1e-15
    ok &= abs(rows[98][1] - 10.0 / 99.0) <= 1e-15
    ok &= all(b[1] < a[1] for a, b in itertools.pairwise(rows))
    ok &= rows[-1][1] <= 0.0101
    return bool(ok)


def _exact_images(f, ns, K: int) -> dict:
    """{n: A^n f(k) for k < K} for each n in ns, from one exact _image pass (Fractions)."""
    return dict(zip(ns, _image(f, ns, 0, K, None, "exact", current_limits())[0]))


def check_operator_subadditivity() -> bool:
    """A^{n+m}(f)(k) <= A^n(f)(k) + A^m(f)(k) for f >= 0, exact."""
    fam = (
        IndicatorGE(3),
        IndicatorWindow(1, 6),
        FiniteTable((Fraction(2), Fraction(0), Fraction(1, 2), Fraction(3))),
    )
    vals = [_exact_images(f, range(1, 11), 21) for f in fam]
    return not any(
        (v[n + m] > v[n] + v[m]).any() for v in vals for n in range(1, 10) for m in range(n, 11 - n)
    )


def check_semigroup_identity() -> bool:
    """A^n(A^m f) == A^{n+m} f exactly on a signed finite table."""
    f = FiniteTable(
        (Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(0), Fraction(2, 3), Fraction(-4))
    )
    L = f.starts[-1]  # f vanishes from here on
    vals = _exact_images(f, range(1, 8), L)
    # A^m f vanishes past the support of f, so it is again a finite table
    return all(
        (img == vals[n + m]).all()
        for m in (1, 2, 3)
        for n, img in _exact_images(FiniteTable(tuple(vals[m])), (1, 2, 4), L).items()
    )


def check_normalized_decrease() -> bool:
    """A^{n+1}(f)(k)/(n+1) <= A^n(f)(k)/n for indicators, exact."""
    vals = [_exact_images(IndicatorGE(m), range(1, 14), 21) for m in (1, 3, 10)]
    return not any((v[n + 1] * n > v[n] * (n + 1)).any() for v in vals for n in range(1, 13))


def _float_ends_rounded(f, ns, J=None) -> bool:
    """Every float end of f's exact image pass is its Fraction end rounded once."""
    lim, L = current_limits(), f.starts[-1]
    floats, exact = (_image(f, ns, 0, L, J, "exact", lim, b) for b in (True, False))
    return all(a == float(b) for u, v in zip(floats, exact) for a, b in zip(u.flat, v.flat))


def check_norm_upper_bound() -> bool:
    """||A^n f||_p <= (n+1)^(1/p) ||f||_p on seeded random finite tables.

    The float ends of the image pass behind it must be the exact ends rounded
    once, on three of the tables (the int64 pass) and on one where
    max(M, q) 2^(2J + n_max) = 12 * 2^58 is past 2^53 (lpspace._exact_image).
    """
    thirds = FiniteTable(tuple(Fraction(k % 25 - 12, 3) for k in range(1, 41)))
    if not _float_ends_rounded(thirds, range(1, 5), 27):
        return False
    rng = np.random.default_rng(0xA1FA)
    ps = np.array((1.1, 1.5, 2.0, 3.0))
    # (n + 1)^(1/p), one line per n = 1..12 and one column per p
    factors = np.float_power(np.arange(2.0, 14.0)[:, None], 1.0 / ps)
    for i in range(100):
        length = int(rng.integers(1, 13))
        vals = tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, size=length))
        f = FiniteTable(vals)
        if i < 3 and not _float_ends_rounded(f, range(1, 13)):
            return False
        # one image pass of f serves every n and all four p; line 0 is ||f||_p
        # (read through the module, so that a mutant of it is the one run)
        lo, hi = lpspace._norm_table_ends(f, range(13), ps)
        if not norm_bound_check((lo[1:], hi[1:]), (lo[0], hi[0]), factors).ok.all():
            return False
    return True


def check_contraction_bound() -> bool:
    cases = (
        (IndicatorGE(2), 2.0),
        (IndicatorWindow(1, 5), 1.5),
        (FiniteTable((1, -2, Fraction(3, 2))), 3.0),
    )
    return all(contraction_bound_check(f, p).ok for f, p in cases)


def check_growth_slopes() -> bool:
    return all(
        all(experiments.growth_verdicts(res).values())
        for res in experiments.growth_curve((1.25, 2.0, 3.0), 32)
    )


# blowup_curve(2.0)'s exponent 2/(5p) and the faster one pointwise_divergence
# needs; one weights.row_dots pass at J = 2^20 makes the rows of both
_DIVERGENCE_EXPONENTS = (PowerGrowth(0.2), PowerGrowth(0.32))


def check_blowup_monotone() -> bool:
    experiments.pointwise_divergence(_DIVERGENCE_EXPONENTS, 0, 32)
    return all(experiments.blowup_verdicts(experiments.blowup_curve(2.0)).values())


def check_pointwise_divergence() -> bool:
    slow, fast = experiments.pointwise_divergence(_DIVERGENCE_EXPONENTS, 0, 32)
    # rows n <= 24 of the beta = 0.2 pass that blowup_monotone reads to n = 32
    v_slow = experiments.divergence_verdicts(slow[:25])
    # end-vs-quarter doubling needs 4^(2 beta) >= 2, so probe it above 1/4
    v_fast = experiments.divergence_verdicts(fast)
    return v_slow["nondecreasing"] and v_fast["nondecreasing"] and v_fast["doubled"]


def check_probe_positive() -> bool:
    rep = experiments.lower_bound_probe(1, 12, 2000)
    # the n <= 6 grid is part of the n <= 12 one, so its minimum is read off
    # rep's runs
    min6 = min(run.minimum for run in rep.runs if run.n <= 6)
    ok = min6 > 0 and experiments.probe_verdicts(rep)["min_positive"]
    ok &= rep.min_observed >= Fraction(1, 2) * min6
    ok &= rep.min_observed > Fraction(1, 5)
    # each run is stepped in j by a recurrence: its last cell must be the
    # closed product
    ok &= all(run.last == experiments.probe_ratio_exact(run.n, rep.j_max) for run in rep.runs)
    return bool(ok)


def check_maximal_growth() -> bool:
    grid = (4, 16, 64, 256)
    ratios = experiments.maximal_ratios(grid, 2.0)
    return all(experiments.maximal_verdicts(ratios).values())


def check_mc_agreement(seed: int = DEFAULT_SEED) -> bool:
    # (stream, f, n, trials, J) at k = 0: P(S_2 = 0) = 1/4, three cross-checks,
    # and the deep tail P(S_1 >= 100) = T(100)
    cases = (
        (0, IndicatorWindow(0, 1), 2, 10**4, None),
        (1, IndicatorGE(1), 1, 10**5, None),
        (2, FiniteTable((1,)), 2, 10**4, None),
        (3, PowerGrowth(0.2), 4, 10**4, 1 << 20),
        (9, IndicatorGE(100), 1, 10**6, None),
    )
    ok = True
    for stream, f, n, trials, J in cases:
        est = mc.mc_apply_A(f, n, 0, trials, mc.make_generator(seed, stream))
        ok &= mc.within(est, apply_A_pow(f, n, 0, J=J))

    # frequency test: first 64 states exactly, everything else in one bucket,
    # counted a chunk of draws at a time
    trials, chunk = 10**5, 1 << 16
    draw, counts = mc._sampler(mc.make_generator(seed, 13), chunk), 0
    for start in range(0, trials, chunk):
        draws, _ = draw(min(chunk, trials - start))
        counts += np.bincount(np.minimum(draws, 64, out=draws), minlength=65)
    probs = [float(weights.alpha_exact(j)) for j in range(64)]
    probs.append(float(weights.tail_exact(64)))
    expected = trials * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square survival at 64 degrees of freedom: Q(64/2, chi2/2)
    ok &= mpmath.gammainc(32, chi2 / 2, mpmath.inf, regularized=True) >= 1e-3
    return bool(ok)


CORE_CHECKS = (
    ("exact_table", check_exact_table),
    ("closed_form_vs_convolution", lambda: weights.scan_convolution_agreement(6, 200).ok),
    ("subadditivity", lambda: weights.scan_subadditivity(24, 400).ok),
    ("normalized_monotonicity", lambda: weights.scan_normalized_monotonicity(20, 200).ok),
    ("tail_identity", lambda: weights.scan_tail_identity(300).ok),
    ("asymptotic_constant", check_asymptotic_constant),
    ("backend_agreement", lambda bias: weights.scan_backend_agreement(bias=bias).ok),
    ("pgf_point_checks", check_pgf_point_checks),
    ("barycenter_residual_zero", check_barycenter_residual_zero),
    ("cesaro_identities", check_cesaro_identities),
    ("operator_subadditivity", check_operator_subadditivity),
    ("semigroup_identity", check_semigroup_identity),
    ("normalized_decrease", check_normalized_decrease),
    ("sato_closed_form", check_sato_closed_form),
    ("sato_norms", check_sato_norms),
    ("normalized_decay", check_normalized_decay),
)

FULL_CHECKS = (
    ("norm_upper_bound", check_norm_upper_bound),
    ("contraction_bound", check_contraction_bound),
    ("growth_slopes", check_growth_slopes),
    ("blowup_monotone", check_blowup_monotone),
    ("pointwise_divergence", check_pointwise_divergence),
    ("probe_positive", check_probe_positive),
    ("maximal_growth", check_maximal_growth),
    ("mc_agreement", check_mc_agreement),
)


def run_suite(suite: str = "core", seed: int = DEFAULT_SEED, bias: float = 0.0) -> dict:
    """{name: verdict} over CORE_CHECKS, then FULL_CHECKS too unless suite is "core".

    The float bias reaches backend_agreement and the seed mc_agreement; every
    other check takes no argument.  Each check runs on its own: one that
    raises takes no user input to blame, so its error is a fault of the
    program, which makes its verdict false (the error goes to stderr) and
    the suite goes on.  A ResourceLimitError still propagates.
    """
    checks = CORE_CHECKS if suite == "core" else CORE_CHECKS + FULL_CHECKS
    args = {"backend_agreement": (bias,), "mc_agreement": (seed,)}
    verdicts = {}
    for name, fn in checks:
        try:
            verdicts[name] = fn(*args.get(name, ()))
        except ResourceLimitError:
            raise
        except Exception as exc:
            print(f"error in {name}: {exc}", file=sys.stderr)
            verdicts[name] = False
    return verdicts
