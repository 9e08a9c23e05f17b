"""Sequence-space tests.

Hand-computed oracles: small barycenter values reduce to explicit rational
sums (alpha_0 = 1/2, alpha_1 = 1/8, alpha_2 = 1/16, alpha^2_0 = 1/4), and
image norms over one- and two-point supports are worked out term by term in
the comments next to each assertion.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaddlab import lpspace, weights
from subaddlab.errors import NotInLpError, NotSummableError, ResourceLimitError
from subaddlab.limits import Limits, current_limits
from subaddlab.lpspace import (
    BoundCheck,
    Enclosure,
    EventuallyConstant,
    FiniteTable,
    IndicatorGE,
    IndicatorWindow,
    PowerGrowth,
    apply_A_pow,
    barycenter_residual,
    cesaro_A,
    cesaro_T,
    check_exponent,
    contraction_bound_check,
    image_p_norm,
    image_p_norm_table,
    norm_bound_check,
    p_norm,
)


def test_function_kinds_evaluate():
    assert IndicatorGE(2)(1) == 0 and IndicatorGE(2)(2) == 1
    w = IndicatorWindow(1, 3)
    assert [w(k) for k in range(4)] == [0, 1, 1, 0]
    t = FiniteTable((1, -2, Fraction(3, 2)))
    assert t(1) == -2 and t(5) == 0
    g = PowerGrowth(0.5)
    assert g(0) == 0.0 and g(4) == 2.0


def test_function_validation():
    with pytest.raises(ValueError):
        IndicatorGE(-1)
    with pytest.raises(ValueError):
        IndicatorWindow(3, 2)
    with pytest.raises(ValueError):
        PowerGrowth(-0.1)
    with pytest.raises(ValueError):
        FiniteTable((1.0, math.inf))
    with pytest.raises(ValueError):
        IndicatorGE(1)(-1)


def test_eventually_constant_runs():
    # one representation per function: equal tables compare equal
    assert FiniteTable((0, 0, 1)) == IndicatorWindow(2, 3)
    assert FiniteTable((1, 1, 0, 0)) == IndicatorWindow(0, 2)
    assert IndicatorWindow(3, 3) == FiniteTable(()) == EventuallyConstant((0,), (0,))
    assert IndicatorGE(0) == EventuallyConstant((0, 0), (0, 1))
    # an indicator is two runs however far its threshold
    big = IndicatorGE(3_000_000_000)
    assert big.starts == (0, 3_000_000_000) and big.levels == (0, 1)
    assert big(2_999_999_999) == 0 and big(3_000_000_000) == 1
    f = EventuallyConstant((0, 2, 5), (Fraction(1, 2), -3, 7))
    assert [f(k) for k in (0, 1, 2, 4, 5, 10**9)] == [Fraction(1, 2)] * 2 + [-3, -3, 7, 7]
    for starts, levels in (((1,), (0,)), ((0, 2, 1), (0, 1, 2)), ((0,), (0, 1))):
        with pytest.raises(ValueError):
            EventuallyConstant(starts, levels)
    with pytest.raises(ValueError):
        EventuallyConstant((0, 1), (0, math.nan))


def test_check_exponent():
    assert check_exponent(2) == 2.0
    for bad in (1, 1.0, 0.5, math.inf):
        with pytest.raises(ValueError):
            check_exponent(bad)


def test_enclosure_algebra():
    with pytest.raises(ValueError):
        Enclosure(1, 0)
    e = Enclosure.point(Fraction(1, 2))
    assert e.lower == e.upper == Fraction(1, 2) and e.width == 0
    assert isinstance(e.midpoint, Fraction)
    m = Enclosure(Fraction(1, 2), 0.75)
    assert isinstance(m.midpoint, float)


def test_p_norm_indicators_close_exactly():
    for p in (1.5, 2, 3):
        e = p_norm(IndicatorGE(1), p)
        assert abs(e.midpoint - 0.5 ** (1.0 / p)) < 1e-14
        assert e.lower <= 0.5 ** (1.0 / p) <= e.upper
        assert e.width < 1e-14
    # window [1, 3) carries mass alpha_1 + alpha_2 = 3/16
    e = p_norm(IndicatorWindow(1, 3), 2)
    assert e.lower <= math.sqrt(3 / 16) <= e.upper and e.width < 1e-14


def mpmath_norm(f, n, p):
    """||A^n f||_p at 50 digits: image values and run masses are exact rationals."""
    starts, levels = f.starts, f.levels
    L, c = starts[-1], levels[-1]
    if n == 0:
        runs = [(s, e, Fraction(v)) for s, e, v in zip(starts, starts[1:], levels)]
    else:
        runs = []
        for k in range(L):
            w = [weights.alpha_pow_exact(n, j) for j in range(L - k)]
            v = sum((wj * Fraction(f(j + k)) for j, wj in enumerate(w)), Fraction(0))
            runs.append((k, k + 1, v + c * (1 - sum(w, Fraction(0)))))
    with mpmath.workdps(50):

        def tail(m):
            return mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m

        def power(v):
            return abs(mpmath.mpf(v.numerator) / v.denominator) ** p

        total = tail(L) * power(Fraction(c))
        for s, e, v in runs:
            total += (tail(s) - tail(e)) * power(v)
        return total ** (1 / mpmath.mpf(p))


def test_p_norm_far_indicator_is_fast_and_sound():
    # binom(2m, m) at m = 10^6 took tens of seconds; past the exact limit the
    # tail comes from 40-digit log-gamma values instead
    m = 10**6
    t0 = time.perf_counter()
    e = p_norm(IndicatorGE(m), 2)
    assert time.perf_counter() - t0 < 1.0
    with mpmath.workdps(50):
        ref = mpmath.sqrt(mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m)
    assert e.lower <= ref <= e.upper
    assert e.width < 1e-6 * float(ref)
    # a window ending past the limit mixes an exact run with a 40-digit one
    w = p_norm(IndicatorWindow(5, m), 1.5)
    with mpmath.workdps(50):
        mass = mpmath.binomial(10, 5) / mpmath.mpf(4) ** 5 - ref**2
        wref = mass ** (1 / mpmath.mpf(1.5))
    assert w.lower <= wref <= w.upper
    # the float padding does not grow with the last run start
    m = 3 * 10**9
    e = p_norm(IndicatorGE(m), 2)
    with mpmath.workdps(50):
        ref = mpmath.sqrt(mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m)
    assert e.lower <= ref <= e.upper
    assert e.width <= 1e-14 * float(ref)
    # signed, non-dyadic levels take the float path of both norms
    third, half = Fraction(1, 3), Fraction(1, 2)
    cases = (
        (EventuallyConstant((0, 2, 5), (-third, Fraction(7, 5), Fraction(-2, 3))), (1, 3)),
        (FiniteTable((Fraction(-9, 7), 0, third, -1, half)), (1, 4)),
        (EventuallyConstant((0, 5, 2500), (third, Fraction(-7, 5), -third)), ()),
    )
    for f, image_ns in cases:
        for p in (1.1, 2.0, 3.0, 7.5):
            ref = mpmath_norm(f, 0, p)
            e = p_norm(f, p)
            assert e.lower <= ref <= e.upper and e.width <= 1e-14 * float(ref)
            for n in image_ns:
                ref = mpmath_norm(f, n, p)
                e = image_p_norm(f, n, p)
                assert e.lower <= ref <= e.upper and e.width <= 1e-14 * float(ref)
    # (1/3)^1000 underflows to 0; the norm (1/2)^(1/1000) / 3 must stay enclosed
    e = p_norm(FiniteTable((third,)), 1000)
    assert e.lower <= 0.5 ** (1 / 1000) / 3 <= e.upper



def test_norms_past_the_float_range():
    # 10^400 overflows a double; the norm sums are then scaled by max |v|
    for values in ((10,), (10, -3, Fraction(1, 3))):
        f = FiniteTable(values)
        for p in (400, 1000):
            for n in (0, 1, 2):
                ref = mpmath_norm(f, n, p)
                e = p_norm(f, p) if n == 0 else image_p_norm(f, n, p)
                assert e.lower <= ref <= e.upper, (values, p, n)
                assert e.width <= 1e-13 * float(ref)
    e = p_norm(FiniteTable((10,)), 400)
    assert e.lower <= 10 * 2 ** (-1 / 400) <= e.upper


def test_levels_past_the_float_range():
    # 10^400 itself does not convert to a float; the sums are scaled by 2^e
    def mpf(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    for values in ((10**400,), (10**400, -3, Fraction(1, 3))):
        f = FiniteTable(values)
        for p in (2, 400):
            for n in (0, 1):
                ref = mpmath_norm(f, n, p)
                e = p_norm(f, p) if n == 0 else image_p_norm(f, n, p)
                with mpmath.workdps(60):
                    assert mpf(e.lower) <= ref <= mpf(e.upper), (values, p, n)
                    assert mpf(e.upper) - mpf(e.lower) <= ref * mpmath.mpf(1e-13)


def test_float_route_refuses_levels_past_the_float_range():
    # J = 2,500 windows are past the exact limit, so the image would be
    # formed in floats, where 10^400 has no value: a ValueError, not an
    # OverflowError; J = 25 stays on the exact route and its Fraction ends
    f = FiniteTable((10**400,))
    for image in (lambda J: apply_A_pow(f, 1, 0, J=J), lambda J: image_p_norm(f, 1, 2, J=J)):
        with pytest.raises(ValueError, match="float range"):
            image(2500)
    # A f(0) = alpha_0 10^400, and A f(k) = 0 for k >= 1
    assert apply_A_pow(f, 1, 0, J=25) == Enclosure.point(Fraction(10**400, 2))
    e = image_p_norm(f, 1, 2, J=25)
    assert isinstance(e.lower, Fraction) and isinstance(e.upper, Fraction)
    assert e.lower**2 <= Fraction(10**800, 8) <= e.upper**2


def test_limits_take_effect_at_the_next_call(monkeypatch):
    # each public call reads the limits once and hands them to its inner loops
    f = IndicatorGE(60)
    assert isinstance(apply_A_pow(f, 1, 0).lower, Fraction)
    monkeypatch.setenv("SUBADDLAB_EXACT_LIMIT", "50")
    enc = apply_A_pow(f, 1, 0)
    assert isinstance(enc.lower, float)
    assert enc.lower <= weights.tail_exact(60) <= enc.upper
    monkeypatch.delenv("SUBADDLAB_EXACT_LIMIT")
    monkeypatch.setenv("SUBADDLAB_MAX_J", "40")
    with pytest.raises(ResourceLimitError):
        image_p_norm(f, 1, 2.0)
    monkeypatch.delenv("SUBADDLAB_MAX_J")
    assert image_p_norm(f, 1, 2.0).upper > 0


def test_threshold_past_int64_is_refused_at_the_ceiling():
    # a table longer than the row ceiling is refused before its window is
    # formed in int64; its norm needs no window and still closes
    f = IndicatorGE(2**63)
    with pytest.raises(ResourceLimitError, match="exceeds the ceiling"):
        apply_A_pow(f, 1, 0)
    with pytest.raises(ResourceLimitError, match="exceeds the ceiling"):
        image_p_norm(f, 1, 2)
    e = p_norm(f, 2)
    assert 0 < e.lower <= e.upper


def test_exact_backend_refuses_windows_past_the_exact_limit(monkeypatch):
    # the exact route checks each prefix before it builds it: j + n = 60 is
    # refused and j + n = 50, the limit itself, is formed exactly
    monkeypatch.setenv("SUBADDLAB_EXACT_LIMIT", "50")
    f = IndicatorGE(5)
    with pytest.raises(ResourceLimitError, match=r"exact backend limited to j \+ n <= 50"):
        apply_A_pow(f, 1, 0, J=60, backend="exact")
    e = apply_A_pow(f, 1, 0, J=50, backend="exact")
    assert isinstance(e.lower, Fraction) and e.lower <= weights.tail_exact(5) <= e.upper


def test_p_norm_finite_table():
    # alpha_0 1^2 + alpha_1 2^2 + alpha_2 (3/2)^2 = 1/2 + 1/2 + 9/64 = 73/64
    e = p_norm(FiniteTable((1, -2, Fraction(3, 2))), 2)
    true = math.sqrt(73) / 8
    assert e.lower <= true <= e.upper
    assert e.width < 1e-10


def test_p_norm_power_growth():
    e = p_norm(PowerGrowth(0.2), 2)
    assert 0 < e.lower < e.upper
    wide = p_norm(PowerGrowth(0.2), 2, K=1 << 12)
    tight = p_norm(PowerGrowth(0.2), 2, K=1 << 16)
    assert tight.width < wide.width
    assert max(wide.lower, tight.lower) <= min(wide.upper, tight.upper)
    with pytest.raises(NotInLpError):
        p_norm(PowerGrowth(0.3), 2)  # beta * p = 0.6 >= 1/2


def test_p_norm_power_growth_sums_slice_by_slice():
    # the norm is A(k^(beta p))(0), summed a slice at a time: no row or power
    # vector of length K = 2^21 (16 MiB) is made
    tracemalloc.start()
    try:
        e = p_norm(PowerGrowth(0.2), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    image = apply_A_pow(PowerGrowth(0.4), 1, 0)
    assert e == Enclosure(*map(float, lpspace._root_ends(image.lower, image.upper, 2)))


def test_power_sums_without_truncation_build_one_row_at_the_cap(monkeypatch):
    # J or K omitted truncates a k^beta sum at min(SUBADDLAB_MAX_J, 2^21),
    # from one row_dots pass over a float row (p_norm's is apply_A_pow's at
    # n = 1): no shorter row is tried first
    rows = []
    stepped = weights._stepped
    monkeypatch.setattr(weights, "_stepped", lambda J, *a: rows.append(J) or stepped(J, *a))
    cap = min(current_limits().max_j, 1 << 21)
    apply_A_pow(PowerGrowth(0.2), 1, 0)
    p_norm(PowerGrowth(0.2), 2)
    assert rows == [cap, cap]
    monkeypatch.setenv("SUBADDLAB_MAX_J", "5000")
    rows.clear()
    enc = apply_A_pow(PowerGrowth(0.3), 3, 5)
    assert enc == apply_A_pow(PowerGrowth(0.3), 3, 5, J=5000)
    p_norm(PowerGrowth(0.1), 3)
    assert rows == [5000] * 3
    # J = 0 still sums one term, and K = 0 is still refused
    assert apply_A_pow(PowerGrowth(0.2), 4, 0, J=0) == apply_A_pow(PowerGrowth(0.2), 4, 0, J=1)
    with pytest.raises(ValueError):
        p_norm(PowerGrowth(0.2), 2, K=0)


def test_apply_exact_values():
    f = IndicatorGE(1)
    assert apply_A_pow(f, 1, 0).lower == Fraction(1, 2)
    assert apply_A_pow(f, 2, 0).lower == Fraction(3, 4)  # 1 - alpha^2_0
    assert apply_A_pow(IndicatorGE(2), 1, 0).lower == Fraction(3, 8)  # T(2)
    assert apply_A_pow(f, 5, 3).lower == Fraction(1)  # past the threshold
    assert apply_A_pow(f, 0, 0).width == 0 and apply_A_pow(f, 0, 0).lower == 0
    # window mass: alpha_1 + alpha_2
    assert apply_A_pow(IndicatorWindow(1, 3), 1, 0).lower == Fraction(3, 16)
    assert apply_A_pow(IndicatorWindow(1, 3), 1, 5).lower == 0
    # table: 1/2*1 + 1/8*(-2) + 1/16*(3/2) = 11/32
    t = FiniteTable((1, -2, Fraction(3, 2)))
    assert apply_A_pow(t, 1, 0).lower == Fraction(11, 32)
    assert apply_A_pow(t, 1, 2).lower == Fraction(3, 4)  # alpha_0 * 3/2
    assert apply_A_pow(t, 3, 99).lower == 0


def test_apply_validation():
    with pytest.raises(ValueError):
        apply_A_pow(IndicatorGE(1), -1, 0)
    with pytest.raises(ValueError):
        apply_A_pow(IndicatorGE(1), 1, -1)
    with pytest.raises(NotSummableError):
        apply_A_pow(PowerGrowth(0.5), 1, 0)
    with pytest.raises(NotSummableError):
        apply_A_pow(PowerGrowth(0.7), 2, 0, J=100)
    # n = 0 never touches the weights, so even heavy growth is fine there
    assert apply_A_pow(PowerGrowth(0.7), 0, 4).lower == 4.0**0.7


def test_truncated_enclosure_contains_exact_value():
    f = IndicatorGE(1)
    exact = Fraction(1, 2)
    for J in (1, 2, 5, 30):
        enc = apply_A_pow(f, 1, 0, J=J)
        assert enc.lower <= exact <= enc.upper
        assert enc.lower == sum(
            (weights.alpha_exact(j) for j in range(1, J)), Fraction(0)
        )
    # windows and tables close once the truncation covers the support
    enc = apply_A_pow(IndicatorWindow(1, 3), 1, 0, J=10)
    assert enc.lower == enc.upper == Fraction(3, 16)
    enc = apply_A_pow(FiniteTable((0, 1)), 1, 0, J=7)
    assert enc.lower == enc.upper == Fraction(1, 8)


def test_truncated_enclosure_sound_for_signed_tables():
    # A f(0) for f = (1, -5): 1/2 - 5/8 = -1/8; truncating at J = 1 leaves the
    # -5 unsummed, so the remainder bracket must reach below the partial sum
    f = FiniteTable((1, -5))
    for backend in ("exact", "log"):
        enc = apply_A_pow(f, 1, 0, J=1, backend=backend)
        assert enc.lower <= Fraction(-1, 8) <= enc.upper
    # image (-1/8, -5/2, 0, ...): norm^2 = (1/2)(1/64) + (1/8)(25/4) = 101/128
    e = image_p_norm(f, 1, 2.0, J=1)
    assert e.lower <= math.sqrt(101 / 128) <= e.upper


levels = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@given(
    table=st.lists(levels, max_size=8),
    c=levels,
    n=st.integers(min_value=0, max_value=12),
    k=st.integers(min_value=0, max_value=20),
    J=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    backend=st.sampled_from(("exact", "log")),
)
@settings(max_examples=300, deadline=None)
def test_property_enclosure_soundness(table, c, n, k, J, backend):
    f = EventuallyConstant(tuple(range(len(table) + 1)), (*table, c))
    if n == 0:
        truth = f(k)
    else:
        # brute force: the table part term by term, closed with c * (1 - mass)
        w = [weights.alpha_pow_exact(n, j) for j in range(max(len(table) - k, 0))]
        truth = sum((wj * table[j + k] for j, wj in enumerate(w)), Fraction(0))
        truth += c * (1 - sum(w, Fraction(0)))
    enc = apply_A_pow(f, n, k, J=J, backend=backend)
    assert enc.lower <= truth <= enc.upper
    if J is None and backend == "exact":
        assert enc.lower == enc.upper == truth
    if n:
        # the all-k evaluation, one prefix row for k = 0..k, brackets it too
        lo, hi = (e[0] for e in lpspace._image(f, (n,), 0, k + 1, J, backend, current_limits()))
        assert lo[k] <= truth <= hi[k]
        if J is None and backend == "exact":
            assert lo[k] == hi[k] == truth


def test_log_backend_enclosure_contains_true_tail():
    # at m = 2500 the exact backend is out of reach; the oracle is the
    # closed-form tail T(2500), which the log enclosure must straddle
    m = 2500
    true = float(weights.tail_exact(m))
    enc = apply_A_pow(IndicatorGE(m), 1, 0, backend="log")
    assert enc.lower <= true <= enc.upper
    assert enc.width < 1e-10
    trunc = apply_A_pow(IndicatorGE(m), 1, 0, J=m + 50, backend="log")
    assert trunc.lower <= true <= trunc.upper


def test_cesaro_translation_average():
    f = IndicatorGE(1)
    assert cesaro_T(f, 4, 0) == Fraction(3, 4)
    assert cesaro_T(f, 1, 0) == 0
    assert cesaro_T(f, 3, 2) == 1
    v = cesaro_T(PowerGrowth(0.5), 3, 0)
    assert isinstance(v, float)
    assert abs(v - (0.0 + 1.0 + math.sqrt(2.0)) / 3) < 1e-15
    with pytest.raises(ValueError):
        cesaro_T(f, 0, 0)


def test_cesaro_barycenter_average():
    # (f(0) + A f(0) + A^2 f(0)) / 3 = (0 + 1/2 + 3/4) / 3 = 5/12
    enc = cesaro_A(IndicatorGE(1), 3, 0)
    assert enc.lower == enc.upper == Fraction(5, 12)
    trunc = cesaro_A(IndicatorGE(1), 3, 0, J=40)
    assert trunc.lower <= Fraction(5, 12) <= trunc.upper
    with pytest.raises(ValueError):
        cesaro_A(IndicatorGE(1), 0, 0)


def test_cesaro_float_means_contain_the_exact_mean(monkeypatch):
    # past the exact limit the n ends are floats, summed once per side and
    # rounded outward; the default limit gives the exact mean they bracket
    cases = [(IndicatorGE(5), 12, 0), (FiniteTable((1, -2, Fraction(1, 2))), 9, 1)]
    exact = [cesaro_A(*case).lower for case in cases]
    assert exact[0] == Fraction(1121573, 1572864)
    monkeypatch.setenv("SUBADDLAB_EXACT_LIMIT", "4")
    for case, x in zip(cases, exact):
        e = cesaro_A(*case)
        assert isinstance(e.lower, float) and isinstance(e.upper, float)
        assert e.lower <= x <= e.upper and e.width < 1e-14


def test_barycenter_residual_is_exactly_zero():
    assert barycenter_residual(IndicatorGE(3), 0, 50) == 0
    assert barycenter_residual(IndicatorWindow(2, 7), 1, 40) == 0
    assert barycenter_residual(FiniteTable((1, -2, Fraction(3, 2))), 0, 30) == 0
    with pytest.raises(ValueError):
        barycenter_residual(PowerGrowth(0.2), 0, 50)


def test_image_norm_hand_oracles():
    # IndicatorGE(1), n=1, p=2: image is (1/2, 1, 1, ...), norm^2 =
    # alpha_0/4 + T(1) = 1/8 + 1/2 = 5/8
    e = image_p_norm(IndicatorGE(1), 1, 2)
    true = math.sqrt(5 / 8)
    assert e.lower <= true <= e.upper and e.width < 1e-10
    # table (0, 1): image is (1/8, 1/2, 0, ...), norm^2 = 5/128
    e = image_p_norm(FiniteTable((0, 1)), 1, 2)
    true = math.sqrt(5 / 128)
    assert e.lower <= true <= e.upper and e.width < 1e-10
    # signed table (1, -1): image is (3/8, -1/2, 0, ...), norm^2 =
    # (1/2)(9/64) + (1/8)(1/4) = 13/128; the sign must not leak into the norm
    e = image_p_norm(FiniteTable((1, -1)), 1, 2)
    true = math.sqrt(13 / 128)
    assert e.lower <= true <= e.upper and e.width < 1e-10


def test_image_norm_past_the_exact_limit_against_exact_sum(monkeypatch):
    # IndicatorGE(2100) at n = 3 takes the float prefix for k < 102 and the
    # exact one beyond; the enclosure must hold the exact norm, whose square
    # is T(2100) + sum_k alpha_k P(S_3 >= 2100 - k)^2
    m, n = 2100, 3
    C, D = weights._prefix_exact(n, m)
    exact = weights.tail_exact(m) + sum(
        (weights.alpha_exact(k) * Fraction(D - C[m - k], D) ** 2 for k in range(m)), Fraction(0)
    )
    rows = []
    float_row = weights.float_row
    monkeypatch.setattr(weights, "float_row", lambda *a: rows.append(a) or float_row(*a))
    e = image_p_norm(IndicatorGE(m), n, 2.0)
    assert Fraction(e.lower) ** 2 <= exact <= Fraction(e.upper) ** 2
    # one prefix row serves every k
    assert len(rows) <= 1


def test_long_table_image_is_formed_in_blocks_of_runs(monkeypatch):
    # a 3,000-level table has about 2,800 runs against 3,000 ks; one
    # (runs x ks) array of big-integer terms traced about 1 GiB
    values = np.random.default_rng(7).integers(-8, 9, size=3000)
    f = FiniteTable(tuple(Fraction(int(v), 4) for v in values))
    tracemalloc.start()
    try:
        e = image_p_norm(f, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert 0 < e.lower <= e.upper
    # run blocks give the same ends, exact and float, as one block of all runs;
    # below an exact limit of 100, J = None mixes both kinds of k, J = 150
    # takes the float prefix and J = 30 the exact one
    g, lim = FiniteTable(tuple(Fraction(int(v), 4) for v in values[:200])), Limits(exact_limit=100)
    truncations = (None, 150, 30)
    ends = [lpspace._image(g, (2,), 0, 205, J, "auto", lim) for J in truncations]
    monkeypatch.setattr(lpspace, "_RUN_CELLS", 1)
    for J, (lo, hi) in zip(truncations, ends):
        lo1, hi1 = lpspace._image(g, (2,), 0, 205, J, "auto", lim)
        assert lo1.tolist() == lo.tolist() and hi1.tolist() == hi.tolist()


def test_several_exponent_norms_equal_the_one_exponent_calls():
    # one image per n, and one mass list per f, serve every p to the bit
    ps = (1.1, 1.5, 2.0, 3.0)
    rng = np.random.default_rng(0xA1FA)  # verify.check_norm_upper_bound's tables
    fs = []
    for _ in range(100):
        length = int(rng.integers(1, 13))
        fs.append(FiniteTable(tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, size=length))))
    fs += [IndicatorGE(3), IndicatorWindow(1, 5), FiniteTable((0.3, -1.25, 2.5))]
    fs.append(FiniteTable((10**400,)))  # ends past the float range are Fractions
    assert any(isinstance(e.upper, Fraction) for e in image_p_norm_table(fs[-1], (0,), ps)[0])
    for f in fs:
        norms = image_p_norm_table(f, (0,), ps)[0]  # the n = 0 line
        assert list(map(repr, norms)) == [repr(p_norm(f, p)) for p in ps]
        for n in range(13):
            for J in (None, 3):  # J = 3 truncates every window
                many = image_p_norm_table(f, (n,), ps, J=J)[0]
                one = [image_p_norm(f, n, p, J=J) for p in ps]
                assert list(map(repr, many)) == list(map(repr, one)), (f, n, J)
    with pytest.raises(ValueError):
        image_p_norm_table(IndicatorGE(3), (1,), (2.0, 1.0))
    with pytest.raises(ValueError):
        image_p_norm_table(IndicatorGE(3), (-1,), ps)
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        image_p_norm_table(IndicatorGE(3), (1,), ps, J=-1)


def test_many_n_table_equals_the_one_n_calls_on_both_integer_paths(monkeypatch):
    # one image pass for n = 0..12 gives the bits of thirteen one-n calls; the
    # many-n pass scales every prefix onto 2^(2W + 12), so it takes int64
    # where a one-n call may not, and object arrays past 2^53
    ps = (1.1, 1.5, 2.0, 3.0)
    rng = np.random.default_rng(0xA1FA)  # verify.check_norm_upper_bound's tables
    fs = []
    for _ in range(100):
        length = int(rng.integers(1, 13))
        fs.append(FiniteTable(tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, size=length))))
    fs.append(FiniteTable((10**400,)))  # ends past the float range
    # with J omitted, 2 * 2^(2 * 30 + n) >= 2^53 for every n: the object path
    fs.append(FiniteTable(tuple(int(v) for v in np.random.default_rng(5).integers(-2, 3, size=30))))
    # thirds: d = 3 D is no power of two, so an inexact float(x) would show
    # in the rounded ends; with J omitted, 6 * 2^(2 * 26 + n) >= 2^53 for every n
    thirds = np.random.default_rng(6).integers(-6, 7, size=26)
    fs.append(FiniteTable(tuple(Fraction(int(v), 3) for v in thirds)))
    kinds, exact_image = [], lpspace._exact_image

    def spy(*args):
        ends = exact_image(*args)
        kinds.append(ends[0].dtype)
        return ends

    monkeypatch.setattr(lpspace, "_exact_image", spy)

    def agree(fs, truncations):
        for f in fs:
            for J in truncations:
                table = lpspace.image_p_norm_table(f, range(13), ps, J=J)
                for n, row in enumerate(table):
                    one = image_p_norm_table(f, (n,), ps, J=J)[0]
                    assert list(map(repr, row)) == list(map(repr, one)), (f, n, J)

    agree(fs, (None, 3))
    assert np.dtype(np.float64) in kinds and np.dtype(object) in kinds
    # the exact ends are the term-by-term sums of exact weights, and each
    # float end is its exact end rounded once, on both paths
    lim = current_limits()
    for f in fs[:-3] + fs[-2:]:
        L = f.starts[-1]
        for J in (None, 3):
            for ns in (range(1, 2), range(1, 13)):
                exact = lpspace._image(f, ns, 0, L, J, "auto", lim)
                rounded = lpspace._image(f, ns, 0, L, J, "auto", lim, True)
                for q, x in zip(exact, rounded):
                    assert [[float(v) for v in line] for line in q.tolist()] == x.tolist()
        # f vanishes from L on, so A^n f(k) sums alpha^n_j f(j + k) for j < L - k
        rows = [weights.exact_row(n, L) for n in range(1, 13)]
        sums = [
            [sum((a * f(j + k) for j, a in enumerate(row[: L - k])), Fraction(0)) for k in range(L)]
            for row in rows
        ]
        assert lpspace._image(f, range(1, 13), 0, L, None, "exact", lim)[0].tolist() == sums
    huge = lpspace.image_p_norm_table(fs[-3], (1,), ps)[0]
    assert any(isinstance(e.upper, Fraction) for e in huge)
    # below an exact limit of 14, the n with W - 1 + n > 14 take the float
    # prefix for their first ks, and every n is then formed on its own
    monkeypatch.setenv("SUBADDLAB_EXACT_LIMIT", "14")
    floats, float_image = [], lpspace._float_image
    monkeypatch.setattr(
        lpspace, "_float_image", lambda f, n, *a: floats.append(n) or float_image(f, n, *a)
    )
    agree([f for f in fs[:-3] if len(f.starts) > 8], (None, 12))
    assert floats and min(floats) > 1


def test_image_norm_n_zero_reduces_to_p_norm():
    a = image_p_norm(IndicatorWindow(1, 3), 0, 2)
    b = p_norm(IndicatorWindow(1, 3), 2)
    assert a == b


def test_image_norm_power_growth():
    e = image_p_norm(PowerGrowth(0.2), 2, 2, K=1 << 13, J=1 << 13)
    n = p_norm(PowerGrowth(0.2), 2)
    assert 0 < e.lower
    # Jensen dominance: the image norm never exceeds (n+1)^(1/p) ||f||_p
    assert e.lower <= math.sqrt(3) * float(n.upper) * (1 + 1e-9)
    with pytest.raises(NotSummableError):
        image_p_norm(PowerGrowth(0.6), 1, 2)
    with pytest.raises(NotInLpError):
        image_p_norm(PowerGrowth(0.3), 1, 2)  # summable pointwise, not in l^2
    # a truncation below 1 is an error, not a silent 4096
    for kw in ({"K": 0}, {"J": 0}, {"K": -5}):
        with pytest.raises(ValueError):
            image_p_norm(PowerGrowth(0.2), 2, 2, **kw)
    # and so is a J below 1 at n = 0, where J has no other use
    for J in (0, -7):
        with pytest.raises(ValueError):
            image_p_norm(PowerGrowth(0.2), 0, 2, J=J)


def test_image_norm_rejects_a_negative_truncation_by_name():
    # a bounded f names J, as apply_A_pow does, at every n
    for n in (0, 2):
        with pytest.raises(ValueError, match="^truncation must be >= 0$"):
            image_p_norm(IndicatorGE(3), n, 2, J=-3)
    with pytest.raises(ValueError, match="^truncation must be >= 0$"):
        apply_A_pow(IndicatorGE(3), 2, 0, J=-3)


def test_contraction_bound_cases():
    assert contraction_bound_check(IndicatorGE(1), 2).ok
    assert contraction_bound_check(FiniteTable((1, -2, Fraction(3, 2))), 1.5).ok
    c = contraction_bound_check(PowerGrowth(0.2), 2, K=1 << 13, J=1 << 13)
    assert c.ok and c.lhs <= c.rhs + 1


def test_norm_bound_check_past_the_float_range():
    # both norms of 10^400 at index 0 have Fraction ends past the float
    # range; the inequality is decided exactly, ||A f||_2 / ||f||_2 = 1/2
    f = FiniteTable((10**400,))
    c = contraction_bound_check(f, 2)
    assert isinstance(c, BoundCheck) and c.ok
    assert c.lhs > 10**399 and c.rhs > 10**399
    img, nf = image_p_norm(f, 1, 2), p_norm(f, 2)
    assert norm_bound_check(img, nf, 0.6).ok
    assert not norm_bound_check(img, nf, 0.4).ok


def _norm_tables() -> list:
    """verify.check_norm_upper_bound's 100 seeded tables."""
    rng = np.random.default_rng(0xA1FA)
    fs = []
    for _ in range(100):
        length = int(rng.integers(1, 13))
        fs.append(FiniteTable(tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, size=length))))
    return fs


def _scalar_root(lo, hi, p: float) -> Enclosure:
    """max(x, 0)^(1/p) at both ends by math.pow, then four outward math.nextafter steps."""
    r_lo, r_hi = (math.pow(max(0.0, float(x)), 1.0 / p) for x in (lo, hi))
    for _ in range(4):
        r_lo, r_hi = math.nextafter(r_lo, -math.inf), math.nextafter(r_hi, math.inf)
    return Enclosure(max(0.0, r_lo), r_hi)


def _scalar_norm(masses, lo_abs, hi_abs, p: float) -> Enclosure:
    """One norm line by the rule of lpspace._norm_sum_ends, one term at a time."""

    def root(lo_b, hi_b):
        pad, tiny = (p + lpspace._NORM_SUM_ULPS) * 2.0**-53, math.ulp(0.0) * (len(masses) + 1)
        terms = ([m * math.pow(float(a), p) for m, a in zip(masses, b)] for b in (lo_b, hi_b))
        lo, hi = map(math.fsum, terms)
        if hi * (1 + pad) + tiny == math.inf:
            raise OverflowError
        return _scalar_root(lo * (1 - pad) - tiny, hi * (1 + pad) + tiny, p)

    def times_pow2(x, e):
        try:
            return math.ldexp(x, e)
        except OverflowError:
            return Fraction(x) * 2**e

    try:  # a base, a power or a sum past the float range raises OverflowError
        return root(lo_abs, hi_abs)
    except OverflowError:
        e = max(lpspace._bit_exponent(a) for a in hi_abs)
        enc = root(*([Fraction(a) / 2**e for a in v] for v in (lo_abs, hi_abs)))
        return Enclosure(times_pow2(enc.lower, e), times_pow2(enc.upper, e))


def _scalar_table(f, ns, ps, J=None) -> list:
    """image_p_norm_table(f, ns, ps, J), one line, one p and one base at a time."""
    lim, L, c = current_limits(), f.starts[-1], f.levels[-1]
    masses = [weights._run_mass(a, b, lim) for a, b in zip(f.starts, f.starts[1:] + (None,))]
    levels = [abs(v) for v in f.levels]
    exact = all(isinstance(m, Fraction) for m in masses)
    if exact and all(type(a) in (int, Fraction) and a in (0, 1) for a in levels):
        mass = sum(m for m, a in zip(masses, levels) if a)
        lines = {0: [_scalar_root(mass, mass, p) for p in ps]}
    else:
        lines = {0: [_scalar_norm([float(m) for m in masses], levels, levels, p) for p in ps]}
    image_ns = [n for n in ns if n]
    # the image is c on the mass T(L) and A^n f(k) on alpha_k, each rounded once;
    # alpha_(k+1) = alpha_k (2k + 1) / (2k + 4)
    masses, alpha = [float(weights.tail_exact(L))], Fraction(1, 2)
    for k in range(L):
        masses.append(float(alpha))
        alpha *= Fraction(2 * k + 1, 2 * k + 4)
    if image_ns:
        ends = (e.tolist() for e in lpspace._image(f, image_ns, 0, L, J, "auto", lim, True))
        for n, lo, hi in zip(image_ns, *ends):
            lo_abs, hi_abs = [abs(c)], [abs(c)]
            for a, b in zip(lo, hi):
                lo_abs.append(0.0 if a <= 0.0 <= b else min(abs(a), abs(b)))
                hi_abs.append(max(abs(a), abs(b)))
            lines[n] = [_scalar_norm(masses, lo_abs, hi_abs, p) for p in ps]
    return [lines[n] for n in ns]


def test_norm_ends_equal_a_scalar_reference_to_the_bit():
    # the array pass (np.float_power, one fsum per line, np.nextafter) gives
    # the ends of a reference that takes one line, one p and one power at a
    # time with math.pow, math.fsum and math.nextafter; every end is a Python
    # float or Fraction
    ps = (1.1, 1.5, 2.0, 3.0)
    cases = [(f, None) for f in _norm_tables()]
    small = [IndicatorGE(3), IndicatorWindow(1, 5), FiniteTable((0.3, -1.25, 2.5))]
    small.append(FiniteTable((10**400,)))  # the scaled path, with Fraction ends
    cases += [(f, J) for f in small + _norm_tables()[:10] for J in (None, 3)]  # J = 3: lo != hi
    seen = set()
    for f, J in cases:
        table = image_p_norm_table(f, range(13), ps, J=J)
        assert list(map(repr, map(tuple, table))) == list(
            map(repr, map(tuple, _scalar_table(f, range(13), ps, J)))
        ), (f, J)
        ends = [x for line in table for e in line for x in (e.lower, e.upper)]
        assert all(type(x) in (float, Fraction) for x in ends), (f, J)
        seen.update(map(type, ends))
    assert seen == {float, Fraction}
    # the 3,000-level table of test_long_table_image_is_formed_in_blocks_of_runs
    values = np.random.default_rng(7).integers(-8, 9, size=3000)
    f = FiniteTable(tuple(Fraction(int(v), 4) for v in values))
    table = image_p_norm_table(f, (0, 1), ps)
    assert repr(table) == repr(tuple(map(tuple, _scalar_table(f, (0, 1), ps))))


def test_norm_upper_bound_holds_without_its_tolerance():
    # each of norm_upper_bound's 4,800 cases holds as a certified inequality,
    # with no width tolerance and no 1e-9 allowance:
    # ||A^n f||_p <= img.upper <= down(down((n+1)^(1/p)) nf.lower) <= (n+1)^(1/p) ||f||_p,
    # as libm's pow is within one ulp; the least margin is about 39%
    ps = (1.1, 1.5, 2.0, 3.0)
    margins = []
    for f in _norm_tables():
        nfs, *imgs = image_p_norm_table(f, range(13), ps)
        for n, line in enumerate(imgs, 1):
            for p, img, nf in zip(ps, line, nfs):
                factor = math.nextafter((n + 1) ** (1.0 / p), -math.inf)
                rhs = math.nextafter(factor * nf.lower, -math.inf)
                margins.append(1.0 - img.upper / rhs)
    assert len(margins) == 4800 and min(margins) > 0.3


small_tables = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=1, max_size=8
)


@given(
    f_vals=small_tables,
    g_vals=small_tables,
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=120, deadline=None)
def test_property_exact_linearity(f_vals, g_vals, n, k):
    length = max(len(f_vals), len(g_vals))
    padded_f = f_vals + [0] * (length - len(f_vals))
    padded_g = g_vals + [0] * (length - len(g_vals))
    summed = FiniteTable(tuple(a + b for a, b in zip(padded_f, padded_g)))
    lhs = apply_A_pow(summed, n, k).lower
    rhs = apply_A_pow(FiniteTable(tuple(f_vals)), n, k).lower + apply_A_pow(
        FiniteTable(tuple(g_vals)), n, k
    ).lower
    assert lhs == rhs


@given(
    f_vals=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    bumps=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=120, deadline=None)
def test_property_positivity_and_monotonicity(f_vals, bumps, n, k):
    length = max(len(f_vals), len(bumps))
    f = FiniteTable(tuple(f_vals + [0] * (length - len(f_vals))))
    g = FiniteTable(
        tuple(
            a + b
            for a, b in zip(
                f_vals + [0] * (length - len(f_vals)),
                bumps + [0] * (length - len(bumps)),
            )
        )
    )
    lo = apply_A_pow(f, n, k).lower
    hi = apply_A_pow(g, n, k).lower
    assert 0 <= lo <= hi
