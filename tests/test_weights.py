"""Weight-table tests.

The oracles here are computed independently of the module under test:
Catalan numbers come from the convolution recurrence C_{m+1} = sum C_i C_{m-i}
(no binomials), and convolution powers come from schoolbook polynomial
multiplication over Fractions.  Pinned rationals are frozen literals.
"""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaddlab import experiments, limits, lpspace, weights
from subaddlab.errors import NotSummableError, ResourceLimitError
from subaddlab.limits import current_limits


def catalan_numbers(count):
    cs = [1]
    for m in range(count - 1):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs


def oracle_base_row(J):
    return [Fraction(c, 1 << (2 * j + 1)) for j, c in enumerate(catalan_numbers(J))]


def oracle_power_row(n, J):
    base = oracle_base_row(J)
    row = [Fraction(1)] + [Fraction(0)] * (J - 1)
    for _ in range(n):
        row = [
            sum((row[i] * base[j - i] for i in range(j + 1)), Fraction(0))
            for j in range(J)
        ]
    return row


def running_product_row(n, J):
    """alpha^n_0..alpha^n_{J-1} by a Fraction running product of the weight ratio."""
    out = []
    w = Fraction(1, 1 << n)
    for j in range(J):
        out.append(w)
        w *= Fraction((2 * j + n) * (2 * j + n + 1), 4 * (j + 1) * (j + n + 1))
    return out


def closed_40(x):
    """The 40-digit closed form (1 - sqrt(1-x))/x, as mpmath forms it."""
    with mpmath.workdps(40):
        xm = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x)
        return mpmath.mpf(1) / 2 if xm == 0 else (1 - mpmath.sqrt(1 - xm)) / xm


def full_loop_pgf(x, J):
    """(partial sum, closed form) of the generating-function check at 40 digits, all J terms."""
    with mpmath.workdps(40):
        xm = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x)
        term = mpmath.mpf(1) / 2
        total = mpmath.mpf(0)
        for j in range(J):
            total += term
            term = term * xm * (2 * j + 1) / (2 * (j + 2))
        return float(total), float(closed_40(x))


def exact_pgf_sum(x, J):
    """sum_{j<J} alpha_j x^j exactly, as (num, den), with alpha_j = C_j / 2^(2j+1)."""
    X, D = Fraction(x).as_integer_ratio()
    num, t = 0, 1  # t = C_j X^j, by C_{j+1} = C_j 2(2j+1)/(j+2)
    for j in range(J):
        num = num * 4 * D + t
        t = t * 2 * (2 * j + 1) // (j + 2) * X
    return num, (2 * (4 * D) ** (J - 1) if J else 1)


def test_alpha_floats_round_each_weight_once(monkeypatch):
    # the exact route: each numerator C_j = N^1_j over 2^(2j+1), rounded once
    numerators = itertools.islice(weights._numerators(1), 5000)
    want = [N / (1 << (2 * j + 1)) for j, N in enumerate(numerators)]
    exact, calls = weights.alpha_exact, []
    monkeypatch.setattr(weights, "alpha_exact", lambda j: calls.append(j) or exact(j))
    for bits in (weights._FIXED_BITS, 88):
        monkeypatch.setattr(weights, "_FIXED_BITS", bits)
        calls.clear()
        assert list(itertools.islice(weights._alpha_floats(), 5000)) == want
    # at 88 bits the bracket meets a rounding boundary for some 200 weights
    assert len(calls) > 100


def test_head_row_is_each_weight_rounded_once():
    head = weights._head_row()
    assert len(head) == weights._HEAD
    assert all(head[j] == float(weights.alpha_exact(j)) for j in range(weights._HEAD))


def test_catalan_oracle_sanity():
    assert catalan_numbers(8) == [1, 1, 2, 5, 14, 42, 132, 429]


def test_alpha_exact_matches_catalan_oracle():
    base = oracle_base_row(40)
    for j in range(40):
        assert weights.alpha_exact(j) == base[j]


def test_alpha_pow_exact_matches_brute_convolution():
    J = 24
    for n in range(1, 6):
        row = oracle_power_row(n, J)
        for j in range(J):
            assert weights.alpha_pow_exact(n, j) == row[j]


def test_pinned_fractions():
    pinned = {
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
    for (n, j), v in pinned.items():
        assert weights.alpha_pow_exact(n, j) == v
    assert weights.alpha_exact(0) == Fraction(1, 2)
    assert weights.alpha_exact(3) == Fraction(5, 128)


def test_argument_validation():
    with pytest.raises(ValueError):
        weights.alpha_exact(-1)
    with pytest.raises(ValueError):
        weights.alpha_pow_exact(0, 3)
    with pytest.raises(ValueError):
        weights.alpha_pow_exact(2, -1)
    with pytest.raises(ValueError):
        weights.alpha_pow_log(0, 3)
    with pytest.raises(ValueError):
        weights.tail_exact(-1)


def test_exact_row_matches_pointwise():
    row = weights.exact_row(3, 30)
    assert len(row) == 30
    for j in range(30):
        assert row[j] == weights.alpha_pow_exact(3, j)
    assert weights.exact_row(2, 0) == ()


def test_exact_row_matches_running_product():
    for n in (1, 2, 5, 17, 48):
        row = weights.exact_row(n, 401)
        ref = running_product_row(n, 401)
        assert row == tuple(ref)
        assert [(w.numerator, w.denominator) for w in row] == [
            (w.numerator, w.denominator) for w in ref
        ]
        assert all(type(w) is Fraction for w in row)


@given(
    n=st.integers(min_value=1, max_value=63),
    j=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=150, deadline=None)
def test_property_numerators_match_binomial_route(n, j):
    # alpha_pow_exact goes through math.comb, independent of the recurrence
    N = weights._row_exact(n, j + 1)[j]
    assert isinstance(N, int)
    assert Fraction(N, 1 << (2 * j + n)) == weights.alpha_pow_exact(n, j)


def test_prefix_row_gives_prefix_masses():
    for n in (1, 3, 10):
        C, D = weights._exact_prefix(n, 60, current_limits())
        row = weights.exact_row(n, 60)
        assert D == 1 << (120 + n) and len(C) == 61
        for i in range(61):
            assert Fraction(C[i], D) == sum(row[:i], Fraction(0))


def test_run_mass_exact_within_limit_and_one_ulp_beyond(monkeypatch):
    def run_mass(a, b=None):  # the limits in effect at each call
        return weights._run_mass(a, b, current_limits())

    assert run_mass(5) == weights.tail_exact(5)
    assert run_mass(3, 9) == weights.tail_exact(3) - weights.tail_exact(9)
    assert run_mass(4, 4) == 0
    with pytest.raises(ValueError):
        run_mass(5, 4)
    monkeypatch.setenv("SUBADDLAB_EXACT_LIMIT", "50")
    for a, b in ((51, None), (10, 51), (60, 61), (200, 900), (900, None)):
        v = run_mass(a, b)
        assert isinstance(v, float)
        true = weights.tail_exact(a) - (0 if b is None else weights.tail_exact(b))
        assert math.nextafter(v, 0.0) <= true <= math.nextafter(v, math.inf)


def test_tail_identity_and_difference():
    prefix = Fraction(0)
    for J in range(200):
        assert prefix + weights.tail_exact(J) == 1
        assert weights.tail_exact(J) - weights.tail_exact(J + 1) == weights.alpha_exact(J)
        prefix += weights.alpha_exact(J)


def test_tail_equals_scaled_weight():
    # T(J) = 2 (J+1) alpha_J ties the tail to the weight it starts at
    for J in range(60):
        assert weights.tail_exact(J) == 2 * (J + 1) * weights.alpha_exact(J)


def test_tail_pow_bound_dominates_true_tail():
    for n in range(1, 5):
        for J in (0, 1, 4, 16, 64):
            prefix = sum(weights.exact_row(n, J), Fraction(0))
            assert 1 - prefix <= weights.tail_pow_bound(n, J)


def test_tail_float_bounds_sandwich_exact_tail():
    for J in range(401):
        lo, hi = weights.tail_float_bounds(J)
        t = weights.tail_exact(J)
        assert lo <= t <= hi
    lo, hi = weights.tail_float_bounds(10**6)
    assert 0 < lo < hi and hi / lo - 1 < 1e-5


def test_float_row_agrees_with_exact_row():
    for n in (1, 5, 100):
        row = weights.float_row(n, 300)
        exact = weights.exact_row(n, 300)
        rel = max(abs(w / float(ev) - 1.0) for w, ev in zip(row, exact))
        assert rel <= weights.row_error(n)[0]


def mp_alpha_pow(n, j):
    """alpha^n_j = n C(2j+n-1, j) / ((j+n) 2^(2j+n)) at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.exp(
            mpmath.log(n)
            - mpmath.log(j + n)
            - (2 * j + n) * mpmath.log(2)
            + mpmath.loggamma(2 * j + n)
            - mpmath.loggamma(j + 1)
            - mpmath.loggamma(j + n)
        )


def step_scratch(j):
    """weights._step's a_1 = 2(t + 1), c_1 = t + 4 (t = 2j) and scratch row at the indices j."""
    t = 2.0 * j
    return 2.0 * (t + 1.0), t + 4.0, np.empty(j.shape)


def within_row_bound(value, n, j):
    rel, tiny = weights.row_error(n)
    ref = mp_alpha_pow(n, j)
    return abs(mpmath.mpf(value) - ref) <= rel * ref + tiny


@given(
    n=st.integers(min_value=1, max_value=64),
    j=st.integers(min_value=0, max_value=(1 << 21) - 1),
)
@settings(max_examples=150, deadline=None)
def test_property_float_entry_within_derived_bound(n, j):
    # the engine's base value and steps, run at the one index j
    at = np.array([float(j)])
    row, scratch = weights._base_values(at), step_scratch(at)
    for m in range(1, n):
        weights._step(row, m, *scratch)
    assert within_row_bound(row[0], n, j)


def test_long_float_rows_within_derived_bound():
    J = 1 << 20
    picks = (0, 1, 1023, 1024, 1025, 4095, 65536, 500_000, J - 2, J - 1)
    for n in (1, 2, 32):
        row = weights.float_row(n, J)
        assert all(within_row_bound(row[j], n, j) for j in picks), n
    # the per-entry bound does not grow with J
    assert weights.row_error(32)[0] < 2e-14


def test_float_row_from_slices_matches_whole_row_stepping():
    # float_row steps each slice of the row on its own; the whole base row
    # stepped in one piece gives the same bits
    J = 3 * weights._SLICE + 77
    j = np.arange(J, dtype=np.float64)
    row, scratch = weights._base_values(j), step_scratch(j)
    for n in range(1, 10):
        if n > 1:
            weights._step(row, n - 1, *scratch)
        if n in (1, 2, 9):
            assert np.array_equal(weights.float_row(n, J), row), n


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_float_prefix_segments_contain_the_exact_masses(n):
    # every segment's (m, err) holds (C[hi] - C[lo]) / D, compared as Fractions;
    # with err's (rel + 4u) m term dropped, almost every segment falls outside
    J = 3000
    C, D = weights._prefix_exact(n, J)
    ends = np.sort(np.random.default_rng(n).integers(0, J + 1, size=(200, 2)), axis=1)
    lo, hi = ends[:, 0], ends[:, 1]
    m, err = weights._float_prefix(n, J)(lo, hi)
    for a, b, mass, e in zip(lo.tolist(), hi.tolist(), m.tolist(), err.tolist()):
        exact = Fraction(C[b] - C[a], D)
        assert Fraction(mass) - Fraction(e) <= exact <= Fraction(mass) + Fraction(e), (a, b)


def test_numpy_log_exp_power_within_assumed_ulps():
    # the float row bound and the sampler's series bound assume np.log,
    # np.exp and np.power within 4 ulps: log over the row range, the
    # sampler's m up to 2^62 and its v = 1 - u down to 2^-53
    rng = np.random.default_rng(7)
    x = np.floor(np.exp(rng.uniform(math.log(1024), math.log(3e7), 2000)))
    m = np.exp(rng.uniform(math.log(1024), math.log(2.0**62), 2000))
    v = np.exp(rng.uniform(-53 * math.log(2), math.log(0.02), 2000))
    y = rng.uniform(-10.0, -3.0, 2000)
    with mpmath.workdps(40):
        checks = (
            (np.log(x), [mpmath.log(t) for t in x.tolist()]),
            (np.log(m), [mpmath.log(t) for t in m.tolist()]),
            (np.log(v), [mpmath.log(t) for t in v.tolist()]),
            (np.exp(y), [mpmath.exp(t) for t in y.tolist()]),
            (np.power(x, 0.2), [mpmath.power(t, mpmath.mpf(0.2)) for t in x.tolist()]),
        )
        for got, want in checks:
            for g, w in zip(got.tolist(), want):
                assert abs(mpmath.mpf(g) - w) <= 4 * math.ulp(g)


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=0, max_size=3000
    ),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
)
@settings(max_examples=60, deadline=None)
def test_property_block_sum_within_stated_bound(values, scale):
    t = np.array(values, dtype=np.float64) * scale
    got = weights.block_sum(t)
    exact = sum((Fraction(v) for v in t.tolist()), Fraction(0))
    bound = weights.SUM_BLOCK * weights.U * sum(abs(Fraction(v)) for v in t.tolist())
    assert abs(Fraction(got) - exact) <= bound
    assert abs(got - math.fsum(t.tolist())) <= float(bound) * (1 + 1e-9) + 1e-300
    # one sum per line of a 2-D array, the same as the 1-D sums
    pair = np.stack([t, -t])
    assert weights.block_sum(pair).tolist() == [got, weights.block_sum(-t)]


def test_underflowing_row_keeps_a_sound_bound():
    n, J, beta = 1100, 4096, 0.2
    refs = [mp_alpha_pow(n, j) for j in range(J)]
    # alpha^1100_j is below the smallest subnormal for j <= 3, and subnormal up to j = 12
    assert all(r < 2.0**-1074 for r in refs[:4]) and refs[12] < 2.0**-1022
    with mpmath.workdps(50):
        ref = mpmath.fsum(r * mpmath.power(j, mpmath.mpf(beta)) for j, r in enumerate(refs))
    row = weights.float_row(n, J)
    s, err = weights.row_dot(n, row, lpspace._powers(beta, 0, J), lpspace._POW_ULPS)
    assert s - err <= ref <= s + err
    assert err <= 1e-12 * s
    enc = lpspace.apply_A_pow(lpspace.PowerGrowth(beta), n, 0, J=J)
    assert enc.lower <= ref <= enc.upper


def test_alpha_pow_log_accuracy_at_window_edge():
    for n, j in ((1, 1999), (2, 1500), (500, 1500), (1000, 1000)):
        exact = float(weights.alpha_pow_exact(n, j))
        assert abs(math.exp(weights.alpha_pow_log(n, j)) / exact - 1.0) < 1e-12


def test_float_row_is_read_only_and_a_prefix_when_long():
    row = weights.float_row(2, 64)
    with pytest.raises(ValueError):
        row[0] = 0.0
    long_row = weights.float_row(1, (1 << 16) + 8)
    assert long_row.shape == ((1 << 16) + 8,)
    short = weights.float_row(1, 100)
    assert np.array_equal(short, long_row[:100])


def test_stepped_rows_are_read_only_views():
    # a yielded row is the slice the next step overwrites; writing to it
    # would corrupt every later n of that slice
    for _, _, row in weights._stepped(weights._SLICE + 10, 3):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row *= 2.0


def test_backend_agreement_scan_and_fault_injection():
    clean = weights.scan_backend_agreement()
    assert clean.ok and clean.checked > 20
    biased = weights.scan_backend_agreement(bias=1e-9)
    assert not biased.ok
    # a non-finite or overflowing bias must fail too, not slip past max()
    for bias in (math.nan, math.inf, -math.inf, 1e6):
        assert not weights.scan_backend_agreement(bias=bias).ok


def test_asymptotic_constant_from_below():
    # alpha_k k^(3/2) increases toward 1/(2 sqrt(pi))
    last = 0.0
    for k in (10, 100, 1000, 10000):
        val = float(weights.alpha_exact(k)) * k**1.5
        assert last < val < weights.ASYMPTOTIC_CONSTANT
        last = val


def test_power_tail_bound_dominates_exact_tail():
    for K in (1, 16, 256):
        assert float(weights.tail_exact(K)) <= weights.power_tail_bound(0.0, K)
    # partial sums of the weighted tail stay below the bound; the weights are
    # advanced by the exact-in-float ratio alpha_{j+1}/alpha_j = (2j+1)/(2j+4)
    for q in (0.2, 0.4):
        for K in (16, 256):
            a = float(weights.alpha_exact(K))
            terms = []
            for k in range(K, K + 4000):
                terms.append(a * k**q)
                a *= (2 * k + 1) / (2 * k + 4)
            assert math.fsum(terms) <= weights.power_tail_bound(q, K)


def test_power_tail_bound_rejects_divergent_exponent():
    with pytest.raises(NotSummableError):
        weights.power_tail_bound(0.5, 100)
    with pytest.raises(ValueError):
        weights.power_tail_bound(-0.1, 100)
    with pytest.raises(ValueError):
        weights.power_tail_bound(0.2, 0)


def test_exact_row_resource_limit(monkeypatch):
    with pytest.raises(ResourceLimitError):
        weights.exact_row(1, 2002)
    with pytest.raises(ResourceLimitError):
        weights.exact_row(2000, 2)
    monkeypatch.setenv("SUBADDLAB_EXACT_LIMIT", "50")
    with pytest.raises(ResourceLimitError):
        weights.exact_row(1, 52)
    assert len(weights.exact_row(1, 40)) == 40
    monkeypatch.setenv("SUBADDLAB_MAX_J", "100")
    with pytest.raises(ResourceLimitError):
        weights.float_row(1, 200)


def test_float_row_refuses_a_row_that_would_grind():
    # the longest rows the lab builds: backend_agreement's sweep to n = 100 at
    # J = 2,000 and the divergence sweep to n = 32 at J = 2^20
    limits.check_work(weights._step_work(100, 2000), "backend_agreement")
    limits.check_work(weights._step_work(32, 1 << 20), "the divergence sweep")
    with pytest.raises(ResourceLimitError):
        limits.check_work(weights._step_work(10**6, 16), "row 10^6")
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        weights.float_row(10**6, 16)
    assert time.perf_counter() - t0 < 0.1  # refused before any step


def test_sliced_row_dots_equal_row_dot_to_the_bit():
    # stepping each slice through n while it is in cache forms every product,
    # block and fsum that row_dot forms on the full row, at every slice and
    # block edge, partial blocks included
    betas, block, size = (0.2, 0.32), weights.SUM_BLOCK, weights._SLICE
    for J in (1, block - 1, 100, size - 1, size + 1, 2 * size + block + 3, 3 * size + 77):
        rows = [weights.float_row(n, J) for n in range(1, 41)]
        for k in (0, 5):
            W = np.array([lpspace._powers(b, k, J) for b in betas])

            def w_at(a, b):
                return np.array([lpspace._powers(beta, k + a, b - a) for beta in betas])

            sums = weights.row_dots(40, J, w_at, lpspace._POW_ULPS)
            assert len(sums) == 40
            for n, (s, err) in enumerate(sums, 1):
                s_ref, err_ref = weights.row_dot(n, rows[n - 1], W, lpspace._POW_ULPS)
                assert s.tolist() == s_ref.tolist() and err.tolist() == err_ref.tolist()
            # n_min keeps only the last sums, and a 1-D weight gives scalars
            line = weights.row_dots(40, J, lambda a, b: w_at(a, b)[0], lpspace._POW_ULPS, 37)
            assert len(line) == 4
            for n, (s, err) in enumerate(line, 37):
                assert (s, err) == weights.row_dot(n, rows[n - 1], W[0], lpspace._POW_ULPS), (J, n)
                assert (s, err) == (sums[n - 1][0][0], sums[n - 1][1][0])


def test_slice_size_is_read_at_each_call(monkeypatch):
    # _stepped, and so row_dots and float_row, slice as row_dot does under
    # a rebound _SLICE, and every sum keeps its bits
    monkeypatch.setattr(weights, "_SLICE", 1 << 12)
    J = 3 * (1 << 12) + 77
    assert [len(row) for _, n, row in weights._stepped(J, 1)] == [1 << 12] * 3 + [77]
    rows = [weights.float_row(n, J) for n in range(1, 5)]
    W = lpspace._powers(0.2, 0, J)
    sums = weights.row_dots(4, J, lambda a, b: lpspace._powers(0.2, a, b - a), lpspace._POW_ULPS)
    for n, (s, err) in enumerate(sums, 1):
        assert (s, err) == weights.row_dot(n, rows[n - 1], W, lpspace._POW_ULPS), n


def test_row_dot_without_weights_sums_ones_to_the_bit():
    # w = None is a weight of one on every entry, across a slice edge, and at
    # n past 1021, where the error bound reads the largest weight
    J = weights._SLICE + weights.SUM_BLOCK + 3
    for n in (1, 7, 1030):
        row = weights.float_row(n, J)
        assert weights.row_dot(n, row) == weights.row_dot(n, row, np.ones(J)), n


def test_sliced_row_dots_refuse_before_any_step(monkeypatch):
    steps = []
    step = weights._step
    monkeypatch.setattr(weights, "_step", lambda *a: steps.append(a) or step(*a))

    def ones(a, b):
        return np.ones(b - a)

    with pytest.raises(ResourceLimitError, match="entry steps"):
        weights.row_dots(10**6, 16, ones)
    with pytest.raises(ResourceLimitError, match="exact float ratios"):
        weights.row_dots(2, 30_000_001, ones)
    monkeypatch.setenv("SUBADDLAB_MAX_J", "100")
    with pytest.raises(ResourceLimitError, match="row length"):
        weights.row_dots(2, 200, ones)
    assert steps == []
    weights.row_dots(2, 100, ones)
    assert len(steps) == 1


def test_long_power_sums_keep_no_full_length_vector():
    # the 2^20 divergence sweep and a k^0.2 image trace a few slices' worth
    # of memory, not 8 MiB rows and power vectors
    exponents = (lpspace.PowerGrowth(0.2), lpspace.PowerGrowth(0.32))
    limits.clear_memos()
    tracemalloc.start()
    try:
        experiments.pointwise_divergence(exponents, 0, 32)
        sweep_peak = tracemalloc.get_traced_memory()[1]
        limits.clear_memos()  # the image steps its own row
        tracemalloc.reset_peak()
        lpspace.apply_A_pow(lpspace.PowerGrowth(0.2), 8, 0, J=1 << 20)
        image_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep_peak < 6 * 2**20
    assert image_peak < 4 * 2**20


def test_convolve_examples():
    # numerators over 2^(2j+n): 5/64 = 5/2^6 (n = 2, j = 2) and 3/32 = 3/2^5
    # (n = 3, j = 1)
    base = weights._row_exact(1, 8)
    sq = weights._convolve_numerators(base, base)
    assert sq[2] == 5
    assert weights._convolve_numerators(sq, base)[1] == 3
    # the point mass at 0 (numerators of alpha^0) is the unit
    unit = (1,) + (0,) * 7
    assert weights._convolve_numerators(unit, base) == list(base)
    # the result is cut to the common prefix
    assert len(weights._convolve_numerators(base[:3], base)) == 3


def test_convolution_power_matches_closed_form():
    base = weights._row_exact(1, 40)
    acc = base
    for n in range(1, 5):
        if n > 1:
            acc = weights._convolve_numerators(acc, base)
        for j in range(40):
            assert Fraction(acc[j], 1 << (2 * j + n)) == weights.alpha_pow_exact(n, j)


def test_scans_clean_on_small_grids():
    assert weights.scan_subadditivity(12, 100).ok
    assert weights.scan_normalized_monotonicity(8, 60).ok
    assert weights.scan_convolution_agreement(4, 60).ok
    assert weights.scan_tail_identity(80).ok


def test_pgf_point_values():
    c = weights.pgf_check(0, 10)
    assert c.closed_form == 0.5 and c.partial_sum == 0.5
    c = weights.pgf_check(Fraction(1, 2), 300)
    assert abs(c.closed_form - (2.0 - math.sqrt(2.0))) < 1e-15
    assert -1e-25 <= c.gap <= float(weights.tail_exact(300))
    c = weights.pgf_check(0.9, 50)
    assert c.gap > 0  # the discarded tail is genuinely visible here
    assert c.partial_sum < c.closed_form
    with pytest.raises(ValueError):
        weights.pgf_check(1.0, 10)
    oracle = [Fraction(C, 2 ** (2 * j + 1)) / 2**j for j, C in enumerate(catalan_numbers(8))]
    assert Fraction(*exact_pgf_sum(Fraction(1, 2), 8)) == sum(oracle)
    # partial_sum and closed_form are the full 40-digit loop's floats to the
    # bit; partial_sum is also the exact sum rounded once, and gap lies in the
    # docstring's bound of closed - exact, (J^2/2 + J/(1-x)) 2^-P with K <= J
    for x in (0, Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 0.95):
        for J in (0, 1, 7, 300, 5000):
            c = weights.pgf_check(x, J)
            assert (c.partial_sum, c.closed_form) == full_loop_pgf(x, J)
            num, den = exact_pgf_sum(x, J)
            assert c.partial_sum == num / den
            m, e = closed_40(x).man_exp
            exact_gap = Fraction(m) * Fraction(2) ** e - Fraction(num, den)
            slack = (Fraction(J * J, 2) + J / (1 - Fraction(x))) / 2**weights._FIXED_BITS
            assert float(exact_gap) <= c.gap <= float(exact_gap + slack)
    with pytest.raises(ValueError):
        weights.pgf_check(-0.1, 10)
    # verify's three points, pinned to the bit
    assert weights.pgf_check(0, 10) == weights.PgfCheck(0.5, 0.5, 0.0)
    assert weights.pgf_check(Fraction(3, 4), 200) == weights.PgfCheck(
        0.6666666666666666, 0.6666666666666666, 3.992903015197508e-29
    )
    assert weights.pgf_check(0.99, 10**5) == weights.PgfCheck(
        0.9090909090909091, 0.9090909090909091, -6.97735445264391e-42
    )


@given(
    n=st.integers(min_value=1, max_value=12),
    m=st.integers(min_value=1, max_value=12),
    j=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=150, deadline=None)
def test_property_subadditivity(n, m, j):
    lhs = weights.alpha_pow_exact(n + m, j)
    assert lhs <= weights.alpha_pow_exact(n, j) + weights.alpha_pow_exact(m, j)


@given(
    n=st.integers(min_value=1, max_value=30),
    j=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=150, deadline=None)
def test_property_ratio_recurrence(n, j):
    # closed form satisfies the two-term recurrence used by the row builders
    lhs = weights.alpha_pow_exact(n, j + 1) * 4 * (j + 1) * (j + n + 1)
    rhs = weights.alpha_pow_exact(n, j) * (2 * j + n) * (2 * j + n + 1)
    assert lhs == rhs


@given(
    n=st.integers(min_value=1, max_value=20),
    j=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=150, deadline=None)
def test_property_normalized_monotonicity(n, j):
    lhs = weights.alpha_pow_exact(n + 1, j) * n
    rhs = weights.alpha_pow_exact(n, j) * (n + 1)
    assert lhs <= rhs
