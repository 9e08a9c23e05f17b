"""Sampler tests.

Distribution oracles are the exact weights: CDF pins are rational identities,
the chi-squared reference counts come from alpha_0..alpha_63 plus one exact
tail bucket, and the deep-tail check compares against T(100) in closed form.
All seeded runs are deterministic, so observed statistics are reproducible
pins rather than flaky draws.  The tail inversion is checked draw for draw
against a 60-digit mpmath bisection on log T, and the seeded draws are
pinned by digest.
"""

import bisect
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from subaddlab import mc, weights
from subaddlab.errors import HeavyTailUnreliableError
from subaddlab.lpspace import (
    FiniteTable,
    IndicatorGE,
    IndicatorWindow,
    PowerGrowth,
    apply_A_pow,
)


def fraction_cdf():
    """P(X <= j) for j < _TABLE_SIZE as Fraction prefix sums."""
    acc, out = Fraction(0), []
    for j in range(mc._TABLE_SIZE):
        acc += weights.alpha_exact(j)
        out.append(acc)
    return out


def oracle_log_tail(m):
    """log T(m) = log binom(2m, m) - 2m log 2 from mpmath's loggamma."""
    return mpmath.loggamma(2 * m + 1) - 2 * mpmath.loggamma(m + 1) - 2 * m * mpmath.log(2)


def oracle_index(u):
    """Smallest m >= 1024 with T(m+1) < 1 - u, clipped at _INDEX_CAP.

    A bisection at 60 digits, with its own bracket: hi starts at 2048 and
    grows fourfold until the test holds or hi reaches the cap.
    """
    cap = mc._INDEX_CAP
    with mpmath.workdps(60):
        v = 1 - mpmath.mpf(u)  # exact
        if v <= 0:
            return cap
        logv = mpmath.log(v)

        def below(m):
            return oracle_log_tail(m + 1) < logv

        hi = 2 * mc._TABLE_SIZE
        while not below(hi):
            if hi == cap:
                return cap
            hi = min(4 * hi, cap)
        lo = mc._TABLE_SIZE
        while lo < hi:
            mid = (lo + hi) // 2
            if below(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo


def test_cdf_table_pins():
    C, D = weights._prefix_exact(1, mc._TABLE_SIZE)
    assert len(C) == mc._TABLE_SIZE + 1 and C[0] == 0
    F = mc._cdf_up()
    assert F[0] == 0.5
    assert Fraction(C[1], D) == Fraction(1, 2)
    assert Fraction(C[2], D) == Fraction(5, 8)
    assert Fraction(C[-1], D) == 1 - weights.tail_exact(mc._TABLE_SIZE)
    # the integer table is the Fraction running sum, and the float table
    # holds the smallest double >= each of its values, then +inf
    cdf = fraction_cdf()
    assert [Fraction(c, D) for c in C[1:]] == cdf
    assert len(F) == mc._TABLE_SIZE + 1 and F[-1] == math.inf
    for x, want in zip(F[:-1].tolist(), cdf):
        assert Fraction(x) >= want > Fraction(math.nextafter(x, 0.0)), want


class FixedUniforms:
    """A generator stand-in whose random(out=...) fills out with preset uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, *, out):
        assert len(out) == len(self.u)
        out[:] = self.u
        return out


def test_near_edge_draws_match_fraction_bisect():
    # uniforms on, and one ulp either side of, every round-up and every
    # nearest-rounded CDF edge
    edges = mc._cdf_up()[:-1].tolist() + [float(v) for v in fraction_cdf()]
    u = sorted({x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))})
    out = mc._sample_array(FixedUniforms(u), len(u))
    cdf = fraction_cdf()
    for ui, drawn in zip(u, out):
        want = bisect.bisect_right(cdf, Fraction(ui))
        if want == mc._TABLE_SIZE:
            want = oracle_index(ui)
        assert drawn == want, ui


def test_guide_lookup_matches_searchsorted():
    # every cell edge c / 2^16, one ulp either side of it, and u = 1.0
    edges = np.arange(mc._GUIDE_CELLS + 1) / mc._GUIDE_CELLS
    u = np.concatenate([np.nextafter(edges, -1.0), edges, np.nextafter(edges, 2.0)])
    u = u[(u >= 0.0) & (u <= 1.0)]
    assert u.max() == 1.0
    want = np.searchsorted(mc._cdf_up(), u, side="right")
    got = mc._table_index(u, np.empty(len(u), dtype=np.int64), np.empty(len(u), dtype=np.int64))
    assert np.array_equal(got, want)
    # no cell holds more than two table edges strictly inside it, so a draw
    # takes at most two steps, and the guide flags exactly the cells with one
    F = mc._cdf_up()[:-1] * mc._GUIDE_CELLS
    cell = np.floor(F).astype(np.int64)
    held = np.bincount(cell[F > cell], minlength=mc._GUIDE_CELLS + 1)
    assert held.max() == 2
    assert np.array_equal(mc._guide() < 0, held > 0)


def test_bitwise_determinism():
    a = mc._sample_array(mc.make_generator(7), 4096)
    b = mc._sample_array(mc.make_generator(7), 4096)
    assert np.array_equal(a, b)
    e1 = mc.mc_apply_A(IndicatorGE(1), 1, 0, 5000, mc.make_generator(42))
    e2 = mc.mc_apply_A(IndicatorGE(1), 1, 0, 5000, mc.make_generator(42))
    assert e1 == e2  # bit-for-bit, half_width included


def test_stream_independence():
    a = mc._sample_array(mc.make_generator(7, stream=0), 1000)
    b = mc._sample_array(mc.make_generator(7, stream=1), 1000)
    assert not np.array_equal(a, b)


def test_frequency_of_zero():
    draws = mc._sample_array(mc.make_generator(3, stream=5), 200_000)
    freq = float(np.mean(draws == 0))
    sigma = math.sqrt(0.25 / 200_000)
    assert abs(freq - 0.5) <= 3 * sigma


def test_chi_squared_against_exact_table():
    n_draws = 50_000
    draws = mc._sample_array(mc.make_generator(11, stream=2), n_draws)
    buckets = 64
    observed = np.bincount(np.minimum(draws, buckets), minlength=buckets + 1)
    expected = [float(weights.alpha_exact(j)) * n_draws for j in range(buckets)]
    expected.append(float(weights.tail_exact(buckets)) * n_draws)
    stat = sum(
        (o - e) ** 2 / e for o, e in zip(observed, expected)
    )
    # chi-square survival at 64 degrees of freedom: Q(64/2, stat/2)
    assert mpmath.gammainc(buckets / 2, stat / 2, mpmath.inf, regularized=True) >= 1e-3


def test_runs_without_scipy():
    # a fresh process, since an in-process block cannot unload a scipy that
    # another test already imported; subaddlab.cli loads every module
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from subaddlab import cli, verify\n"
        "assert verify.check_mc_agreement() is True\n"
    )
    src = str(Path(mc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_deep_tail_matches_closed_form():
    est = mc.mc_apply_A(IndicatorGE(100), 1, 0, 10**6, mc.make_generator(17))
    true = float(weights.tail_exact(100))
    sigma = math.sqrt(true * (1 - true) / 10**6)
    assert abs(est.mean - true) <= 3 * sigma


def test_log_tail_against_exact():
    """The float series is within its derived bound of log T, m = 1024 .. 2^62.

    weights._log_tail_series derives 82u for log m < 18 and 163u for
    log m < 44, u = 2^-53; m past 2^53 is rounded to a float first.
    """
    m = np.unique(np.geomspace(mc._TABLE_SIZE, 2.0**62, 400).astype(np.int64))
    m = np.concatenate([m, [1025, 5000, 2**53 + 1, 2**62]])
    x = m.astype(np.float64)
    series = weights._log_tail_series(x, np.log(x))
    with mpmath.workdps(60):
        for mi, got in zip(m.tolist(), series.tolist()):
            err = abs(mpmath.mpf(got) - oracle_log_tail(mi))
            assert err <= (82 if math.log(mi) < 18 else 163) * weights.U, mi


def tail_uniforms(seed, size=1 << 18):
    """The seeded uniforms of one draw that fall in the tail (u >= P(X < 1024))."""
    u = mc.make_generator(seed).random(size)
    return u[u >= mc._cdf_up()[mc._TABLE_SIZE - 1]]


@pytest.mark.parametrize("seed", [2, 8, 13, 21])
def test_tail_inversion_matches_oracle(seed):
    # 4 seeds x 512 = 2,048 seeded tail uniforms, each equal to the oracle
    u = tail_uniforms(seed)[:512]
    assert len(u) == 512
    got = mc._invert_tails(u).tolist()
    assert [m for m, x in zip(got, u.tolist()) if m != oracle_index(x)] == []


def wide_bisection(u):
    """The tail search with the wide bracket alone, for u in (1/2, 1).

    lo = 1024, and hi starts at 4 int(1/(pi v^2)) and grows fourfold until
    the test holds there or hi reaches the cap; then one bisection.
    """
    logv = np.log(1.0 - u)
    seed = np.minimum(1.0 / (np.pi * (1.0 - u) ** 2), mc._INDEX_CAP >> 2)
    hi = np.maximum(2 * mc._TABLE_SIZE, 4 * seed.astype(np.int64))
    while True:
        grow = (hi < mc._INDEX_CAP) & ~mc._tail_below(hi, logv)
        if not grow.any():
            break
        hi[grow] = 4 * np.minimum(hi[grow], mc._INDEX_CAP >> 2)
    lo = np.full_like(hi, mc._TABLE_SIZE)
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        below = mc._tail_below(mid, logv)
        live = lo < hi
        hi = np.where(live & below, mid, hi)
        lo = np.where(live & ~below, mid + 1, lo)
    return lo


def uniforms_around(s, count):
    """count uniforms either side of the u whose 1/(pi (1 - u)^2) is s, one ulp apart."""
    x = 1.0 - 1.0 / math.sqrt(math.pi * s)
    for _ in range(count):
        x = math.nextafter(x, 0.0)
    out = []
    for _ in range(2 * count):
        out.append(x)
        x = math.nextafter(x, 1.0)
    return np.array(out)


def test_tight_bracket_matches_wide_bisection():
    # 2^16 seeded tail uniforms, the 74,005 of a 2^22-draw run of seed 2,
    # then uniforms either side of the point guess's limit s = 2^42, where
    # it and the wide bracket give the same integers
    u = tail_uniforms(5, 1 << 22)[: 1 << 16]
    assert len(u) == 1 << 16
    u = np.concatenate([u, tail_uniforms(2, 1 << 22), uniforms_around(2.0**42, 64)])
    s = 1.0 / (np.pi * (1.0 - u) ** 2)
    assert (s < 2.0**42).sum() > (1 << 17) and (s >= 2.0**42).sum() >= 32
    want = wide_bisection(u)
    assert np.array_equal(mc._invert_tails(u), want)
    # some seeded answers miss the guess m0 + 1, so the fallback is exercised
    near = s < 2.0**42
    guess = np.maximum(mc._TABLE_SIZE, np.floor(s[near] - 1.25).astype(np.int64) + 1)
    assert (want[near] != guess).any()


def adversarial_uniforms():
    """Uniforms at the extremes of the tail search."""
    edge = float(mc._cdf_up()[mc._TABLE_SIZE - 1])
    u = [1.0 - 2.0**-e for e in range(2, 54)]
    u += [math.nextafter(1.0, 0.0), 1.0]
    u += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    # eight uniforms either side of two v = 1 - u: where the bracket seed
    # 1/(pi v^2) reaches the clamp _INDEX_CAP / 4, and where the answer
    # itself reaches _INDEX_CAP
    for m in (mc._INDEX_CAP >> 2, mc._INDEX_CAP):
        u += uniforms_around(m, 8).tolist()
    return np.array(u)


def test_vectorized_tail_inversion_adversarial():
    # past m ~ 1e13 float log v cannot resolve single integers, so those
    # draws need only agree with the oracle to 1e-13 relative
    u = adversarial_uniforms()
    got = mc._invert_tails(u)
    for x, m in zip(u.tolist(), got.tolist()):
        want = oracle_index(x)
        assert m == want or abs(m - want) <= 1e-13 * want, x
    assert got[u == 1.0].tolist() == [mc._INDEX_CAP]
    assert mc._INDEX_CAP in got.tolist() and got.max() <= mc._INDEX_CAP
    # through the sampler, the uniforms past the table take the same indices
    out = mc._sample_array(FixedUniforms(u), len(u))
    tail = out >= mc._TABLE_SIZE
    assert tail.sum() > 20
    assert np.array_equal(out[tail], got[tail])


# SHA-256 of the int64 bytes of _sample_array(make_generator(seed), 2**20),
# recorded once every tail draw of the three was checked against the oracle
SAMPLE_DIGESTS = {
    2: "c75e97aa579adef358091e4e36d81f4430ceb09708f0e4c06c54f36dcdaa3579",
    3: "27dc2ab497cf9ae5f10131f8ef2b0c6cebb567fd68ce31140a1291229ba3493c",
    5: "e2729e2be54620a13dfa155176194a61e0b61a099272053123b8bbff2fdbb159",
}


@pytest.mark.parametrize("seed", sorted(SAMPLE_DIGESTS))
def test_seeded_draws_pinned(seed):
    draws = mc._sample_array(mc.make_generator(seed), 2**20)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[seed]


def test_power_estimate_pinned():
    # the mc_tail benchmark's estimate: 16M draws, about 282k of them in the tail
    est = mc.mc_apply_A(PowerGrowth(0.2), 8, 0, 2_000_000, mc.make_generator(2))
    assert repr(est) == (
        "McEstimate(mean=2.8869134842941, half_width=0.0018969703938819696, "
        "trials=2000000, method='mean')"
    )


def test_median_of_means_estimate_pinned():
    # 70,001 trials of 3 steps come in uneven chunks and blocks, so this also
    # pins the walk sums of partial chunks
    est = mc.mc_apply_A(PowerGrowth(0.3), 3, 0, 70_001, mc.make_generator(4))
    assert repr(est) == (
        "McEstimate(mean=2.9706612702111888, half_width=0.02386430649962467, "
        "trials=70001, method='median-of-means')"
    )


def test_walks_draw_into_buffers_made_once_a_call():
    # 10^6 one-step walks in 2^16-draw chunks: the uniforms, guide cells and
    # draws of a chunk (512 kB each) are made once, and the chunk's values
    # go into its spent uniforms, so, however many chunks the call takes,
    # those three and one transient of that size are live at most (six and
    # more when each chunk made its own)
    mc._guide()
    gen = mc.make_generator(4, 9)
    tracemalloc.start()
    try:
        est = mc.mc_apply_A(IndicatorGE(100), 1, 0, 10**6, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**19
    assert repr(est) == (
        "McEstimate(mean=0.056615, half_width=0.00023110559314909536, "
        "trials=1000000, method='mean')"
    )


def test_chunked_estimates_match_the_whole_sample():
    # _moments merges chunk moments: the whole-array mean and variance
    v = np.random.default_rng(3).pareto(3.0, 100_003)
    mean, m2 = mc._moments(np.array_split(v, 7))
    assert mean == pytest.approx(v.mean(), rel=1e-14)
    assert m2 / (len(v) - 1) == pytest.approx(v.var(ddof=1), rel=1e-13)
    # both methods see the values of one whole-sample run, in trial order
    for f, n, trials in ((PowerGrowth(0.2), 3, 70_001), (PowerGrowth(0.3), 3, 70_001)):
        chunks = mc._value_chunks(f, n, 0, trials, mc.make_generator(4))
        whole = np.concatenate([c.copy() for c in chunks])  # each chunk overwrites the last
        est = mc.mc_apply_A(f, n, 0, trials, mc.make_generator(4))
        if est.method == "mean":
            assert est.mean == pytest.approx(whole.mean(), rel=1e-14)
            want = whole.std(ddof=1) / math.sqrt(trials)
        else:
            blocks = np.array([b.mean() for b in np.array_split(whole, mc._MOM_BLOCKS)])
            center = np.median(blocks)
            assert est.mean == pytest.approx(center, rel=1e-14)
            want = 1.4826 * np.median(np.abs(blocks - center)) / math.sqrt(mc._MOM_BLOCKS)
        assert est.half_width == pytest.approx(want, rel=1e-12)


def test_walk_sums_saturate_at_the_cap():
    # S_n + k saturates at _INDEX_CAP instead of wrapping int64
    cap = mc._INDEX_CAP
    f = PowerGrowth(0.2)
    top = float(cap) ** 0.2
    for n, k, u in (
        (2, 0, [1.0, 1.0]),
        (8, 0, [1.0] * 8),
        (1, cap, [0.0]),
        (1, cap, [1.0]),
        (2, cap - 1, [0.0, 1.0]),
    ):
        assert mc.mc_apply_A(f, n, k, 1, FixedUniforms(u)).mean == top, (n, k, u)
    assert mc.mc_apply_A(f, 1, cap - 1, 1, FixedUniforms([0.0])).mean == float(cap - 1) ** 0.2
    with pytest.raises(ValueError):
        mc.mc_apply_A(f, 1, cap + 1, 1, FixedUniforms([0.0]))


def test_eval_on_indices_padding():
    idx = np.array([0, 1, 2, 5], dtype=np.int64)
    vals = mc._eval_on_indices(FiniteTable((2.0, 3.0)), idx)
    assert list(vals) == [2.0, 3.0, 0.0, 0.0]
    vals = mc._eval_on_indices(PowerGrowth(0.3), idx)
    assert vals[0] == 0.0 and vals[1] == 1.0
    vals = mc._eval_on_indices(IndicatorWindow(1, 3), idx)
    assert list(vals) == [0.0, 1.0, 1.0, 0.0]


def test_method_selection_and_guards():
    gen = mc.make_generator(5)
    est = mc.mc_apply_A(PowerGrowth(0.2), 1, 0, 100, gen)
    assert est.method == "mean"
    est = mc.mc_apply_A(PowerGrowth(0.3), 1, 0, 64, mc.make_generator(5))
    assert est.method == "median-of-means"
    with pytest.raises(ValueError):
        mc.mc_apply_A(PowerGrowth(0.3), 1, 0, 31, mc.make_generator(5))
    with pytest.raises(HeavyTailUnreliableError):
        mc.mc_apply_A(PowerGrowth(0.5), 1, 0, 100, mc.make_generator(5))
    with pytest.raises(ValueError):
        mc.mc_apply_A(IndicatorGE(1), 1, 0, 0, mc.make_generator(5))
    # every mean estimate reports the sample std (ddof=1) over sqrt(trials);
    # on 0/1 values that is sqrt(mean (1 - mean) / (trials - 1))
    est = mc.mc_apply_A(IndicatorGE(1), 1, 0, 10_000, mc.make_generator(5))
    expected_hw = math.sqrt(est.mean * (1 - est.mean) / (10_000 - 1))
    assert est.half_width == pytest.approx(expected_hw, rel=1e-12)


def test_single_seeded_cross_checks():
    est = mc.mc_apply_A(IndicatorGE(1), 1, 0, 10**5, mc.make_generator(104729, 1))
    assert abs(est.mean - 0.5) <= 0.005
    est = mc.mc_apply_A(FiniteTable((1,)), 2, 0, 10**4, mc.make_generator(104729, 2))
    assert abs(est.mean - 0.25) <= 0.013


def test_rerun_agreement_study():
    """Each cross-check case at reduced trials, 100 distinct seeds.

    The 3-half-width rule must hold in at least 99 runs out of 100 per case
    (the runs are seeded, so this is a reproducible census, not a gamble).
    The underlying per-run miss rate was measured at 0.0-0.3% over 1000
    seeds, matching the 0.27% a 3-sigma rule is designed to leak.
    """
    cases = [
        (IndicatorGE(1), 1, apply_A_pow(IndicatorGE(1), 1, 0)),
        (FiniteTable((1,)), 2, apply_A_pow(FiniteTable((1,)), 2, 0)),
        (PowerGrowth(0.2), 4, apply_A_pow(PowerGrowth(0.2), 4, 0, J=1 << 16)),
    ]
    for ci, (f, n, enc) in enumerate(cases):
        failures = 0
        for i in range(100):
            est = mc.mc_apply_A(f, n, 0, 2000, mc.make_generator(50_000 + i, ci))
            if not mc.within(est, enc):
                failures += 1
        assert failures <= 1, f"case {ci}: {failures} of 100 runs disagreed"
