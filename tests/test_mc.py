"""Sampler tests.

Distribution oracles are the exact weights: CDF pins are rational identities,
the chi-squared reference counts come from alpha_0..alpha_63 plus one exact
tail bucket, and the deep-tail check compares against T(100) in closed form.
All seeded runs are deterministic, so observed statistics are reproducible
pins rather than flaky draws.  The vectorized tail inversion is checked
against the scalar search it replays, draw for draw, and the seeded draws
are pinned by digest.
"""

import bisect
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from subaddlab import mc, weights
from subaddlab.errors import HeavyTailUnreliableError
from subaddlab.lpspace import (
    FiniteTable,
    IndicatorGE,
    IndicatorWindow,
    PowerGrowth,
    apply_A_pow,
)
from subaddlab.verify import mc_within


def fraction_cdf():
    """P(X <= j) for j < _TABLE_SIZE as Fraction prefix sums."""
    acc, out = Fraction(0), []
    for j in range(mc._TABLE_SIZE):
        acc += weights.alpha_exact(j)
        out.append(acc)
    return out


def test_cdf_table_pins():
    C, D = mc._exact_cdf()
    assert len(C) == mc._TABLE_SIZE + 1 and C[0] == 0
    assert mc._float_cdf()[0] == 0.5
    assert Fraction(C[1], D) == Fraction(1, 2)
    assert Fraction(C[2], D) == Fraction(5, 8)
    assert Fraction(C[-1], D) == 1 - weights.tail_exact(mc._TABLE_SIZE)
    # the integer table is the Fraction running sum, and the float table its
    # correctly rounded image
    cdf = fraction_cdf()
    assert [Fraction(c, D) for c in C[1:]] == cdf
    assert mc._float_cdf().tolist() == [float(v) for v in cdf]


class FixedUniforms:
    """A generator stand-in whose random() returns preset uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == len(self.u)
        return self.u


def test_near_edge_draws_match_fraction_bisect():
    # uniforms on, and one ulp either side of, every float CDF edge all take
    # the exact re-decision path
    edges = mc._float_cdf().tolist()
    u = sorted({x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))})
    out = mc._sample_array(FixedUniforms(u), len(u))
    cdf = fraction_cdf()
    for ui, drawn in zip(u, out):
        want = bisect.bisect_right(cdf, Fraction(ui))
        if want == mc._TABLE_SIZE:
            want = mc._invert_tail(ui)
        assert drawn == want, ui


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


def test_walk_basics():
    assert mc.walk(0, mc.make_generator(1)) == 0
    g1, g2 = mc.make_generator(123), mc.make_generator(123)
    assert mc.walk(5, g1) == mc.walk(5, g2)
    assert mc.walk(3, mc.make_generator(9)) >= 0
    with pytest.raises(ValueError):
        mc.walk(-1, mc.make_generator(1))


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
    assert stats.chi2.sf(stat, buckets) >= 1e-3


def test_deep_tail_matches_closed_form():
    est = mc.mc_apply_A(IndicatorGE(100), 1, 0, 10**6, mc.make_generator(17))
    true = float(weights.tail_exact(100))
    sigma = math.sqrt(true * (1 - true) / 10**6)
    assert abs(est.mean - true) <= 3 * sigma


def test_log_tail_against_exact():
    for J in (1024, 5000):
        oracle = math.log(float(weights.tail_exact(J)))
        assert abs(mc._log_tail(J) - oracle) < 1e-9


def test_invert_tail_deep_clamp():
    assert mc._invert_tail(1.0) == mc._INDEX_CAP
    assert mc._invert_tail(1.0 - 2.0**-40) == mc._INDEX_CAP
    # a moderate u must land where T(j) straddles 1 - u
    j = mc._invert_tail(1.0 - 1e-4)
    lo, hi = weights.tail_float_bounds(j)
    assert j >= mc._TABLE_SIZE
    assert lo * 0.99 <= 1e-4 <= weights.tail_float_bounds(max(j - 1, 1))[1] * 1.01


def tail_uniforms(seed, size=1 << 18):
    """The seeded uniforms of one draw that fall in the tail (u >= P(X < 1024))."""
    u = mc.make_generator(seed).random(size)
    return u[u >= mc._float_cdf()[-1]]


def scalar_tails(u):
    return np.array([mc._invert_tail(x) for x in np.asarray(u).tolist()], dtype=np.int64)


@pytest.mark.parametrize("seed", [2, 8, 13, 21])
def test_vectorized_tail_inversion_matches_scalar(seed):
    u = tail_uniforms(seed)
    assert len(u) > 4000
    assert np.array_equal(mc._invert_tails(u), scalar_tails(u))


def adversarial_uniforms():
    """Uniforms at the extremes of the tail search."""
    edge = float(mc._float_cdf()[-1])
    u = [1.0 - 2.0**-e for e in range(2, 54)]
    u += [math.nextafter(1.0, 0.0), 1.0]
    u += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    # v = 1 - u where the search seed 1/(pi v^2) crosses the int64 cut, whose
    # larger side goes to the scalar search: eight uniforms either side
    v_cut = 1.0 / math.sqrt(math.pi * mc._VEC_SEED_MAX)
    x = 1.0 - v_cut
    for _ in range(8):
        x = math.nextafter(x, 0.0)
    for _ in range(16):
        u.append(x)
        x = math.nextafter(x, 1.0)
    return np.array(u)


def test_vectorized_tail_inversion_adversarial():
    u = adversarial_uniforms()
    seeds = [1.0 / (math.pi * (1.0 - x) ** 2) if x < 1.0 else math.inf for x in u]
    # both sides of the int64 cut are present
    assert any(s < mc._VEC_SEED_MAX for s in seeds[-16:])
    assert any(s >= mc._VEC_SEED_MAX for s in seeds[-16:])
    want = scalar_tails(u)
    assert np.array_equal(mc._invert_tails(u), want)
    # through the sampler, the uniforms past the table take the same indices
    out = mc._sample_array(FixedUniforms(u), len(u))
    tail = out >= mc._TABLE_SIZE
    assert tail.sum() > 20
    assert np.array_equal(out[tail], want[tail])
    assert mc._invert_tails(np.array([1.0]))[0] == mc._INDEX_CAP


def test_tie_band_covers_scalar_log_tail():
    """The tie band bounds |series - _log_tail| over the vectorized range of m."""
    dense = np.arange(mc._TABLE_SIZE + 1, 10**6 + 1, dtype=np.int64)
    sparse = np.unique(np.geomspace(10**6, 2.0**62, 20_000).astype(np.int64))
    m = np.concatenate([dense, sparse, [2**62 + 1]])
    x = m.astype(np.float64)
    log_x = np.log(x)
    series = weights._log_tail_series(x, log_x)
    gap = np.abs(series - np.array([mc._log_tail(j) for j in m.tolist()]))
    assert np.all(gap <= mc._tie_band(x, log_x))


# SHA-256 of the int64 bytes of _sample_array(make_generator(seed), 2**20),
# recorded from the scalar per-draw inversion that the vectorized one replaces
SAMPLE_DIGESTS = {
    2: "d7f23c1d59a303facaf61aaa1f9b703d061bcace59489ca19a5f139d7b994a65",
    3: "1d992788aef33213cb71b6b46671400fa0611a341052c9ac3d686b0c3ebe9399",
    5: "a1b43698a4cd487850a4fb71ca1e725835d7e29fb4feefd0410a48a3779848d8",
}


@pytest.mark.parametrize("seed", sorted(SAMPLE_DIGESTS))
def test_seeded_draws_pinned(seed):
    draws = mc._sample_array(mc.make_generator(seed), 2**20)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[seed]


def test_power_estimate_pinned():
    # the mc_tail benchmark's estimate: 16M draws, about 282k of them in the tail
    est = mc.mc_apply_A(PowerGrowth(0.2), 8, 0, 2_000_000, mc.make_generator(2))
    assert repr(est) == (
        "McEstimate(mean=2.88743416149614, half_width=0.002062939616100319, "
        "trials=2000000, method='mean')"
    )


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
            if not mc_within(est, enc):
                failures += 1
        assert failures <= 1, f"case {ci}: {failures} of 100 runs disagreed"
