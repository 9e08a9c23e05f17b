"""Experiment-driver tests.

Independent oracles: the witness image (survival) table for n = 2, m = 4 is
worked out by hand from the exact squared weights, the maximal-function
profile has the closed form m/(2m-k) for k < m and 1 on [m, 2m), and the
probe ratio is cross-checked against the quotient of closed-form weights it
abbreviates.
Empirical curve values (slopes, doubling ratios) are pinned to windows, not
exact floats, since they depend on documented truncation choices.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest

from subaddlab import experiments, limits, lpspace, verify, weights
from subaddlab.limits import current_limits
from subaddlab.errors import EmptyGridError, NotInLpError, ResourceLimitError
from subaddlab.lpspace import IndicatorGE, PowerGrowth, _image, apply_A_pow


def test_witness_fn():
    assert experiments.witness_fn(3) == IndicatorGE(9)
    with pytest.raises(ValueError):
        experiments.witness_fn(0)


def test_witness_image_by_hand():
    # prefix sums of (1/4, 1/8, 5/64, 7/128): A^2 f(k) = P(S_2 >= 4 - k) is
    # 1 - prefix(4 - k), the survival growth_curve reads for n = 2
    lo, hi = (e[0] for e in _image(IndicatorGE(4), (2,), 0, 4, None, "auto", current_limits()))
    expected = [Fraction(63, 128), Fraction(35, 64), Fraction(5, 8), Fraction(3, 4)]
    assert list(lo) == list(hi) == expected
    # the float prefix, which growth_curve takes past the exact limit, must
    # bracket the true survival (lower ends are lower bounds)
    lo, hi = (e[0] for e in _image(IndicatorGE(2100), (2,), 0, 2100, None, "log", current_limits()))
    exact = 1 - sum(weights.exact_row(2, 1998), Fraction(0))
    assert 0.0 <= lo[2100 - 1998] <= exact <= hi[2100 - 1998]


def test_growth_curve_structure():
    res = experiments.growth_curve(2.0, n_max=16)
    assert res.fit_window == (4, 16) and res.p == 2.0
    assert len(res.rows) == 16
    r1, r2 = res.rows[0], res.rows[1]
    assert abs(r1.norm_fn - math.sqrt(0.5)) < 1e-15
    assert abs(r2.norm_fn - math.sqrt(35 / 128)) < 1e-15  # T(4) = 35/128
    for row in res.rows:
        assert 0 < row.norm_anfn_lower
        assert row.ratio <= row.upper_bound * (1 + 1e-12)
        assert row.upper_bound == (row.n + 1) ** 0.5
    assert res.rows[-1].ratio > res.rows[0].ratio
    # measured 0.5258 at this window; the exponent target is 1/p = 0.5
    assert 0.45 < res.slope < 0.60


def test_growth_curve_validation():
    with pytest.raises(ValueError):
        experiments.growth_curve(2.0, n_max=4)
    with pytest.raises(ValueError):
        experiments.growth_curve(1.0, n_max=8)


def test_blowup_expectation_pin():
    rows = experiments.blowup_curve(2.0, n_max=1)
    assert rows[0] == experiments.BlowupRow(0, 0.0, 0.0)
    # E S_1^0.2 at the default truncation, measured 0.8346081
    assert 0.83 < rows[1].e_lower < 0.84
    assert rows[1].norm_lower == 0.5**0.5 * rows[1].e_lower


def test_blowup_curve_structure():
    rows = experiments.blowup_curve(2.0, n_max=8, J=1 << 16)
    assert len(rows) == 9
    for a, b in zip(rows, rows[1:]):
        assert b.e_lower > a.e_lower
        assert b.norm_lower == 0.5**0.5 * b.e_lower
    with pytest.raises(NotInLpError):
        experiments.blowup_curve(2.0, beta=0.3)
    with pytest.raises(NotInLpError):
        experiments.blowup_curve(2.0, beta=0.0)


def test_pointwise_divergence_doubling_depends_on_beta():
    # beta = 0.32: n^(2 beta) covers a factor 2 between n_max/4 and n_max
    rows = experiments.pointwise_divergence(PowerGrowth(0.32), n_max=32, J=1 << 18)
    v = experiments.divergence_verdicts(rows)
    assert v["nondecreasing"] and v["doubled"]
    # beta = 0.2 grows too slowly to double over the same span; the verdict
    # must report that honestly rather than blur it into a pass
    rows = experiments.pointwise_divergence(PowerGrowth(0.2), n_max=24, J=1 << 18)
    v = experiments.divergence_verdicts(rows)
    assert v["nondecreasing"] and not v["doubled"]
    values = [x for _, x in rows]
    assert values[0] == 0.0 and values[-1] > 1.0


def test_shared_sweep_rows_equal_single_exponent_rows():
    fs, J = (PowerGrowth(0.2), PowerGrowth(0.32)), 1 << 18
    limits.clear_memos()
    shared = experiments.pointwise_divergence(fs, 0, 32, J)
    limits.clear_memos()
    single = [experiments.pointwise_divergence(f, 0, 32, J) for f in fs]
    bits = lambda rows: [(n, v.hex()) for n, v in rows]
    assert list(map(bits, shared)) == list(map(bits, single))
    limits.clear_memos()
    for f, rows in zip(fs, shared):
        assert rows[7][1] == apply_A_pow(f, 7, 0, J=J).lower


@pytest.mark.parametrize(
    "k, n_max, J, ns",
    [
        (0, 32, 1 << 20, (1, 4, 17, 32)),
        # past n = 1021 row_error's tiny term reads the largest weight of
        # its own line; at J = 2 the sums there are near the subnormal
        # range, where that term reaches the lower end's bits
        (3, 1030, 2048, (1, 500, 1021, 1022, 1030)),
        (3, 1030, 2, (1, 500, 1021, 1022, 1030)),
    ],
)
def test_apply_A_pow_reads_the_divergence_sums_to_the_bit(monkeypatch, k, n_max, J, ns):
    fs = (PowerGrowth(0.2), PowerGrowth(0.32))
    limits.clear_memos()
    cold = [repr(apply_A_pow(f, n, k, J=J)) for f in fs for n in ns]
    experiments.pointwise_divergence(fs, k, n_max, J)
    monkeypatch.setattr(weights, "_stepped", None)  # the memo serves every n
    assert [repr(apply_A_pow(f, n, k, J=J)) for f in fs for n in ns] == cold


def test_memoized_experiments_still_check_the_row_ceiling(monkeypatch):
    experiments.growth_curve(2, 8)
    experiments.pointwise_divergence(PowerGrowth(0.2), 0, 4, 4096)
    monkeypatch.setenv("SUBADDLAB_MAX_J", "63")
    with pytest.raises(ResourceLimitError):
        experiments.growth_curve(2, 8)  # rows of length 8^2 = 64
    with pytest.raises(ResourceLimitError):
        experiments.pointwise_divergence(PowerGrowth(0.2), 0, 4, 4096)


def test_growth_norm_sums_read_one_base_row(monkeypatch):
    # every n reads the first n^2 entries of one float_row(1, n_max^2): the
    # rows equal those of a float_row(1, n^2) per n, bit for bit.  A call
    # makes that row's base values once, and once more for the survival
    # sweep's row of the same length when some n passes the exact limit
    # (n^2 + n - 1 > 2000 from n = 45 on)
    lim, base_values = current_limits(), weights._base_values
    for n_max in (32, 100):
        for p in (1.25, 2.0, 3.0):
            calls = []
            monkeypatch.setattr(
                weights, "_base_values", lambda j: calls.append(len(j)) or base_values(j)
            )
            limits.clear_memos()  # count a cold call
            rows = experiments.growth_curve(p, n_max).rows
            monkeypatch.setattr(weights, "_base_values", base_values)
            assert calls == [n_max * n_max] * (1 + (n_max > 44))
            survival = experiments._survival_rows(n_max, lim)
            for row, (n, t_m, surv) in zip(rows, survival, strict=True):
                row_n = weights.float_row(1, n * n)
                q_sum, q_err = weights.row_dot(1, row_n, surv**p, lpspace._POW_ULPS)
                norm_lower = float(lpspace._root_ends(q_sum - q_err, q_sum, p)[0])
                norm_fn = float(t_m) ** (1.0 / p)
                old = (n, norm_fn, norm_lower, norm_lower / norm_fn, (n + 1) ** (1.0 / p))
                assert repr(row) == repr(experiments.GrowthRow(*old))


def test_growth_of_several_exponents_equals_the_one_exponent_calls():
    ps = (1.25, 2.0, 3.0)
    for n_max in (32, 100):
        limits.clear_memos()
        shared = experiments.growth_curve(ps, n_max)
        assert isinstance(shared, tuple) and len(shared) == len(ps)
        for res, p in zip(shared, ps):
            limits.clear_memos()  # each p from its own pass
            assert repr(res) == repr(experiments.growth_curve(p, n_max))
    with pytest.raises(ValueError):
        experiments.growth_curve((), 32)
    with pytest.raises(ValueError):
        experiments.growth_curve((2.0, 0.5), 32)


def test_growth_keeps_no_survival_rows():
    # the survival values of n = 1..200 are 2.7e6 floats (20.5 MiB); each
    # n's are dropped once its norm sums close, so none outlive the call,
    # and neither do the exact prefixes of n <= 44, built for each call
    limits.clear_memos()
    tracemalloc.start()
    try:
        experiments.growth_curve(2, 200)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_no_exact_row_is_kept_for_the_process():
    # exact rows and prefixes are built for each call: after every check has
    # run, the float head row is the one memo that weights holds
    limits.clear_memos()
    assert all(verify.run_suite("all").values())
    held = [m.__wrapped__ for m in limits._MEMOS if hasattr(m, "__wrapped__")]
    kept = [f.__name__ for f in held if f.__module__ == "subaddlab.weights"]
    assert kept == ["_head_row"]


def test_growth_past_the_exact_limit_steps_one_row_once(monkeypatch):
    # exact rows end at n = 6 (n^2 + n - 1 <= 50); rows 7..20 come from one
    # row of length 20^2 stepped once in n, with the bits of their own rows
    monkeypatch.setenv("SUBADDLAB_EXACT_LIMIT", "50")
    lim, passes, stepped = current_limits(), [], weights._stepped
    monkeypatch.setattr(weights, "_stepped", lambda *a: passes.append(a) or stepped(*a))
    rows = list(experiments._survival_rows(20, lim))
    assert passes == [(400, 20, 7, 400)]
    monkeypatch.setattr(weights, "_stepped", stepped)
    for n, _, surv in rows:
        backend = "auto" if n <= 6 else "log"
        lo = _image(IndicatorGE(n * n), (n,), 0, n * n, None, backend, lim, True)[0][0]
        assert surv.tolist() == lo.astype(float).tolist(), n


def test_growth_ceiling_counts_one_sweep_of_the_longest_row(monkeypatch):
    # the ceiling charges one sweep of the n_max^2 row plus the windows of
    # n^2 entries read off it: 469 is just under it and reached; 1000, whose
    # sweep alone is under it, and 1400, whose sweep alone is past it, are
    # refused before any row is made
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(experiments, "_survival_rows", reached)
    with pytest.raises(Reached):
        experiments.growth_curve(2, 469)
    limits.check_work(weights._step_work(1000, 1000 * 1000), "the sweep alone")
    for n_max in (470, 1000, 1400):
        with pytest.raises(ResourceLimitError, match="build and use"):
            experiments.growth_curve(2, n_max)


def test_pointwise_divergence_validation():
    with pytest.raises(ValueError):
        experiments.pointwise_divergence(IndicatorGE(1))
    with pytest.raises(ValueError):
        experiments.pointwise_divergence(PowerGrowth(0.5))
    with pytest.raises(ValueError):
        experiments.pointwise_divergence(PowerGrowth(0.0))


def test_probe_ratio_closed_form_agrees_with_weight_quotient():
    for n in range(1, 9):
        for j in range(0, 61):
            direct = experiments.probe_ratio_exact(n, j)
            quotient = weights.alpha_pow_exact(n, j) / (n * weights.alpha_exact(j))
            assert direct == quotient
    assert experiments.probe_ratio_exact(2, 4) == Fraction(3, 4)
    with pytest.raises(ValueError):
        experiments.probe_ratio_exact(0, 4)


def probe_cells(rep):
    """The probe grid's (n, j, ratio text) cells, read off its runs' CSV lines."""
    return [
        (int(n), int(j), r)
        for run in rep.runs
        for n, j, r in (line.split(",") for line in run.lines.splitlines())
    ]


def test_probe_minimum_frozen():
    rep6 = experiments.lower_bound_probe(1, 6, 2000)
    rep12 = experiments.lower_bound_probe(1, 12, 2000)
    assert rep6.min_observed == Fraction(1309, 1824)
    assert rep6.argmin == (4, 16)
    assert rep12.min_observed == Fraction(1309, 1824)
    assert rep12.argmin == (4, 16)
    assert rep12.min_observed > Fraction(1, 5)
    assert all(Fraction(r) > 0 for _, _, r in probe_cells(rep12))


@pytest.mark.parametrize(
    "c0, n_max, j_max", [(1, 12, 300), (Fraction(3, 2), 9, 500), (7, 12, 400)]
)
def test_probe_recurrence_equals_the_closed_product(c0, n_max, j_max):
    rep = experiments.lower_bound_probe(c0, n_max, j_max)
    cells = [
        (n, j, experiments.probe_ratio_exact(n, j))
        for n in range(2, n_max + 1)
        for j in range(math.ceil(n * n / Fraction(c0)), j_max + 1)
    ]
    # every cell, as the CSV prints a Fraction
    assert probe_cells(rep) == [(n, j, str(r)) for n, j, r in cells]
    # the scan's minimum: the first least cell in (n, j) order, overall and per n
    n, j, r = min(cells, key=lambda c: c[2])
    assert (rep.min_observed, rep.argmin) == (r, (n, j))
    assert [run.n for run in rep.runs] == sorted({n for n, _, _ in cells})
    for run in rep.runs:
        line = [c for c in cells if c[0] == run.n]
        _, j, r = min(line, key=lambda c: c[2])
        assert (run.minimum, run.argmin, run.last) == (r, j, line[-1][2])


def test_probe_keeps_its_cells_as_one_text_a_run():
    # the desk grid's 21,362 cells, kept as 11 texts of CSV lines, not as tuples
    limits.clear_memos()
    tracemalloc.start()
    try:
        rep = experiments.lower_bound_probe(1, 12, 2000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 10**6
    assert [run.n for run in rep.runs] == list(range(2, 13))
    assert all(run.lines.endswith("\n") for run in rep.runs)
    cells = probe_cells(rep)
    assert len(cells) == sum(2001 - n * n for n in range(2, 13)) == 21_362
    assert cells[0] == (2, 4, "3/4") and cells[-1][:2] == (12, 2000)


def test_probe_validation():
    with pytest.raises(EmptyGridError):
        experiments.lower_bound_probe(1, 2, 3)  # needs j >= 4 at n = 2
    with pytest.raises(ValueError):
        experiments.lower_bound_probe(0.5, 6, 100)
    with pytest.raises(ValueError):
        experiments.lower_bound_probe(1, 1, 100)


def test_maximal_profile_closed_form():
    for m in (1, 2, 3, 5, 8):
        prof = experiments.maximal_profile(m)
        assert len(prof) == 2 * m
        for k in range(2 * m):
            expected = Fraction(m, 2 * m - k) if k < m else Fraction(1)
            assert prof[k] == expected
    with pytest.raises(ValueError):
        experiments.maximal_profile(0)


def brute_force_maximal_profile(m, N):
    """sup over 1 <= n <= N of the hit count among k..k+n-1 over n, for k < 2m."""
    out = []
    for k in range(2 * m):
        best_num, best_den = 0, 1
        for n in range(1, N + 1):
            hits = min(n, 2 * m - k) - max(0, m - k)
            if hits > 0 and hits * best_den > best_num * n:
                best_num, best_den = hits, n
        out.append(Fraction(best_num, best_den))
    return tuple(out)


def test_maximal_profile_matches_brute_force():
    for m in (1, 2, 3, 4, 16, 64, 256):
        for N in (2 * m, 4 * m, 8 * m):
            assert experiments.maximal_profile(m) == brute_force_maximal_profile(m, N)


def test_maximal_ratio_values():
    assert abs(experiments.maximal_ratio_T(1, 2) - math.sqrt(2)) < 1e-15
    ratios = [experiments.maximal_ratio_T(m, 2) for m in (4, 16, 64, 256)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 5.0  # unbounded in m: already past 5 at m = 256


def test_maximal_ratio_weights_are_the_correctly_rounded_alpha_k():
    # the numerator recurrence rounded once gives float(alpha_exact(k)) to the bit
    for m in (4, 16, 64, 256, 1000):
        sup = experiments.maximal_profile(m)
        den = float(weights.tail_exact(m) - weights.tail_exact(2 * m))
        for p in (1.25, 2.0, 3.0):
            terms = (float(weights.alpha_exact(k)) * float(s) ** p for k, s in enumerate(sup))
            ratio = (math.fsum(terms) / den) ** (1.0 / p)
            assert experiments.maximal_ratio_T(m, p) == ratio, (m, p)
    with pytest.raises(ResourceLimitError):
        experiments.maximal_ratios((4, 40_000), 2.0)


def test_sato_closed_form_matches_product_oracle():
    for a in (1, Fraction(3, 2), Fraction(1, 3)):
        for n in range(0, 40):
            assert experiments.sato_power(n, a) == experiments.sato_matrix_product(n, a)
    with pytest.raises(ValueError):
        experiments.sato_power(3, 0)
    with pytest.raises(ValueError):
        experiments.sato_power(-1, 1)
    with pytest.raises(ValueError):
        experiments.SatoMatrix(Fraction(2), Fraction(0), Fraction(0), Fraction(1))


def test_sato_verdicts_compare_each_row(monkeypatch):
    rows = [(n, n + 0.5) for n in (3, 7, 100)]
    seen = []
    power = experiments.sato_power
    monkeypatch.setattr(experiments, "sato_power", lambda n, a: seen.append(n) or power(n, a))
    assert experiments.sato_verdicts(1, rows)["closed_form_matches_product"]
    assert seen == [3, 7, 100]
    # a closed form that is wrong at the last row's n alone turns the verdict false
    monkeypatch.setattr(experiments, "sato_power", lambda n, a: power(n + (n == 100), a))
    assert not experiments.sato_verdicts(1, rows)["closed_form_matches_product"]


def test_sato_norm_growth():
    rows = experiments.sato_norm_growth(1, 2, 8)
    assert rows[0] == (0, 1.0)
    assert abs(rows[2][1] - math.sqrt(5)) < 1e-15
    assert abs(rows[3][1] - math.sqrt(10)) < 1e-15
    assert all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
    # the norms grow linearly, so the subadditive normalized limit is a > 0
    for n, v in rows[1:]:
        assert n <= v <= n + 1 + 1e-12


def test_normalized_decay():
    rows = experiments.normalized_decay_check(2, 100)
    assert rows[0] == (1, math.sqrt(2))
    assert abs(rows[2][1] - 2 / 3) < 1e-15
    assert all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    assert rows[-1][1] < 0.101
    with pytest.raises(ValueError):
        experiments.normalized_decay_check(2, 1)
