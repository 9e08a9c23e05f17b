"""The one work budget and the one memo registry.

Each refusal point of the budget is pinned at the largest input accepted,
which still reaches its work (the function where that work starts is
patched to stop it), and at the next input up, which is refused before any
work.  Every process memo must be made by limits, so clear_memos() empties
them all.
"""

import sys

import pytest

from subaddlab import experiments, limits, mc, verify, weights
from subaddlab.errors import ResourceLimitError
from subaddlab.lpspace import IndicatorGE, PowerGrowth


def module_containers():
    """The size of each module-level dict, list and set of subaddlab, by (module, name)."""
    return {
        (name, attr): len(value)
        for name, module in sys.modules.items()
        if name.split(".")[0] == "subaddlab"
        for attr, value in vars(module).items()
        if type(value) in (dict, list, set) and not attr.startswith("__")
        and value is not limits._MEMOS  # a memo made later joins it
    }


# taken as the tests are collected, before any of them runs
SIZES_AT_IMPORT = module_containers()


class Reached(Exception):
    """The input passed every ceiling and its work began."""


def reached(*args, **kwargs):
    raise Reached


def walks(trials):
    return mc.mc_apply_A(IndicatorGE(3), 1, 0, trials, mc.make_generator(0))


# kind: (the call at input x, the largest x accepted, where its work starts)
BOUNDARIES = {
    # (x - 1)(16 + 5,000) entry steps of stepping
    "float_row": (lambda n: weights.float_row(n, 16), 214_064, (weights, "_base_values")),
    "blowup": (
        lambda n: experiments.pointwise_divergence(PowerGrowth(0.2), 0, n, 1 << 20),
        1_020,
        (experiments, "_divergence_sweep"),
    ),
    "growth": (lambda n: experiments.growth_curve(2, n), 469, (experiments, "_survival_rows")),
    "maximal": (lambda m: experiments.maximal_ratios((m,), 2.0), 32_768, (experiments, "maximal_ratio_T")),
    "simulate": (walks, 1 << 28, (mc, "_value_chunks")),
    # the default n_max = 12 and c0 = 1: 11 x - 626 rows
    "probe": (lambda j: experiments.lower_bound_probe(1, 12, j), 47_719, (experiments, "_probe")),
    # a = 10^400: the rows' own work stops at row 1, as (n a)^p overflows
    "sato": (lambda n: experiments.sato_norm_growth(10**400, 2, n), 1 << 17, None),
}


@pytest.mark.parametrize("kind", BOUNDARIES)
def test_each_refusal_stays_at_its_input(monkeypatch, kind):
    call, largest, start = BOUNDARIES[kind]
    if start:
        monkeypatch.setattr(*start, reached)
        with pytest.raises(Reached):
            call(largest)
    else:
        with pytest.raises(ValueError, match="overflows"):
            call(largest)
    with pytest.raises(ResourceLimitError):
        call(largest + 1)


def test_every_caller_reads_the_one_budget(monkeypatch):
    monkeypatch.setattr(limits, "WORK_MAX", 64)
    desk = (
        lambda: weights.float_row(4, 100),
        lambda: experiments.pointwise_divergence(PowerGrowth(0.2), 0, 4, 4096),
        lambda: experiments.growth_curve(2, 8),
        lambda: experiments.maximal_ratios((4, 16, 64, 256), 2.0),
        lambda: mc.mc_apply_A(IndicatorGE(3), 8, 0, 1000, mc.make_generator(0)),
        lambda: experiments.lower_bound_probe(),
        lambda: experiments.sato_norm_growth(1, 2, 32),
    )
    for call in desk:
        with pytest.raises(ResourceLimitError, match="entry steps of work"):
            call()


def module_memos():
    """Each module-level functools.lru_cache and limits.Memo of subaddlab, by name."""
    return {
        f"{name}.{attr}": value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "subaddlab"
        for attr, value in vars(module).items()
        if isinstance(value, limits.Memo) or hasattr(value, "cache_info")
    }


def memo_size(m):
    return len(m) if isinstance(m, limits.Memo) else m.cache_info().currsize


def test_clear_memos_empties_every_memo_and_nothing_else_keeps_results():
    limits.clear_memos()
    assert all(verify.run_suite("all").values())
    memos = module_memos()
    # the suite fills every memo, so one that clear_memos misses shows below
    assert all(map(memo_size, memos.values()))
    limits.clear_memos()
    for name, m in memos.items():
        assert any(m is r for r in limits._MEMOS), f"{name} is not recorded"
        assert memo_size(m) == 0, f"{name} kept results"
    assert module_containers() == SIZES_AT_IMPORT
