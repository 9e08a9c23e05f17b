"""Mutation table: every seeded fault must turn at least one core verdict false.

A mutation is a one-line edit of one function's source.  The edited function
is compiled against a copy of its module's namespace and patched into the
module for one test; the row and result caches are cleared before and after, so
rows built by the unmutated code never mask the fault and mutated rows never
leak into later tests.
"""

import __future__
import inspect
import math
import textwrap

import pytest

from subaddlab import experiments, lpspace, verify, weights

# the caches of the unmutated builders, captured before any patch
ROW_CACHES = (
    weights._row_exact,
    weights._prefix_exact,
    weights._head_row,
    weights._base_row,
    lpspace._image_levels,
    experiments._divergence_sweep,
)

# (id, module, function, original text, mutated text)
MUTATIONS = (
    (
        "numerator_recurrence_off_by_one",
        weights,
        "_numerators",
        "((j + 1) * (j + n + 1))",
        "((j + 1) * (j + n + 2))",
    ),
    (
        "image_drops_remainder",
        lpspace,
        "_exact_image",
        "rem, d = D - C[W], q * D",
        "rem, d = 0 * C[W], q * D",
    ),
    (
        "image_run_offset_off_by_one",
        lpspace,
        "_runs",
        "np.maximum(a - ks, 0)",
        "np.maximum(a + 1 - ks, 0)",
    ),
    (
        "ratio_step_off_by_one",
        weights,
        "_step",
        "2 * (n + 1)",
        "2 * (n + 2)",
    ),
    (
        "integer_convolution_index_shift",
        weights,
        "_convolve_numerators",
        "b[j - i]",
        "b[j - i - 1]",
    ),
)


def mutant(module, name, old, new):
    """module.name recompiled with the one occurrence of old replaced by new."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1, f"mutation site {old!r} not unique in {name}"
    code = compile(
        src.replace(old, new),
        f"<mutant of {module.__name__}.{name}>",
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(vars(module))
    exec(code, namespace)
    return namespace[name]


@pytest.fixture
def clean_caches():
    for fn in ROW_CACHES:
        fn.cache_clear()
    yield
    for fn in ROW_CACHES:
        fn.cache_clear()


def failed_checks(bias=0.0):
    return sorted(name for name, ok in verify.core_suite(bias=bias).items() if not ok)


def test_unmutated_core_suite_passes(clean_caches):
    assert failed_checks() == []


@pytest.mark.parametrize(
    "module, name, old, new", [m[1:] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS]
)
def test_mutation_trips_a_core_verdict(monkeypatch, clean_caches, module, name, old, new):
    monkeypatch.setattr(module, name, mutant(module, name, old, new))
    assert failed_checks(), f"no core verdict caught the mutation {old!r} -> {new!r}"


def test_nan_bias_trips_backend_agreement(clean_caches):
    assert "backend_agreement" in failed_checks(math.nan)
