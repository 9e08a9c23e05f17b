"""Mutation table: every seeded fault must turn its named verdict false.

A mutation is a small edit of one function's source: one line changed, or
one line moved.  The edited function is compiled against a copy of its
module's namespace and patched into the module for one test, which runs
the core suite, or the whole suite for a verdict outside the core one.
limits.clear_memos() empties every process memo before and after, so
results of the unmutated code never mask the fault and mutated results
never leak into later tests.
"""

import __future__
import inspect
import math
import textwrap

import pytest

from subaddlab import cli, experiments, limits, lpspace, mc, verify, weights

# (id, verdict that must turn false, module, function, original text, mutated text)
MUTATIONS = (
    (
        "numerator_recurrence_off_by_one",
        "closed_form_vs_convolution",
        weights,
        "_numerators",
        "((j + 1) * (j + n + 1))",
        "((j + 1) * (j + n + 2))",
    ),
    (
        "image_drops_remainder",
        "cesaro_identities",
        lpspace,
        "_exact_image",
        "rem, d = D - C[W], q * D",
        "rem, d = 0 * C[W], q * D",
    ),
    (
        "exact_image_drops_first_run",
        "barycenter_residual_zero",
        lpspace,
        "_exact_image",
        "terms.sum(axis=0)",
        "terms[1:].sum(axis=0)",
    ),
    (
        # off by one for every n below the largest; a plain + 1 also hits the
        # one-n calls, where barycenter_residual_zero raises on an inverted
        # enclosure before any verdict is read
        "many_n_scale_off_by_one",
        "operator_subadditivity",
        lpspace,
        "_exact_image",
        "1 << (n_max - n)",
        "1 << (n_max - n + (n < n_max))",
    ),
    (
        "image_run_offset_off_by_one",
        "barycenter_residual_zero",
        lpspace,
        "_runs",
        "np.maximum(a - ks, 0)",
        "np.maximum(a + 1 - ks, 0)",
    ),
    (
        # the denominator's start c_1 = t + 4 shifted by one step
        "ratio_step_off_by_one",
        "backend_agreement",
        weights,
        "_stepped",
        "np.add(t, 4, out=c)",
        "np.add(t, 6, out=c)",
    ),
    (
        "stepped_slice_offset_dropped",
        "backend_agreement",
        weights,
        "_stepped",
        "2.0), 2 * start, out=t)",
        "2.0), 0, out=t)",
    ),
    (
        "integer_convolution_index_shift",
        "closed_form_vs_convolution",
        weights,
        "_convolve_numerators",
        "b[j - i]",
        "b[j - i - 1]",
    ),
    (
        "sato_product_yields_after_multiplying",
        "sato_closed_form",
        experiments,
        "_sato_products",
        "yield SatoMatrix(m11, m12, m21, m22)\n"
        "        # multiply on the right by [[1, a], [0, 1]]\n"
        "        m11, m12 = m11, m11 * a + m12\n"
        "        m21, m22 = m21, m21 * a + m22\n",
        "# multiply on the right by [[1, a], [0, 1]]\n"
        "        m11, m12 = m11, m11 * a + m12\n"
        "        m21, m22 = m21, m21 * a + m22\n"
        "        yield SatoMatrix(m11, m12, m21, m22)\n",
    ),
    (
        "pgf_term_ratio_off_by_one",
        "pgf_point_checks",
        weights,
        "_fixed_terms",
        "2 * j + 1",
        "2 * j + 2",
    ),
    (
        "pgf_precision_lowered",
        "pgf_point_checks",
        weights,
        "pgf_check",
        "P = _FIXED_BITS",
        "P = 64",
    ),
    (
        "exact_image_float_divisor_off_by_one",
        "norm_upper_bound",
        lpspace,
        "_exact_image",
        "x / float(d)",
        "x / float(d + 1)",
    ),
    (
        "exact_image_int64_bound_raised",
        "norm_upper_bound",
        lpspace,
        "_exact_image",
        "< _INT64_EXACT",
        "< 1 << 64",
    ),
    (
        # each image line paired with ||f||_p at the exponents in reverse
        # order: the p = 3 image norms against (n + 1)^(1/3) ||f||_1.1
        "norm_line_paired_with_the_wrong_p",
        "norm_upper_bound",
        lpspace,
        "_norm_table_ends",
        "lines[0] = [e[0] for e in",
        "lines[0] = [e[0][::-1] for e in",
    ),
    (
        "probe_recurrence_off_by_one",
        "probe_positive",
        experiments,
        "_probe_run",
        "(2 * j + 1)",
        "(2 * j + 3)",
    ),
    (
        "sampler_cdf_one_index_late",
        "mc_agreement",
        mc,
        "_cdf_up",
        "for c in C[1:]:",
        "for c in C[:-1]:",
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
    limits.clear_memos()
    yield
    limits.clear_memos()


def failed_checks(bias=0.0, suite="core"):
    return sorted(name for name, ok in verify.run_suite(suite, bias=bias).items() if not ok)


def test_unmutated_core_suite_passes(clean_caches):
    assert failed_checks() == []


@pytest.mark.parametrize(
    "verdict, module, name, old, new", [m[1:] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS]
)
def test_mutation_trips_a_core_verdict(monkeypatch, clean_caches, verdict, module, name, old, new):
    monkeypatch.setattr(module, name, mutant(module, name, old, new))
    suite = "core" if verdict in dict(verify.CORE_CHECKS) else "all"
    failed = failed_checks(suite=suite)
    assert verdict in failed, f"{verdict} did not catch the mutation {old!r} -> {new!r}"


def test_a_check_that_raises_fails_its_verdict_and_the_suite_goes_on(
    monkeypatch, clean_caches, capsys, tmp_path
):
    # with the remainder dropped growth_slopes raises (its norm lower bounds
    # underflow to 0); that is a failed verdict (exit 1), not a usage error
    _, _, module, name, old, new = next(m for m in MUTATIONS if m[0] == "image_drops_remainder")
    monkeypatch.setattr(module, name, mutant(module, name, old, new))
    assert cli.main(["verify", "--suite", "all", "--outdir", str(tmp_path)]) == cli.EXIT_VERDICT
    out, err = capsys.readouterr()
    assert "[FAIL] verify.cesaro_identities" in out
    assert "[FAIL] verify.growth_slopes" in out
    assert "error in growth_slopes: p = 1.25 is too large to fit" in err
    # every check after it still ran and printed its verdict
    assert [line.split(".")[1] for line in out.splitlines() if line.startswith("[")] == [
        name for name, _ in verify.CORE_CHECKS + verify.FULL_CHECKS
    ]


def test_nan_bias_trips_backend_agreement(clean_caches):
    assert "backend_agreement" in failed_checks(math.nan)
