import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootrand.roots as roots_mod
import rootrand.stats as stats_mod
from rootrand import (
    BatchResult,
    GeneratorConfig,
    StreamCache,
    batch_test,
    chi_square_critical,
    chi_square_statistic,
    digits_stream,
    generate_bits,
    ngram_block_test,
    ones_count_distribution,
    pair_frequency_table,
    pair_stream,
    transitions_test,
)
from rootrand.stats import (
    DEFAULT_STRING_LENGTHS,
    TEST_RUNNERS,
    PairTally,
    _chi2_cdf,
    _gammainc_lower,
    _within_percents,
    binomial_band,
    digit_uniformity,
    repro_plan,
)

# ---------------------------------------------------------------------------
# chi-square statistic


def test_statistic_examples():
    assert chi_square_statistic([2000, 2000, 2000, 2000], 2000) == 0.0
    assert chi_square_statistic([1000, 3000, 2000, 2000], 2000) == 1000.0
    assert chi_square_statistic([1, 0], 0.5) == 1.0


def test_statistic_vector_expected():
    assert chi_square_statistic([3, 7], [3.0, 7.0]) == 0.0
    assert chi_square_statistic([4, 6], [2.0, 8.0]) == pytest.approx(2.0 + 0.5)


def test_statistic_validation():
    with pytest.raises(ValueError):
        chi_square_statistic([], 1.0)
    with pytest.raises(ValueError):
        chi_square_statistic([-1, 2], 1.0)
    with pytest.raises(ValueError):
        chi_square_statistic([1, 2], 0.0)
    with pytest.raises(ValueError):
        chi_square_statistic([1, 2], [1.0, 2.0, 3.0])


@given(
    observed=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=20),
    expected=st.floats(min_value=0.1, max_value=500),
)
@settings(max_examples=50)
def test_statistic_nonnegative(observed, expected):
    value = chi_square_statistic(observed, expected)
    assert value >= 0.0
    if all(abs(o - expected) < 1e-12 for o in observed):
        assert value == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# critical values


REFERENCE_CRITICALS = {
    3: 7.8147279,
    7: 14.0671404,
    9: 16.9189776,
    15: 24.9957901,
    31: 44.9853433,
}


def test_critical_reference_values():
    for dof, ref in REFERENCE_CRITICALS.items():
        assert chi_square_critical(dof, 0.05) == pytest.approx(ref, abs=5e-7)


def test_critical_four_significant_figures():
    published = {3: 7.815, 7: 14.07, 15: 25.00, 31: 44.99}
    for dof, ref in published.items():
        assert f"{chi_square_critical(dof, 0.05):.4g}" == f"{ref:.4g}"


def test_critical_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for dof in (1, 2, 3, 5, 7, 9, 15, 31, 60):
        for alpha in (0.9, 0.5, 0.1, 0.05, 0.01):
            ours = chi_square_critical(dof, alpha)
            ref = scipy_stats.chi2.ppf(1 - alpha, dof)
            assert ours == pytest.approx(ref, rel=1e-6)


def test_cdf_against_scipy():
    special = pytest.importorskip("scipy.special")
    for dof in (1, 3, 9, 31):
        for x in (0.0, 0.5, 3.0, 7.815, 20.0, 80.0):
            assert _chi2_cdf(dof, x) == pytest.approx(
                float(special.gammainc(dof / 2, x / 2)), abs=1e-12
            )


def test_gamma_converges_at_large_dof():
    special = pytest.importorskip("scipy.special")
    scipy_stats = pytest.importorskip("scipy.stats")
    # Near x = a both expansions need thousands of terms once a passes 10**4;
    # cut at 500 terms they read P(1e5, 1e5) as 0.44359 (true: 0.50042).
    for a in (1e4, 5e4, 1e5, 1e6):
        for x in (0.99 * a, a, 1.01 * a):
            assert _gammainc_lower(a, x) == pytest.approx(float(special.gammainc(a, x)), rel=1e-8)
    for dof, alpha in ((100_000, 0.6), (200_000, 0.5), (1_000_000, 0.05)):
        ref = scipy_stats.chi2.ppf(1 - alpha, dof)
        assert chi_square_critical(dof, alpha) == pytest.approx(ref, rel=1e-9)


def test_gamma_raises_unconverged(monkeypatch):
    # Too few terms for a = 10**4 in either expansion: the series (x < a + 1)
    # and the continued fraction (x >= a + 1) raise rather than return.
    monkeypatch.setattr(stats_mod, "_GAMMA_MAX_TERMS", 50)
    for x in (1e4, 1e4 + 200):
        with pytest.raises(ArithmeticError, match="did not converge in 50 terms"):
            _gammainc_lower(1e4, x)


def test_critical_monotonicity():
    assert chi_square_critical(3) < chi_square_critical(4) < chi_square_critical(15)
    assert chi_square_critical(3, 0.01) > chi_square_critical(3, 0.05) > chi_square_critical(3, 0.5)


def test_critical_validation():
    with pytest.raises(ValueError):
        chi_square_critical(0)
    with pytest.raises(ValueError):
        chi_square_critical(3, 0.0)
    with pytest.raises(ValueError):
        chi_square_critical(3, 1.0)
    with pytest.raises(ValueError):
        chi_square_critical(3.0)


# ---------------------------------------------------------------------------
# transitions test


def test_transitions_alternating_fails():
    bits = np.arange(8001) % 2  # 0101...0
    report = transitions_test(bits)
    assert report.observed == (0, 4000, 4000, 0)
    assert report.statistic == pytest.approx(8000.0)
    assert report.dof == 3
    assert not report.passed


def test_transitions_two_zeros():
    report = transitions_test([0, 0])
    assert report.observed == (1, 0, 0, 0)
    assert report.passed  # a single transition cannot exceed the critical value


def test_transitions_constant_fails():
    report = transitions_test(np.zeros(101, dtype=np.uint8))
    assert report.observed == (100, 0, 0, 0)
    assert report.statistic == pytest.approx(300.0)
    assert not report.passed


def test_transitions_random_string_passes():
    rng = np.random.default_rng(7)
    report = transitions_test(rng.integers(0, 2, size=8001))
    assert report.passed


def test_ideal_source_failure_shares():
    # The overlapping transition counts are not independent, so an ideal
    # source fails the transitions row more often than alpha; the dyads row,
    # over disjoint blocks of the same strings, stays calibrated. Seed 1 gives
    # 7.60% and 4.95%; seeds 2 and 3 give 7.30% / 4.48% and 7.75% / 5.13%.
    strings = np.random.default_rng(1).integers(0, 2, size=(4000, 8001), dtype=np.uint8)
    transitions = np.mean([not transitions_test(s).passed for s in strings])
    dyads = np.mean([not ngram_block_test(s[:8000], 2).passed for s in strings])
    assert 0.065 <= transitions <= 0.090
    assert 0.035 <= dyads <= 0.065


@given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=300))
@settings(max_examples=60)
def test_transitions_count_identity(bits):
    report = transitions_test(bits)
    assert sum(report.observed) == len(bits) - 1
    assert report.expected == pytest.approx((len(bits) - 1) / 4)
    assert report.passed == (report.statistic <= report.critical)


def test_transitions_validation():
    with pytest.raises(ValueError):
        transitions_test([0])
    with pytest.raises(ValueError):
        transitions_test([0, 2])
    # Checked before the uint8 cast, which would wrap 256 to 0 and cut 0.5 to 0.
    with pytest.raises(ValueError):
        transitions_test(np.array([0, 256, 1]))
    with pytest.raises(ValueError):
        transitions_test([0.5, 1.0])


# ---------------------------------------------------------------------------
# n-gram block tests


def test_dyads_uniform_pattern():
    bits = np.tile([0, 0, 0, 1, 1, 0, 1, 1], 1000)
    report = ngram_block_test(bits, 2)
    assert report.test == "dyads"
    assert report.observed == (1000, 1000, 1000, 1000)
    assert report.statistic == 0.0
    assert report.passed


def test_triads_block_count():
    rng = np.random.default_rng(11)
    report = ngram_block_test(rng.integers(0, 2, size=16000), 3)
    assert sum(report.observed) == 5333  # one trailing bit dropped
    assert report.dof == 7


def test_pentads_constant_statistic():
    report = ngram_block_test(np.zeros(64_000, dtype=np.uint8), 5)
    # 12800 blocks all landing in one of 32 cells
    assert report.statistic == pytest.approx(12_800 * 31)
    assert not report.passed
    assert report.observed[0] == 12_800


def test_ngram_dof_and_critical():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4, 5):
        report = ngram_block_test(rng.integers(0, 2, size=k * 40 * (1 << k)), k)
        assert report.dof == (1 << k) - 1
        assert report.critical == pytest.approx(chi_square_critical(report.dof))


def test_ngram_validation():
    with pytest.raises(ValueError):
        ngram_block_test([0, 1] * 100, 1)
    with pytest.raises(ValueError):
        ngram_block_test([0, 1] * 100, 6)
    with pytest.raises(ValueError):
        ngram_block_test([0, 1] * 10, 5)  # needs 160 bits


@given(
    k=st.sampled_from((2, 3, 4, 5)),
    extra=st.integers(min_value=0, max_value=17),
)
@settings(max_examples=30)
def test_ngram_count_identity(k, extra):
    rng = np.random.default_rng(k * 100 + extra)
    length = k * (1 << k) + extra
    report = ngram_block_test(rng.integers(0, 2, size=length), k)
    assert sum(report.observed) == length // k


# ---------------------------------------------------------------------------
# batch runs


def test_batch_small(desk_config):
    result = batch_test(desk_config, "dyads", 3, 1000)
    assert result.passed + result.failed == 3
    assert result.failed_percent == pytest.approx(100.0 * result.failed / 3)
    assert len(result.reports) == 3


def test_batch_keep_reports(desk_config):
    result = batch_test(desk_config, "transitions", 4, 501)
    assert len(result.reports) == 4
    assert sum(r.passed for r in result.reports) == result.passed
    # slices are disjoint and consecutive, so reports differ in counts
    assert all(sum(r.observed) == 500 for r in result.reports)


def test_batch_validation(desk_config):
    with pytest.raises(ValueError):
        batch_test(desk_config, "bytes", 2, 1000)
    with pytest.raises(ValueError):
        batch_test(desk_config, "dyads", 0, 1000)
    with pytest.raises(ValueError):
        batch_test(desk_config, "dyads", 2, 0)


def test_binomial_band():
    assert binomial_band(1000, 0.05) == (29, 71)  # the acceptance gate's FAIL_BAND
    assert binomial_band(20, 0.05) == (0, 4)  # the lower edge clipped at 0


def test_digit_uniformity_matches_manual(desk_config):
    reports = digit_uniformity(desk_config, 3, 1000)
    digits, _ = digits_stream(desk_config, 3000)
    assert [r.statistic for r in reports] == [
        chi_square_statistic(np.bincount(seg, minlength=10), 100.0) for seg in digits.reshape(3, 1000)
    ]
    assert all(r.dof == 9 and r.passed == (r.statistic <= r.critical) for r in reports)
    with pytest.raises(ValueError, match="segments"):
        digit_uniformity(desk_config, 0, 1000)


def test_default_lengths_cover_suites():
    assert set(DEFAULT_STRING_LENGTHS) == set(TEST_RUNNERS)
    assert DEFAULT_STRING_LENGTHS == {
        "transitions": 8001,
        "dyads": 8000,
        "triads": 16000,
        "tetrads": 32000,
        "pentads": 64000,
    }


# ---------------------------------------------------------------------------
# ones-count distribution


def test_within_percents_boundaries():
    # sigma = sqrt(1000)/2 = 15.8114; the closed intervals on integer
    # counts are [485, 515], [469, 531], [453, 547]
    counts = np.array([485, 515, 484, 516, 469, 531, 468, 532, 453, 547, 452, 548])
    w1, w2, w3 = _within_percents(counts, 1000)
    assert w1 == pytest.approx(100 * 2 / 12)
    assert w2 == pytest.approx(100 * 6 / 12)
    assert w3 == pytest.approx(100 * 10 / 12)


def test_ones_distribution_matches_manual(desk_config):
    from rootrand import generate_bits

    summary = ones_count_distribution(desk_config, 4, 250)
    bits = generate_bits(desk_config, 1000).reshape(4, 250)
    counts = bits.sum(axis=1)
    w1, w2, w3 = _within_percents(counts, 250)
    assert summary.within_1s == pytest.approx(w1)
    assert summary.within_2s == pytest.approx(w2)
    assert summary.within_3s == pytest.approx(w3)
    assert summary.observed_mean == pytest.approx(float(counts.mean()))
    assert summary.mean == 125.0
    assert summary.sigma == pytest.approx(math.sqrt(250) / 2)


def test_ones_distribution_monotone(desk_config):
    s = ones_count_distribution(desk_config, 50, 1000)
    assert 0.0 <= s.within_1s <= s.within_2s <= s.within_3s <= 100.0


def test_ones_distribution_validation(desk_config):
    with pytest.raises(ValueError):
        ones_count_distribution(desk_config, 0, 100)
    with pytest.raises(ValueError):
        ones_count_distribution(desk_config, 10, 0)


# ---------------------------------------------------------------------------
# pair frequency table


def test_pair_table_totals(desk_config):
    tally = pair_frequency_table(desk_config, 30_000)
    assert tally.total == 30_000
    assert int(tally.counts.sum()) == 30_000
    assert tally.counts.shape == (10, 10)
    assert tally.frequencies().sum() == pytest.approx(1.0)
    freq = tally.frequencies()
    assert tally.asymmetry() == float(np.abs(freq - freq.T).max())
    symmetric = np.arange(100).reshape(10, 10)
    assert PairTally(counts=symmetric + symmetric.T, total=9900).asymmetry() == 0.0
    off = ~np.eye(10, dtype=bool)
    assert tally.off_diagonal_range() == (float(freq[off].min()), float(freq[off].max()))
    assert tally.tie_range() == (float(freq[~off].min()), float(freq[~off].max()))
    ramp = PairTally(counts=np.arange(100).reshape(10, 10), total=4950)
    assert ramp.off_diagonal_range() == (1 / 4950, 98 / 4950)
    assert ramp.tie_range() == (0.0, 99 / 4950)


@pytest.mark.parametrize(
    "config, n",
    [
        (GeneratorConfig(), 25_000),
        (GeneratorConfig(), 2 * 19_950),
        # No other test uses this config, so its table comes before any bits.
        (GeneratorConfig(precision_digits=1050, block_index=5), 2_500),
        # A 10-digit window and 6-entry blocks put the cut in entry 1024: the
        # cache's second wave, about 170 blocks in.
        (GeneratorConfig(n_pairs=3, rounds=2, precision_digits=50, skip_digits=40), 10_243),
    ],
    ids=["cut-inside-entry", "entry-boundary", "table-before-bits", "cut-past-first-wave"],
)
def test_pair_table_matches_pair_stream(config, n):
    tally = pair_frequency_table(config, n)
    pairs = pair_stream(config, n)
    codes = pairs[:, 0].astype(np.int64) * 10 + pairs[:, 1]
    expected = np.bincount(codes, minlength=100).reshape(10, 10)
    assert np.array_equal(tally.counts, expected)
    # The table's walk is the stream's walk.
    assert np.array_equal(generate_bits(config, 3000), StreamCache(config).prefix(3000))


def test_pair_table_reads_stream_roots(monkeypatch):
    # Once the stream has walked the table's entries, the table extracts
    # again only the entry its cut falls in, and none at an entry boundary.
    config = GeneratorConfig(n_pairs=8, rounds=3, precision_digits=300)
    generate_bits(config, 2000)
    compute, calls = roots_mod._floor_root, []

    def counted(p, r, depth):
        calls.append((p, r, depth))
        return compute(p, r, depth)

    monkeypatch.setattr(roots_mod, "_floor_root", counted)
    pair_frequency_table(config, 4 * config.window)
    assert calls == []
    pair_frequency_table(config, 4 * config.window + 7)
    assert len(calls) <= 2


def test_repro_plan_counts_the_entries_it_walks():
    # One segment needs 640064 bits, which 36 entries of a 19950-digit
    # window yield; pairs that end on an entry boundary extract no entry again.
    plan = repro_plan(GeneratorConfig(), 1, 1, 40 * 19_950, 1)
    assert (plan["entries_bits"], plan["entries_pairs"], plan["roots"]) == (36, 40, 80)
    assert {d: n for d, (n, _) in plan["per_degree"].items()} == {2: 80}
    # A cut inside entry 10 extracts that round-1 entry again, not the
    # round-2 entry after the stream's 36.
    plan = repro_plan(GeneratorConfig(n_pairs=36, rounds=2), 1, 1, 10 * 19_950 + 5, 1)
    assert plan["roots"] == 2 * (36 + 1)
    assert {d: n for d, (n, _) in plan["per_degree"].items()} == {2: 74}


def test_pair_table_read_only(desk_config):
    tally = pair_frequency_table(desk_config, 1000)
    with pytest.raises(ValueError):
        tally.counts[0, 0] = 7


def test_pair_table_validation(desk_config):
    with pytest.raises(ValueError):
        pair_frequency_table(desk_config, 0)


# ---------------------------------------------------------------------------
# repro verdicts on planted tables


def _segment(passed):
    return stats_mod.TestReport("digits", 0.0, 16.9, 9, 0.05, passed, (10_000,) * 10, 10_000.0)


def _repro_verdicts(battery_failed=50, within=None, pair_counts=None, segments_passed=(100, 100)):
    """Each repro check's verdict on tables that pass every gate unless an argument plants a change."""
    n, passed = segments_passed
    ref = stats_mod._REFERENCE_WITHIN
    tables = {
        "battery": tuple(
            BatchResult(test, 1000, length, 1000 - battery_failed, battery_failed, battery_failed / 10, 0.05)
            for test, length in DEFAULT_STRING_LENGTHS.items()
        ),
        "band": binomial_band(1000, 0.05),
        "distribution": tuple(zip(within or ref, ref, stats_mod._NORMAL_WITHIN)),
        "pairs": PairTally(np.full((10, 10), 1000) if pair_counts is None else pair_counts, 100_000),
        "segments": tuple(_segment(i < passed) for i in range(n)),
    }
    return {name: ok for name, ok, _ in stats_mod._repro_checks(tables)}


def _pair_counts(cells):
    counts = np.full((10, 10), 1000)
    for (i, j), count in cells.items():
        counts[i, j] = count
    return counts


def test_repro_checks_pass_planted_tables():
    assert _repro_verdicts() == {
        **{f"battery {test}": True for test in DEFAULT_STRING_LENGTHS},
        "ones within 1 sigma": True,
        "ones within 2 sigma": True,
        "ones within 3 sigma": True,
        "pair frequencies near 0.01": True,
        "pair swap symmetry": True,
        "decimal digit uniformity": True,
    }


@pytest.mark.parametrize("failed, ok", [(28, False), (29, True), (71, True), (72, False)])
def test_repro_battery_band_edges(failed, ok):
    assert binomial_band(1000, 0.05) == (29, 71)
    verdicts = _repro_verdicts(battery_failed=failed)
    assert [verdicts[f"battery {test}"] for test in DEFAULT_STRING_LENGTHS] == [ok] * 5


@pytest.mark.parametrize("within, ok", [(69.77, True), (69.78, False), (66.77, True), (66.76, False)])
def test_repro_within_tolerance_edges(within, ok):
    # 69.77 and 66.77 lie exactly 1.5 points from the 68.27 reference.
    ref = stats_mod._REFERENCE_WITHIN
    verdicts = _repro_verdicts(within=(within, *ref[1:]))
    assert (verdicts["ones within 1 sigma"], verdicts["ones within 2 sigma"]) == (ok, True)


@pytest.mark.parametrize("count, ok", [(900, True), (1100, True), (899, False), (1101, False)])
def test_repro_pair_frequency_edges(count, ok):
    # Out of 100000 pairs, 900 and 1100 are the frequencies 0.009 and 0.011.
    assert _repro_verdicts(pair_counts=_pair_counts({(2, 5): count}))["pair frequencies near 0.01"] == ok


@pytest.mark.parametrize("count, ok", [(610, True), (611, False)])
def test_repro_swap_symmetry_edge(count, ok):
    # 610 and 510 of 100000 pairs are frequencies whose float difference is
    # exactly 0.001; no such pair lies within [0.009, 0.011].
    tally = PairTally(_pair_counts({(3, 7): count, (7, 3): 510}), 100_000)
    assert (tally.asymmetry() == 0.001) == ok
    assert _repro_verdicts(pair_counts=tally.counts)["pair swap symmetry"] == ok


@pytest.mark.parametrize("n, passed, ok", [(100, 95, True), (100, 94, False), (20, 19, True), (20, 18, False)])
def test_repro_segment_share_edges(n, passed, ok):
    assert math.ceil(0.95 * n) == passed + (not ok)
    assert _repro_verdicts(segments_passed=(n, passed))["decimal digit uniformity"] == ok
