"""Every public int argument rejects a bool, a float and the first value below its bound,
with a message naming the argument and the bound."""

import enum

import pytest

from rootrand import (
    ConfigError,
    GeneratorConfig,
    StreamCache,
    batch_test,
    chi_square_critical,
    digits_stream,
    first_n_primes,
    generate_bits,
    int_nth_root,
    ngram_block_test,
    nth_prime,
    ones_count_distribution,
    pair_frequency_table,
    pair_stream,
    prime_pair_sets,
    root_fractional_digits,
)
from rootrand.primes import is_prime
from rootrand.stats import binomial_band, digit_uniformity, repro_plan, repro_report

# (argument name, lowest accepted value, call with the worked config and the value)
INT_ARGUMENTS = {
    "first_n_primes.n": ("n", 1, lambda cfg, v: first_n_primes(v)),
    "nth_prime.k": ("k", 1, lambda cfg, v: nth_prime(v)),
    "prime_pair_sets.n_pairs": ("n_pairs", 1, lambda cfg, v: prime_pair_sets(v, 0)),
    "prime_pair_sets.block_index": ("block_index", 0, lambda cfg, v: prime_pair_sets(3, v)),
    "is_prime.n": ("n", 0, lambda cfg, v: is_prime(v)),
    "StreamCache.prefix.n_bits": ("n_bits", 0, lambda cfg, v: StreamCache(cfg).prefix(v)),
    "StreamCache.prefix.workers": ("workers", 1, lambda cfg, v: StreamCache(cfg).prefix(3, v)),
    "StreamCache.pair_counts.n_pairs": ("n_pairs", 0, lambda cfg, v: StreamCache(cfg).pair_counts(v)),
    "StreamCache.pair_counts.workers": ("workers", 1, lambda cfg, v: StreamCache(cfg).pair_counts(3, v)),
    "generate_bits.max_bits": ("max_bits", 1, lambda cfg, v: generate_bits(cfg, v)),
    "pair_stream.max_pairs": ("max_pairs", 0, lambda cfg, v: pair_stream(cfg, v)),
    "digits_stream.count": ("count", 1, lambda cfg, v: digits_stream(cfg, v)),
    "chi_square_critical.dof": ("dof", 1, lambda cfg, v: chi_square_critical(v)),
    "ngram_block_test.k": ("k", 2, lambda cfg, v: ngram_block_test([0, 1] * 40, v)),
    "batch_test.n_strings": ("n_strings", 1, lambda cfg, v: batch_test(cfg, "dyads", v, 8)),
    "batch_test.string_length": ("string_length", 1, lambda cfg, v: batch_test(cfg, "dyads", 1, v)),
    "ones_count_distribution.n_strings": ("n_strings", 1, lambda cfg, v: ones_count_distribution(cfg, v, 8)),
    "ones_count_distribution.string_length": (
        "string_length", 1, lambda cfg, v: ones_count_distribution(cfg, 1, v)
    ),
    "pair_frequency_table.max_pairs": ("max_pairs", 1, lambda cfg, v: pair_frequency_table(cfg, v)),
    "pair_frequency_table.workers": ("workers", 1, lambda cfg, v: pair_frequency_table(cfg, 3, v)),
    "digit_uniformity.segment_length": ("segment_length", 1, lambda cfg, v: digit_uniformity(cfg, 2, v)),
    "binomial_band.n": ("n", 0, lambda cfg, v: binomial_band(v)),
    # repro_report checks its counts before it runs any of its checks.
    "repro_plan.strings": ("strings", 1, lambda cfg, v: repro_plan(cfg, v, 1, 1, 1)),
    "repro_plan.dist_strings": ("dist_strings", 1, lambda cfg, v: repro_plan(cfg, 1, v, 1, 1)),
    "repro_plan.pairs": ("pairs", 1, lambda cfg, v: repro_plan(cfg, 1, 1, v, 1)),
    "repro_plan.segments": ("segments", 1, lambda cfg, v: repro_plan(cfg, 1, 1, 1, v)),
    "repro_report.strings": ("strings", 1, lambda cfg, v: repro_report(cfg, v, 1, 1, 1)),
    "repro_report.dist_strings": ("dist_strings", 1, lambda cfg, v: repro_report(cfg, 1, v, 1, 1)),
    "repro_report.pairs": ("pairs", 1, lambda cfg, v: repro_report(cfg, 1, 1, v, 1)),
    "repro_report.segments": ("segments", 1, lambda cfg, v: repro_report(cfg, 1, 1, 1, v)),
    "int_nth_root.x": ("x", 0, lambda cfg, v: int_nth_root(v, 2)),
    "int_nth_root.r": ("r", 1, lambda cfg, v: int_nth_root(8, v)),
    "root_fractional_digits.p": ("p", 2, lambda cfg, v: root_fractional_digits(v, 3, 1, 1)),
    "root_fractional_digits.r": ("r", 2, lambda cfg, v: root_fractional_digits(5, v, 1, 1)),
    "root_fractional_digits.first": ("first", 1, lambda cfg, v: root_fractional_digits(5, 3, v, 1)),
    "root_fractional_digits.count": ("count", 0, lambda cfg, v: root_fractional_digits(5, 3, 1, v)),
    # At the defaults precision_digits must exceed skip_digits = 50, and rounds lie in 1..n_pairs.
    "GeneratorConfig.n_pairs": ("n_pairs", 1, lambda cfg, v: GeneratorConfig(n_pairs=v)),
    "GeneratorConfig.rounds": ("rounds", 1, lambda cfg, v: GeneratorConfig(rounds=v)),
    "GeneratorConfig.precision_digits": (
        "precision_digits", 51, lambda cfg, v: GeneratorConfig(precision_digits=v)
    ),
    "GeneratorConfig.skip_digits": ("skip_digits", 40, lambda cfg, v: GeneratorConfig(skip_digits=v)),
    "GeneratorConfig.block_index": ("block_index", 0, lambda cfg, v: GeneratorConfig(block_index=v)),
}


@pytest.mark.parametrize("case", sorted(INT_ARGUMENTS))
@pytest.mark.parametrize("kind", ["bool", "float", "below"])
def test_int_argument_rejected(worked_config, case, kind):
    name, low, call = INT_ARGUMENTS[case]
    value = {"bool": True, "float": float(low), "below": low - 1}[kind]
    error = ConfigError if case.startswith("GeneratorConfig.") else ValueError
    with pytest.raises(error, match=rf"\b{name} must be an int (of at least|in) {low}\b"):
        call(worked_config, value)


class _Count(enum.IntEnum):
    SIXTY = 60


@pytest.mark.parametrize("value, accepted", [(60, True), (_Count.SIXTY, True), (True, False), (60.0, False)])
def test_int_subclass_accepted_bool_rejected(value, accepted):
    # An int subclass other than bool passes as its value, against a lower
    # bound (count, at least 0) and a range (skip_digits, 40..100); True never does.
    if accepted:
        assert root_fractional_digits(5, 3, 1, value).tolist() == root_fractional_digits(5, 3, 1, 60).tolist()
        assert GeneratorConfig(skip_digits=value).skip_digits == 60
        return
    with pytest.raises(ValueError, match=r"\bcount must be an int of at least 0\b"):
        root_fractional_digits(5, 3, 1, value)
    with pytest.raises(ConfigError, match=r"\bskip_digits must be an int in 40\.\.100\b"):
        GeneratorConfig(skip_digits=value)
