"""Deterministic random bits from digit comparisons of prime roots of primes."""

from .generator import (
    ConfigError,
    GeneratorConfig,
    ScheduleEntry,
    StreamCache,
    StreamExhausted,
    bits_to_decimal,
    compare_digits,
    concat,
    digits_stream,
    generate_bits,
    operator_O,
    pair_stream,
    schedule,
)
from .primes import first_n_primes, nth_prime, prime_pair_sets
from .roots import int_nth_root, root_fractional_digits
from .stats import (
    BatchResult,
    DistributionSummary,
    PairTally,
    TestReport,
    batch_test,
    chi_square_critical,
    chi_square_statistic,
    ngram_block_test,
    ones_count_distribution,
    pair_frequency_table,
    transitions_test,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "StreamExhausted",
    "GeneratorConfig",
    "ScheduleEntry",
    "StreamCache",
    "TestReport",
    "BatchResult",
    "DistributionSummary",
    "PairTally",
    "int_nth_root",
    "root_fractional_digits",
    "first_n_primes",
    "nth_prime",
    "prime_pair_sets",
    "schedule",
    "compare_digits",
    "operator_O",
    "concat",
    "generate_bits",
    "pair_stream",
    "bits_to_decimal",
    "digits_stream",
    "chi_square_statistic",
    "chi_square_critical",
    "transitions_test",
    "ngram_block_test",
    "batch_test",
    "ones_count_distribution",
    "pair_frequency_table",
]
