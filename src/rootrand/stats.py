"""Statistical checks for generated bit streams.

Every test reduces to a chi-square comparison of observed category
counts against a uniform expectation, at significance alpha. Critical
values come from inverting the chi-square CDF, which is computed here
from the regularized lower incomplete gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import bit_array, int_arg
from .generator import GeneratorConfig, _pair_windows, shared_stream

__all__ = [
    "TestReport",
    "BatchResult",
    "DistributionSummary",
    "PairTally",
    "chi_square_statistic",
    "chi_square_critical",
    "transitions_test",
    "ngram_block_test",
    "batch_test",
    "ones_count_distribution",
    "pair_frequency_table",
    "TEST_RUNNERS",
    "DEFAULT_STRING_LENGTHS",
]


# ---------------------------------------------------------------------------
# chi-square machinery


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) as a power series, converges quickly for x < a + 1.
    ap = a
    term = total = 1.0 / a
    for _ in range(500):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a, x) by a modified Lentz continued fraction, for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_cf(a, x)


def _chi2_cdf(dof: int, x: float) -> float:
    return _gammainc_lower(dof / 2.0, x / 2.0)


def chi_square_statistic(observed, expected) -> float:
    """Sum of (observed - expected)^2 / expected over all categories.

    expected may be a single positive value applied to every category or
    a sequence matching observed.
    """
    obs = np.asarray(observed, dtype=np.float64)
    if obs.ndim != 1 or obs.size == 0:
        raise ValueError("observed must be a nonempty one dimensional sequence")
    if np.any(obs < 0):
        raise ValueError("observed counts must be nonnegative")
    exp = np.asarray(expected, dtype=np.float64)
    if exp.ndim == 0:
        exp = np.full(obs.shape, float(exp))
    if exp.shape != obs.shape:
        raise ValueError("expected must be a scalar or match observed in length")
    if np.any(exp <= 0):
        raise ValueError("expected counts must be positive")
    return float(np.sum((obs - exp) ** 2 / exp))


@lru_cache(maxsize=None)
def _critical_cached(dof: int, alpha: float) -> float:
    target = 1.0 - alpha
    lo = 0.0
    hi = dof + 10.0 * math.sqrt(2.0 * dof) + 20.0
    while _chi2_cdf(dof, hi) < target:
        hi *= 2.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if _chi2_cdf(dof, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi_square_critical(dof: int, alpha: float = 0.05) -> float:
    """Upper critical value: the x with P(chi2_dof <= x) = 1 - alpha."""
    int_arg("dof", dof, 1)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return _critical_cached(dof, alpha)


# ---------------------------------------------------------------------------
# single-string tests


@dataclass(frozen=True)
class TestReport:
    """Outcome of one chi-square test on one bit string."""

    test: str
    statistic: float
    critical: float
    dof: int
    alpha: float
    passed: bool
    observed: tuple[int, ...]
    expected: float


def transitions_test(bits, alpha: float = 0.05) -> TestReport:
    """Chi-square test on the four transition counts of adjacent bits.

    A string of length L has L - 1 overlapping transitions 00, 01, 10,
    11, each expected (L - 1) / 4 times. 3 degrees of freedom.
    """
    arr = bit_array(bits)
    if arr.size < 2:
        raise ValueError("transitions need at least 2 bits")
    codes = (arr[:-1] << 1) | arr[1:]
    observed = np.bincount(codes, minlength=4)
    expected = (arr.size - 1) / 4.0
    statistic = chi_square_statistic(observed, expected)
    critical = chi_square_critical(3, alpha)
    return TestReport(
        test="transitions",
        statistic=statistic,
        critical=critical,
        dof=3,
        alpha=alpha,
        passed=statistic <= critical,
        observed=tuple(int(c) for c in observed),
        expected=expected,
    )


_NGRAM_NAMES = {2: "dyads", 3: "triads", 4: "tetrads", 5: "pentads"}


def ngram_block_test(bits, k: int, alpha: float = 0.05) -> TestReport:
    """Chi-square test on non-overlapping k-bit blocks, k in 2..5.

    The string is cut into floor(L / k) blocks; leftover bits are
    dropped. Each of the 2**k patterns is expected equally often, giving
    2**k - 1 degrees of freedom.
    """
    if k not in _NGRAM_NAMES:
        raise ValueError("k must be one of 2, 3, 4, 5")
    arr = bit_array(bits)
    patterns = 1 << k
    if arr.size < k * patterns:
        raise ValueError(f"need at least {k * patterns} bits for k={k}")
    blocks = arr.size // k
    weights = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
    values = arr[: blocks * k].reshape(blocks, k) @ weights
    observed = np.bincount(values, minlength=patterns)
    expected = blocks / patterns
    statistic = chi_square_statistic(observed, expected)
    dof = patterns - 1
    critical = chi_square_critical(dof, alpha)
    return TestReport(
        test=_NGRAM_NAMES[k],
        statistic=statistic,
        critical=critical,
        dof=dof,
        alpha=alpha,
        passed=statistic <= critical,
        observed=tuple(int(c) for c in observed),
        expected=expected,
    )


TEST_RUNNERS = {
    "transitions": lambda bits, alpha=0.05: transitions_test(bits, alpha),
    "dyads": lambda bits, alpha=0.05: ngram_block_test(bits, 2, alpha),
    "triads": lambda bits, alpha=0.05: ngram_block_test(bits, 3, alpha),
    "tetrads": lambda bits, alpha=0.05: ngram_block_test(bits, 4, alpha),
    "pentads": lambda bits, alpha=0.05: ngram_block_test(bits, 5, alpha),
}

# String lengths used for the reference tables: one expected count of
# 2000 per transition type, then 2000 expected per k-gram pattern.
DEFAULT_STRING_LENGTHS = {
    "transitions": 8001,
    "dyads": 8000,
    "triads": 16000,
    "tetrads": 32000,
    "pentads": 64000,
}


# ---------------------------------------------------------------------------
# batch runs over one configuration's stream


def _strings(config: GeneratorConfig, n_strings: int, string_length: int, workers: int) -> np.ndarray:
    """The stream's first n_strings consecutive disjoint slices of string_length bits, one per row."""
    int_arg("n_strings", n_strings, 1)
    int_arg("string_length", string_length, 1)
    bits = shared_stream(config).prefix(n_strings * string_length, workers)
    return bits.reshape(n_strings, string_length)


@dataclass(frozen=True)
class BatchResult:
    """Pass/fail tally of one test over consecutive stream slices."""

    test: str
    n_strings: int
    string_length: int
    passed: int
    failed: int
    failed_percent: float
    alpha: float
    reports: tuple[TestReport, ...] | None = None


def batch_test(
    config: GeneratorConfig,
    test: str,
    n_strings: int,
    string_length: int,
    alpha: float = 0.05,
    workers: int = 1,
    keep_reports: bool = False,
) -> BatchResult:
    """Run one named test on n_strings consecutive disjoint stream slices."""
    if test not in TEST_RUNNERS:
        raise ValueError(f"unknown test {test!r}; pick one of {sorted(TEST_RUNNERS)}")
    runner = TEST_RUNNERS[test]
    reports = []
    passed = 0
    for string in _strings(config, n_strings, string_length, workers):
        report = runner(string, alpha)
        passed += report.passed
        if keep_reports:
            reports.append(report)
    failed = n_strings - passed
    return BatchResult(
        test=test,
        n_strings=n_strings,
        string_length=string_length,
        passed=passed,
        failed=failed,
        failed_percent=100.0 * failed / n_strings,
        alpha=alpha,
        reports=tuple(reports) if keep_reports else None,
    )


# ---------------------------------------------------------------------------
# ones-count distribution


@dataclass(frozen=True)
class DistributionSummary:
    """How the per-string ones counts spread around the binomial mean."""

    n_strings: int
    string_length: int
    mean: float
    sigma: float
    observed_mean: float
    within_1s: float
    within_2s: float
    within_3s: float


def _within_percents(counts: np.ndarray, string_length: int) -> tuple[float, float, float]:
    # Closed intervals: a count exactly k sigma from the mean is inside.
    mu = string_length / 2.0
    sigma = math.sqrt(string_length) / 2.0
    dev = np.abs(counts.astype(np.float64) - mu)
    n = counts.size
    return tuple(100.0 * float(np.count_nonzero(dev <= k * sigma)) / n for k in (1, 2, 3))


def ones_count_distribution(
    config: GeneratorConfig,
    n_strings: int,
    string_length: int,
    workers: int = 1,
) -> DistributionSummary:
    """Tally ones per stream slice and report the within-k-sigma percentages."""
    counts = _strings(config, n_strings, string_length, workers).sum(axis=1)
    w1, w2, w3 = _within_percents(counts, string_length)
    return DistributionSummary(
        n_strings=n_strings,
        string_length=string_length,
        mean=string_length / 2.0,
        sigma=math.sqrt(string_length) / 2.0,
        observed_mean=float(counts.mean()),
        within_1s=w1,
        within_2s=w2,
        within_3s=w3,
    )


# ---------------------------------------------------------------------------
# digit-pair frequencies


@dataclass(frozen=True, eq=False)
class PairTally:
    """10x10 counts of compared digit pairs (left digit, right digit)."""

    counts: np.ndarray
    total: int

    def frequencies(self, decimals: int | None = None) -> np.ndarray:
        freq = self.counts / float(self.total)
        return np.round(freq, decimals) if decimals is not None else freq


def pair_frequency_table(config: GeneratorConfig, max_pairs: int) -> PairTally:
    """Count the first max_pairs compared digit pairs into a 10x10 table.

    Streams one schedule entry at a time, so the pair sequence is never
    materialized; memory stays flat at any scale.
    """
    table = np.zeros(100, dtype=np.int64)
    for a, b in _pair_windows(config, int_arg("max_pairs", max_pairs, 1)):
        table += np.bincount(a.astype(np.int64) * 10 + b, minlength=100)
    tally = PairTally(counts=table.reshape(10, 10), total=max_pairs)
    tally.counts.setflags(write=False)
    return tally
