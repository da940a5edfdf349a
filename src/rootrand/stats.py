"""Statistical checks for generated bit streams.

Every test reduces to a chi-square comparison of observed category
counts against a uniform expectation, at significance alpha. Critical
values come from inverting the chi-square CDF, which is computed here
from the regularized lower incomplete gamma function.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import alpha_arg, bit_array, int_arg
from .generator import (GeneratorConfig, StreamCache, _bits_for_digits, _block_values, _entries,
                        _entries_for_bits, digits_stream, shared_stream)
from .primes import first_n_primes
from .roots import int_nth_root, root_fractional_digits

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
    "binomial_band",
    "digit_uniformity",
    "ones_count_distribution",
    "pair_frequency_table",
    "repro_report",
    "repro_plan",
    "TEST_RUNNERS",
    "DEFAULT_STRING_LENGTHS",
]


# ---------------------------------------------------------------------------
# chi-square machinery


# Most terms either expansion below may take before it counts as not
# converged. Near x = a the series needs about 9 * sqrt(a) terms, so this
# covers a up to about 10**8, far beyond any chi-square dof used here.
_GAMMA_MAX_TERMS = 100_000


def _not_converged(a: float, x: float) -> ArithmeticError:
    return ArithmeticError(f"incomplete gamma at a={a}, x={x} did not converge in {_GAMMA_MAX_TERMS} terms")


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) as a power series, converges quickly for x < a + 1.
    ap = a
    term = total = 1.0 / a
    for _ in range(_GAMMA_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise _not_converged(a, x)


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a, x) by a modified Lentz continued fraction, for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_TERMS):
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
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise _not_converged(a, x)


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
    return _critical_cached(dof, alpha_arg(alpha))


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


def _chi_square_report(test: str, observed: np.ndarray, expected: float, alpha: float) -> TestReport:
    """The verdict on counts over len(observed) categories against a flat expectation."""
    statistic = chi_square_statistic(observed, expected)
    dof = observed.size - 1
    critical = chi_square_critical(dof, alpha)
    return TestReport(
        test=test,
        statistic=statistic,
        critical=critical,
        dof=dof,
        alpha=alpha,
        passed=statistic <= critical,
        observed=tuple(int(c) for c in observed),
        expected=expected,
    )


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
    return _chi_square_report("transitions", observed, (arr.size - 1) / 4.0, alpha)


_NGRAM_NAMES = {2: "dyads", 3: "triads", 4: "tetrads", 5: "pentads"}


def ngram_block_test(bits, k: int, alpha: float = 0.05) -> TestReport:
    """Chi-square test on non-overlapping k-bit blocks, k in 2..5.

    The string is cut into floor(L / k) blocks; leftover bits are
    dropped. Each of the 2**k patterns is expected equally often, giving
    2**k - 1 degrees of freedom.
    """
    int_arg("k", k, 2, 5)
    arr = bit_array(bits)
    patterns = 1 << k
    if arr.size < k * patterns:
        raise ValueError(f"need at least {k * patterns} bits for k={k}")
    observed = np.bincount(_block_values(arr, k), minlength=patterns)
    return _chi_square_report(_NGRAM_NAMES[k], observed, (arr.size // k) / patterns, alpha)


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
    reports: tuple[TestReport, ...] = ()


def batch_test(
    config: GeneratorConfig,
    test: str,
    n_strings: int,
    string_length: int,
    alpha: float = 0.05,
    workers: int = 1,
) -> BatchResult:
    """Run one named test on n_strings consecutive disjoint stream slices, keeping each slice's report."""
    alpha_arg(alpha)
    if test not in TEST_RUNNERS:
        raise ValueError(f"unknown test {test!r}; pick one of {sorted(TEST_RUNNERS)}")
    runner = TEST_RUNNERS[test]
    reports = tuple(runner(string, alpha) for string in _strings(config, n_strings, string_length, workers))
    passed = sum(report.passed for report in reports)
    failed = n_strings - passed
    return BatchResult(
        test=test,
        n_strings=n_strings,
        string_length=string_length,
        passed=passed,
        failed=failed,
        failed_percent=100.0 * failed / n_strings,
        alpha=alpha,
        reports=reports,
    )


def binomial_band(n: int, p: float = 0.05) -> tuple[int, int]:
    """Outward-rounded 3 sigma band of failure counts around the Binomial(n, p) mean, p in (0, 1)."""
    alpha_arg(p, "p")
    int_arg("n", n, 0)
    mu = n * p
    sigma = math.sqrt(n * p * (1 - p))
    return max(0, math.floor(mu - 3 * sigma)), math.ceil(mu + 3 * sigma)


def digit_uniformity(config: GeneratorConfig, segments: int, segment_length: int, alpha: float = 0.05,
                     workers: int = 1) -> tuple[TestReport, ...]:
    """Chi-square(9) verdicts on the digit counts of consecutive segments of the stream's digits."""
    alpha_arg(alpha)
    int_arg("segments", segments, 1)
    int_arg("segment_length", segment_length, 1)
    digits, _ = digits_stream(config, segments * segment_length, workers)
    return tuple(
        _chi_square_report("digits", np.bincount(seg, minlength=10), segment_length / 10.0, alpha)
        for seg in digits.reshape(segments, segment_length)
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


_TIES = np.eye(10, dtype=bool)


@dataclass(frozen=True, eq=False)
class PairTally:
    """10x10 counts of compared digit pairs (left digit, right digit)."""

    counts: np.ndarray
    total: int

    def frequencies(self) -> np.ndarray:
        return self.counts / float(self.total)

    def asymmetry(self) -> float:
        """Largest |f(i, j) - f(j, i)| over the frequencies."""
        f = self.frequencies()
        return float(np.abs(f - f.T).max())

    def off_diagonal_range(self) -> tuple[float, float]:
        """(lowest, highest) frequency of the 90 pairs of unequal digits."""
        f = self.frequencies()[~_TIES]
        return float(f.min()), float(f.max())

    def tie_range(self) -> tuple[float, float]:
        """(lowest, highest) frequency of the 10 ties (i, i)."""
        f = self.frequencies()[_TIES]
        return float(f.min()), float(f.max())


def pair_frequency_table(config: GeneratorConfig, max_pairs: int, workers: int = 1) -> PairTally:
    """Count the first max_pairs compared digit pairs into a read-only 10x10 table.

    Reads the per-entry pair counts of the config's shared stream, so the
    entries the bit stream has walked cost no root, and extracts again only
    the entry the cut falls in. Entries not yet walked are walked on
    `workers` processes.
    """
    return PairTally(shared_stream(config).pair_counts(int_arg("max_pairs", max_pairs, 1), workers), max_pairs)


# ---------------------------------------------------------------------------
# the reproduction run's verdicts


# Within-k-sigma percentages of the reference full-scale run, the distance
# from them that still passes, and the normal law's percentages, k = 1, 2, 3.
_REFERENCE_WITHIN = (68.27, 95.35, 99.72)
_WITHIN_TOLERANCE = 1.5
_NORMAL_WITHIN = (68.26895, 95.44997, 99.73002)
_SEGMENT_LENGTH = 100_000


def _worked_example_check():
    config = GeneratorConfig(
        n_pairs=1, rounds=1, precision_digits=100, skip_digits=50,
        c1=(5,), c2=(17,), degrees=(3,),
    )
    bits = StreamCache(config).prefix(3)
    ok = bits.tolist() == [0, 1, 0]
    return ok, f"first bits of the 5 vs 17 cube-root pairing: {''.join(map(str, bits.tolist()))}"


def _root_spot_check(samples: int = 500):
    # The digit windows every stream entry reads, decode included, checked
    # again in plain ints: T, the integer root followed by the first depth
    # fractional digits, must satisfy T**r < p * 10**(r*depth) < (T+1)**r.
    # The left bound is strict because a prime is never a perfect power.
    primes = first_n_primes(9592)  # every prime below 10**5
    rng = np.random.default_rng(20260819)
    for _ in range(samples):
        p = int(rng.choice(primes))
        r = int(rng.choice([2, 3, 5, 7, 11]))
        depth = int(rng.integers(0, 301))
        failed = False, f"floor root bracket failed at p={p}, r={r}, depth={depth}"
        try:
            digits = root_fractional_digits(p, r, 1, depth)
        except ValueError:  # the prime was reported as a perfect power
            return failed
        t = int(str(int_nth_root(p, r)) + "".join(map(str, digits.tolist())))
        if not t ** r < p * 10 ** (r * depth) < (t + 1) ** r:
            return failed
    return True, f"{samples} random floor-root brackets hold"


def _chi2_check():
    targets = ((3, 7.8147279), (7, 14.0671404), (15, 24.9957901), (31, 44.9853433))
    worst = max(abs(chi_square_critical(dof) - ref) for dof, ref in targets)
    return worst < 5e-7, f"max deviation from reference 5% critical values {worst:.2e}"


def _determinism_check(config, workers):
    n = 200_000
    a = StreamCache(config).prefix(n)
    b = StreamCache(config).prefix(n)
    c = StreamCache(config).prefix(n, workers=max(2, workers))
    ok = bool(np.array_equal(a, b) and np.array_equal(a, c))
    return ok, f"two fresh runs and a {max(2, workers)}-worker run agree on {n} bits"


def _repro_checks(tables: dict) -> list[tuple[str, bool, str]]:
    """The (name, passed, detail) verdict on each row of repro_report's tables."""
    lo, hi = tables["band"]
    checks = [
        (f"battery {r.test}", lo <= r.failed <= hi, f"failed {r.failed}/{r.n_strings}, band [{lo}, {hi}]")
        for r in tables["battery"]
    ]
    for k, (obs, ref, _) in enumerate(tables["distribution"], start=1):
        ok = abs(obs - ref) <= _WITHIN_TOLERANCE
        checks.append(
            (f"ones within {k} sigma", ok, f"{obs:.2f}% vs reference {ref}% (tol {_WITHIN_TOLERANCE})")
        )
    tally = tables["pairs"]
    freq = tally.frequencies()
    in_range = bool(freq.min() >= 0.009 and freq.max() <= 0.011)
    checks.append(
        ("pair frequencies near 0.01", in_range,
         f"range [{freq.min():.5f}, {freq.max():.5f}] over {tally.total} pairs")
    )
    gap = tally.asymmetry()
    checks.append(("pair swap symmetry", gap <= 0.001, f"largest |f(i,j) - f(j,i)| = {gap:.5f}"))
    reports = tables["segments"]
    passed = sum(rep.passed for rep in reports)
    need = math.ceil(0.95 * len(reports))
    checks.append(
        ("decimal digit uniformity", passed >= need,
         f"{passed}/{len(reports)} segments of {_SEGMENT_LENGTH} digits pass chi-square(9)")
    )
    return checks


def _check_counts(strings, dist_strings, pairs, segments) -> None:
    """The counts of repro_report and repro_plan, each an int of at least 1."""
    for name, count in (("strings", strings), ("dist_strings", dist_strings), ("pairs", pairs),
                        ("segments", segments)):
        int_arg(name, count, 1)


def repro_report(config: GeneratorConfig, strings: int, dist_strings: int, pairs: int, segments: int,
                 alpha: float = 0.05, workers: int = 1) -> tuple[dict, list[tuple[str, bool, str]]]:
    """Every table of the reproduction run, and its checks as (name, passed, detail) rows.

    The tables dict holds the battery's BatchResults over `strings` strings
    and the "band" their failure counts must lie in, the (observed,
    reference, normal) within-k-sigma percentages of `dist_strings` ones
    counts for k = 1, 2, 3, the PairTally of `pairs` digit pairs, and the
    chi-square(9) reports of `segments` segments of 100000 digits.
    """
    alpha_arg(alpha)
    _check_counts(strings, dist_strings, pairs, segments)
    checks = [
        ("worked-example bits", *_worked_example_check()),
        ("integer root brackets", *_root_spot_check()),
        ("chi-square critical values", *_chi2_check()),
        ("determinism and workers", *_determinism_check(config, workers)),
    ]
    battery = tuple(
        batch_test(config, test, strings, length, alpha, workers) for test, length in DEFAULT_STRING_LENGTHS.items()
    )
    summary = ones_count_distribution(config, dist_strings, 1000, workers)
    observed = (summary.within_1s, summary.within_2s, summary.within_3s)
    tables = {
        "battery": battery,
        "band": binomial_band(strings, alpha),
        "distribution": tuple(zip(observed, _REFERENCE_WITHIN, _NORMAL_WITHIN)),
        "pairs": pair_frequency_table(config, pairs, workers),
        "segments": digit_uniformity(config, segments, _SEGMENT_LENGTH, alpha, workers),
    }
    return tables, checks + _repro_checks(tables)


def repro_plan(config: GeneratorConfig, strings: int, dist_strings: int, pairs: int, segments: int) -> dict:
    """What repro_report with these counts will walk, and about how long it will take.

    "bits_needed" is the most any table reads: battery, ones counts, or the
    bits digits_stream first asks for to decode the segments' "digits". The
    "roots" count the pair table's cut entry, if any, twice; "per_degree" maps
    each degree to (roots, seconds one root takes now); "estimate_s" adds
    about 5% to their time for the digit compares.
    """
    _check_counts(strings, dist_strings, pairs, segments)
    digits = segments * _SEGMENT_LENGTH
    bits_needed = max(strings * DEFAULT_STRING_LENGTHS["pentads"], dist_strings * 1000, _bits_for_digits(digits))
    entries_bits = _entries_for_bits(config, bits_needed)
    entries_pairs = math.ceil(pairs / config.window)
    walked = max(entries_bits, entries_pairs)
    # The pair table extracts again the entry its cut falls in, if any.
    cut = pairs % config.window > 0
    planned = [*_entries(config, 0, walked), *_entries(config, entries_pairs - cut, entries_pairs)]
    # Root cost grows steeply with the degree, so one root is timed per
    # degree the planned entries use and weighted by their number.
    per_degree = {}
    for degree, n in sorted(Counter(e.root_degree for e in planned).items()):
        t0 = time.perf_counter()
        root_fractional_digits(10007, degree, config.skip_digits + 1, config.window)
        per_degree[degree] = (2 * n, time.perf_counter() - t0)
    return {
        "bits_needed": bits_needed,
        "digits": digits,
        "entries_bits": entries_bits,
        "entries_pairs": entries_pairs,
        "roots": 2 * len(planned),
        "per_degree": per_degree,
        "estimate_s": 1.05 * sum(n * seconds for n, seconds in per_degree.values()),
    }
