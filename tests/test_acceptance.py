"""End-to-end acceptance checks for the generator and its statistics.

Each test prints one PASS/FAIL line (bypassing capture) so a full run
shows the acceptance status at a glance. The heavy stream prefixes are
shared through the library's per-config cache, so the whole module
costs one desk-scale generation pass.
"""

import random
import subprocess
import sys

import numpy as np
import pytest

from rootrand import (
    GeneratorConfig,
    StreamCache,
    batch_test,
    bits_to_decimal,
    chi_square_critical,
    chi_square_statistic,
    generate_bits,
    int_nth_root,
    ones_count_distribution,
    pair_frequency_table,
    pair_stream,
    root_fractional_digits,
)
from rootrand.stats import DEFAULT_STRING_LENGTHS

DESK = GeneratorConfig()

# 3 sigma band of Binomial(1000, 0.05), rounded outward.
FAIL_BAND = (29, 71)

# Within-sigma percentages of the full-scale reference run, +/- 1.5.
REFERENCE_WITHIN = (68.27, 95.35, 99.72)
WITHIN_TOLERANCE = 1.5

CBRT5_51_70 = "49243828617074442959"
CBRT17_51_70 = "62598480223762199399"


def _announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_worked_example(capsys):
    five = root_fractional_digits(5, 3, 51, 20)
    seventeen = root_fractional_digits(17, 3, 51, 20)
    config = GeneratorConfig(
        n_pairs=1, rounds=1, precision_digits=100, skip_digits=50,
        c1=(5,), c2=(17,), degrees=(3,),
    )
    bits = generate_bits(config, 3)
    pairs = pair_stream(config, 3)
    ok = (
        "".join(map(str, five.tolist())) == CBRT5_51_70
        and "".join(map(str, seventeen.tolist())) == CBRT17_51_70
        and root_fractional_digits(5, 3, 1, 3).tolist() == [7, 0, 9]
        and bits.tolist() == [0, 1, 0]
        and pairs.tolist() == [[4, 6], [9, 2], [2, 5]]
    )
    _announce(capsys, f"[acceptance] criterion 1 (worked example): {'PASS' if ok else 'FAIL'}")
    assert "".join(map(str, five.tolist())) == CBRT5_51_70
    assert "".join(map(str, seventeen.tolist())) == CBRT17_51_70
    assert root_fractional_digits(5, 3, 1, 3).tolist() == [7, 0, 9]
    assert pairs.tolist() == [[4, 6], [9, 2], [2, 5]]
    assert bits.tolist() == [0, 1, 0]


def test_criterion_2_battery_bands(capsys):
    lo, hi = FAIL_BAND
    rows = {}
    for name, length in DEFAULT_STRING_LENGTHS.items():
        result = batch_test(DESK, name, 1000, length)
        rows[name] = result.failed
    out_of_band = {n: f for n, f in rows.items() if not lo <= f <= hi}
    detail = " ".join(f"{n}={f}" for n, f in rows.items())
    status = "PASS" if not out_of_band else f"FAIL ({', '.join(out_of_band)} outside [{lo}, {hi}])"
    _announce(capsys, f"[acceptance] criterion 2 (battery bands): {detail} -> {status}")
    assert not out_of_band, (
        f"failure counts {rows} must lie in [{lo}, {hi}]; outside: {out_of_band}"
    )


def test_criterion_3_ones_distribution(capsys):
    summary = ones_count_distribution(DESK, 10_000, 1000)
    observed = (summary.within_1s, summary.within_2s, summary.within_3s)
    deviations = [abs(o - r) for o, r in zip(observed, REFERENCE_WITHIN)]
    ok = all(d <= WITHIN_TOLERANCE for d in deviations)
    _announce(
        capsys,
        "[acceptance] criterion 3 (ones distribution): "
        f"within 1/2/3 sigma = {observed[0]:.2f}/{observed[1]:.2f}/{observed[2]:.2f} % "
        f"-> {'PASS' if ok else 'FAIL'}",
    )
    for obs, ref in zip(observed, REFERENCE_WITHIN):
        assert abs(obs - ref) <= WITHIN_TOLERANCE, (
            f"{obs:.2f}% deviates more than {WITHIN_TOLERANCE} from {ref}%"
        )


def test_criterion_4_pair_frequencies(capsys):
    tally = pair_frequency_table(DESK, 1_000_000)
    freq = tally.frequencies()
    gap = float(np.abs(freq - freq.T).max())
    in_range = bool(freq.min() >= 0.009 and freq.max() <= 0.011)
    symmetric = gap <= 0.001
    ok = in_range and symmetric
    _announce(
        capsys,
        "[acceptance] criterion 4 (pair frequencies): "
        f"range [{freq.min():.5f}, {freq.max():.5f}], asymmetry {gap:.5f} "
        f"-> {'PASS' if ok else 'FAIL'}",
    )
    assert tally.total == 1_000_000
    assert in_range, f"pair frequencies [{freq.min():.5f}, {freq.max():.5f}] leave [0.009, 0.011]"
    assert symmetric, f"largest |f(i,j) - f(j,i)| = {gap:.5f} exceeds 0.001"


def test_criterion_5_root_exactness(capsys):
    rng = random.Random(20260819)
    degrees = (2, 3, 5, 7, 11, 13)
    checked = 0
    for _ in range(10_000):
        x = rng.randrange(10 ** rng.randint(1, 200))
        r = rng.choice(degrees)
        t = int_nth_root(x, r)
        assert t**r <= x < (t + 1) ** r, f"bracket broken at x={x}, r={r}"
        checked += 1
    _announce(
        capsys,
        f"[acceptance] criterion 5 (integer roots): {checked} random brackets up to 10^200 -> PASS",
    )
    assert checked == 10_000


def test_criterion_6_chi_square_criticals(capsys):
    published = {3: 7.815, 7: 14.07, 15: 25.00, 31: 44.99}
    got = {dof: chi_square_critical(dof, 0.05) for dof in published}
    ok = all(f"{got[dof]:.4g}" == f"{ref:.4g}" for dof, ref in published.items())
    scipy_stats = pytest.importorskip("scipy.stats")
    for dof in published:
        assert got[dof] == pytest.approx(scipy_stats.chi2.ppf(0.95, dof), rel=1e-6)
    detail = " ".join(f"chi2({dof})={got[dof]:.4f}" for dof in sorted(published))
    _announce(
        capsys,
        f"[acceptance] criterion 6 (critical values): {detail} -> {'PASS' if ok else 'FAIL'}",
    )
    for dof, ref in published.items():
        assert f"{got[dof]:.4g}" == f"{ref:.4g}"


def test_criterion_7_determinism(capsys, tmp_path, child_env):
    n = 2_000_000
    first = StreamCache(DESK).prefix(n)
    second = StreamCache(DESK).prefix(n)
    multi = StreamCache(DESK).prefix(n, workers=3)
    library_ok = bool(
        np.array_equal(first, second)
        and np.array_equal(first, multi)
        and np.array_equal(generate_bits(DESK, 4096), generate_bits(DESK, 4096))
    )

    blobs = []
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rootrand", "gen-bits", "--count", "100000",
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    cli_ok = blobs[0] == blobs[1]
    ok = library_ok and cli_ok
    _announce(
        capsys,
        "[acceptance] criterion 7 (determinism): fresh caches, 3 workers and CLI reruns "
        f"agree -> {'PASS' if ok else 'FAIL'}",
    )
    assert library_ok
    assert cli_ok


def test_criterion_8_digit_uniformity(capsys):
    digits = bits_to_decimal(generate_bits(DESK, 64_000_000))[:10_000_000]
    assert digits.size == 10_000_000, "stream prefix must decode to at least 10^7 digits"
    critical = chi_square_critical(9, 0.05)
    passed = 0
    for s in range(100):
        segment = digits[s * 100_000 : (s + 1) * 100_000]
        stat = chi_square_statistic(np.bincount(segment, minlength=10), 10_000.0)
        passed += stat <= critical
    ok = passed >= 95
    _announce(
        capsys,
        f"[acceptance] criterion 8 (digit uniformity): {passed}/100 segments pass "
        f"chi-square(9) -> {'PASS' if ok else 'FAIL'}",
    )
    assert passed >= 95, f"only {passed} of 100 digit segments pass"
