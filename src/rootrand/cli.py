"""Command line front end.

    rootrand gen-bits --count 1000 --format ascii --out bits.txt
    rootrand gen-digits --count 200 --out digits.txt
    rootrand test --suite all --strings 1000 --out report.csv
    rootrand repro --scale desk --out repro_out

Every run writes a key = value manifest next to its output (suffix
.manifest) recording the effective configuration, the counts produced
and the files written. Reruns with the same configuration and arguments
produce byte-identical data files; manifests differ only in timing.

Config files are flat key = value text. Recognized keys: n_pairs,
rounds, precision_digits, skip_digits, block_index, and the optional
comma-separated prime lists c1, c2, degrees. Command line flags override
file values.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .generator import (
    ConfigError,
    GeneratorConfig,
    StreamCache,
    StreamExhausted,
    _schedule_tasks,
    digits_stream,
    generate_bits,
)
from .roots import _root_digits, int_nth_root
from .stats import (
    DEFAULT_STRING_LENGTHS,
    batch_test,
    chi_square_critical,
    chi_square_statistic,
    ones_count_distribution,
    pair_frequency_table,
)

__all__ = ["RunManifest", "main", "build_parser", "load_config_file", "resolve_config"]

_CONFIG_INT_KEYS = ("n_pairs", "rounds", "precision_digits", "skip_digits", "block_index")
_CONFIG_TUPLE_KEYS = ("c1", "c2", "degrees")

# Within-k-sigma percentages of the reference full-scale run, used by repro.
_REFERENCE_WITHIN = (68.27, 95.35, 99.72)
_WITHIN_TOLERANCE = 1.5
_NORMAL_WITHIN = (68.26895, 95.44997, 99.73002)

_FULL_SCALE_CONFIG = dict(n_pairs=10_000, rounds=10_000, precision_digits=100_000, skip_digits=50)


# ---------------------------------------------------------------------------
# configuration plumbing


def _config_value(where: str, key: str, value: str):
    """One config value from text: an int, or a comma-separated int list for c1, c2, degrees."""
    if key not in _CONFIG_INT_KEYS + _CONFIG_TUPLE_KEYS:
        raise ValueError(f"{where}: unknown config key {key!r}")
    try:
        if key in _CONFIG_TUPLE_KEYS:
            return tuple(int(v) for v in value.split(",") if v.strip())
        return int(value)
    except ValueError as exc:
        raise ValueError(f"{where}: config key {key!r}: {exc}") from None


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key = value config file into a field dict."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        values[key] = _config_value(f"{path}:{lineno}", key, value.strip())
    return values


def resolve_config(args) -> GeneratorConfig:
    """Merge defaults, an optional config file and command line flags."""
    values: dict = {}
    if getattr(args, "scale", None) == "paper":
        values.update(_FULL_SCALE_CONFIG)
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in _CONFIG_INT_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return GeneratorConfig(**values)


# ---------------------------------------------------------------------------
# run manifests


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI run, as flat key = value text."""

    command: str
    status: str
    config: GeneratorConfig
    options: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    outputs: tuple = ()
    timing_seconds: float = 0.0

    def to_text(self) -> str:
        lines = [f"command = {self.command}", f"status = {self.status}"]
        for key in _CONFIG_INT_KEYS:
            lines.append(f"config.{key} = {getattr(self.config, key)}")
        for key in _CONFIG_TUPLE_KEYS:
            value = getattr(self.config, key)
            if value is not None:
                lines.append(f"config.{key} = {','.join(str(v) for v in value)}")
        for key in sorted(self.options):
            lines.append(f"option.{key} = {self.options[key]}")
        for key in sorted(self.counts):
            lines.append(f"count.{key} = {self.counts[key]}")
        for i, out in enumerate(self.outputs):
            lines.append(f"output.{i} = {out}")
        lines.append(f"timing_seconds = {self.timing_seconds!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        command = status = ""
        config_values: dict = {}
        options: dict = {}
        counts: dict = {}
        outputs: list = []
        timing = 0.0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "command":
                command = value
            elif key == "status":
                status = value
            elif key.startswith("config."):
                name = key[len("config.") :]
                config_values[name] = _config_value(f"manifest line {lineno}", name, value)
            elif key.startswith("option."):
                options[key[len("option.") :]] = value
            elif key.startswith("count."):
                counts[key[len("count.") :]] = int(value)
            elif key.startswith("output."):
                outputs.append(value)
            elif key == "timing_seconds":
                timing = float(value)
        return cls(
            command=command,
            status=status,
            config=GeneratorConfig(**config_values),
            options=options,
            counts=counts,
            outputs=tuple(outputs),
            timing_seconds=timing,
        )

    def write(self, data_path: str | Path) -> Path:
        """Write next to data_path with the .manifest suffix appended."""
        path = Path(str(data_path) + ".manifest")
        path.write_text(self.to_text(), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_bits(args) -> int:
    config = resolve_config(args)
    start = time.perf_counter()
    bits = generate_bits(config, args.count, args.workers)
    out = Path(args.out)
    if args.format == "ascii":
        data = (bits + ord("0")).astype(np.uint8).tobytes() + b"\n"
    else:
        data = np.packbits(bits).tobytes()
    out.write_bytes(data)
    manifest = RunManifest(
        command="gen-bits",
        status="ok",
        config=config,
        options={"count": str(args.count), "format": args.format},
        counts={"bits": args.count, "bytes_written": len(data)},
        outputs=(str(out),),
        timing_seconds=time.perf_counter() - start,
    )
    manifest.write(out)
    print(f"wrote {args.count} bits ({args.format}) to {out}")
    return 0


def cmd_gen_digits(args) -> int:
    config = resolve_config(args)
    start = time.perf_counter()
    digits, consumed = digits_stream(config, args.count, args.workers)
    out = Path(args.out)
    out.write_bytes((digits + ord("0")).astype(np.uint8).tobytes() + b"\n")
    manifest = RunManifest(
        command="gen-digits",
        status="ok",
        config=config,
        options={"count": str(args.count)},
        counts={"digits": args.count, "bits_consumed": consumed},
        outputs=(str(out),),
        timing_seconds=time.perf_counter() - start,
    )
    manifest.write(out)
    print(f"wrote {args.count} digits to {out} ({consumed} bits consumed)")
    return 0


_CHI_SUITES = ("transitions", "dyads", "triads", "tetrads", "pentads")


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_pair_table(path: Path, tally) -> np.ndarray:
    """Write the 10x10 pair tally as one CSV row per digit pair; return its frequencies."""
    freq = tally.frequencies()
    _write_csv(
        path,
        ["left_digit", "right_digit", "count", "frequency"],
        [
            (i, j, int(tally.counts[i, j]), f"{freq[i, j]:.5f}")
            for i in range(10)
            for j in range(10)
        ],
    )
    return freq


def cmd_test(args) -> int:
    config = resolve_config(args)
    start = time.perf_counter()
    run_chi = [s for s in _CHI_SUITES if args.suite in (s, "all")]
    run_pairs = args.suite in ("pairs", "all")
    run_dist = args.suite in ("distribution", "all")

    out = Path(args.out)
    base = out.with_suffix("")
    outputs = []
    lines = [f"stream test report (alpha={args.alpha})", ""]

    if run_chi:
        results = [
            batch_test(config, suite, args.strings, DEFAULT_STRING_LENGTHS[suite], args.alpha,
                       args.workers, keep_reports=True)
            for suite in run_chi
        ]
        _write_csv(
            out,
            ["suite", "n_strings", "string_length", "passed", "failed", "failed_percent", "alpha"],
            [
                (r.test, r.n_strings, r.string_length, r.passed, r.failed,
                 f"{r.failed_percent:.4f}", r.alpha)
                for r in results
            ],
        )
        outputs.append(str(out))
        string_rows = []
        for r in results:
            for i, rep in enumerate(r.reports):
                string_rows.append(
                    (r.test, i, f"{rep.statistic:.6f}", f"{rep.critical:.7f}", rep.dof, int(rep.passed))
                )
        strings_path = Path(str(base) + "_strings.csv")
        _write_csv(strings_path, ["suite", "string_index", "statistic", "critical", "dof", "passed"], string_rows)
        outputs.append(str(strings_path))
        lines.append(f"{'suite':<12}{'length':>8}{'strings':>9}{'passed':>8}{'failed':>8}{'failed %':>10}")
        for r in results:
            lines.append(
                f"{r.test:<12}{r.string_length:>8}{r.n_strings:>9}{r.passed:>8}{r.failed:>8}"
                f"{r.failed_percent:>10.2f}"
            )
        lines.append("")

    if run_pairs:
        tally = pair_frequency_table(config, args.pairs)
        pairs_path = Path(str(base) + "_pairs.csv")
        freq = _write_pair_table(pairs_path, tally)
        outputs.append(str(pairs_path))
        off = ~np.eye(10, dtype=bool)
        lines.append(f"digit pairs: {tally.total} compared")
        lines.append(f"  off-diagonal frequency range [{freq[off].min():.5f}, {freq[off].max():.5f}]")
        lines.append(f"  tie frequency range [{freq[~off].min():.5f}, {freq[~off].max():.5f}]")
        gap = float(np.abs(freq - freq.T).max())
        lines.append(f"  largest swap asymmetry {gap:.5f}")
        lines.append("")

    if run_dist:
        summary = ones_count_distribution(config, args.strings, 1000, args.workers)
        dist_path = Path(str(base) + "_distribution.csv")
        _write_csv(
            dist_path,
            ["name", "value"],
            [
                ("n_strings", summary.n_strings),
                ("string_length", summary.string_length),
                ("mean", summary.mean),
                ("sigma", f"{summary.sigma:.6f}"),
                ("observed_mean", f"{summary.observed_mean:.4f}"),
                ("within_1s", f"{summary.within_1s:.4f}"),
                ("within_2s", f"{summary.within_2s:.4f}"),
                ("within_3s", f"{summary.within_3s:.4f}"),
            ],
        )
        outputs.append(str(dist_path))
        lines.append(
            f"ones counts over {summary.n_strings} strings of {summary.string_length}: "
            f"within 1/2/3 sigma = {summary.within_1s:.2f}% / {summary.within_2s:.2f}% / "
            f"{summary.within_3s:.2f}%"
        )
        lines.append("")

    txt_path = Path(str(base) + ".txt")
    txt_path.write_text("\n".join(lines), encoding="utf-8")
    outputs.append(str(txt_path))
    print("\n".join(lines))

    manifest = RunManifest(
        command="test",
        status="ok",
        config=config,
        options={"suite": args.suite, "strings": str(args.strings), "alpha": str(args.alpha),
                 "pairs": str(args.pairs)},
        counts={"suites_run": len(run_chi) + int(run_pairs) + int(run_dist)},
        outputs=tuple(outputs),
        timing_seconds=time.perf_counter() - start,
    )
    manifest.write(out)
    return 0


def _binomial_band(n: int, p: float = 0.05) -> tuple[int, int]:
    # Outward-rounded 3 sigma band around the binomial mean.
    mu = n * p
    sigma = math.sqrt(n * p * (1 - p))
    return max(0, math.floor(mu - 3 * sigma)), math.ceil(mu + 3 * sigma)


def _worked_example_check():
    config = GeneratorConfig(
        n_pairs=1, rounds=1, precision_digits=100, skip_digits=50,
        c1=(5,), c2=(17,), degrees=(3,),
    )
    bits = StreamCache(config).prefix(3)
    ok = bits.tolist() == [0, 1, 0]
    return ok, f"first bits of the 5 vs 17 cube-root pairing: {''.join(map(str, bits.tolist()))}"


def _root_spot_check(samples: int = 500):
    rng = np.random.default_rng(20260819)
    for _ in range(samples):
        digits = int(rng.integers(1, 120))
        x = int(rng.integers(0, 10 ** min(digits, 18))) * 10 ** max(0, digits - 18)
        r = int(rng.choice([2, 3, 5, 7, 11]))
        t = int_nth_root(x, r)
        if not (t ** r <= x < (t + 1) ** r):
            return False, f"floor root bracket failed at x={x}, r={r}"
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


def _digit_uniformity(config, segments, segment_len, alpha, workers):
    digits, _ = digits_stream(config, segments * segment_len, workers)
    critical = chi_square_critical(9, alpha)
    statistics = []
    for s in range(segments):
        seg = digits[s * segment_len : (s + 1) * segment_len]
        statistics.append(chi_square_statistic(np.bincount(seg, minlength=10), segment_len / 10.0))
    passed = sum(stat <= critical for stat in statistics)
    return passed, critical, statistics


def cmd_repro(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    config = resolve_config(args)
    full_scale = args.scale == "paper"

    strings = args.strings if args.strings is not None else 1000
    dist_strings = args.dist_strings if args.dist_strings is not None else (100_000 if full_scale else 10_000)
    pairs = args.pairs if args.pairs is not None else (50_000_000 if full_scale else 1_000_000)
    segments = args.segments if args.segments is not None else 100

    if full_scale and not args.yes:
        plan = _full_scale_plan(config, strings, dist_strings, pairs)
        plan_path = out_dir / "plan.txt"
        plan_path.write_text(plan, encoding="utf-8")
        manifest = RunManifest(
            command="repro",
            status="plan-only",
            config=config,
            options={"scale": args.scale, "yes": "false"},
            counts={"strings": strings, "dist_strings": dist_strings, "pairs": pairs},
            outputs=(str(plan_path),),
            timing_seconds=time.perf_counter() - start,
        )
        manifest.write(out_dir / "repro")
        print(plan)
        print(f"plan written to {plan_path}; rerun with --yes to execute")
        return 0

    checks: list[tuple[str, bool, str]] = []
    outputs: list[str] = []

    ok, detail = _worked_example_check()
    checks.append(("worked-example bits", ok, detail))
    ok, detail = _root_spot_check()
    checks.append(("integer root brackets", ok, detail))
    ok, detail = _chi2_check()
    checks.append(("chi-square critical values", ok, detail))
    ok, detail = _determinism_check(config, args.workers)
    checks.append(("determinism and workers", ok, detail))

    results = [
        batch_test(config, suite, strings, DEFAULT_STRING_LENGTHS[suite], args.alpha, args.workers)
        for suite in _CHI_SUITES
    ]
    lo, hi = _binomial_band(strings, args.alpha)
    battery_path = out_dir / "table_battery.csv"
    _write_csv(
        battery_path,
        ["suite", "n_strings", "string_length", "passed", "failed", "failed_percent",
         "band_low", "band_high"],
        [
            (r.test, r.n_strings, r.string_length, r.passed, r.failed,
             f"{r.failed_percent:.4f}", lo, hi)
            for r in results
        ],
    )
    outputs.append(str(battery_path))
    for r in results:
        ok = lo <= r.failed <= hi
        checks.append(
            (f"battery {r.test}", ok, f"failed {r.failed}/{r.n_strings}, band [{lo}, {hi}]")
        )

    summary = ones_count_distribution(config, dist_strings, 1000, args.workers)
    dist_path = out_dir / "table_distribution.csv"
    observed = (summary.within_1s, summary.within_2s, summary.within_3s)
    _write_csv(
        dist_path,
        ["band", "observed_percent", "reference_percent", "normal_percent"],
        [
            (k, f"{obs:.4f}", ref, norm)
            for k, (obs, ref, norm) in enumerate(zip(observed, _REFERENCE_WITHIN, _NORMAL_WITHIN), start=1)
        ],
    )
    outputs.append(str(dist_path))
    for k, (obs, ref) in enumerate(zip(observed, _REFERENCE_WITHIN), start=1):
        ok = abs(obs - ref) <= _WITHIN_TOLERANCE
        checks.append(
            (f"ones within {k} sigma", ok, f"{obs:.2f}% vs reference {ref}% (tol {_WITHIN_TOLERANCE})")
        )

    tally = pair_frequency_table(config, pairs)
    pairs_path = out_dir / "table_pairs.csv"
    freq = _write_pair_table(pairs_path, tally)
    outputs.append(str(pairs_path))
    in_range = bool(freq.min() >= 0.009 and freq.max() <= 0.011)
    checks.append(
        ("pair frequencies near 0.01", in_range,
         f"range [{freq.min():.5f}, {freq.max():.5f}] over {tally.total} pairs")
    )
    gap = float(np.abs(freq - freq.T).max())
    checks.append(("pair swap symmetry", gap <= 0.001, f"largest |f(i,j) - f(j,i)| = {gap:.5f}"))

    seg_len = 100_000
    passed, critical, statistics = _digit_uniformity(config, segments, seg_len, args.alpha, args.workers)
    seg_path = out_dir / "digit_segments.csv"
    _write_csv(
        seg_path,
        ["segment", "statistic", "critical", "passed"],
        [
            (i, f"{stat:.4f}", f"{critical:.7f}", int(stat <= critical))
            for i, stat in enumerate(statistics)
        ],
    )
    outputs.append(str(seg_path))
    need = math.ceil(0.95 * segments)
    checks.append(
        ("decimal digit uniformity", passed >= need,
         f"{passed}/{segments} segments of {seg_len} digits pass chi-square(9)")
    )

    all_ok = all(ok for _, ok, _ in checks)
    lines = [f"reproduction run, scale={args.scale}", ""]
    for name, ok, detail in checks:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    lines.append("")
    lines.append(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed")
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs.append(str(summary_path))
    print("\n".join(lines))

    manifest = RunManifest(
        command="repro",
        status="ok" if all_ok else "checks-failed",
        config=config,
        options={"scale": args.scale, "yes": str(bool(args.yes)).lower()},
        counts={
            "strings": strings,
            "dist_strings": dist_strings,
            "pairs": pairs,
            "segments": segments,
            "checks_passed": sum(ok for _, ok, _ in checks),
            "checks_total": len(checks),
        },
        outputs=tuple(outputs),
        timing_seconds=time.perf_counter() - start,
    )
    manifest.write(out_dir / "repro")
    return 0 if all_ok else 1


def _full_scale_plan(config, strings, dist_strings, pairs) -> str:
    window = config.window
    bits_needed = max(strings * DEFAULT_STRING_LENGTHS["pentads"], dist_strings * 1000)
    entries_bits = math.ceil(bits_needed / (0.9 * window))
    entries_pairs = math.ceil(pairs / window)
    # The pair table walks the schedule from its start again after the
    # battery has cycled the digit cache, so its entries' roots count apart.
    roots = 2 * (entries_bits + entries_pairs)
    # Root cost grows steeply with the degree, so time one uncached root
    # per degree the planned entries use and weight it by their number.
    per_degree = Counter()
    for entries in (entries_bits, entries_pairs):
        per_degree.update(task[2] for task in itertools.islice(_schedule_tasks(config), entries))
    per_root = {}
    for degree in sorted(per_degree):
        t0 = time.perf_counter()
        _root_digits(10007, degree, config.precision_digits)
        per_root[degree] = time.perf_counter() - t0
    root_time = sum(2 * n * per_root[degree] for degree, n in per_degree.items())
    est = root_time * 1.05  # digit compares add up to about 5% to the time of their roots
    return "\n".join(
        [
            "full-scale reproduction plan",
            "",
            f"  n_pairs           {config.n_pairs}",
            f"  rounds            {config.rounds}",
            f"  precision_digits  {config.precision_digits}",
            f"  skip_digits       {config.skip_digits}",
            f"  battery strings   {strings} per test",
            f"  distribution      {dist_strings} strings of 1000",
            f"  digit pairs       {pairs}",
            "",
            f"  bits needed       {bits_needed}",
            f"  schedule entries  about {entries_bits} for the stream, {entries_pairs} for the pair table",
            f"  roots to extract  about {roots}",
            f"  measured root time at {config.precision_digits} digits, per degree:",
            *(
                f"    r={degree:<5} {per_root[degree] * 1000:9.1f} ms  x {2 * n} roots"
                for degree, n in sorted(per_degree.items())
            ),
            f"  estimated runtime about {max(1, math.ceil(est / 60))} min single process",
            "",
            "  note: these tables consume a stream prefix; generating the",
            "  complete concatenation of every schedule entry at this scale",
            "  is many orders of magnitude larger and is not attempted.",
        ]
    )


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--n-pairs", dest="n_pairs", type=int, help="prime pairs per set")
    parser.add_argument("--rounds", type=int, help="pairing rounds per block")
    parser.add_argument("--precision", dest="precision_digits", type=int, help="fractional digits per root")
    parser.add_argument("--skip", dest="skip_digits", type=int, help="leading fractional digits to skip (40..100)")
    parser.add_argument("--block", dest="block_index", type=int, help="starting prime block index")
    parser.add_argument("--workers", type=int, default=1, help="processes for digit extraction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootrand",
        description="random bits from digit comparisons of prime roots of primes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bits", help="write a bit stream prefix to a file")
    _add_config_flags(p)
    p.add_argument("--count", type=int, required=True, help="bits to generate")
    p.add_argument("--format", choices=("ascii", "packed"), default="ascii")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_gen_bits)

    p = sub.add_parser("gen-digits", help="write decimal digits decoded from the stream")
    _add_config_flags(p)
    p.add_argument("--count", type=int, required=True, help="digits to generate")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_gen_digits)

    p = sub.add_parser("test", help="run statistical tests on the stream")
    _add_config_flags(p)
    p.add_argument(
        "--suite",
        choices=_CHI_SUITES + ("distribution", "pairs", "all"),
        default="all",
    )
    p.add_argument("--strings", type=int, default=1000, help="strings per test")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--pairs", type=int, default=1_000_000, help="digit pairs for the pair table")
    p.add_argument("--out", required=True, help="summary CSV path; siblings derive from it")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("repro", help="rerun the reference checks and tables")
    _add_config_flags(p)
    p.add_argument("--scale", choices=("desk", "paper"), default="desk")
    p.add_argument("--out", default="repro_out", help="output directory")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--strings", type=int, default=None, help="battery strings per test")
    p.add_argument("--dist-strings", dest="dist_strings", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--segments", type=int, default=None, help="digit uniformity segments")
    p.add_argument("--yes", action="store_true", help="confirm the full-scale run")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StreamExhausted, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
