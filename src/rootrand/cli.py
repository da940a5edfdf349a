"""Command line front end.

    rootrand gen-bits --count 1000 --format ascii --out bits.txt
    rootrand gen-digits --count 200 --out digits.txt
    rootrand test --suite all --strings 1000 --out report.csv
    rootrand repro --scale desk --out repro_out

Every run writes a key = value manifest next to its output (suffix
.manifest) recording the effective configuration, every parsed flag
(option.*), the counts produced and the files written. Reruns with the
same configuration and arguments produce byte-identical data files;
manifests differ only in timing.

Each subcommand only computes: it returns its files and its report to
main, which checks the flags, writes every file, prints the report and
writes the manifest.

Config files are flat key = value text. Recognized keys: n_pairs,
rounds, precision_digits, skip_digits, block_index, and the optional
comma-separated prime lists c1, c2, degrees. Command line flags override
file values.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._checks import int_arg
from .generator import ConfigError, GeneratorConfig, StreamExhausted, digits_stream, generate_bits
from .stats import (
    DEFAULT_STRING_LENGTHS,
    batch_test,
    ones_count_distribution,
    pair_frequency_table,
    repro_plan,
    repro_report,
)

__all__ = ["RunManifest", "main", "build_parser", "load_config_file", "resolve_config"]

_CONFIG_INT_KEYS = ("n_pairs", "rounds", "precision_digits", "skip_digits", "block_index")
_CONFIG_TUPLE_KEYS = ("c1", "c2", "degrees")

_COUNT_FLAGS = ("count", "strings", "dist_strings", "pairs", "segments", "workers")
# Parsed arguments the manifest leaves out of option.*: the config keys are
# recorded as config.* already.
_UNRECORDED_ARGS = ("command", "func", "config", *_CONFIG_INT_KEYS)

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

# How each group of "group.key = value" manifest lines reads back from text.
_MANIFEST_READERS = {
    "config": _config_value,
    "option": lambda where, key, value: value,
    "count": lambda where, key, value: int(value),
    "output": lambda where, key, value: value,
}


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
        config = {key: getattr(self.config, key) for key in _CONFIG_INT_KEYS + _CONFIG_TUPLE_KEYS}
        groups = {
            "config": {key: ",".join(map(str, value)) if isinstance(value, tuple) else value
                       for key, value in config.items() if value is not None},
            "option": dict(sorted(self.options.items())),
            "count": dict(sorted(self.counts.items())),
            "output": dict(enumerate(self.outputs)),
        }
        lines = [f"command = {self.command}", f"status = {self.status}"]
        lines += [f"{group}.{key} = {value}" for group, values in groups.items() for key, value in values.items()]
        lines.append(f"timing_seconds = {self.timing_seconds!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        fields = {"command": "", "status": "", "timing_seconds": "0.0"}
        groups: dict = {group: {} for group in _MANIFEST_READERS}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            key, _, value = raw.partition("=")
            key, value = key.strip(), value.strip()
            group, dot, name = key.partition(".")
            if dot and group in groups:
                groups[group][name] = _MANIFEST_READERS[group](f"manifest line {lineno}", name, value)
            elif key in fields:
                fields[key] = value
        return cls(fields["command"], fields["status"], GeneratorConfig(**groups["config"]), groups["option"],
                   groups["count"], tuple(groups["output"].values()), float(fields["timing_seconds"]))

    def write(self, data_path: str | Path) -> Path:
        """Write next to data_path with the .manifest suffix appended."""
        path = Path(str(data_path) + ".manifest")
        path.write_text(self.to_text(), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand takes the parsed arguments and the resolved config and only
# computes. It returns (manifest data path, status, counts, files, text):
# files maps each path to bytes, a text report or a (header, rows) table.
# main writes the files, prints the text and records the counts, the files
# and every parsed flag in the run's manifest. So a stream that runs short
# leaves no partial output.


def cmd_gen_bits(args, config):
    bits = generate_bits(config, args.count, args.workers)
    out = Path(args.out)
    if args.format == "ascii":
        data = (bits + ord("0")).astype(np.uint8).tobytes() + b"\n"
    else:
        data = np.packbits(bits).tobytes()
    return (out, "ok", {"bits": args.count, "bytes_written": len(data)}, {out: data},
            f"wrote {args.count} bits ({args.format}) to {out}")


def cmd_gen_digits(args, config):
    digits, consumed = digits_stream(config, args.count, args.workers)
    out = Path(args.out)
    return (out, "ok", {"digits": args.count, "bits_consumed": consumed},
            {out: (digits + ord("0")).astype(np.uint8).tobytes() + b"\n"},
            f"wrote {args.count} digits to {out} ({consumed} bits consumed)")


_CHI_SUITES = tuple(DEFAULT_STRING_LENGTHS)


def _write_files(files: dict) -> list[str]:
    """Write each path's content: bytes and a text report as they are, a (header, rows) table as CSV; return the paths."""
    for path, content in files.items():
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            header, rows = content
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
    return [str(path) for path in files]


def _battery_table(results, **extra):
    """BatchResults as a CSV header and one row per suite, each row ending in the extra columns."""
    header = ["suite", "n_strings", "string_length", "passed", "failed", "failed_percent", *extra]
    return header, [(r.test, r.n_strings, r.string_length, r.passed, r.failed, f"{r.failed_percent:.4f}",
                     *extra.values()) for r in results]


def _pair_table(tally):
    """The 10x10 pair tally as a CSV header and one row per digit pair."""
    freq = tally.frequencies()
    rows = [(i, j, int(tally.counts[i, j]), f"{freq[i, j]:.5f}") for i in range(10) for j in range(10)]
    return ["left_digit", "right_digit", "count", "frequency"], rows


def cmd_test(args, config):
    run_chi = [s for s in _CHI_SUITES if args.suite in (s, "all")]
    run_pairs = args.suite in ("pairs", "all")
    run_dist = args.suite in ("distribution", "all")
    results = [
        batch_test(config, suite, args.strings, DEFAULT_STRING_LENGTHS[suite], args.alpha,
                   args.workers, keep_reports=True)
        for suite in run_chi
    ]
    tally = pair_frequency_table(config, args.pairs, args.workers) if run_pairs else None
    summary = ones_count_distribution(config, args.strings, 1000, args.workers) if run_dist else None

    out = Path(args.out)
    base = str(out.with_suffix(""))
    files = {}
    lines = [f"stream test report (alpha={args.alpha})", ""]

    if run_chi:
        files[out] = _battery_table(results, alpha=args.alpha)
        files[Path(base + "_strings.csv")] = (
            ["suite", "string_index", "statistic", "critical", "dof", "passed"],
            [(r.test, i, f"{rep.statistic:.6f}", f"{rep.critical:.7f}", rep.dof, int(rep.passed))
             for r in results for i, rep in enumerate(r.reports)],
        )
        lines.append(f"{'suite':<12}{'length':>8}{'strings':>9}{'passed':>8}{'failed':>8}{'failed %':>10}")
        lines += [f"{r.test:<12}{r.string_length:>8}{r.n_strings:>9}{r.passed:>8}{r.failed:>8}"
                  f"{r.failed_percent:>10.2f}" for r in results]
        lines.append("")

    if tally is not None:
        files[Path(base + "_pairs.csv")] = _pair_table(tally)
        (off_lo, off_hi), (tie_lo, tie_hi) = tally.off_diagonal_range(), tally.tie_range()
        lines += [
            f"digit pairs: {tally.total} compared",
            f"  off-diagonal frequency range [{off_lo:.5f}, {off_hi:.5f}]",
            f"  tie frequency range [{tie_lo:.5f}, {tie_hi:.5f}]",
            f"  largest swap asymmetry {tally.asymmetry():.5f}",
            "",
        ]

    if summary is not None:
        files[Path(base + "_distribution.csv")] = (["name", "value"], [
            ("n_strings", summary.n_strings),
            ("string_length", summary.string_length),
            ("mean", summary.mean),
            ("sigma", f"{summary.sigma:.6f}"),
            ("observed_mean", f"{summary.observed_mean:.4f}"),
            ("within_1s", f"{summary.within_1s:.4f}"),
            ("within_2s", f"{summary.within_2s:.4f}"),
            ("within_3s", f"{summary.within_3s:.4f}"),
        ])
        lines += [
            f"ones counts over {summary.n_strings} strings of {summary.string_length}: "
            f"within 1/2/3 sigma = {summary.within_1s:.2f}% / {summary.within_2s:.2f}% / "
            f"{summary.within_3s:.2f}%",
            "",
        ]

    text = "\n".join(lines)
    files[Path(base + ".txt")] = text
    return out, "ok", {"suites_run": len(run_chi) + int(run_pairs) + int(run_dist)}, files, text


def cmd_repro(args, config):
    full_scale = args.scale == "paper"
    dist_strings = args.dist_strings if args.dist_strings is not None else (100_000 if full_scale else 10_000)
    pairs = args.pairs if args.pairs is not None else (50_000_000 if full_scale else 1_000_000)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {"strings": args.strings, "dist_strings": dist_strings, "pairs": pairs, "segments": args.segments}

    if full_scale and not args.yes:
        plan = _plan_text(config, repro_plan(config, args.strings, dist_strings, pairs, args.segments), counts)
        return (out_dir / "repro", "plan-only", counts, {out_dir / "plan.txt": plan},
                f"{plan}\nplan written to {out_dir / 'plan.txt'}; rerun with --yes to execute")

    tables, checks = repro_report(config, args.strings, dist_strings, pairs, args.segments, args.alpha,
                                  args.workers)
    lo, hi = tables["band"]
    passed = sum(ok for _, ok, _ in checks)
    lines = [f"reproduction run, scale={args.scale}", ""]
    lines += [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in checks]
    lines += ["", f"{passed}/{len(checks)} checks passed"]
    text = "\n".join(lines)
    files = {
        out_dir / "table_battery.csv": _battery_table(tables["battery"], band_low=lo, band_high=hi),
        out_dir / "table_distribution.csv": (
            ["band", "observed_percent", "reference_percent", "normal_percent"],
            [(k, f"{obs:.4f}", ref, norm) for k, (obs, ref, norm) in enumerate(tables["distribution"], start=1)],
        ),
        out_dir / "table_pairs.csv": _pair_table(tables["pairs"]),
        out_dir / "digit_segments.csv": (
            ["segment", "statistic", "critical", "passed"],
            [(i, f"{rep.statistic:.4f}", f"{rep.critical:.7f}", int(rep.passed))
             for i, rep in enumerate(tables["segments"])],
        ),
        out_dir / "summary.txt": text + "\n",
    }
    counts.update(checks_passed=passed, checks_total=len(checks))
    return out_dir / "repro", "ok" if passed == len(checks) else "checks-failed", counts, files, text


def _plan_text(config, plan, counts) -> str:
    """repro_plan's numbers for the run's counts as the plan.txt report."""
    return "\n".join([
        "full-scale reproduction plan",
        "",
        f"  n_pairs           {config.n_pairs}",
        f"  rounds            {config.rounds}",
        f"  precision_digits  {config.precision_digits}",
        f"  skip_digits       {config.skip_digits}",
        f"  battery strings   {counts['strings']} per test",
        f"  distribution      {counts['dist_strings']} strings of 1000",
        f"  digit pairs       {counts['pairs']}",
        f"  digit segments    {counts['segments']}, {plan['digits']} digits",
        "",
        f"  bits needed       {plan['bits_needed']}",
        f"  schedule entries  about {plan['entries_bits']} for the stream, "
        f"{plan['entries_pairs']} for the pair table",
        f"  roots to extract  about {plan['roots']}",
        f"  one root timed at {config.precision_digits} digits, per degree:",
        *(f"    r={degree:<5} {seconds * 1000:9.1f} ms  x {n} roots"
          for degree, (n, seconds) in plan["per_degree"].items()),
        f"  estimated runtime about {max(1, math.ceil(plan['estimate_s'] / 60))} min single process",
        "",
        "  note: these tables consume a stream prefix; generating the",
        "  complete concatenation of every schedule entry at this scale",
        "  is many orders of magnitude larger and is not attempted.",
    ])


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
    p.add_argument("--strings", type=int, default=1000, help="battery strings per test")
    p.add_argument("--dist-strings", dest="dist_strings", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--segments", type=int, default=100, help="digit uniformity segments")
    p.add_argument("--yes", action="store_true", help="confirm the full-scale run")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        # Every flag is checked under its own name before any stream work or file.
        for key in _COUNT_FLAGS:
            if getattr(args, key, None) is not None:
                int_arg("--" + key.replace("_", "-"), getattr(args, key), 1)
        if not 0.0 < getattr(args, "alpha", 0.5) < 1.0:
            raise ValueError("--alpha must lie strictly between 0 and 1")
        config = resolve_config(args)
        path, status, counts, files, text = args.func(args, config)
        outputs = _write_files(files)
        print(text)
        options = {key: str(value) for key, value in vars(args).items()
                   if key not in _UNRECORDED_ARGS and value is not None}
        RunManifest(args.command, status, config, options, counts, tuple(outputs),
                    timing_seconds=time.perf_counter() - start).write(path)
    except (ConfigError, StreamExhausted, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A repro check that fails is a result, not an error: its files are written.
    return 1 if status == "checks-failed" else 0


if __name__ == "__main__":
    sys.exit(main())
