"""rootrand benchmark: cold-process CLI workloads and a traced per-layer replay.

    python3 perfbench/run.py --workload degree-mix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

With ``--trace 0`` the workload's CLI command runs again and again, each
time in a fresh interpreter and on the next prime block, for about
``--seconds`` (at least twice), and the end-to-end metrics are reported as
medians. With
``--trace 1`` it runs once untraced and once as a traced single-process
replay, and the per-layer metrics are reported. ``--workload all`` does both
for every workload. The correctness gate (gate.py) runs outside the timed
region; any failed check makes the run incorrect and the exit code 1. The
last line of standard output is a JSON summary. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import (OUT, ROOT, SKIP, SRC, WORKLOADS, block_for_seed, cli_argv, fresh_dir, generator_config,
                  output_digest, root_metric, run_child, stream_bits)

PINS = Path(__file__).with_name("pinned.json")
MIN_RUNS = 2


def declared_units(kind: str) -> dict:
    """Metric names and units of one kind, in report order, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


def environment(gmpy2_importable: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not found)"
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "gmpy2_importable": gmpy2_importable,
        "root_backend": "fallback (pure-integer Newton; gmpy2 blocked in every measured process)",
        "gmpy2_on": "not measured on this machine",
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def properties(w: dict, block: int) -> dict:
    """Root calls the command will make, predicted from schedule() alone.

    Assumes the expected 10% tie rate, so about 0.9 stream bits per digit.
    """
    from rootrand import schedule

    window = w["precision"] - SKIP

    def walk(n):
        entries, b = [], block
        while len(entries) < n:
            entries += schedule(generator_config(w, b))
            b += 1
        return entries[:n]

    entries = walk(math.ceil(stream_bits(w) / (0.9 * window)))
    if w["command"] == "test":
        entries += walk(math.ceil(w["pairs"] / window))  # the pair table walks the schedule again
    calls = [(p, e.root_degree) for e in entries for p in (e.left, e.right)]
    share: dict[str, float] = {}
    for _, r in calls:
        key = root_metric(r, w["precision"]).removeprefix("roots.root_s.")
        share[key] = share.get(key, 0.0) + 1 / len(calls)
    return {"root_calls": len(calls), "share": share, "repeat_share": 1 - len(set(calls)) / len(calls)}


def measure_e2e(name: str, w: dict, seed: int, seconds: float, scale: str, pins: dict, tally) -> dict:
    import gate

    gate.check_anchor(tally)
    samples = []
    started = time.monotonic()
    # Start another run only while it should end within the time budget.
    while len(samples) < MIN_RUNS or time.monotonic() - started + samples[-1]["wall_s"] <= seconds:
        # Each run takes the next block, so the median spans several inputs.
        block = block_for_seed(seed + len(samples))
        out_dir = fresh_dir("run")
        child = run_child({"mode": "run", "argv": cli_argv(w, block, out_dir)})
        label = f"timed run {len(samples)}"
        tally.check(f"{label} exit code", child["rc"] == 0, f"rc {child['rc']}")
        tally.check(f"{label} cold start", child["cold"] and child["backend"] == "fallback",
                    f"cold={child['cold']} backend={child['backend']}")
        gate.check_digest(tally, pins, scale, name, block, output_digest(out_dir), label)
        if not samples:
            first_stream = output_stream(w, out_dir)
        wall = child["end"] - child["start"]
        samples.append({
            "pid": child["pid"],
            "block": block,
            "cold": child["cold"],
            "wall_s": wall,
            "bits_per_s": stream_bits(w) / wall,
            "cpu_s": child["self_cpu"] + child["child_cpu"],
            "peak_rss_mb": child["maxrss_kb"] / 1024,
            "setup_s": child["imported"] - child["spawned"],
        })
    # The mpmath cross-check takes seconds at 100k digits, so it stays out of the time budget.
    gate.check_entry(tally, w, samples[0]["block"], seed, first_stream)
    series = {key: [s[key] for s in samples] for key in ("wall_s", "bits_per_s", "cpu_s", "peak_rss_mb", "setup_s")}
    return {"samples": samples, "series": series}


def output_stream(w: dict, out_dir: Path):
    import numpy as np

    if w["command"] != "gen-bits":
        return None
    packed = np.frombuffer((out_dir / "bits.bin").read_bytes(), dtype=np.uint8)
    return np.unpackbits(packed, count=w["bits"])


def measure_layers(name: str, w: dict, seed: int, scale: str, pins: dict, tally) -> dict:
    import gate

    block = block_for_seed(seed)
    gate.check_anchor(tally)
    plain_dir = fresh_dir("plain")
    plain = run_child({"mode": "run", "argv": cli_argv(w, block, plain_dir)})
    tally.check("untraced run exit code", plain["rc"] == 0, f"rc {plain['rc']}")
    gate.check_digest(tally, pins, scale, name, block, output_digest(plain_dir), "untraced run")
    gate.check_entry(tally, w, block, seed, output_stream(w, plain_dir))
    replay_dir = fresh_dir("replay")
    replay = run_child({"mode": "replay", "argv": cli_argv(w, block, replay_dir, workers=1),
                        "workload": w, "block": block})
    tally.check("replay exit code", replay["rc"] == 0, f"rc {replay['rc']}")
    gate.check_digest(tally, pins, scale, name, block, output_digest(replay_dir), "replay")
    tally.check("replay stream rebuilt from its digit windows", replay["stream_ok"],
                "schedule/operator_O/concat over the replay's windows differ from generate_bits")
    wall = plain["end"] - plain["start"]
    serial_wall = wall
    if w["workers"] > 1:
        # The replay runs one worker; its overhead is measured against an untraced run that does too.
        serial_dir = fresh_dir("serial")
        serial = run_child({"mode": "run", "argv": cli_argv(w, block, serial_dir, workers=1)})
        tally.check("untraced serial run exit code", serial["rc"] == 0, f"rc {serial['rc']}")
        gate.check_digest(tally, pins, scale, name, block, output_digest(serial_dir), "untraced serial run")
        serial_wall = serial["end"] - serial["start"]
    worker_cpu = plain["child_cpu"] if w["workers"] > 1 else plain["self_cpu"]
    files = [p for p in plain_dir.iterdir() if p.is_file()]
    metrics = dict(replay["metrics"])
    metrics.update({
        "generator.pool_speedup": replay["replay_s"] / wall,
        "generator.worker_util": worker_cpu / (w["workers"] * wall),
        "generator.wait_s": wall - plain["self_cpu"],
        "cli.bytes_written": sum(p.stat().st_size for p in files),
        "cli.files_written": len(files),
        "trace.overhead_share": replay["replay_s"] / serial_wall - 1,
    })
    return {"metrics": metrics, "probes": replay["probes"], "serial_s": serial_wall,
            "replay_s": replay["replay_s"], "span_cost_share": replay["span_cost_share"]}


# ---------------------------------------------------------------------------
# reporting


def high_percentile(values):
    """The highest percentile with at least ten samples above it, as (p, value)."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(0, math.ceil(p / 100 * n) - 1)]


def print_e2e(name: str, series: dict, tally, units: dict):
    print(f"\nend-to-end, {name}")
    print(f"  {'metric':<14}{'unit':<8}{'median':>14}  {'highest percentile':<26}{'n':>4}")
    for key, unit in units.items():
        values = series[key]
        hp = high_percentile(values)
        hp_text = f"p{hp[0]} {hp[1]:.6g}" if hp else "none (n < 11)"
        print(f"  {key:<14}{unit:<8}{statistics.median(values):>14.6g}  {hp_text:<26}{len(values):>4}")
    share = tally.failed / tally.attempted
    print(f"  {'fail_share':<14}{'share':<8}{share:>14.6g}  {'-':<26}{tally.attempted:>4}")


def print_layers(name: str, result: dict, units: dict):
    print(f"\nper-layer (traced single-process replay), {name}")
    for key, unit in units.items():
        note = "  (probe: not run by this workload)" if key in result["probes"] else ""
        print(f"  {key:<32}{unit:<7}{result['metrics'][key]:>16.6g}{note}")
    print(f"  tracing overhead: traced replay {result['replay_s']:.3f} s vs untraced single-worker wall_s "
          f"{result['serial_s']:.3f} s; spans x the cost of one wrapped call: "
          f"{100 * result['span_cost_share']:.2f}% of the replay")


def print_properties(name: str, w: dict, block: int):
    props = properties(w, block)
    shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in sorted(props["share"].items()))
    print(f"\nworkload {name} (block {block}): `rootrand {' '.join(cli_argv(w, block, Path('OUT')))}`")
    print(f"  predicted from schedule(): {props['root_calls']} root calls; {shares}; "
          f"roots.repeat_share {props['repeat_share']:.4f}")


def summary(tally, metrics: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for perfbench/selftest.py")
    args = parser.parse_args(argv)
    if not (SRC / "rootrand" / "cli.py").is_file():
        print(f"error: no rootrand sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    gmpy2_importable = importlib.util.find_spec("gmpy2") is not None
    sys.modules["gmpy2"] = None  # the gate runs on the same fallback backend
    sys.path.insert(0, str(SRC))
    import gate

    if not os.path.samefile(Path(gate.__file__).parent, Path(__file__).parent) or \
            not os.path.samefile(Path(sys.modules["rootrand"].__file__).parent.parent, SRC):
        print(f"error: rootrand was not imported from {SRC}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    e2e_units, layer_units = declared_units("end_to_end"), declared_units("per_layer")
    OUT.mkdir(exist_ok=True)
    print("environment: " + json.dumps(environment(gmpy2_importable)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tally = gate.Tally()
    metrics: dict = {}
    for name in names:
        w = WORKLOADS[name][args.scale]
        print_properties(name, w, block_for_seed(args.seed))
        if args.workload == "all" or args.trace == 0:
            e2e = measure_e2e(name, w, args.seed, args.seconds, args.scale, pins, tally)
            print_e2e(name, e2e["series"], tally, e2e_units)
            for key, unit in e2e_units.items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = {
                    "value": statistics.median(e2e["series"][key]), "unit": unit}
        if args.workload == "all" or args.trace == 1:
            layers = measure_layers(name, w, args.seed, args.scale, pins, tally)
            print_layers(name, layers, layer_units)
            for key, unit in layer_units.items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = {
                    "value": layers["metrics"][key], "unit": unit}
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(f"\ncorrectness gate: {tally.attempted - tally.failed}/{tally.attempted} checks passed")
    print(json.dumps(summary(tally, metrics)))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
