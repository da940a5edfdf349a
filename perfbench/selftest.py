"""Self-test of the benchmark at tiny sizes; under a minute.

    python3 perfbench/selftest.py

Checks that every workload runs and passes its gate with both --trace
values, that the reported metric names and units are exactly those of
BENCHMARK.json, that a corrupted pinned digest makes the run fail, and that
the timed runs share no in-process state.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from spec import ROOT, WORKLOADS

RUN = Path(__file__).with_name("run.py")


def run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(RUN), "--scale", "tiny", "--seconds", "0", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output from run.py {args}: {proc.stderr[-2000:]}"
    return proc.returncode, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    for name in WORKLOADS:
        for trace in (0, 1):
            rc, result = run("--workload", name, "--seed", "5", "--trace", str(trace))
            assert rc == 0 and result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            units = {key: m["unit"] for key, m in result["metrics"].items()}
            assert units == expected[trace], (name, trace, set(units) ^ set(expected[trace]))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        print(f"ok: {name} runs at both trace levels and reports every metric with its unit")

    # The rest runs in this process, as run.py does, so gmpy2 is blocked first.
    sys.modules["gmpy2"] = None
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import run as bench

    pins = json.loads(bench.PINS.read_text(encoding="utf-8"))
    tally = gate.Tally()
    # The timed runs each start a fresh interpreter whose caches are empty.
    e2e = bench.measure_e2e("degree-mix", WORKLOADS["degree-mix"]["tiny"], 2, 0, "tiny", pins, tally)
    pids = [s["pid"] for s in e2e["samples"]]
    assert len(pids) >= 2 and len(set(pids)) == len(pids) and os.getpid() not in pids, pids
    assert all(s["cold"] for s in e2e["samples"]) and tally.failed == 0, tally.failures
    print(f"ok: {len(pids)} timed runs in distinct processes, each starting with empty caches")

    pins["tiny"]["short-battery"][5] = "0" * 64
    tally = gate.Tally()
    bench.measure_e2e("short-battery", WORKLOADS["short-battery"]["tiny"], 5, 0, "tiny", pins, tally)
    assert tally.failed > 0 and any("output digest" in f for f in tally.failures), tally.failures
    print(f"ok: a corrupted pinned digest fails the run (fail_share {tally.failed}/{tally.attempted})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
