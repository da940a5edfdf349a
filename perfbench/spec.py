"""Workload definitions shared by the benchmark runner, its child process and its gate.

Every workload is one rootrand CLI command. The benchmark seed only picks
the starting prime block (``--block``), so a seed changes which primes are
rooted but not how much work a run does.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SKIP = 50  # GeneratorConfig's default skip_digits; no workload overrides it
BLOCKS = 16  # seed n runs prime block n % BLOCKS; every block has pinned digests
PENTAD_LENGTH = 64_000  # longest battery string, so `test` consumes strings * 64000 bits

WORKLOADS = {
    "degree-mix": {
        "full": dict(command="gen-bits", n_pairs=6, rounds=4, precision=20_000, bits=420_000, workers=2),
        "tiny": dict(command="gen-bits", n_pairs=4, rounds=4, precision=600, bits=7_000, workers=2),
    },
    "paper-digits": {
        "full": dict(command="gen-bits", n_pairs=2, rounds=2, precision=100_000, bits=263_000, workers=1),
        "tiny": dict(command="gen-bits", n_pairs=3, rounds=2, precision=2_000, bits=9_000, workers=1),
    },
    "short-battery": {
        "full": dict(command="test", n_pairs=200, rounds=4, precision=300, strings=40, pairs=400_000, workers=1),
        "tiny": dict(command="test", n_pairs=200, rounds=4, precision=300, strings=2, pairs=20_000, workers=1),
    },
}

# (degree, precision) pairs some workload runs; each gets a roots.root_s metric.
ROOT_GRID = [(r, 300) for r in (2, 3, 5, 7)] + [(r, 20_000) for r in (2, 3, 5, 7)] + [(2, 100_000), (3, 100_000)]


def digits_label(precision: int) -> str:
    return {300: "d300", 20_000: "d20k", 100_000: "d100k"}.get(precision, f"d{precision}")


def root_metric(r: int, precision: int) -> str:
    return f"roots.root_s.r{r}.{digits_label(precision)}"


def stream_bits(w: dict) -> int:
    """Stream bits the command consumes."""
    return w["bits"] if w["command"] == "gen-bits" else w["strings"] * PENTAD_LENGTH


def generator_config(w: dict, block: int):
    """The GeneratorConfig the CLI builds for workload w at block; import rootrand first."""
    from rootrand import GeneratorConfig

    return GeneratorConfig(n_pairs=w["n_pairs"], rounds=w["rounds"],
                           precision_digits=w["precision"], block_index=block)


def block_for_seed(seed: int) -> int:
    return seed % BLOCKS


def cli_argv(w: dict, block: int, out_dir: Path, workers: int | None = None) -> list[str]:
    """The rootrand CLI arguments of workload w, writing into out_dir."""
    common = ["--n-pairs", str(w["n_pairs"]), "--rounds", str(w["rounds"]),
              "--precision", str(w["precision"]), "--block", str(block),
              "--workers", str(w["workers"] if workers is None else workers)]
    if w["command"] == "gen-bits":
        return ["gen-bits", *common, "--count", str(w["bits"]), "--format", "packed",
                "--out", str(out_dir / "bits.bin")]
    return ["test", "--suite", "all", *common, "--strings", str(w["strings"]),
            "--pairs", str(w["pairs"]), "--out", str(out_dir / "report.csv")]


def data_files(out_dir: Path) -> list[Path]:
    """Files a run wrote whose bytes are deterministic (manifests hold timings)."""
    return sorted(p for p in out_dir.iterdir() if p.is_file() and p.suffix != ".manifest")


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in data_files(out_dir):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(job: dict, timeout: float = 170) -> dict:
    """Run child.py on job in a fresh interpreter; add the parent's spawn time."""
    OUT.mkdir(exist_ok=True)
    result = OUT / f"child-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")), str(result), json.dumps(job)],
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    out = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    out["spawned"] = spawned
    return out


def fresh_dir(name: str) -> Path:
    path = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
