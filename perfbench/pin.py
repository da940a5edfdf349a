"""Recompute the pinned output digests in perfbench/pinned.json.

    python3 perfbench/pin.py [full|tiny]...

Runs every workload on every prime block once, untraced, and records the
SHA-256 of its deterministic output files. Pin only from a commit whose
outputs are known to be right: the gate compares every later run to these.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spec import BLOCKS, WORKLOADS, cli_argv, fresh_dir, output_digest, run_child

PINS = Path(__file__).with_name("pinned.json")


def main(scales) -> int:
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    for scale in scales:
        for name, sizes in WORKLOADS.items():
            digests = []
            for block in range(BLOCKS):
                out_dir = fresh_dir("pin")
                child = run_child({"mode": "run", "argv": cli_argv(sizes[scale], block, out_dir)}, timeout=600)
                if child["rc"] != 0:
                    raise SystemExit(f"{name} block {block} exited with {child['rc']}")
                digests.append(output_digest(out_dir))
                print(scale, name, block, digests[-1], flush=True)
            pins.setdefault(scale, {})[name] = digests
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["tiny", "full"]))
