"""Rewrite pins.json: the records.csv sha256 and chain tip of every workload at each pinned seed.

    python3 bench/pin.py

Run from the repository root. The pins guard bit-reproducibility: a change
that moves them changes behaviour, so re-pin only on purpose and say why.
"""

from __future__ import annotations

import json
import os
import sys

from run import HARD_STOP_S, HERE, OUT_DIR, WORKLOADS, child_env, run_sample

SEEDS = [42] + list(range(16))


def main() -> int:
    root = os.getcwd()
    env = child_env(root)
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in SEEDS:
            sample = run_sample(workload, seed, False, os.path.join(root, OUT_DIR, "pin"), env,
                                timeout=HARD_STOP_S)
            if "error" in sample or not sample["chain_valid"]:
                print(f"{workload} seed {seed}: {sample.get('error', 'invalid chain')}", file=sys.stderr)
                return 1
            pins[workload][str(seed)] = {"records_sha256": sample["records_sha256"],
                                         "tip": sample["tip"]}
            print(f"{workload} seed {seed}: tip {sample['tip'][:12]} "
                  f"records {sample['records_sha256'][:12]}")
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
