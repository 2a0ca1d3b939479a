"""One benchmark sample, run in a fresh process by ``run.py``.

Times a cold ``config.build_partition`` (set-up), then
``consensus.run_federation`` plus ``cli.write_outputs`` (the run), with one
timestamp at each return of ``chain.append``; a round's time is the interval
between consecutive returns. The host probe runs just before and just after,
on the same CPU. It then checks the exported chain and writes ``sample.json``
into ``--out``. With ``--trace 1`` it also records spans (see ``tracer.py``)
and writes them to ``spans.json``.

    PYTHONPATH=src python3 bench/worker.py --workload desk_backdoor --seed 42 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time
import traceback

import numpy as np

from rfc_sim import chain, cli, config, consensus

import tracer as tracer_mod
from probe import host_probe
from workloads import WORKLOADS


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def sample(workload: str, seed: int, trace: bool, out_dir: str) -> dict:
    rc = WORKLOADS[workload](seed)
    tracer = tracer_mod.Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    commits = []
    append = chain.append

    def timed_append(*args, **kwargs):
        block = append(*args, **kwargs)
        commits.append(time.perf_counter())
        return block

    chain.append = timed_append
    probe_before = host_probe()
    try:
        t0 = time.perf_counter()
        partition = config.build_partition(rc)
        t1 = time.perf_counter()
        result = consensus.run_federation(rc.federation, partition)
        cli.write_outputs(result, rc, out_dir)
        t2 = time.perf_counter()
        with open(os.path.join(out_dir, "records.csv"), "rb") as fh:
            records_sha256 = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out_dir, "chain.jsonl")) as fh:
            loaded = chain.load_lines(fh.read())
        chain_valid = chain.validate(loaded) is None
    finally:
        chain.append = append
        if tracer is not None:
            tracer.uninstall()

    probe_after = host_probe()
    tip = result.chain.blocks[-1].hash.hex()
    out = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "round_ms": [(b - a) * 1e3 for a, b in zip(commits, commits[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records_sha256": records_sha256,
        "tip": tip,
        "chain_valid": chain_valid and loaded.blocks[-1].hash.hex() == tip,
        "probe_s": probe_before + probe_after,
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if tracer is not None:
        out["layers"] = tracer_mod.layer_metrics(tracer, result)
        out["round_children_s"] = tracer.round_children()
        with open(os.path.join(out_dir, "spans.json"), "w") as fh:
            json.dump(tracer.spans_json(), fh)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for probes and workload alike: the host's slow state is per CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(args.out, exist_ok=True)
    try:
        out = sample(args.workload, args.seed, bool(args.trace), args.out)
        status = 0
    except Exception:  # reported to run.py as a failed sample
        out = {"error": traceback.format_exc()}
        status = 1
    with open(os.path.join(args.out, "sample.json"), "w") as fh:
        json.dump(out, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
