"""Run one rfc-sim benchmark workload and print its metrics.

    python3 bench/run.py --workload desk_backdoor --seed 42 --seconds 30 --trace 0

Run from the repository root. The loop is closed: one sample at a time, each
a fresh ``worker.py`` process (so set-up is cold and peak RSS is the
sample's own), started until ``--seconds`` have passed. BLAS and OpenMP are
pinned to one thread and ``RFC_SIM_THREADS`` is left unset, so the program
runs single-threaded.

Every sample's ``records.csv`` sha256 and chain tip must equal the pinned
digests in ``pins.json`` when the seed is pinned there, and every other
sample of the run in any case; its exported ``chain.jsonl`` must validate. A
sample that fails any check, raises or times out prints FAIL and counts in
``failed``.

``--trace 0`` reports the end-to-end metrics: medians of ``setup_s``,
``run_s`` and ``peak_rss_mb`` over samples, and the 50th and 90th
percentiles of the commit intervals pooled over samples. ``--trace 1``
alternates untraced and traced samples and reports the per-layer metrics of
the traced ones (times as medians; counts, which must repeat exactly) and
``trace.overhead_s``, the traced minus the untraced median ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the environment and every sample, goes to
``.bench_out/<workload>/result-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
# the keys of workloads.WORKLOADS, repeated so that this process never imports rfc_sim
WORKLOADS = ("desk_backdoor", "wide_krum", "long_chain")
OUT_DIR = ".bench_out"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_SAMPLES = 3          # untraced samples, whatever --seconds says
MIN_TRACED = 2           # traced samples, so that counts can be compared
HARD_STOP_S = 165        # no sample runs past this, so a run ends within 180 s
REFERENCE_S = 0.008      # probe pass time at which times are reported unscaled (probe.py)

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "round_ms_p50": "ms", "round_ms_p90": "ms",
                    "peak_rss_mb": "MB"}


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("RFC_SIM_THREADS", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_sample(workload: str, seed: int, traced: bool, out_dir: str, env: Dict[str, str],
               timeout: float) -> dict:
    """One worker process; returns its sample dict, or one holding only ``error``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker killed after {timeout:.0f} s"}
    try:
        with open(os.path.join(out_dir, "sample.json")) as fh:
            sample = json.load(fh)
    except (OSError, ValueError):
        sample = {"error": f"worker exited {proc.returncode} without a sample: "
                           f"{proc.stderr.strip()[-500:]}"}
    if proc.returncode != 0 and "error" not in sample:
        sample = {"error": f"worker exited {proc.returncode}"}
    return sample


def sample_problem(sample: dict, expected: Optional[dict]) -> Optional[str]:
    if "error" in sample:
        return sample["error"].strip().splitlines()[-1]
    if not sample["chain_valid"]:
        return "exported chain.jsonl fails validation or disagrees with the run's tip"
    if expected is not None:
        for key in ("records_sha256", "tip"):
            if sample[key] != expected[key]:
                return f"{key} {sample[key][:12]} != expected {expected[key][:12]} ({expected['source']})"
    return None


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(root: str, seed: int, first: dict) -> dict:
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "rfc_sim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "seed": seed,
        "pinned_env": PINNED_ENV,
        "RFC_SIM_THREADS": "unset (default 1)",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="rfc-sim benchmark: one workload, one seed.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="master_seed of the workload")
    ap.add_argument("--seconds", type=float, required=True, help="how long to keep sampling")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rfc_sim", "__init__.py")):
        print("bench: src/rfc_sim not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json")) as fh:
        pinned = json.load(fh).get(args.workload, {}).get(str(args.seed))
    expected_digests = dict(pinned, source=f"pinned for seed {args.seed}") if pinned else None

    env = child_env(root)
    run_dir = os.path.join(root, OUT_DIR, args.workload)
    start = time.monotonic()
    durations: List[float] = []
    samples: List[dict] = []  # each gains "traced" and "problem"
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        n_untraced = sum(not s["traced"] for s in samples)
        n_traced = len(samples) - n_untraced
        short = n_untraced < MIN_SAMPLES if not args.trace else min(n_untraced, n_traced) < MIN_TRACED
        elapsed = time.monotonic() - start
        # start a sample only if it should end within --seconds
        next_s = statistics.median(durations) if durations else 0.0
        if elapsed + next_s > args.seconds and not short:
            break
        if elapsed + max(durations, default=0.0) > HARD_STOP_S:
            break
        t0 = time.monotonic()
        sample = run_sample(args.workload, args.seed, traced,
                            os.path.join(run_dir, f"sample{len(samples)}"), env,
                            timeout=HARD_STOP_S - elapsed)
        durations.append(time.monotonic() - t0)
        sample["traced"] = traced
        sample["problem"] = sample_problem(sample, expected_digests)
        if sample["problem"] is None and expected_digests is None:
            expected_digests = {"records_sha256": sample["records_sha256"], "tip": sample["tip"],
                                "source": "first sample of this run"}
        samples.append(sample)

    good = [s for s in samples if s["problem"] is None]
    shares: Dict[str, float] = {}
    if args.trace:
        metrics, shares = layer_metrics(samples)
    else:
        metrics = end_to_end_metrics(good)
    for i, s in enumerate(samples):
        if s["problem"] is not None:
            print(f"FAIL sample {i} ({'traced' if s['traced'] else 'untraced'}): {s['problem']}")
    failed = sum(s["problem"] is not None for s in samples)

    env_record = environment(root, args.seed, good[0] if good else {})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(samples)}  failed {failed}  error_rate {failed / len(samples):.4f}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']:6s} {m.get('note', '')}")
    for name, share in shares.items():
        print(f"share of traced run_s: {name:28s} {share:7.1%}")

    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "env": env_record, "metrics": metrics,
                   "samples": samples}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def host_scale(sample: dict) -> float:
    """Factor that maps a sample's times to a host whose probe pass takes REFERENCE_S.

    The mean of the sample's own probe passes, run on the same CPU just before
    and just after it.
    """
    return REFERENCE_S / statistics.mean(sample["probe_s"])


def end_to_end_metrics(good: List[dict]) -> Dict[str, dict]:
    if not good:
        return {}
    n = len(good)
    scale = [host_scale(s) for s in good]
    rounds = [ms * k for s, k in zip(good, scale) for ms in s["round_ms"]]
    raw_rounds = [ms for s in good for ms in s["round_ms"]]

    def median_time(key: str) -> Tuple[float, str]:
        scaled = statistics.median(s[key] * k for s, k in zip(good, scale))
        return scaled, f"median of {n}; raw {statistics.median(s[key] for s in good):.4g}"

    values = {
        "setup_s": median_time("setup_s"),
        "run_s": median_time("run_s"),
        "round_ms_p50": (percentile(rounds, 50),
                         f"{len(rounds)} commit intervals; raw {percentile(raw_rounds, 50):.4g}"),
        "round_ms_p90": (percentile(rounds, 90),
                         f"{len(rounds)} commit intervals; raw {percentile(raw_rounds, 90):.4g}"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in good), f"median of {n}"),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k], "note": note} for k, (v, note) in values.items()}


def layer_metrics(samples: List[dict]) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Per-layer metrics of the traced samples, and the median share of ``run_s`` spent
    directly under round spans, by span name. Marks a traced sample whose counts differ."""
    traced = [s for s in samples if s["traced"] and s["problem"] is None]
    untraced = [s for s in samples if not s["traced"] and s["problem"] is None]
    if not traced or not untraced:
        return {}, {}
    reference = traced[0]["layers"]
    for s in traced[1:]:
        diff = [k for k, v in s["layers"].items() if not k.endswith("_s") and v != reference[k]]
        if diff:
            s["problem"] = f"counts differ from the first traced sample: {', '.join(diff)}"
    traced = [s for s in traced if s["problem"] is None]
    out = {}
    for key, first in reference.items():
        if key.endswith("_s"):
            value = statistics.median(s["layers"][key] * host_scale(s) for s in traced)
            out[key] = {"value": value, "unit": "s", "note": f"median of {len(traced)} traced runs"}
        else:
            unit = "ratio" if key.endswith("_ratio") else "bytes" if "bytes" in key else "count"
            out[key] = {"value": first, "unit": unit}
    overhead = (statistics.median(s["run_s"] * host_scale(s) for s in traced)
                - statistics.median(s["run_s"] * host_scale(s) for s in untraced))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s",
                               "note": f"{len(traced)} traced vs {len(untraced)} untraced runs"}
    shares: Dict[str, List[float]] = {}
    for s in traced:
        for name, secs in s["round_children_s"].items():
            shares.setdefault(name, []).append(secs / s["run_s"])
    medians = {name: statistics.median(v) for name, v in shares.items()}
    return out, dict(sorted(medians.items(), key=lambda kv: -kv[1]))


if __name__ == "__main__":
    raise SystemExit(main())
