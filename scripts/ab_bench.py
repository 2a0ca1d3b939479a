#!/usr/bin/env python3
"""A/B benchmark of two revisions, with an unchanged copy of the base as a null side.

    python3 scripts/ab_bench.py --base HEAD~1 --change HEAD --workload long_chain --pairs 10

It works on the git repository that holds it. It checks out the base, the
change and the base again (the null side) as detached ``git worktree``s in one
temporary directory, and runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` in each, T the ``run_seconds`` of ``BENCHMARK.json``.
Each side runs the ``bench/`` of its own revision. A pair runs the three
sides once each, in rotated order (pair i starts at side i mod 3), so that no
side always runs first on a host whose speed drifts.

Per end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
interquartile range over the pairs, the change's median against the base's,
the number of pairs in which the change beat the base (out of all pairs run:
a pair with a side that printed no result is not a win), and the null side's
median against the base's. The null side runs the base's code, so its
deviation is the resolution of the measurement: a change smaller than it is
not resolved. Below the table one line per metric states whether the change
makes a claim of it: "met" when at least 10 pairs ran, the change beat the
base in at least 9 of 10 of them, and its median beats the base's, in the
metric's direction, by more than the base's interquartile range. Fewer pairs
never read "met": with 3, chance alone gave it on metrics a change cannot
move, such as ``setup_s`` for a training change. Every run whose result
line is not ``failed 0`` is listed after those lines. Each ``bench/run.py``
runs in its own process group, which is killed with its workers if this
script stops early, and the worktrees are removed on every exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "null", "change")


def benchmark() -> dict:
    """``BENCHMARK.json``: among others its ``run_seconds`` and its ``end_to_end`` metrics (name, unit, better)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_result(stdout: str) -> Optional[dict]:
    """The JSON object on the last line of a ``bench/run.py`` run, or None if it printed none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(results: Dict[str, List[Optional[dict]]], metrics: List[dict]) -> str:
    """The table of one A/B run from each side's parsed result lines, one per pair in pair order.

    A run without a result line is None. The change wins a pair when its value is better than the
    base's in that pair, by the metric's direction; a pair missing either value is not a win. After
    the metric rows comes one claim verdict per metric, then the failed runs.
    """
    head = (f"{'metric':14s} {'unit':5s} " + " ".join(f"{side + ' median [IQR]':31s}" for side in SIDES)
            + f" {'change/base':>11s} {'wins':>6s} {'null/base':>9s}")
    lines, verdicts = [head], []
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"].get(name, {}).get("value") if r else None for r in results[side]]
                  for side in SIDES}
        cells, medians, iqrs = [], {}, {}
        for side in SIDES:
            present = [v for v in values[side] if v is not None]
            if not present:
                cells.append(f"{'-':31s}")
                continue
            q1, medians[side], q3 = _quartiles(present)
            iqrs[side] = q3 - q1
            cells.append(f"{f'{medians[side]:.4g} [{q1:.4g}, {q3:.4g}]':31s}")
        pairs = list(zip(values["change"], values["base"]))
        better = (lambda c, b: c < b) if metric["better"] == "lower" else (lambda c, b: c > b)
        won = sum(c is not None and b is not None and better(c, b) for c, b in pairs)
        wins = f"{won}/{len(pairs)}"
        if "change" in medians and "base" in medians:
            gap = abs(medians["change"] - medians["base"])
            met = (len(pairs) >= 10 and 10 * won >= 9 * len(pairs) and better(medians["change"], medians["base"])
                   and gap > iqrs["base"])
            detail = f"|Δ median| {gap:.4g} vs base IQR {iqrs['base']:.4g}"
        else:
            met, detail = False, "|Δ median| - vs base IQR -"
        verdicts.append(f"claim {name}: {'met' if met else 'not met'} (wins {wins}, {detail})")

        def against_base(side: str) -> str:
            if side not in medians or not medians.get("base"):
                return "-"
            return f"{medians[side] / medians['base'] - 1:+.1%}"

        lines.append(f"{name:14s} {metric['unit']:5s} " + " ".join(cells)
                     + f" {against_base('change'):>11s} {wins:>6s} {against_base('null'):>9s}")
    lines += verdicts
    for side in SIDES:
        for pair, r in enumerate(results[side]):
            if r is None:
                lines.append(f"FAIL pair {pair} {side}: no result line")
            elif r.get("failed", 0) != 0:
                lines.append(f"FAIL pair {pair} {side}: failed {r['failed']} of {r.get('attempted')} samples")
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _bench_run(cmd: List[str], cwd: str) -> subprocess.CompletedProcess:
    """Run ``cmd`` in a new process group; if this process is stopped meanwhile, kill the group (the
    ``bench/run.py`` run and its workers) before unwinding, so that none outlives the worktree."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # the group may have ended already
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description="A/B benchmark of two revisions with a null side.")
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--change", required=True, help="the revision under test")
    ap.add_argument("--workload", required=True, help="a workload of bench/run.py")
    ap.add_argument("--pairs", type=int, required=True, help="rounds of one run per side")
    ap.add_argument("--seed", type=int, default=42, help="master_seed of the workload (default 42)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    bench = benchmark()
    seconds = bench["run_seconds"]
    # on SIGTERM, unwind so that the running bench is killed and the worktrees are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    revs = {"base": _git("rev-parse", "--verify", args.base + "^{commit}"),
            "change": _git("rev-parse", "--verify", args.change + "^{commit}")}
    revs["null"] = revs["base"]
    results: Dict[str, List[Optional[dict]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        added = []
        try:
            for side in SIDES:
                path = os.path.join(tmp, side)
                _git("worktree", "add", "--detach", path, revs[side])
                added.append(path)
            for pair in range(args.pairs):
                for side in SIDES[pair % 3:] + SIDES[: pair % 3]:
                    proc = _bench_run([sys.executable, os.path.join("bench", "run.py"), "--workload",
                                       args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
                                       "--trace", "0"], os.path.join(tmp, side))
                    result = parse_result(proc.stdout)
                    results[side].append(result)
                    run_s = result["metrics"].get("run_s", {}).get("value") if result else None
                    print(f"pair {pair} {side}: exit {proc.returncode}, run_s {run_s}", file=sys.stderr)
        finally:
            for path in added:
                subprocess.run(["git", "worktree", "remove", "--force", path], cwd=ROOT, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  seconds {seconds}  "
          f"base {revs['base'][:12]}  change {revs['change'][:12]}")
    print(summarize(results, bench["end_to_end"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
