"""Span tracing of rfc_sim from outside the package.

``Tracer.install`` replaces public functions of the rfc_sim modules with
wrappers that record a span (name, start, end, parent) around each call and
add to counters at the same boundary. Inner calls that go through a module
global (``chain.append`` -> ``seal_block``/``validate``) are caught too, so
spans nest as the calls do. Spans stay in memory until ``spans_json``.

``consensus.round`` spans are synthetic: the first opens when
``run_federation`` starts, and each later one opens as the previous round's
``chain.append`` returns, so a round span covers one commit interval.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from rfc_sim import aggregation, attacks, chain, cli, config, consensus, data, metrics, models, params, seeds

ROUND = "consensus.round"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(idx)
                if count is not None:
                    count(self.counts, args, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _count(self, owner, attr: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def _rounds(self) -> None:
        """Wrap run_federation and append so round spans tile the commit intervals."""
        def make_run(original):
            def wrapper(*args, **kwargs):
                run = self._open("consensus.run_federation")
                try:
                    self._open(ROUND)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        self._close(self._stack[-1])
                finally:
                    self._close(run)
            return wrapper

        def make_append(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                self.counts["chain.append_calls"] += 1
                if self._stack and self.spans[self._stack[-1]][0] == ROUND:
                    self._close(self._stack[-1])
                    self._open(ROUND)
                return result
            return wrapper

        self._patch(consensus, "run_federation", make_run)
        self._patch(chain, "append", make_append)

    def install(self) -> None:
        def add(key: str, amount: Callable):
            def count(counts, args, result):
                counts[key] += amount(args, result)
            return count

        def train_count(counts, args, result):
            opt, n = args[3], len(args[2])
            counts["models.train_local_calls"] += 1
            counts["models.local_steps"] += opt.local_epochs * math.ceil(n / opt.batch_size)

        def aggregate_count(counts, args, result):
            counts["aggregation.aggregate_calls"] += 1
            counts["aggregation.updates_in"] += len(args[1])

        def seal_count(counts, args, result):
            counts["chain.nonces_tried"] += result.nonce + 1
            counts["chain.block_hashes"] += result.nonce + 1

        def validate_count(counts, args, result):
            # validate hashes every block until the first invalid one
            counts["chain.block_hashes"] += len(args[0].blocks) if result is None else result + 1

        def write_count(counts, args, result):
            out_dir = args[2]
            counts["cli.bytes_written"] += sum(os.path.getsize(os.path.join(out_dir, f))
                                               for f in os.listdir(out_dir))

        self._span(config, "build_partition", "config.build_partition")
        self._span(data, "gen_synthetic", "data.gen_synthetic",
                   add("data.examples_generated", lambda a, r: len(r)))
        self._span(data, "partition", "data.partition")
        self._span(consensus, "sample_clients", "consensus.sample_clients")
        self._span(models, "train_local", "models.train_local", train_count)
        self._span(models, "evaluate", "models.evaluate",
                   add("models.examples_evaluated", lambda a, r: len(a[2])))
        self._span(models, "log_probs", "models.log_probs",
                   add("models.examples_evaluated", lambda a, r: len(a[2])))
        self._span(seeds.Sm64Stream, "shuffle", "seeds.shuffle",
                   add("seeds.shuffled_items", lambda a, r: len(a[1])))
        self._span(attacks, "flip_labels", "attacks.flip_labels")
        self._span(attacks, "poison_examples", "attacks.poison_examples")
        self._count(attacks, "boost_update", "attacks.boost_calls")
        self._span(aggregation, "aggregate", "aggregation.aggregate", aggregate_count)
        self._count(params, "l2_dist_sq", "params.l2_dist_sq_calls")
        self._span(params, "digest", "params.digest",
                   add("params.bytes_digested", lambda a, r: 8 + 8 * len(a[0])))
        self._span(metrics, "score_model", "metrics.score_model",
                   add("metrics.score_calls", lambda a, r: 1))
        self._span(metrics, "evaluate_backdoor", "metrics.evaluate_backdoor")
        self._span(chain, "append", "chain.append")
        self._span(chain, "seal_block", "chain.seal_block", seal_count)
        self._span(chain, "validate", "chain.validate", validate_count)
        self._span(chain, "export_lines", "chain.export_lines")
        self._span(chain, "load_lines", "chain.load_lines")
        self._span(cli, "write_outputs", "cli.write_outputs", write_count)
        # outermost around append, so a round closes after its append span
        self._rounds()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total and self seconds. Raises if a span's children outlast it."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_ns = end - start - child_ns[idx]
            if self_ns < 0:
                raise ValueError(f"children of span {idx} ({name}) sum to more than the span")
            entry = out.setdefault(name, {"total": 0.0, "self": 0.0})
            entry["total"] += (end - start) * 1e-9
            entry["self"] += self_ns * 1e-9
        return out

    def round_children(self) -> Dict[str, float]:
        """Seconds by the name of each span directly under a round span."""
        out: Dict[str, float] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == ROUND:
                out[name] = out.get(name, 0.0) + (end - start) * 1e-9
        return out

    def spans_json(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in self.spans]


def layer_metrics(tracer: Tracer, result: consensus.FederationResult) -> Dict[str, float]:
    """The per-layer metrics of one traced sample, except the trace overhead."""
    t = tracer.times()
    counts = tracer.counts

    def total(*names: str) -> float:
        return sum(t[n]["total"] for n in names if n in t)

    def self_time(name: str) -> float:
        return t[name]["self"] if name in t else 0.0

    scored = counts["metrics.score_calls"]
    return {
        "models.train_local_s": total("models.train_local"),
        "models.train_local_calls": counts["models.train_local_calls"],
        "models.local_steps": counts["models.local_steps"],
        "models.evaluate_s": total("models.evaluate", "models.log_probs"),
        "models.examples_evaluated": counts["models.examples_evaluated"],
        "seeds.shuffle_s": total("seeds.shuffle"),
        "seeds.shuffled_items": counts["seeds.shuffled_items"],
        "aggregation.aggregate_s": total("aggregation.aggregate"),
        "aggregation.aggregate_calls": counts["aggregation.aggregate_calls"],
        "aggregation.updates_in": counts["aggregation.updates_in"],
        "params.l2_dist_sq_calls": counts["params.l2_dist_sq_calls"],
        "params.digest_s": total("params.digest"),
        "params.bytes_digested": counts["params.bytes_digested"],
        "chain.append_self_s": self_time("chain.append"),
        "chain.seal_s": total("chain.seal_block"),
        "chain.validate_s": total("chain.validate"),
        "chain.block_hashes": counts["chain.block_hashes"],
        "chain.nonces_tried": counts["chain.nonces_tried"],
        "chain.export_s": total("chain.export_lines"),
        "chain.load_s": total("chain.load_lines"),
        "metrics.score_model_s": total("metrics.score_model"),
        "metrics.score_calls": scored,
        "metrics.evaluate_backdoor_s": total("metrics.evaluate_backdoor"),
        "attacks.poison_s": total("attacks.poison_examples"),
        "attacks.flip_s": total("attacks.flip_labels"),
        "attacks.boost_calls": counts["attacks.boost_calls"],
        "data.gen_synthetic_s": total("data.gen_synthetic"),
        "data.partition_s": total("data.partition"),
        "data.examples_generated": counts["data.examples_generated"],
        "consensus.round_self_s": self_time(ROUND),
        "consensus.sample_clients_s": total("consensus.sample_clients"),
        "consensus.candidates_disqualified": sum(c.disqualified for cands in result.candidates
                                                 for c in cands),
        "consensus.useful_candidate_ratio": counts["chain.append_calls"] / scored if scored else 0.0,
        "cli.write_outputs_s": total("cli.write_outputs"),
        "cli.bytes_written": counts["cli.bytes_written"],
    }
