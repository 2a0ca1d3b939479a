"""The federation round engine: per-pool training and aggregation, candidate
scoring on the public validation set, winner selection and evaluation.

Topologies:

* ``rfc``: clients are partitioned into disjoint pools; each pool trains and
  aggregates independently, candidates compete on the shared validation set,
  and the winner is sealed into the chain.
* ``client_server``: all sampled clients feed one aggregation per round and
  the single candidate is committed without a selection step (the classic
  baseline). The per-round server step is G <- G + eta * (aggregate - G).

A round samples every pool, trains all sampled clients in one
``models.train_clients`` call, aggregates pool by pool, then scores the
surviving candidates in one stacked ``metrics.score_model`` pass. No pool's
result depends on that order or on the other pools' clients: every random
draw is pre-derived per (round, pool, client, purpose) rather than consumed
from a shared generator, and the chain hashes rely on this.

So round R is ``play_round(cfg, partition, model of block R - 1, R)``: it
reads nothing else, and ``run_federation`` is genesis followed by one
``play_round`` and one ``chain.append`` per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import aggregation, attacks, chain as chain_mod, metrics, models
from .data import Dataset, FederatedPartition
from .seeds import Sm64Stream, derive_seed

TOPOLOGIES = ("rfc", "client_server")
# Sealing a block takes about 2**d hashes of a few microseconds each, so 20 (about
# 10**6 hashes, seconds per block) is the highest difficulty a run may ask for.
# Validating an export costs one hash per block and accepts chain.MAX_DIFFICULTY.
MAX_RUN_DIFFICULTY = 20


class RoundAbortError(RuntimeError):
    """Every candidate of a round was disqualified; the chain is unchanged."""

    def __init__(self, round_idx: int, notes: Sequence[str]):
        self.round_idx = round_idx
        self.notes = tuple(notes)
        super().__init__(f"round {round_idx} aborted, all candidates disqualified: " + "; ".join(notes))


class ProvenanceError(RuntimeError):
    """A client update reached an aggregation outside its home pool."""


@dataclass(frozen=True)
class FederationConfig:
    topology: str = "rfc"
    rounds: int = 30
    num_pools: int = 3
    clients_per_pool: int = 10
    clients_sampled_per_round: int = 18
    master_seed: int = 42
    server_eta: float = 1.0
    chain_difficulty: int = 0
    model: models.ModelSpec = field(default_factory=lambda: models.ModelSpec("linear", 64, 3))
    # Desk-scale training schedule: enough local steps per round that clients
    # roughly converge on their local data, which the replacement-boost
    # arithmetic presumes.
    optimizer: models.OptimizerConfig = field(
        default_factory=lambda: models.OptimizerConfig(learning_rate=0.01, batch_size=8))
    aggregator: aggregation.AggregatorConfig = field(default_factory=aggregation.AggregatorConfig)
    metric: metrics.MetricSpec = field(default_factory=lambda: metrics.MetricSpec("accuracy"))
    adversary: attacks.AdversaryConfig = field(
        default_factory=lambda: attacks.AdversaryConfig(adversaries_per_pool=2))

    def __post_init__(self):
        if self.num_pools < 1:
            raise ValueError(f"num_pools must be >= 1, got {self.num_pools}")
        if self.clients_per_pool < 1:
            raise ValueError(f"clients_per_pool must be >= 1, got {self.clients_per_pool}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {', '.join(TOPOLOGIES)}, got {self.topology!r}")
        if self.server_eta <= 0:
            raise ValueError(f"server_eta must be > 0, got {self.server_eta}")
        if not 0 <= self.chain_difficulty <= MAX_RUN_DIFFICULTY:
            raise ValueError(f"chain_difficulty must lie in [0, {MAX_RUN_DIFFICULTY}], got "
                             f"{self.chain_difficulty}: sealing takes about 2**d hashes per block")
        quota = self.sample_quota()
        _, group = self.group_shape()
        if quota > group:
            size = "clients_per_pool" if self.topology == "rfc" else "num_pools x clients_per_pool"
            raise ValueError(f"clients_sampled_per_round = {self.clients_sampled_per_round} gives {quota} clients "
                             f"per aggregation, more than {size} = {group}")
        need = aggregation.min_updates(self.aggregator)
        if quota < need:
            raise ValueError(f"aggregator.rule = {self.aggregator.rule} needs at least {need} updates per aggregation, "
                             f"but clients_sampled_per_round = {self.clients_sampled_per_round} gives {quota}")
        adv = self.adversary
        if adv.placement == "one_pool" and not 0 <= adv.pool_id < self.num_pools:
            raise ValueError(f"adversary pool {adv.pool_id} out of range for {self.num_pools} pools")
        if adv.placement != "none" and adv.adversaries_per_pool > self.clients_per_pool:
            raise ValueError(f"adversaries_per_pool exceeds clients_per_pool, got {adv.adversaries_per_pool} > "
                             f"{self.clients_per_pool}")

    def group_shape(self) -> Tuple[int, int]:
        """(groups, clients per group) that aggregate apart; group g holds client ids g * size onward."""
        if self.topology == "rfc":
            return self.num_pools, self.clients_per_pool
        return 1, self.total_clients()

    def sample_quota(self) -> int:
        """Updates entering one aggregation: each group's share of the sampled clients."""
        count, _ = self.group_shape()
        # exact half-to-even rounding: a float quotient overflows for a huge sample count
        return round(Fraction(self.clients_sampled_per_round, count))

    def total_clients(self) -> int:
        return self.num_pools * self.clients_per_pool


@dataclass(frozen=True)
class PoolCandidate:
    """One pool's entry in a round's validation contest; a non-empty note disqualifies it and says why."""
    pool_id: int
    metric_value: float
    clients: Tuple[int, ...]
    note: str = ""

    @property
    def disqualified(self) -> bool:
        return bool(self.note)


@dataclass
class FederationResult:
    final_model: np.ndarray
    records: List[metrics.RoundRecord]
    chain: chain_mod.Chain
    candidates: List[Tuple[PoolCandidate, ...]]


def sample_clients(members: Sequence[int], pool_id: int, round_idx: int, quota: int,
                   master_seed: int) -> List[int]:
    """Uniform without-replacement sample from one pool's fixed client set."""
    stream = Sm64Stream(derive_seed(master_seed, round_idx, pool_id, 0, "sample"))
    return stream.sample(members, quota)


def select_winner(candidates: Sequence[PoolCandidate], direction: str) -> Optional[PoolCandidate]:
    """Best qualified candidate under the metric direction, ties to the first (lowest pool id)."""
    qualified = [c for c in candidates if not c.disqualified]
    return (max if direction == "maximize" else min)(qualified, key=lambda c: c.metric_value, default=None)


def server_update(global_model: np.ndarray, aggregate: np.ndarray, eta: float) -> np.ndarray:
    """G + eta * (aggregate - G); with eta = 1 the aggregate replaces the model."""
    return global_model + eta * (aggregate - global_model)


def _client_data(cfg: FederationConfig, partition: FederatedPartition, cid: int,
                 is_adversary: bool, round_idx: int, pool_id: int) -> Dataset:
    data = partition.client_data[cid]
    adv = cfg.adversary
    if not is_adversary:
        return data
    if adv.attack == "labelflip":
        return attacks.flip_labels(data, cfg.model.num_classes)
    seed = derive_seed(cfg.master_seed, round_idx, pool_id, cid, "poison")
    return attacks.poison_examples(data, partition.height, partition.width, adv, seed)


def _pool_candidates(cfg: FederationConfig, partition: FederatedPartition, adversarial: frozenset,
                     global_model: np.ndarray, round_idx: int) -> Tuple[Tuple[PoolCandidate, ...], np.ndarray]:
    """One round's training as the module docstring orders it: the pools' candidates, each noting the first step
    that disqualified it, and the ``[k, P]`` stack of their models, pool g's in row g."""
    count, size = cfg.group_shape()
    quota = cfg.sample_quota()
    samples, datasets, seeds = [], [], []
    for pool_id in range(count):
        members = range(pool_id * size, (pool_id + 1) * size)
        sampled = sample_clients(members, pool_id, round_idx, quota, cfg.master_seed)
        if not all(cid in members for cid in sampled):
            raise ProvenanceError(f"round {round_idx}: pool {pool_id} sampled foreign clients")
        samples.append((pool_id, sampled, len(datasets)))
        for cid in sampled:
            datasets.append(_client_data(cfg, partition, cid, cid in adversarial, round_idx, pool_id))
            seeds.append(derive_seed(cfg.master_seed, round_idx, pool_id, cid, "shuffle"))
    trained, diverged = models.train_clients(cfg.model, global_model, datasets, cfg.optimizer, seeds)
    # Overflow here only yields inf/nan, which the finiteness checks below disqualify.
    with np.errstate(over="ignore", invalid="ignore"):
        aggregates, notes = zip(*[_pool_aggregate(cfg, sampled, trained, lo, diverged, adversarial, global_model,
                                                  round_idx) for _, sampled, lo in samples])
        # every pool's candidate G + eta (A - G) as one row; the finite rows are scored in one stacked pass
        stack = server_update(global_model, np.array(aggregates), cfg.server_eta)
    finite = np.isfinite(stack).all(axis=1)
    values = np.full(len(stack), np.nan)
    values[finite] = metrics.score_model(cfg.metric, cfg.model, stack[finite], partition.validation)
    candidates = []
    for (pool_id, sampled, _), note, ok, value in zip(samples, notes, finite, values.tolist()):
        note = note or (f"non-finite candidate in round {round_idx}" if not ok else
                        "" if np.isfinite(value) else f"non-finite validation metric in round {round_idx}")
        candidates.append(PoolCandidate(pool_id, float("nan") if note else value, tuple(sampled), note))
    return tuple(candidates), stack


def _pool_aggregate(cfg: FederationConfig, sampled: Sequence[int], trained: np.ndarray, lo: int,
                    diverged: Dict[int, models.DivergenceError], adversarial: frozenset,
                    global_model: np.ndarray, round_idx: int) -> Tuple[np.ndarray, str]:
    """Boost (rows in place) and aggregate one pool's updates, the ``[n, P]`` rows of ``trained`` from ``lo``:
    the aggregate and "", or a NaN row and the note of the first diverged client or the failed aggregation."""
    updates = trained[lo : lo + len(sampled)]
    for i, cid in enumerate(sampled, lo):
        if i in diverged:
            return np.full_like(global_model, np.nan), f"client {cid} diverged in round {round_idx}: {diverged[i]}"
    adv_positions = [pos for pos, cid in enumerate(sampled) if cid in adversarial]

    adv = cfg.adversary
    if adv.boost == "replacement" and adv_positions:
        # Colluding adversaries in one aggregation split the replacement factor
        # n/eta between them so the averaged update still lands on their model.
        k = len(adv_positions)
        for pos in adv_positions:
            updates[pos] = attacks.boost_update(updates[pos], global_model, len(updates), adv.boost_eta * k)
    try:
        return aggregation.aggregate(cfg.aggregator, updates), ""
    except ValueError as exc:
        return np.full_like(global_model, np.nan), f"aggregation failed in round {round_idx}: {exc}"


def play_round(cfg: FederationConfig, partition: FederatedPartition, model: np.ndarray,
               round_idx: int) -> Tuple[np.ndarray, metrics.RoundRecord, Tuple[PoolCandidate, ...]]:
    """Round ``round_idx`` from ``model``, block ``round_idx - 1``'s: the winner's model, the round's record and
    every pool's candidate. Raises RoundAbortError when no candidate qualifies."""
    adv = cfg.adversary
    adversarial = attacks.assign_adversaries(cfg.num_pools, cfg.clients_per_pool, adv, cfg.master_seed)
    candidates, stack = _pool_candidates(cfg, partition, adversarial, model, round_idx)
    winner = select_winner(candidates, cfg.metric.direction)
    if winner is None:
        raise RoundAbortError(round_idx, [c.note for c in candidates])
    model = stack[winner.pool_id]

    test_loss, test_acc = models.evaluate(cfg.model, model, partition.test)
    backdoor = (float("nan"),) * 3  # the record's three backdoor columns, nan without a backdoor attack
    if adv.attack == "backdoor":
        triggered = attacks.build_backdoor_test(partition.test, partition.height, partition.width, adv.trigger_size)
        backdoor = metrics.evaluate_backdoor(cfg.model, model, triggered, adv.target_label)
    record = metrics.RoundRecord(round_idx, winner.pool_id, winner.metric_value, test_acc, test_loss, *backdoor)
    return model, record, candidates


def run_federation(cfg: FederationConfig, partition: FederatedPartition) -> FederationResult:
    """Execute the full run: genesis, then ``rounds`` rounds of ``play_round``, each winner appended to the chain."""
    if partition.height * partition.width != cfg.model.input_dim:
        raise ValueError(f"model input_dim {cfg.model.input_dim} does not match grid "
                         f"{partition.height}x{partition.width}")
    missing = [c for c in range(cfg.total_clients()) if c not in partition.client_data]
    if missing:
        raise ValueError(f"partition lacks data for clients {missing[:5]}")

    try:
        model = models.init_params(cfg.model, derive_seed(cfg.master_seed, 0, 0, 0, "init"))
    except (MemoryError, ValueError) as exc:  # numpy's refusals: past memory, or past any array's size
        raise MemoryError(f"model.hidden_dim = {cfg.model.hidden_dim} is too large: "
                          f"{models.param_count(cfg.model)} parameters: {exc}") from exc
    ledger = chain_mod.genesis(model, cfg.chain_difficulty)

    records: List[metrics.RoundRecord] = []
    all_candidates: List[Tuple[PoolCandidate, ...]] = []
    for round_idx in range(1, cfg.rounds + 1):
        model, record, candidates = play_round(cfg, partition, model, round_idx)
        ledger = chain_mod.append(ledger, model, round_idx, record.winning_pool, cfg.metric.name,
                                  record.val_metric, cfg.aggregator.rule)
        records.append(record)
        all_candidates.append(candidates)

    return FederationResult(final_model=model, records=records, chain=ledger, candidates=all_candidates)
