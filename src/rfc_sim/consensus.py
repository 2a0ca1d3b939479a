"""The federation round engine: per-pool training and aggregation, candidate
scoring on the public validation set, winner selection and chain append.

Topologies:

* ``rfc``: clients are partitioned into disjoint pools; each pool trains and
  aggregates independently, candidates compete on the shared validation set,
  and the winner is sealed into the chain.
* ``client_server``: all sampled clients feed one aggregation per round and
  the single candidate is committed without a selection step (the classic
  baseline). The per-round server step is G <- G + eta * (aggregate - G).

A round samples every pool, trains all sampled clients in one
``models.train_clients`` call, then aggregates and scores pool by pool. No
pool's result depends on that order or on the other pools' clients: every
random draw is pre-derived per (round, pool, client, purpose) rather than
consumed from a shared generator, and the chain hashes rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

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
    num_pools: int = 3
    clients_per_pool: int = 10
    rounds: int = 30
    clients_sampled_per_round: int = 18
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
    master_seed: int = 42
    topology: str = "rfc"
    server_eta: float = 1.0
    chain_difficulty: int = 0

    def __post_init__(self):
        if self.num_pools < 1:
            raise ValueError(f"num_pools must be >= 1, got {self.num_pools}")
        if self.clients_per_pool < 1:
            raise ValueError(f"clients_per_pool must be >= 1, got {self.clients_per_pool}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.server_eta <= 0:
            raise ValueError("server_eta must be > 0")
        if not 0 <= self.chain_difficulty <= MAX_RUN_DIFFICULTY:
            raise ValueError(f"chain_difficulty must lie in [0, {MAX_RUN_DIFFICULTY}], got "
                             f"{self.chain_difficulty}: sealing takes about 2**d hashes per block")
        quota = self.sample_quota()
        _, group = self.group_shape()
        if quota > group:
            raise ValueError(f"sample size {quota} exceeds group size {group}")
        need = aggregation.min_updates(self.aggregator)
        if quota < need:
            raise ValueError(f"rule {self.aggregator.rule} needs at least {need} updates per aggregation, sample gives {quota}")
        adv = self.adversary
        if adv.placement == "one_pool" and not 0 <= adv.pool_id < self.num_pools:
            raise ValueError(f"adversary pool {adv.pool_id} out of range for {self.num_pools} pools")
        if adv.placement != "none" and adv.adversaries_per_pool > self.clients_per_pool:
            raise ValueError("adversaries_per_pool exceeds clients_per_pool")

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
    pool_id: int
    model: Optional[np.ndarray]
    metric_value: float
    clients: Tuple[int, ...]
    disqualified: bool = False
    note: str = ""


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
        return attacks.flip_labels(data, partition.num_classes)
    seed = derive_seed(cfg.master_seed, round_idx, pool_id, cid, "poison")
    return attacks.poison_examples(data, partition.height, partition.width, adv, seed)


def _play_round(cfg: FederationConfig, partition: FederatedPartition,
                groups: Sequence[Tuple[int, Sequence[int]]], adversarial: frozenset,
                global_model: np.ndarray, round_idx: int, quota: int) -> Tuple[PoolCandidate, ...]:
    """Sample every pool, train all sampled clients in one call, then build each pool's candidate."""
    samples, datasets, seeds = [], [], []
    for pool_id, members in groups:
        sampled = sample_clients(members, pool_id, round_idx, quota, cfg.master_seed)
        if not all(cid in members for cid in sampled):
            raise ProvenanceError(f"round {round_idx}: pool {pool_id} sampled foreign clients")
        samples.append((pool_id, sampled))
        for cid in sampled:
            datasets.append(_client_data(cfg, partition, cid, cid in adversarial, round_idx, pool_id))
            seeds.append(derive_seed(cfg.master_seed, round_idx, pool_id, cid, "shuffle"))
    trained, diverged = models.train_clients(cfg.model, global_model, datasets, cfg.optimizer, seeds)
    candidates, lo = [], 0
    for pool_id, sampled in samples:
        errors = [(cid, diverged[i]) for i, cid in enumerate(sampled, lo) if i in diverged]
        candidates.append(_pool_candidate(cfg, partition, pool_id, sampled, trained[lo : lo + len(sampled)],
                                          errors, adversarial, global_model, round_idx))
        lo += len(sampled)
    return tuple(candidates)


def _pool_candidate(cfg: FederationConfig, partition: FederatedPartition, pool_id: int,
                    sampled: Sequence[int], updates: np.ndarray,
                    errors: List[Tuple[int, models.DivergenceError]], adversarial: frozenset,
                    global_model: np.ndarray, round_idx: int) -> PoolCandidate:
    """Boost (rows in place), aggregate and score one pool's ``[n, P]`` updates, or name a diverged client."""
    def disqualified(note: str) -> PoolCandidate:
        return PoolCandidate(pool_id, None, float("nan"), tuple(sampled), True, note)

    if errors:
        cid, exc = errors[0]
        return disqualified(f"client {cid} diverged in round {round_idx}: {exc}")
    adv_positions = [pos for pos, cid in enumerate(sampled) if cid in adversarial]

    adv = cfg.adversary
    # Overflow here only yields inf/nan, which the finiteness checks below disqualify.
    with np.errstate(over="ignore", invalid="ignore"):
        if adv.boost == "replacement" and adv_positions:
            # Colluding adversaries in one aggregation split the replacement factor
            # n/eta between them so the averaged update still lands on their model.
            k = len(adv_positions)
            for pos in adv_positions:
                updates[pos] = attacks.boost_update(updates[pos], global_model,
                                                    len(updates), adv.boost_eta * k)

        try:
            aggregated = aggregation.aggregate(cfg.aggregator, updates)
        except ValueError as exc:
            return disqualified(f"aggregation failed in round {round_idx}: {exc}")
        candidate_model = server_update(global_model, aggregated, cfg.server_eta)
        if not np.all(np.isfinite(candidate_model)):
            return disqualified(f"non-finite candidate in round {round_idx}")
        value = metrics.score_model(cfg.metric, cfg.model, candidate_model, partition.validation)
    if not np.isfinite(value):
        return disqualified(f"non-finite validation metric in round {round_idx}")
    return PoolCandidate(pool_id, candidate_model, float(value), tuple(sampled))


def run_federation(cfg: FederationConfig, partition: FederatedPartition) -> FederationResult:
    """Execute the full run: genesis, ``rounds`` consensus rounds, per-round records."""
    if partition.height * partition.width != cfg.model.input_dim:
        raise ValueError(f"model input_dim {cfg.model.input_dim} does not match grid "
                         f"{partition.height}x{partition.width}")
    if partition.num_classes != cfg.model.num_classes:
        raise ValueError(f"model num_classes {cfg.model.num_classes} does not match dataset "
                         f"{partition.num_classes}")
    missing = [c for c in range(cfg.total_clients()) if c not in partition.client_data]
    if missing:
        raise ValueError(f"partition lacks data for clients {missing[:5]}")

    count, size = cfg.group_shape()
    groups = [(g, range(g * size, (g + 1) * size)) for g in range(count)]
    quota = cfg.sample_quota()
    adversarial = attacks.assign_adversaries(cfg.num_pools, cfg.clients_per_pool,
                                             cfg.adversary, cfg.master_seed)

    adv = cfg.adversary
    backdoor_test = None
    if adv.attack == "backdoor":
        backdoor_test = attacks.build_backdoor_test(partition.test, partition.height,
                                                    partition.width, adv.trigger_size)

    try:
        global_model = models.init_params(cfg.model, derive_seed(cfg.master_seed, 0, 0, 0, "init"))
    except (MemoryError, ValueError) as exc:  # numpy's refusals: past memory, or past any array's size
        raise MemoryError(f"model.hidden_dim = {cfg.model.hidden_dim} is too large: "
                          f"{models.param_count(cfg.model)} parameters: {exc}") from exc
    ledger = chain_mod.genesis(global_model, cfg.chain_difficulty)

    records: List[metrics.RoundRecord] = []
    all_candidates: List[Tuple[PoolCandidate, ...]] = []
    for round_idx in range(1, cfg.rounds + 1):
        candidates = _play_round(cfg, partition, groups, adversarial, global_model, round_idx, quota)

        winner = select_winner(candidates, cfg.metric.direction)
        if winner is None:
            raise RoundAbortError(round_idx, [c.note for c in candidates])
        global_model = winner.model
        ledger = chain_mod.append(ledger, global_model, round_idx, winner.pool_id, cfg.metric.name,
                                  winner.metric_value, cfg.aggregator.rule)

        test_loss, test_acc = models.evaluate(cfg.model, global_model, partition.test)
        if backdoor_test is not None:
            bd_target, bd_clean, bd_loss = metrics.evaluate_backdoor(cfg.model, global_model,
                                                                     backdoor_test, adv.target_label)
        else:
            bd_target = bd_clean = bd_loss = float("nan")
        records.append(metrics.RoundRecord(
            round=round_idx, winning_pool=winner.pool_id,
            val_metric=winner.metric_value, test_accuracy=test_acc, test_loss=test_loss,
            backdoor_accuracy_target=bd_target, backdoor_accuracy_clean=bd_clean,
            backdoor_loss=bd_loss,
            pool_metrics=tuple(c.metric_value for c in candidates)))
        # the winner lives on as global_model; the record keeps no candidate's model
        all_candidates.append(tuple(replace(c, model=None) for c in candidates))

    return FederationResult(final_model=global_model, records=records, chain=ledger,
                            candidates=all_candidates)
