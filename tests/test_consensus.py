import dataclasses
import functools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfc_sim import chain as chain_mod
from rfc_sim import aggregation, consensus, metrics, params
from rfc_sim import models as models_mod
from rfc_sim.aggregation import AggregatorConfig
from rfc_sim.attacks import AdversaryConfig
from rfc_sim.config import build_partition, desk_default, preset
from rfc_sim.consensus import (FederationConfig, PoolCandidate, RoundAbortError, sample_clients,
                               select_winner, server_update)
from rfc_sim.metrics import MetricSpec
from rfc_sim.models import ModelSpec, OptimizerConfig
from rfc_sim.cli import records_csv_text
from rfc_sim.seeds import derive_seed


def tiny_config(**overrides):
    """2 pools x 4 clients on a 3x3 grid; a full run takes well under a second."""
    base = dict(
        num_pools=2, clients_per_pool=4, rounds=3, clients_sampled_per_round=4,
        model=ModelSpec("linear", 9, 3),
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.01, local_epochs=2, batch_size=8),
        aggregator=AggregatorConfig(rule="fedavg"),
        metric=MetricSpec("accuracy"),
        adversary=AdversaryConfig(),
        master_seed=7, topology="rfc",
    )
    base.update(overrides)
    return FederationConfig(**base)


def tiny_run_config(fed):
    rc = desk_default()
    data = replace(rc.data, height=3, width=3, num_classes=3, per_class=40, noise_sigma=0.2)
    return replace(rc, federation=fed, data=data)


def run_tiny(**overrides):
    fed = tiny_config(**overrides)
    return consensus.run_federation(fed, build_partition(tiny_run_config(fed)))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(rounds=0)
    with pytest.raises(ValueError):
        tiny_config(topology="p2p")
    with pytest.raises(ValueError):
        tiny_config(clients_sampled_per_round=0)
    with pytest.raises(ValueError):
        tiny_config(clients_sampled_per_round=20)  # quota 10 > pool size 4
    with pytest.raises(ValueError, match="krum"):
        tiny_config(aggregator=AggregatorConfig(rule="krum", krum_f=2))  # quota 2 < f+3
    with pytest.raises(ValueError, match="out of range"):
        tiny_config(adversary=AdversaryConfig(attack="labelflip", placement="one_pool", pool_id=9))
    with pytest.raises(ValueError, match="adversaries_per_pool exceeds clients_per_pool"):
        tiny_config(adversary=AdversaryConfig(attack="labelflip", placement="all_pools",
                                              adversaries_per_pool=5))  # pools of 4
    with pytest.raises(ValueError, match="chain_difficulty"):
        tiny_config(chain_difficulty=21)
    assert tiny_config(chain_difficulty=20).chain_difficulty == 20


def test_sample_quota_banker_rounding_documented():
    cfg = tiny_config(num_pools=2, clients_sampled_per_round=4)
    assert cfg.sample_quota() == 2
    assert tiny_config(num_pools=2, clients_sampled_per_round=5).sample_quota() == 2  # 2.5 -> 2
    assert tiny_config(num_pools=2, clients_sampled_per_round=7).sample_quota() == 4  # 3.5 -> 4
    cs = tiny_config(topology="client_server", clients_sampled_per_round=5)
    assert cs.sample_quota() == 5


def test_group_shape_per_topology():
    assert tiny_config(num_pools=3, clients_per_pool=4).group_shape() == (3, 4)
    assert tiny_config(num_pools=3, clients_per_pool=4, topology="client_server").group_shape() == (1, 12)


@pytest.mark.parametrize("topology", ["rfc", "client_server"])
def test_huge_sample_count_refused_by_group_size(topology):
    # the quota is exact: a sample count past float range is refused, not an OverflowError
    size = {"rfc": "clients_per_pool = 4", "client_server": "num_pools x clients_per_pool = 8"}[topology]
    with pytest.raises(ValueError, match=f"^clients_sampled_per_round = {10**400} gives \\d+ clients per "
                                         f"aggregation, more than {size}$"):
        tiny_config(topology=topology, clients_sampled_per_round=10**400)


def test_sample_clients_full_pool_and_determinism():
    members = list(range(10, 18))
    full = sample_clients(members, 0, 1, 8, master_seed=3)
    assert sorted(full) == members
    a = sample_clients(members, 2, 5, 4, master_seed=3)
    b = sample_clients(members, 2, 5, 4, master_seed=3)
    assert a == b
    assert len(set(a)) == 4 and set(a) <= set(members)
    with pytest.raises(ValueError):
        sample_clients(members, 0, 1, 9, master_seed=3)


def test_sample_clients_varies_across_rounds():
    members = list(range(12))
    draws = {tuple(sorted(sample_clients(members, 0, r, 6, master_seed=1))) for r in range(100)}
    assert len(draws) > 1


def test_select_winner_maximize():
    cands = [PoolCandidate(0, 0.8, ()), PoolCandidate(1, 0.9, ()), PoolCandidate(2, 0.7, ())]
    assert select_winner(cands, "maximize").pool_id == 1


def test_select_winner_minimize_with_disqualified():
    cands = [PoolCandidate(0, 0.5, ()), PoolCandidate(1, 0.4, ()),
             PoolCandidate(2, float("nan"), (), "non-finite candidate in round 1")]
    assert select_winner(cands, "minimize").pool_id == 1


@pytest.mark.parametrize("direction,values,winner", [
    ("maximize", [0.9, 0.9], 0),
    ("minimize", [0.9, 0.9], 0),
    # only a strictly lower value displaces the leader: pool 2 ties pool 1 and loses to it
    ("minimize", [0.5, 0.3, 0.3, 0.4], 1),
], ids=["maximize", "minimize", "minimize_after_lead_change"])
def test_select_winner_tie_breaks_to_lowest_pool(direction, values, winner):
    cands = [PoolCandidate(pool, value, ()) for pool, value in enumerate(values)]
    assert select_winner(cands, direction).pool_id == winner


def test_select_winner_none_when_all_disqualified():
    cands = [PoolCandidate(0, float("nan"), (), "aggregation failed in round 1: refused")]
    assert select_winner(cands, "maximize") is None


def test_server_update_eta_one_replaces():
    g = np.array([1.0, 2.0])
    agg = np.array([3.0, 5.0])
    assert np.array_equal(server_update(g, agg, 1.0), agg)
    assert np.allclose(server_update(g, agg, 0.5), np.array([2.0, 3.5]))


def test_run_federation_shapes_and_chain():
    result = run_tiny()
    assert len(result.records) == 3
    assert len(result.chain.blocks) == 4
    assert chain_mod.validate(result.chain) is None
    assert [r.round for r in result.records] == [1, 2, 3]


def test_run_federation_deterministic():
    a = run_tiny()
    b = run_tiny()
    assert a.chain.blocks[-1].hash == b.chain.blocks[-1].hash
    assert records_csv_text(a) == records_csv_text(b)
    c = run_tiny(master_seed=8)
    assert c.chain.blocks[-1].hash != a.chain.blocks[-1].hash


SPLIT_ROUNDS = 6


def exports(result):
    """The run's records.csv and chain.jsonl text, as cli.write_outputs writes them."""
    return records_csv_text(result), chain_mod.export_lines(result.chain)


@functools.lru_cache(maxsize=None)
def split_run_case(topology):
    """The one_pool_backdoor preset that test_golden.py pins at 3 rounds, here over 6 rounds sealed at
    difficulty 4: its federation config, its partition and the exports of the whole run."""
    rc = preset("one_pool_backdoor", desk_default())
    fed = replace(rc.federation, topology=topology, rounds=SPLIT_ROUNDS, chain_difficulty=4)
    partition = build_partition(replace(rc, federation=fed))
    return fed, partition, exports(consensus.run_federation(fed, partition))


@settings(max_examples=20)
@given(st.sampled_from(["rfc", "client_server"]), st.integers(1, SPLIT_ROUNDS - 1))
def test_split_run_equals_whole_run(topology, split):
    """Rounds 1..split as one run, then each later round by play_round from the model its last block
    certifies, appended as run_federation appends: the same records.csv and chain.jsonl bytes as one run."""
    fed, partition, whole = split_run_case(topology)
    head = consensus.run_federation(replace(fed, rounds=split), partition)
    model, ledger = head.final_model, head.chain
    records, candidates = list(head.records), list(head.candidates)
    for round_idx in range(split + 1, SPLIT_ROUNDS + 1):
        assert params.digest(model) == ledger.blocks[-1].payload_digest
        model, record, round_candidates = consensus.play_round(fed, partition, model, round_idx)
        ledger = chain_mod.append(ledger, model, round_idx, record.winning_pool, fed.metric.name,
                                  record.val_metric, fed.aggregator.rule)
        records.append(record)
        candidates.append(round_candidates)
    assert exports(consensus.FederationResult(model, records, ledger, candidates)) == whole


def test_chain_and_records_agree():
    result = run_tiny()
    for rec, block in zip(result.records, result.chain.blocks[1:]):
        assert block.round == rec.round
        assert block.winning_pool_id == rec.winning_pool
        assert block.metric_value == rec.val_metric
        assert block.metric_name == "accuracy"
        assert block.aggregator_rule == "fedavg"


def test_genesis_and_tip_payload_digests_certify_init_and_final_model():
    fed = tiny_config()
    result = consensus.run_federation(fed, build_partition(tiny_run_config(fed)))
    init = models_mod.init_params(fed.model, derive_seed(fed.master_seed, 0, 0, 0, "init"))
    assert result.chain.blocks[0].payload_digest == params.digest(init)
    assert result.chain.blocks[-1].payload_digest == params.digest(result.final_model)


def test_candidates_are_recorded_without_models():
    # pool 0's adversary boosts past the float range, so its candidate is non-finite in every round
    adv = AdversaryConfig(attack="backdoor", placement="one_pool", pool_id=0, adversaries_per_pool=1,
                          boost="replacement", boost_eta=1e-308, trigger_size=1, target_label=0)
    result = run_tiny(adversary=adv)
    assert [[c.disqualified for c in cands] for cands in result.candidates] == [[True, False]] * 3
    for round_cands in result.candidates:
        for cand in round_cands:
            # plain data: every field serializes as it is, and the note alone decides disqualification
            assert json.loads(json.dumps(dataclasses.asdict(cand)))["pool_id"] == cand.pool_id
            assert cand.disqualified == bool(cand.note)
    # records.csv's pool columns are the candidates' scores, nan for the disqualified pool 0
    rows = [line.split(",") for line in records_csv_text(result).splitlines()]
    assert rows[0][-2:] == ["pool0_metric", "pool1_metric"]
    for row, round_cands in zip(rows[1:], result.candidates, strict=True):
        assert row[-2:] == [repr(c.metric_value) for c in round_cands]
        assert row[-2] == "nan"


def test_benign_desk_training_reaches_090_by_round_20():
    rc = desk_default()
    fed = replace(rc.federation, rounds=20)
    result = consensus.run_federation(fed, build_partition(replace(rc, federation=fed)))
    assert result.records[-1].test_accuracy >= 0.90


def test_macro_f1_consensus_metric_runs():
    result = run_tiny(metric=MetricSpec("macro_f1"))
    for rec, round_cands in zip(result.records, result.candidates):
        assert 0.0 <= rec.val_metric <= 1.0
        finite = [c.metric_value for c in round_cands if math.isfinite(c.metric_value)]
        assert rec.val_metric == max(finite)
    assert result.chain.blocks[-1].metric_name == "macro_f1"


def test_label_shard_partition_runs_end_to_end():
    fed = tiny_config(aggregator=AggregatorConfig(rule="geomed"))
    rc = tiny_run_config(fed)
    rc = replace(rc, data=replace(rc.data, scheme="label_shard", shards_per_client=2))
    result = consensus.run_federation(rc.federation, build_partition(rc))
    assert len(result.records) == 3
    assert result.records[-1].test_accuracy > 0.0


def test_winner_dominates_pool_metrics():
    result = run_tiny(num_pools=2, clients_sampled_per_round=6)
    for rec, round_cands in zip(result.records, result.candidates):
        finite = [c.metric_value for c in round_cands if math.isfinite(c.metric_value)]
        assert rec.val_metric == max(finite)


def test_winner_dominates_under_loss_metric():
    result = run_tiny(metric=MetricSpec("loss"))
    for rec, round_cands in zip(result.records, result.candidates):
        finite = [c.metric_value for c in round_cands if math.isfinite(c.metric_value)]
        assert rec.val_metric == min(finite)


def test_single_pool_rfc_equals_client_server():
    rfc = run_tiny(num_pools=1, clients_per_pool=8, clients_sampled_per_round=4)
    cs = run_tiny(num_pools=1, clients_per_pool=8, clients_sampled_per_round=4,
                  topology="client_server")
    assert rfc.chain.blocks[-1].hash == cs.chain.blocks[-1].hash
    assert records_csv_text(rfc) == records_csv_text(cs)


def test_client_server_single_candidate_per_round():
    result = run_tiny(topology="client_server", clients_sampled_per_round=5)
    for rec, round_cands in zip(result.records, result.candidates):
        assert len(round_cands) == 1
        assert rec.winning_pool == 0


def test_pool_isolation_adversarial_run():
    adv = AdversaryConfig(attack="labelflip", placement="one_pool", pool_id=0,
                          adversaries_per_pool=1, boost="replacement")
    result = run_tiny(adversary=adv, rounds=4)
    cpp = tiny_config().clients_per_pool
    for round_cands in result.candidates:
        for cand in round_cands:
            members = set(range(cand.pool_id * cpp, (cand.pool_id + 1) * cpp))
            assert set(cand.clients) <= members


def test_backdoor_run_populates_backdoor_metrics():
    adv = AdversaryConfig(attack="backdoor", placement="all_pools", adversaries_per_pool=1,
                          boost="replacement", trigger_size=1, target_label=0)
    result = run_tiny(adversary=adv)
    for rec in result.records:
        assert math.isfinite(rec.backdoor_accuracy_target)
        assert math.isfinite(rec.backdoor_accuracy_clean)
        assert math.isfinite(rec.backdoor_loss)
        assert 0.0 <= rec.backdoor_accuracy_target <= 1.0


def test_no_attack_run_has_nan_backdoor_fields():
    result = run_tiny()
    for rec in result.records:
        assert math.isnan(rec.backdoor_accuracy_target)
        assert math.isnan(rec.backdoor_loss)


def test_round_abort_when_every_candidate_bad(monkeypatch):
    monkeypatch.setattr(metrics, "score_model", lambda metric, spec, p, data: np.full(len(p), np.nan))
    with pytest.raises(RoundAbortError) as err:
        run_tiny()
    assert err.value.round_idx == 1


def test_divergent_clients_disqualify_pool_and_abort_round(monkeypatch):
    def blow_up(spec, start, datasets, opt, seeds):
        return (np.full((len(seeds), models_mod.param_count(spec)), np.nan),
                {i: models_mod.DivergenceError("synthetic blow-up") for i in range(len(seeds))})

    monkeypatch.setattr(models_mod, "train_clients", blow_up)
    with pytest.raises(RoundAbortError) as err:
        run_tiny()
    assert err.value.round_idx == 1
    assert "diverged" in str(err.value)


def diverge_everyone(spec, start, datasets, opt, seeds):
    return (np.full((len(seeds), models_mod.param_count(spec)), np.nan),
            {i: models_mod.DivergenceError("blow-up") for i in range(len(seeds))})


def refuse_to_aggregate(cfg, updates):
    raise ValueError("refused")


@pytest.mark.parametrize("owner,name,replacement,note", [
    (models_mod, "train_clients", diverge_everyone, r"client \d+ diverged in round 1: blow-up"),
    (aggregation, "aggregate", refuse_to_aggregate, "aggregation failed in round 1: refused"),
    (aggregation, "aggregate", lambda cfg, updates: np.full(updates.shape[1], np.inf),
     "non-finite candidate in round 1"),
    (metrics, "score_model", lambda metric, spec, p, data: np.full(len(p), np.nan),
     "non-finite validation metric in round 1"),
], ids=["diverged", "aggregation_failed", "non_finite_candidate", "non_finite_metric"])
def test_round_abort_notes_every_candidate(monkeypatch, owner, name, replacement, note):
    monkeypatch.setattr(owner, name, replacement)
    with pytest.raises(RoundAbortError) as err:
        run_tiny()
    assert len(err.value.notes) == 2  # one per pool
    for pool_note in err.value.notes:
        assert re.fullmatch(note, pool_note)


def test_round_abort_when_no_candidate_is_finite_under_macro_f1(monkeypatch):
    # no row reaches the stacked scoring pass, so macro_f1 scores zero candidates
    monkeypatch.setattr(aggregation, "aggregate", lambda cfg, updates: np.full(updates.shape[1], np.inf))
    with pytest.raises(RoundAbortError) as err:
        run_tiny(metric=MetricSpec("macro_f1"))
    assert err.value.notes == ("non-finite candidate in round 1",) * 2


def test_play_round_notes_each_disqualification_in_pool_order(monkeypatch):
    """One stacked round: pools 0-3 each in one disqualification state, pool 4 qualified."""
    fed = tiny_config(num_pools=5, clients_sampled_per_round=10, metric=MetricSpec("loss"))
    partition = build_partition(tiny_run_config(fed))
    real_train, real_aggregate = models_mod.train_clients, aggregation.aggregate

    def pool0_second_client_diverges(spec, start, datasets, opt, seeds):
        trained, diverged = real_train(spec, start, datasets, opt, seeds)
        trained[1], diverged[1] = np.nan, models_mod.DivergenceError("blow-up")  # row 1: pool 0's second client
        return trained, diverged

    def refuse(cfg, updates):
        raise ValueError("refused")

    # pool 0 never aggregates; pools 1-4 aggregate in pool order
    rules = iter([refuse, lambda cfg, updates: np.full(updates.shape[1], np.inf),
                  lambda cfg, updates: np.full(updates.shape[1], 1e308), real_aggregate])
    monkeypatch.setattr(models_mod, "train_clients", pool0_second_client_diverges)
    monkeypatch.setattr(aggregation, "aggregate", lambda cfg, updates: next(rules)(cfg, updates))
    start = models_mod.init_params(fed.model, 3)
    cands, stack = consensus._pool_candidates(fed, partition, frozenset(), start, 1)
    assert [c.pool_id for c in cands] == [0, 1, 2, 3, 4]
    assert [c.note for c in cands] == [
        f"client {cands[0].clients[1]} diverged in round 1: blow-up", "aggregation failed in round 1: refused",
        "non-finite candidate in round 1", "non-finite validation metric in round 1", ""]
    assert [c.disqualified for c in cands] == [True] * 4 + [False]
    assert all(math.isnan(c.metric_value) for c in cands[:4])
    assert stack.shape == (5, models_mod.param_count(fed.model))
    assert cands[4].metric_value == metrics.score_model(fed.metric, fed.model, stack[4], partition.validation)
    assert all(len(c.clients) == 2 for c in cands)


def test_divergent_pool_disqualified_while_others_proceed(monkeypatch):
    real_train = models_mod.train_clients
    # training seeds are derived per (round, pool, client); poison all of pool 0's
    pool0_seeds = {derive_seed(7, r, 0, cid, "shuffle") for r in (1, 2) for cid in range(4)}

    def pool0_blows_up(spec, start, datasets, opt, seeds):
        trained, diverged = real_train(spec, start, datasets, opt, seeds)
        for i, seed in enumerate(seeds):
            if seed in pool0_seeds:
                trained[i] = np.nan
                diverged[i] = models_mod.DivergenceError("synthetic blow-up")
        return trained, diverged

    monkeypatch.setattr(models_mod, "train_clients", pool0_blows_up)
    result = run_tiny(rounds=2)
    assert len(result.records) == 2
    for r, round_cands in enumerate(result.candidates, 1):
        assert round_cands[0].disqualified
        # the first diverged client in sample order names the note
        assert round_cands[0].note == f"client {round_cands[0].clients[0]} diverged in round {r}: synthetic blow-up"
        assert not round_cands[1].disqualified
    assert all(rec.winning_pool == 1 for rec in result.records)


def test_partition_mismatch_rejected():
    fed = tiny_config(model=ModelSpec("linear", 16, 3))
    rc = desk_default()
    data = replace(rc.data, height=3, width=3, num_classes=3, per_class=40)
    with pytest.raises(ValueError, match="input_dim"):
        consensus.run_federation(fed, build_partition(replace(rc, federation=fed, data=data)))
    fed = tiny_config()
    partition = build_partition(replace(rc, federation=fed, data=data))
    del partition.client_data[5]
    with pytest.raises(ValueError, match=r"^partition lacks data for clients \[5\]$"):
        consensus.run_federation(fed, partition)
