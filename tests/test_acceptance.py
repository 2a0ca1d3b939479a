"""Acceptance suite: exact property checks plus directional desk-scale findings.

Each test prints one PASS/FAIL line. The desk-scale runs (30 clients, 3 pools,
30 rounds, synthetic 3-class 8x8 data) are cached across criteria and averaged
over seeds {1, 2, 3}.
"""

import dataclasses
import math
import os
import random
import struct
import subprocess
import sys
import time

import numpy as np

from rfc_sim import aggregation, attacks, chain as chain_mod, consensus, metrics, models
from rfc_sim.aggregation import AggregatorConfig
from rfc_sim.chain import Chain
from rfc_sim.cli import records_csv_text
from rfc_sim.config import build_partition, desk_default, preset, with_master_seed
from reference import bf_bulyan, bf_geomed, bf_krum, bf_krum_scores, bf_mean, forward_loss_grad

SEEDS = (1, 2, 3)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------- desk runs

_cache = {}


def desk_run(scenario, rule, topology, seed):
    key = (scenario, rule, topology, seed)
    if key not in _cache:
        rc = preset(scenario, desk_default())
        fed = rc.federation
        fed = dataclasses.replace(fed, aggregator=dataclasses.replace(fed.aggregator, rule=rule),
                                  topology=topology)
        rc = with_master_seed(dataclasses.replace(rc, federation=fed), seed)
        _cache[key] = consensus.run_federation(rc.federation, build_partition(rc))
    return _cache[key]


def avg_final(scenario, rule, topology, field="test_accuracy"):
    values = [getattr(desk_run(scenario, rule, topology, s).records[-1], field) for s in SEEDS]
    return sum(values) / len(values)


# ------------------------------------------------- 1. aggregator oracles


def close(a, b):
    return all(math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12) for x, y in zip(a, b))


def test_criterion_01_aggregator_oracle_equivalence():
    rng = random.Random(20240817)
    start = time.monotonic()
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        dim = rng.randint(1, 3)
        rows = [[rng.uniform(-10, 10) for _ in range(dim)] for _ in range(n)]
        updates = np.array(rows)
        assert close(aggregation.aggregate(AggregatorConfig("fedavg"), updates), bf_mean(rows))
        assert close(aggregation.aggregate(AggregatorConfig("geomed"), updates), bf_geomed(rows))
        if n >= 3:
            f = rng.randint(0, n - 3)
            m = rng.randint(1, n)
            assert close(aggregation.aggregate(AggregatorConfig("krum", f), updates), bf_krum(rows, f))
            assert close(aggregation.aggregate(AggregatorConfig("bulyan", f, m), updates), bf_bulyan(rows, f, m))
        checked += 1
    elapsed = time.monotonic() - start
    report(1, checked == 200 and elapsed < 5.0,
           f"fedavg/krum/bulyan/geomed match brute force on {checked} instances "
           f"within 1e-12 ({elapsed:.2f}s)")


def test_criterion_02_krum_worked_example():
    updates = np.array([[0.0], [0.1], [0.2], [10.0]])
    scores = aggregation.krum_scores(updates, f=1)
    expected = [0.01, 0.01, 0.01, 96.04]
    scores_ok = all(math.isclose(s, e, rel_tol=1e-9) for s, e in zip(scores, expected))
    bf = bf_krum_scores([[0.0], [0.1], [0.2], [10.0]], 1)
    oracle_ok = all(math.isclose(s, e, rel_tol=1e-12) for s, e in zip(scores, bf))
    krum = AggregatorConfig("krum", krum_f=1)
    select_ok = aggregation.select(krum, updates) == [0] and aggregation.aggregate(krum, updates)[0] == 0.0
    report(2, scores_ok and oracle_ok and select_ok,
           f"krum scores {[round(s, 6) for s in scores]} with tie-break to index 0")


def test_criterion_03_model_replacement_identity():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 50)
        eta = rng.choice([0.5, 1.0, 2.0])
        dim = rng.randint(1, 8)
        v_adv = np.array([rng.uniform(-5, 5) for _ in range(dim)])
        v_g = np.array([rng.uniform(-5, 5) for _ in range(dim)])
        boosted = attacks.boost_update(v_adv, v_g, n, eta)
        mean = aggregation.aggregate(AggregatorConfig(), np.array([boosted] + [v_g] * (n - 1)))
        landed = consensus.server_update(v_g, mean, eta)
        rel = float(np.max(np.abs(landed - v_adv) / (1.0 + np.abs(v_adv))))
        worst = max(worst, rel)
    report(3, worst < 1e-9, f"boosted update overrides the server average "
                            f"(worst relative error {worst:.2e} over 100 cases)")


# ------------------------------------------------------- 4. chain tampering


def _flip_bit_int(value, fmt, rng):
    raw = bytearray(struct.pack(fmt, value))
    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
    return struct.unpack(fmt, bytes(raw))[0]


def _flip_bit_bytes(value, rng):
    raw = bytearray(value)
    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
    return bytes(raw)


def _flip_bit_str(value, rng):
    pos = rng.randrange(len(value))
    flipped = chr(ord(value[pos]) ^ (1 << rng.randrange(7)))
    return value[:pos] + flipped + value[pos + 1 :]


def _tamper(block, rng):
    fields = ["index", "timestamp", "payload_digest", "round", "winning_pool_id",
              "metric_value", "nonce", "prev_hash", "hash"]
    if block.metric_name:
        fields.append("metric_name")
    if block.aggregator_rule:
        fields.append("aggregator_rule")
    field = rng.choice(fields)
    if field == "index":
        return dataclasses.replace(block, index=_flip_bit_int(block.index, "<Q", rng))
    if field == "timestamp":
        return dataclasses.replace(block, timestamp=_flip_bit_int(block.timestamp, "<Q", rng))
    if field == "nonce":
        return dataclasses.replace(block, nonce=_flip_bit_int(block.nonce, "<Q", rng))
    if field == "payload_digest":
        return dataclasses.replace(block, payload_digest=_flip_bit_bytes(block.payload_digest, rng))
    if field == "prev_hash":
        return dataclasses.replace(block, prev_hash=_flip_bit_bytes(block.prev_hash, rng))
    if field == "hash":
        return dataclasses.replace(block, hash=_flip_bit_bytes(block.hash, rng))
    if field == "round":
        return dataclasses.replace(block, round=_flip_bit_int(block.round, "<Q", rng))
    if field == "winning_pool_id":
        return dataclasses.replace(block, winning_pool_id=_flip_bit_int(block.winning_pool_id, "<q", rng))
    if field == "metric_value":
        return dataclasses.replace(block, metric_value=_flip_bit_int(block.metric_value, "<d", rng))
    if field == "metric_name":
        return dataclasses.replace(block, metric_name=_flip_bit_str(block.metric_name, rng))
    return dataclasses.replace(block, aggregator_rule=_flip_bit_str(block.aggregator_rule, rng))


def test_criterion_04_chain_tamper_suite():
    ledger = chain_mod.genesis(np.array([1.0, -2.0, 3.0]), 0)
    for t in range(1, 10):
        ledger = chain_mod.append(ledger, np.array([float(t), 0.5, -1.0]),
                                  t, t % 3, "accuracy", 0.9 - 0.01 * t, "fedavg")
    assert len(ledger.blocks) == 10
    rng = random.Random(4242)
    start = time.monotonic()
    misses = 0
    for _ in range(1000):
        idx = rng.randrange(len(ledger.blocks))
        blocks = list(ledger.blocks)
        blocks[idx] = _tamper(blocks[idx], rng)
        reported = chain_mod.validate(Chain(tuple(blocks), 0))
        if reported is None or reported > idx + 1:
            misses += 1
    elapsed = time.monotonic() - start
    report(4, misses == 0 and elapsed < 10.0,
           f"1000 single-bit flips all detected at or before the successor block ({elapsed:.2f}s)")


def test_criterion_05_gradient_correctness():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(50):
        if rng.random() < 0.5:
            d = rng.randint(2, 5)
            c = rng.randint(2, 4)
            spec = models.ModelSpec("linear", d, c)
        else:
            d = rng.randint(2, 3)
            c = 2
            h = rng.randint(1, 4)
            spec = models.ModelSpec("mlp", d, c, hidden_dim=h)
        assert models.param_count(spec) <= 50
        p = models.init_params(spec, rng.getrandbits(32))
        from rfc_sim.data import Dataset
        pairs = [([rng.uniform(0, 1) for _ in range(d)], rng.randrange(c))
                 for _ in range(rng.randint(2, 6))]
        batch = Dataset(np.array([x for x, _ in pairs]), np.array([y for _, y in pairs]))
        _, grad, _ = forward_loss_grad(spec, p, batch)
        eps = 1e-5
        for k in range(p.shape[0]):
            hi = p.copy(); hi[k] += eps
            lo = p.copy(); lo[k] -= eps
            num = (forward_loss_grad(spec, hi, batch)[0]
                   - forward_loss_grad(spec, lo, batch)[0]) / (2 * eps)
            worst = max(worst, abs(grad[k] - num))
    report(5, worst < 1e-6, f"analytic gradients match central differences "
                            f"(worst abs diff {worst:.2e} over 50 models)")


def test_criterion_06_end_to_end_determinism(tmp_path):
    # Two fresh interpreters with different string-hash seeds, so neither
    # in-process caches nor set/dict iteration order can make the runs agree.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
    exports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed{hash_seed}"
        subprocess.run([sys.executable, "-m", "rfc_sim", "run", "--out", str(out)],
                       env=dict(env, PYTHONHASHSEED=hash_seed), check=True,
                       capture_output=True, timeout=600)
        exports.append(((out / "records.csv").read_bytes(), (out / "chain.jsonl").read_bytes()))
    rc = desk_default()
    result = consensus.run_federation(rc.federation, build_partition(rc))
    in_process = (records_csv_text(result).encode(), chain_mod.export_lines(result.chain).encode())
    report(6, exports[0] == exports[1] == in_process,
           f"desk preset records.csv and chain.jsonl byte-identical across two processes "
           f"(PYTHONHASHSEED 0 and 1) and in-process (tip {result.chain.blocks[-1].hash.hex()[:12]})")


def test_criterion_07_pool_isolation():
    violations = 0
    checked = 0
    cpp = desk_default().federation.clients_per_pool
    for seed in SEEDS:
        result = desk_run("one_pool_backdoor", "fedavg", "rfc", seed)
        for round_cands in result.candidates:
            for cand in round_cands:
                members = set(range(cand.pool_id * cpp, (cand.pool_id + 1) * cpp))
                checked += len(cand.clients)
                violations += sum(1 for c in cand.clients if c not in members)
    report(7, violations == 0,
           f"no update provenance crossed pools over 3 adversarial runs ({checked} client updates)")


def test_criterion_08_one_pool_labelflip_degrades_fedavg_not_pofl():
    start = time.monotonic()
    pofl_clean = avg_final("no_attack", "fedavg", "rfc")
    pofl_attacked = avg_final("one_pool_labelflip", "fedavg", "rfc")
    fedavg_attacked = avg_final("one_pool_labelflip", "fedavg", "client_server")
    elapsed = time.monotonic() - start
    stable = pofl_attacked >= 0.90 * pofl_clean
    degraded = fedavg_attacked <= pofl_attacked - 0.10
    report(8, stable and degraded and elapsed < 300,
           f"one-pool labelflip: PoFL {pofl_attacked:.3f} (clean {pofl_clean:.3f}), "
           f"client-server FedAvg {fedavg_attacked:.3f} ({elapsed:.0f}s)")


def test_criterion_09_all_pools_labelflip_needs_robust_rule():
    pofl = avg_final("all_pools_labelflip", "fedavg", "rfc")
    krfc = avg_final("all_pools_labelflip", "krum", "rfc")
    report(9, krfc >= pofl + 0.10,
           f"all-pools labelflip: K-RFC {krfc:.3f} vs PoFL {pofl:.3f}")


def test_criterion_10_backdoor_defense():
    fedavg_bd = avg_final("one_pool_backdoor", "fedavg", "client_server", "backdoor_accuracy_target")
    pofl_bd = avg_final("one_pool_backdoor", "fedavg", "rfc", "backdoor_accuracy_target")
    krfc_bd = avg_final("one_pool_backdoor", "krum", "rfc", "backdoor_accuracy_target")
    pofl_all = avg_final("all_pools_backdoor", "fedavg", "rfc", "backdoor_accuracy_target")
    krfc_all = avg_final("all_pools_backdoor", "krum", "rfc", "backdoor_accuracy_target")
    ok = fedavg_bd >= 0.8 and pofl_bd <= 0.4 and krfc_bd <= 0.4 and krfc_all <= pofl_all - 0.2
    report(10, ok, f"backdoor hits: client-server FedAvg {fedavg_bd:.3f}, one-pool PoFL {pofl_bd:.3f}, "
                   f"K-RFC {krfc_bd:.3f}; all-pools PoFL {pofl_all:.3f} vs K-RFC {krfc_all:.3f}")


def test_criterion_11_no_attack_ranking():
    plain = {rule: avg_final("no_attack", rule, "client_server") for rule in
             ("fedavg", "krum", "bulyan", "geomed")}
    chained = {rule: avg_final("no_attack", rule, "rfc") for rule in
               ("fedavg", "krum", "bulyan", "geomed")}
    robust = [plain["krum"], plain["bulyan"], plain["geomed"],
              chained["krum"], chained["bulyan"], chained["geomed"]]
    top = min(plain["fedavg"], chained["fedavg"])
    dominance = top >= max(robust)
    non_inferior = all(chained[rule] >= plain[rule] - 0.02 for rule in chained)
    report(11, dominance and non_inferior,
           f"no attack: FedAvg {plain['fedavg']:.3f} / PoFL {chained['fedavg']:.3f} top out "
           f"robust variants (max {max(robust):.3f}); every chained variant within 0.02 of its baseline")


def test_criterion_12_summary_statistics_exact():
    series = [0.30, 0.42, 0.55, 0.50, 0.61, 0.66, 0.64, 0.70, 0.72, 0.69, 0.75, 0.74]
    stats = metrics.summarize(series, "maximize")
    acc = 0.0
    for v in series[2:]:
        acc += v
    expected_avg = acc / 10
    max_ok = stats.best == 0.75
    final_ok = stats.final == 0.74
    avg_ok = stats.avg_last_10 == expected_avg
    loss_stats = metrics.summarize(series, "minimize")
    min_ok = loss_stats.best == 0.30
    report(12, max_ok and final_ok and avg_ok and min_ok,
           f"summaries exact: final {stats.final}, best {stats.best}, avg-last-10 {stats.avg_last_10}")
