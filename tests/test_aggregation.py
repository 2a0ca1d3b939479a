import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfc_sim import aggregation, config, consensus, params
from rfc_sim.aggregation import AggregatorConfig, aggregate, krum_scores, select
from rfc_sim.models import ModelSpec
from reference import bf_bulyan, bf_geomed, bf_kept, bf_krum, bf_krum_scores, bf_mean, bf_sq_dist


def vecs(rows):
    """The [n, P] update matrix of the rows."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def fold_mean(rows):
    """Mean of the rows of a matrix as a Python left fold, one row added at a time."""
    acc = np.array(rows[0], dtype=np.float64)
    for row in rows[1:]:
        acc = acc + row
    return acc / len(rows)


FEDAVG = AggregatorConfig("fedavg")
GEOMED = AggregatorConfig("geomed")


def krum_cfg(f):
    return AggregatorConfig("krum", krum_f=f)


def bulyan_cfg(f, m):
    return AggregatorConfig("bulyan", krum_f=f, bulyan_m=m)


def fedavg(updates):
    return aggregate(FEDAVG, updates)


def krum(updates, f):
    return aggregate(krum_cfg(f), updates)


def bulyan(updates, f, m):
    return aggregate(bulyan_cfg(f, m), updates)


def geomed(updates):
    return aggregate(GEOMED, updates)


def test_fedavg_examples():
    assert np.array_equal(fedavg(vecs([[1, 3], [3, 5]])), np.array([2.0, 4.0]))
    assert select(FEDAVG, vecs([[1, 3], [3, 5]])) == [0, 1]
    v = np.array([0.25, -1.5])
    assert np.array_equal(fedavg(vecs([v] * 5)), v)


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_fedavg_permutation_within_tolerance(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert np.allclose(fedavg(vecs(rows)), fedavg(vecs(shuffled)), rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("p", [4, 195, 17411])
def test_aggregate_is_a_left_fold(p):
    """The mean equals a Python left fold bit for bit under FedAvg and Multi-Krum, for n = 1..60."""
    rng = np.random.default_rng(p)
    # rows over six decades, so that a different summation order would show
    X = rng.normal(size=(60, p)) * 10.0 ** rng.uniform(-3, 3, size=(60, 1))
    for n in range(1, 61):
        assert fedavg(X[:n]).tobytes() == fold_mean(X[:n]).tobytes()
        if n >= 3:
            cfg = bulyan_cfg(n % 3, max(1, n // 2))
            kept = select(cfg, X[:n])
            assert aggregate(cfg, X[:n]).tobytes() == fold_mean(X[:n][kept]).tobytes()


def test_fedavg_matches_bruteforce_random():
    rng = random.Random(7)
    updates = vecs([[rng.uniform(-5, 5) for _ in range(8)] for _ in range(5)])
    expected = bf_mean([list(u) for u in updates])
    assert np.allclose(fedavg(updates), expected, rtol=1e-12, atol=1e-12)


def test_krum_scores_worked_example():
    updates = vecs([[0.0], [0.1], [0.2], [10.0]])
    scores = krum_scores(updates, f=1)
    assert scores == pytest.approx([0.01, 0.01, 0.01, 96.04], rel=1e-9)
    assert scores == pytest.approx(bf_krum_scores([list(u) for u in updates], 1), rel=1e-12)


def test_krum_selects_lowest_index_on_tie():
    updates = vecs([[0.0], [0.1], [0.2], [10.0]])
    assert select(krum_cfg(1), updates) == [0]
    assert krum(updates, f=1).tobytes() == updates[0].tobytes()


def test_krum_scores_identical_updates():
    updates = vecs([[1.0, 2.0]] * 5)
    assert krum_scores(updates, f=1) == [0.0] * 5


def test_krum_scores_translation_invariant():
    rng = random.Random(3)
    updates = vecs([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(6)])
    shifted = updates + 7.5
    assert krum_scores(updates, 2) == pytest.approx(krum_scores(shifted, 2), rel=1e-9, abs=1e-9)


def test_krum_rejects_far_outlier():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 8)
        f = rng.randint(1, n - 3)
        cluster = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(n - 1)]
        outlier = [1000.0 + rng.uniform(0, 1) for _ in range(3)]
        pos = rng.randrange(n)
        rows = cluster[:pos] + [outlier] + cluster[pos:]
        chosen = krum(vecs(rows), f)
        assert not np.array_equal(chosen, np.array(outlier))
        assert np.array_equal(chosen, np.array(bf_krum(rows, f)))


def test_krum_too_few_updates():
    with pytest.raises(ValueError):
        krum_scores(vecs([[0.0], [1.0], [2.0]]), f=1)


def test_bulyan_collapses_to_fedavg_and_krum():
    rng = random.Random(5)
    updates = vecs([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(6)])
    assert np.allclose(bulyan(updates, 1, m=6), fedavg(updates), rtol=1e-12)
    assert np.array_equal(bulyan(updates, 1, m=1), krum(updates, 1))
    assert select(bulyan_cfg(1, 1), updates) == select(krum_cfg(1), updates)


def test_bulyan_worked_example():
    updates = vecs([[0.0], [0.1], [10.0], [10.1], [0.2]])
    assert select(bulyan_cfg(1, 3), updates) == [1, 0, 4]
    out = bulyan(updates, f=1, m=3)
    assert out == pytest.approx([0.1], rel=1e-12)
    assert out == pytest.approx(bf_bulyan([list(u) for u in updates], 1, 3), rel=1e-12)


def test_bulyan_m_exceeds_n():
    with pytest.raises(ValueError, match="^rule bulyan needs at least 5 updates per aggregation, got 4$"):
        bulyan(vecs([[0.0], [1.0], [2.0], [3.0]]), f=1, m=5)


@pytest.mark.parametrize("rule", aggregation.AGGREGATION_RULES)
@pytest.mark.parametrize("f, m", [(0, 1), (1, 3), (2, 5), (1, 7), (3, 2)])
def test_select_refuses_below_min_updates_and_keeps_reference_rows_at_it(rule, f, m):
    cfg = AggregatorConfig(rule, krum_f=f, bulyan_m=m)
    need = aggregation.min_updates(cfg)
    updates = np.random.default_rng(7).normal(size=(need, 3))
    with pytest.raises(ValueError, match=f"^rule {rule} needs at least {need} updates per aggregation, got {need - 1}$"):
        select(cfg, updates[:-1])
    assert select(cfg, updates) == bf_kept(rule, updates.tolist(), f, m)
    with pytest.raises(ValueError, match=f"^aggregator.rule = {rule} needs at least {need} updates per aggregation, "
                                         "but clients_sampled_per_round = 0 gives 0$"):
        consensus.FederationConfig(clients_sampled_per_round=0, aggregator=cfg)


def test_geomed_examples():
    updates = vecs([[0.0], [0.0], [10.0]])
    assert np.array_equal(geomed(updates), np.array([0.0]))
    assert select(GEOMED, updates) == [0]
    single = vecs([[3.0, 4.0]])
    assert select(GEOMED, single) == [0] and geomed(single).tobytes() == single[0].tobytes()


def test_geomed_fallback_ranks_nan_sum_last():
    # rows 0 and 1 are +inf in the same coordinate: their distance, and so their sums, are NaN
    updates = np.arange(20.0).reshape(5, 4)
    updates[:2, 1] = np.inf
    with np.errstate(invalid="ignore"):
        kept = select(GEOMED, updates)
        model = geomed(updates)
        assert np.isfinite(updates[select(krum_cfg(1), updates)]).all()
    assert kept == [2] and np.isfinite(model).all()


def test_geomed_permutation_invariant_value():
    import itertools
    rng = random.Random(9)
    rows = [[rng.uniform(-3, 3) for _ in range(2)] for _ in range(4)]
    baseline = geomed(vecs(rows))
    expected = bf_geomed(rows)
    assert np.allclose(baseline, expected, rtol=1e-12)
    for perm in itertools.permutations(rows):
        assert np.array_equal(geomed(vecs(list(perm))), baseline)


point = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(4, 6), st.randoms(use_true_random=False))
def test_selection_rules_permutation_invariant_distinct_scores(dim, n, rnd):
    from hypothesis import assume
    rows = [[rnd.uniform(-10, 10) for _ in range(dim)] for _ in range(n)]
    f = rnd.randint(0, n - 3)
    m = rnd.randint(1, n)
    scores = bf_krum_scores(rows, f)
    totals = [sum(bf_sq_dist(u, v) for v in rows) for u in rows]
    assume(len(set(scores)) == n and len(set(totals)) == n)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert np.allclose(krum(vecs(rows), f), krum(vecs(shuffled), f), rtol=1e-12)
    assert np.allclose(geomed(vecs(rows)), geomed(vecs(shuffled)), rtol=1e-12)
    assert np.allclose(bulyan(vecs(rows), f, m), bulyan(vecs(shuffled), f, m), rtol=1e-12, atol=1e-12)


def test_tied_scores_stable_under_order_preserving_permutation():
    # two tied low-score updates keep their relative order; the chosen values
    # must not change even though a third element moves around them
    a1, a2, far = [0.0, 0.0], [0.0, 0.0], [9.0, 9.0]
    orderings = ([a1, a2, far, [0.1, 0.1]], [a1, [0.1, 0.1], a2, far], [[0.1, 0.1], a1, a2, far])
    geo_values = []
    for rows in orderings:
        assert np.array_equal(krum(vecs(rows), f=1), np.array(a1))
        assert np.allclose(bulyan(vecs(rows), f=1, m=2), np.array(a1), rtol=1e-12)
        geo_values.append(geomed(vecs(rows)))
    assert all(np.array_equal(v, geo_values[0]) for v in geo_values)


@settings(max_examples=40)
@given(st.integers(4, 6), st.randoms(use_true_random=False))
def test_translation_equivariance(n, rnd):
    dim = 2
    rows = [[rnd.uniform(-5, 5) for _ in range(dim)] for _ in range(n)]
    f = rnd.randint(0, n - 3)
    shift = np.array([rnd.uniform(-20, 20) for _ in range(dim)])
    updates = vecs(rows)
    shifted = updates + shift
    for rule in (lambda us: fedavg(us), lambda us: krum(us, f),
                 lambda us: bulyan(us, f, max(1, n - f)), lambda us: geomed(us)):
        assert np.allclose(rule(shifted), rule(updates) + shift, rtol=1e-9, atol=1e-9)


@settings(max_examples=40)
@given(st.integers(1, 2), st.randoms(use_true_random=False))
def test_outlier_rejection_bounding_box(f, rnd):
    n = 2 * f + 3
    dim = 2
    r = 0.5
    center = [rnd.uniform(-5, 5) for _ in range(dim)]
    benign = [[center[k] + rnd.uniform(-r, r) for k in range(dim)] for _ in range(n - f)]
    outliers = []
    for _ in range(f):
        direction = [rnd.uniform(-1, 1) for _ in range(dim)]
        norm = math.sqrt(sum(d * d for d in direction)) or 1.0
        dist = rnd.uniform(100 * r, 200 * r)
        outliers.append([center[k] + dist * direction[k] / norm for k in range(dim)])
    rows = benign + outliers
    order = list(range(n))
    rnd.shuffle(order)
    updates = vecs([rows[i] for i in order])
    lo = np.min(np.array(benign), axis=0) - 1e-9
    hi = np.max(np.array(benign), axis=0) + 1e-9
    for out in (krum(updates, f), bulyan(updates, f, m=n - f), geomed(updates)):
        assert np.all(out >= lo) and np.all(out <= hi)


def test_aggregate_dispatch_and_min_updates():
    updates = vecs([[0.0], [0.1], [0.2], [5.0], [0.3]])
    cfg_avg = AggregatorConfig(rule="fedavg")
    cfg_krum = AggregatorConfig(rule="krum", krum_f=1)
    cfg_bul = AggregatorConfig(rule="bulyan", krum_f=1, bulyan_m=3)
    cfg_geo = AggregatorConfig(rule="geomed")
    kept = {cfg.rule: select(cfg, updates) for cfg in (cfg_avg, cfg_krum, cfg_bul, cfg_geo)}
    rows = updates.tolist()
    scores = bf_krum_scores(rows, 1)
    by_score = sorted(range(5), key=lambda i: (scores[i], i))
    assert kept == {"fedavg": [0, 1, 2, 3, 4], "krum": by_score[:1], "bulyan": by_score[:3],
                    "geomed": [rows.index(bf_geomed(rows))]}
    for cfg in (cfg_avg, cfg_krum, cfg_bul, cfg_geo):
        assert aggregate(cfg, updates).tobytes() == fold_mean(updates[kept[cfg.rule]]).tobytes()
    assert aggregation.min_updates(cfg_avg) == 1
    assert aggregation.min_updates(cfg_krum) == 4
    assert aggregation.min_updates(cfg_bul) == 4
    assert aggregation.min_updates(AggregatorConfig(rule="bulyan", krum_f=1, bulyan_m=6)) == 6
    assert aggregation.min_updates(cfg_geo) == 1


def test_aggregator_config_validation():
    with pytest.raises(ValueError):
        AggregatorConfig(rule="median")
    with pytest.raises(ValueError):
        AggregatorConfig(krum_f=-1)
    with pytest.raises(ValueError):
        AggregatorConfig(bulyan_m=0)


# The certified Gram path against the exact per-pair path it must reproduce bit for bit.

def ref_bulyan(updates, f, m):
    """The kept rows: the m lowest exact Krum scores, NaN last, ties to the lowest index."""
    return np.argsort(krum_scores(updates, f), kind="stable")[:m].tolist()


def ref_krum(updates, f):
    return ref_bulyan(updates, f, 1)


def ref_geomed(updates):
    return np.argsort(aggregation._sq_dist_matrix(updates).sum(axis=1), kind="stable")[:1].tolist()


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the exact path's distance matrices, i.e. how often the Gram selection fell back."""
    calls = []
    exact = aggregation._sq_dist_matrix

    def counted(updates):
        calls.append(len(updates))
        return exact(updates)

    monkeypatch.setattr(aggregation, "_sq_dist_matrix", counted)
    return calls


@settings(max_examples=60)
@given(st.integers(4, 9), st.integers(1, 40), st.integers(0, 8), st.integers(0, 4), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_gram_selection_bit_identical_to_per_pair(n, dim, offset_exp, decades, near_dup, seed):
    rng = np.random.default_rng(seed)
    offset = rng.normal(size=dim) * 10.0 ** offset_exp  # far from the origin
    spread = 10.0 ** rng.uniform(-decades, decades, size=(n, 1))  # row magnitudes over decades
    rows = offset + spread * rng.normal(size=(n, dim))
    if near_dup:  # copies of one row, each a few ulps away from it or not at all
        src = rng.integers(n)
        for i in rng.choice(n, size=n // 2, replace=False):
            rows[i] = rows[src] + rng.integers(-4, 5, size=dim) * np.spacing(rows[src])
    updates = rows
    f = int(rng.integers(0, n - 2))
    m = int(rng.integers(1, n + 1))
    assert select(krum_cfg(f), updates) == ref_krum(updates, f)
    assert select(bulyan_cfg(f, m), updates) == ref_bulyan(updates, f, m)
    assert bulyan(updates, f, m).tobytes() == fold_mean(updates[ref_bulyan(updates, f, m)]).tobytes()
    assert select(GEOMED, updates) == ref_geomed(updates)


def test_gram_selection_falls_back_on_exact_tie(exact_calls):
    rng = np.random.default_rng(0)
    v = rng.normal(size=50)
    # two copies of v at the centre of four far, mutually distant points: every rule ties them
    updates = vecs([v, v] + [v + rng.normal(size=50) for _ in range(4)])
    assert select(krum_cfg(1), updates) == [0]
    assert bulyan(updates, f=1, m=2).tobytes() == v.tobytes()
    assert select(GEOMED, updates) == [0]
    assert exact_calls == [6, 6, 6]


def test_gram_selection_falls_back_on_near_tie(exact_calls):
    rng = np.random.default_rng(3)
    v = rng.normal(size=2000)
    near = v.copy()
    near[0] += 1e-10  # moves the exact score by ~1e-9 of ~4e3: distinct, but inside the bound
    updates = vecs([v, near] + [v + rng.normal(size=2000) for _ in range(4)])
    scores = krum_scores(updates, f=1)
    assert scores[1] != scores[0] and min(scores[2:]) > max(scores[:2])
    exact_calls.clear()
    assert select(krum_cfg(1), updates) == ref_krum(updates, 1)
    assert select(GEOMED, updates) == ref_geomed(updates)
    assert len(exact_calls) == 4  # each call fell back: one matrix for it, one for its reference
    far = v.copy()
    far[0] += 1e-5  # the same layout with a gap the bound clears
    exact_calls.clear()
    assert select(krum_cfg(1), vecs([v, far, *updates[2:]])) == [1]
    assert exact_calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gram_selection_falls_back_on_non_finite(exact_calls, bad):
    rng = np.random.default_rng(1)
    updates = rng.normal(size=(6, 30))
    updates[4, 7] = bad
    # the stable argsort ranks a NaN score last, where np.argmin would pick it
    assert select(krum_cfg(1), updates) == ref_krum(updates, 1)
    assert select(GEOMED, updates) == ref_geomed(updates)
    assert len(exact_calls) == 4


def test_gram_selection_certifies_a_wide_krum_round(monkeypatch):
    """One client-server round of 60 MLP updates of 17,411 parameters under Krum f = 10
    selects without a single per-pair distance."""
    rc = config.preset("all_pools_labelflip", config.desk_default())
    fed = replace(rc.federation, topology="client_server", clients_per_pool=20,
                  clients_sampled_per_round=60, rounds=1,
                  aggregator=AggregatorConfig(rule="krum", krum_f=10),
                  model=ModelSpec("mlp", 64, 3, hidden_dim=256),
                  optimizer=replace(rc.federation.optimizer, local_epochs=1))
    rc = config.with_master_seed(replace(rc, federation=fed), 42)
    partition = config.build_partition(rc)
    shapes = []
    real_aggregate = aggregation.aggregate

    def recorded(cfg, updates):
        shapes.append(updates.shape)
        return real_aggregate(cfg, updates)

    def forbidden(a, b):
        raise AssertionError("per-pair distance on the certified path")

    monkeypatch.setattr(aggregation, "aggregate", recorded)
    monkeypatch.setattr(params, "l2_dist_sq", forbidden)
    result = consensus.run_federation(rc.federation, partition)
    assert shapes == [(60, 17411)] and len(result.records) == 1


def test_gram_selection_certifies_updates_close_to_a_far_model(exact_calls):
    """A late-training Krum round: 60 updates of 17,411 parameters, each within ~1.9e-4 of the others but
    ~10 from the origin (a ratio of about 5e4). The Gram of differences from row 0 bounds its error by the
    distances, so it certifies; a Gram of the rows themselves bounds it by the model's norm and falls back."""
    rng = np.random.default_rng(7)
    model = rng.uniform(-0.137, 0.137, size=17_411)
    updates = model + 1e-6 * rng.normal(size=(60, 17_411))
    chosen = select(krum_cfg(10), updates)
    assert exact_calls == []
    assert chosen == ref_krum(updates, 10)


def test_gram_selection_raises_no_warning(exact_calls):
    rng = np.random.default_rng(2)
    for scale in (1e-6, 1.0, 1e6):
        updates = scale * rng.normal(size=(12, 700))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            krum(updates, f=3)
            bulyan(updates, f=3, m=5)
            geomed(updates)
    assert exact_calls == []
