import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfc_sim import aggregation, attacks, consensus
from rfc_sim.attacks import AdversaryConfig, apply_trigger, assign_adversaries, boost_update, flip_labels
from rfc_sim.data import Dataset
from rfc_sim.seeds import Sm64Stream, derive_seed
from reference import uniform


def rand_examples(n, dim, num_classes, seed=0):
    stream = Sm64Stream(seed)
    x = np.array([[uniform(stream) for _ in range(dim)] for _ in range(n)])
    return Dataset(x, np.arange(n) % num_classes)


def test_adversary_config_validation():
    with pytest.raises(ValueError):
        AdversaryConfig(attack="labelflip", placement="none")
    with pytest.raises(ValueError):
        AdversaryConfig(attack="none", placement="all_pools")
    with pytest.raises(ValueError):
        AdversaryConfig(attack="backdoor", placement="one_pool", poison_fraction=0.0)
    with pytest.raises(ValueError):
        AdversaryConfig(attack="backdoor", placement="one_pool", boost_eta=0.0)


def test_flip_labels_formula():
    data = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
    assert flip_labels(data, 10).y.tolist() == [9, 8, 7]
    assert flip_labels(data, 3).y.tolist() == [2, 1, 0]


def test_flip_labels_involution_and_features_untouched():
    for c in (2, 3, 10):
        data = rand_examples(12, 4, c, seed=c)
        twice = flip_labels(flip_labels(data, c), c)
        assert np.array_equal(twice.y, data.y)
        assert twice.x is data.x  # features shared, bit-identical
    with pytest.raises(ValueError, match="label 5"):
        flip_labels(Dataset(np.zeros((2, 2)), np.array([1, 5])), 3)
    with pytest.raises(ValueError, match="label -1"):
        flip_labels(Dataset(np.zeros((1, 2)), np.array([-1])), 3)


def test_apply_trigger_geometry():
    x = rand_examples(2, 16, 2, seed=8).x
    out = apply_trigger(x, 4, 4, trigger_size=2)
    assert out.shape == x.shape and out.flags.writeable
    mask = np.ones((4, 4), dtype=bool)
    mask[2:, 2:] = False
    for row, orig in zip(out, x):
        grid = row.reshape(4, 4)
        for r, c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            assert grid[r, c] == 1.0
        assert np.array_equal(grid[mask], orig.reshape(4, 4)[mask])


def test_apply_trigger_idempotent():
    x = rand_examples(1, 16, 3, seed=5).x
    once = apply_trigger(x, 4, 4, 2)
    twice = apply_trigger(once, 4, 4, 2)
    assert np.array_equal(once, twice)


def test_apply_trigger_too_large():
    for k in (2, 3):  # RunConfig's bound: the box leaves a row and a column of the grid unset
        with pytest.raises(ValueError, match=f"^trigger_size {k} must be smaller than min grid side 2$"):
            apply_trigger(np.zeros((1, 6)), 2, 3, trigger_size=k)


def test_build_backdoor_test_keeps_clean_labels():
    data = rand_examples(6, 9, 3, seed=2)
    triggered = attacks.build_backdoor_test(data, 3, 3, 1)
    assert np.array_equal(triggered.y, data.y)
    assert np.all(triggered.x.reshape(-1, 3, 3)[:, 2, 2] == 1.0)


def test_poison_examples_fraction_and_determinism():
    cfg = AdversaryConfig(attack="backdoor", placement="all_pools", poison_fraction=0.5,
                          trigger_size=1, target_label=2)
    data = rand_examples(10, 9, 3, seed=3)
    poisoned = attacks.poison_examples(data, 3, 3, cfg, seed=4)
    again = attacks.poison_examples(data, 3, 3, cfg, seed=4)
    triggered = (poisoned.x.reshape(-1, 3, 3)[:, 2, 2] == 1.0) & (poisoned.y == 2)
    assert triggered.sum() == 5
    assert np.array_equal(poisoned.x, again.x) and np.array_equal(poisoned.y, again.y)
    untouched = np.all(poisoned.x == data.x, axis=1) & (poisoned.y == data.y)
    assert untouched.sum() == 5 and not np.any(untouched & triggered)
    # per-example reference: the sampled rows get the trigger and the target label
    chosen = set(Sm64Stream(4).sample(range(10), 5))
    for i in range(10):
        expected = data.x[i].copy()
        if i in chosen:
            expected.reshape(3, 3)[2:, 2:] = 1.0
        assert poisoned.x[i].tobytes() == expected.tobytes()
        assert poisoned.y[i] == (2 if i in chosen else data.y[i])


def test_poison_examples_at_least_one():
    cfg = AdversaryConfig(attack="backdoor", placement="all_pools", poison_fraction=0.01,
                          trigger_size=1, target_label=0)
    data = rand_examples(3, 4, 2, seed=1)
    poisoned = attacks.poison_examples(data, 2, 2, cfg, seed=9)
    assert np.sum((poisoned.y == 0) & (poisoned.x.reshape(-1, 2, 2)[:, 1, 1] == 1.0)) >= 1


def test_boost_update_examples():
    assert np.array_equal(boost_update(np.array([1.0]), np.array([0.0]), 10, 1.0), np.array([10.0]))
    v = np.array([0.3, -0.7])
    assert np.array_equal(boost_update(v, v, 5, 1.0), v)
    with pytest.raises(ValueError):
        boost_update(np.array([1.0]), np.array([1.0, 2.0]), 3, 1.0)
    with pytest.raises(ValueError):
        boost_update(np.array([1.0]), np.array([0.0]), 3, 0.0)


@given(st.integers(2, 50), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2**31))
def test_boost_overrides_server_average(n, eta, seed):
    stream = Sm64Stream(seed)
    dim = 1 + seed % 5
    v_adv = np.array([-3 + 6 * uniform(stream) for _ in range(dim)])
    v_g = np.array([-3 + 6 * uniform(stream) for _ in range(dim)])
    boosted = boost_update(v_adv, v_g, n, eta)
    updates = np.array([boosted] + [v_g] * (n - 1))
    landed = consensus.server_update(v_g, aggregation.aggregate(aggregation.AggregatorConfig(), updates), eta)
    assert np.allclose(landed, v_adv, rtol=1e-9, atol=1e-9)


def test_assign_one_pool():
    cfg = AdversaryConfig(attack="labelflip", placement="one_pool", pool_id=1,
                          adversaries_per_pool=2)
    ids = assign_adversaries(3, 10, cfg, seed=1)
    assert isinstance(ids, frozenset) and len(ids) == 2
    assert all(10 <= cid < 20 for cid in ids)  # pool 1 holds client ids 10..19


def test_assign_all_pools_counts():
    cfg = AdversaryConfig(attack="labelflip", placement="all_pools", adversaries_per_pool=2)
    ids = assign_adversaries(3, 10, cfg, seed=1)
    assert len(ids) == 6
    assert [sum(1 for cid in ids if p * 10 <= cid < (p + 1) * 10) for p in range(3)] == [2, 2, 2]


def test_assign_ids_are_the_drawn_slots():
    # pool p's slots come from its own "adversary-slots" stream, offset by p * clients_per_pool
    cfg = AdversaryConfig(attack="backdoor", placement="all_pools", adversaries_per_pool=3)
    expected = {p * 8 + slot for p in range(4)
                for slot in Sm64Stream(derive_seed(7, 0, p, 0, "adversary-slots")).sample(range(8), 3)}
    assert assign_adversaries(4, 8, cfg, seed=7) == expected


def test_assign_none_and_errors():
    assert assign_adversaries(3, 10, AdversaryConfig(), seed=1) == frozenset()
    # a placement pool outside the federation is refused by FederationConfig
    too_many = AdversaryConfig(attack="labelflip", placement="all_pools", adversaries_per_pool=11)
    with pytest.raises(ValueError):
        assign_adversaries(3, 10, too_many, seed=1)


def test_assign_deterministic():
    cfg = AdversaryConfig(attack="backdoor", placement="all_pools", adversaries_per_pool=3)
    assert assign_adversaries(4, 8, cfg, seed=7) == assign_adversaries(4, 8, cfg, seed=7)
