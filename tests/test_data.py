import collections
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfc_sim import cli, models
from rfc_sim import data as data_mod
from rfc_sim.data import DataConfig, Dataset, load_csv, partition, save_csv
from rfc_sim.seeds import Sm64Stream, normals
from reference import gauss, reference_partition, synthetic


def multiset(data):
    return collections.Counter((row.tobytes(), label) for row, label in zip(data.x, data.y.tolist()))


def concat(*parts):
    return Dataset(np.concatenate([p.x for p in parts]), np.concatenate([p.y for p in parts]))


def test_gen_synthetic_zero_noise_yields_templates():
    data = synthetic(3, 2, 2, per_class=4, noise_sigma=0.0, seed=1)
    assert len(data) == 12
    for feats, label in zip(data.x, data.y):
        template = np.zeros(4)
        template[label] = data_mod.TEMPLATE_BRIGHT
        assert np.array_equal(feats, template)


def test_gen_synthetic_counts_and_determinism():
    a = synthetic(3, 4, 4, per_class=10, noise_sigma=0.3, seed=9)
    b = synthetic(3, 4, 4, per_class=10, noise_sigma=0.3, seed=9)
    assert len(a) == 30
    assert collections.Counter(a.y.tolist()) == {0: 10, 1: 10, 2: 10}
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = synthetic(3, 4, 4, per_class=10, noise_sigma=0.3, seed=10)
    assert not np.array_equal(a.x, c.x)


def test_gen_synthetic_clipped_to_unit_interval():
    data = synthetic(2, 3, 3, per_class=50, noise_sigma=0.8, seed=4)
    assert np.all(data.x >= 0.0) and np.all(data.x <= 1.0)


def every_value_synthetic(num_classes, height, width, per_class, noise_sigma, seed):
    """gen_synthetic with every noise value evaluated through libm, none left at 0.0 for the clip."""
    y = np.repeat(np.arange(num_classes), per_class)
    x = np.zeros((len(y), height * width))
    x[np.arange(len(y)), y] = data_mod.TEMPLATE_BRIGHT
    with np.errstate(over="ignore"):
        x += normals(seed, x.size).reshape(x.shape) * noise_sigma
    return np.clip(x, 0.0, 1.0), y


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(2, 10), st.integers(1, 9), st.integers(0, 4), st.integers(1, 40),
       st.sampled_from([5e-324, 0.2, 3.0, 1e308]))
def test_gen_synthetic_skipping_clipped_noise_keeps_every_byte(seed, classes, height, extra, per_class, sigma):
    """Noise that the clip turns into +0.0 is left at 0.0 without libm; the features keep every byte."""
    width = -(-classes // height) + extra  # the narrowest grid with a cell per class, or wider: 1 x 2 up
    got = synthetic(classes, height, width, per_class, sigma, seed)
    x, y = every_value_synthetic(classes, height, width, per_class, sigma, seed)
    assert got.x.tobytes() == x.tobytes() and got.y.tobytes() == y.tobytes()


def test_dataset_is_read_only_and_checks_shapes():
    data = synthetic(2, 2, 2, per_class=3, noise_sigma=0.1, seed=1)
    assert data.x.dtype == np.float64 and data.x.shape == (6, 4)
    assert data.y.dtype == np.int64 and data.y.shape == (6,)
    with pytest.raises(ValueError):
        data.x[0, 0] = 0.5
    with pytest.raises(ValueError):
        data.y[0] = 1
    with pytest.raises(ValueError, match="shape"):
        Dataset(np.zeros((3, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        Dataset(np.zeros(4), np.zeros(4, dtype=np.int64))


@pytest.mark.parametrize("classes,height,width,message", [
    (5, 2, 2, "data.height x data.width grid 2x2 has fewer cells than data.num_classes = 5"),
    (1, 8, 8, "data.num_classes must be >= 2, got 1"),
    # 4 cells hold 3 classes, so only the sides' own check refuses the grid
    (3, -2, -2, "data.height and data.width must be >= 1, got -2x-2"),
    (3, 0, 8, "data.height and data.width must be >= 1, got 0x8"),
], ids=["fewer_cells_than_classes", "one_class", "negative_sides", "zero_height"])
def test_data_config_and_gen_data_refuse_alike(tmp_path, capsys, classes, height, width, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DataConfig(num_classes=classes, height=height, width=width, per_class=2, noise_sigma=0.1)
    out = tmp_path / "d.csv"
    assert cli.main(["gen-data", "--out", str(out), "--classes", str(classes), "--height", str(height),
                     "--width", str(width), "--per-class", "2", "--noise-sigma", "0.1"]) == 1
    assert capsys.readouterr().err == f"gen-data failed: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("scheme,shards,given", [
    ("random", 1, "'random'"),
    ("label_shard", 0, "'label_shard:0'"),
    ("label_shard", -2, "'label_shard:-2'"),
])
def test_data_config_refuses_a_bad_partition(scheme, shards, given):
    message = f"data.partition must be one of iid, label_shard:<int >= 1>, got {given}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DataConfig(scheme=scheme, shards_per_client=shards)


def test_synthetic_task_is_separable_by_linear_model():
    train = synthetic(3, 4, 4, per_class=60, noise_sigma=0.1, seed=2)
    spec = models.ModelSpec("linear", 16, 3)
    opt = models.OptimizerConfig(kind="adam", learning_rate=0.01, local_epochs=10, batch_size=8)
    trained = models.train_local(spec, models.init_params(spec, 0), train, opt, seed=3)
    held_out = synthetic(3, 4, 4, per_class=40, noise_sigma=0.1, seed=99)
    _, acc = models.evaluate(spec, trained, held_out)
    assert acc >= 0.95


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    data = synthetic(2, 2, 3, per_class=5, noise_sigma=0.2, seed=7)
    save_csv(data, str(path))
    loaded = load_csv(str(path), num_classes=2)
    assert multiset(loaded) == multiset(data)


def test_csv_two_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("label,f0,f1\n0,0.0,1.0\n1,1.0,0.0\n")
    loaded = load_csv(str(path), num_classes=2)
    assert len(loaded) == 2
    assert np.array_equal(loaded.y, np.array([0, 1]))
    assert np.array_equal(loaded.x, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_csv_empty_after_header(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("label,f0,f1\n")
    loaded = load_csv(str(path), num_classes=2)
    assert len(loaded) == 0 and loaded.x.shape == (0, 2)
    with pytest.raises(ValueError, match="^nothing to write$"):
        save_csv(loaded, str(tmp_path / "out.csv"))


@pytest.mark.parametrize("body,fragment", [
    ("0,0.5,1.5\n", "line 2"),                 # out-of-range feature
    ("0,0.5\n", "line 2"),                     # feature count mismatch
    ("0,0.5,0.5\n1,oops,0.5\n", "line 3"),     # malformed numeric
    ("7,0.5,0.5\n", "line 2"),                 # label out of range (num_classes=2)
    ("2,0.5,0.5\n", "line 2: label 2 out of range"),  # the first label past num_classes=2
    ("-1,0.5,0.5\n", "line 2: label -1 out of range"),
])
def test_csv_errors_name_line(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n" + body)
    with pytest.raises(ValueError, match=fragment):
        load_csv(str(path), num_classes=2)


def test_csv_missing_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("0,0.1,0.2\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(str(path), num_classes=2)


def test_partition_iid_counts():
    data = synthetic(2, 2, 5, per_class=50, noise_sigma=0.1, seed=1)  # 100 examples
    part = partition(data, 10, "iid", 0.1, 0.1, seed=5, height=2, width=5)
    assert len(part.validation) == 10
    assert len(part.test) == 10
    assert all(len(v) == 8 for v in part.client_data.values())


def test_partition_conserves_multiset():
    data = synthetic(3, 3, 3, per_class=40, noise_sigma=0.2, seed=3)
    part = partition(data, 7, "iid", 0.15, 0.1, seed=5, height=3, width=3)
    combined = concat(part.validation, part.test, *part.client_data.values())
    assert multiset(combined) == multiset(data)


def test_partition_deterministic():
    data = synthetic(2, 2, 2, per_class=30, noise_sigma=0.1, seed=8)
    a = partition(data, 4, "iid", 0.1, 0.1, seed=2, height=2, width=2)
    b = partition(data, 4, "iid", 0.1, 0.1, seed=2, height=2, width=2)
    for c in a.client_data:
        assert multiset(a.client_data[c]) == multiset(b.client_data[c])
    assert multiset(a.validation) == multiset(b.validation)
    c = partition(data, 4, "iid", 0.1, 0.1, seed=3, height=2, width=2)
    assert any(multiset(a.client_data[k]) != multiset(c.client_data[k]) for k in a.client_data)


def test_label_shard_single_label_per_client():
    data = synthetic(2, 2, 2, per_class=20, noise_sigma=0.1, seed=6)
    part = partition(data, 2, "label_shard", 0.0, 0.0, seed=4, height=2, width=2,
                     shards_per_client=1)
    for items in part.client_data.values():
        assert len(set(items.y.tolist())) == 1  # zero label entropy


@pytest.mark.parametrize("shards", [0, -1])
def test_label_shard_without_shards_raises(shards):
    data = synthetic(2, 2, 2, per_class=10, noise_sigma=0.1, seed=6)
    with pytest.raises(ValueError, match=f"^shards_per_client must be >= 1, got {shards}$"):
        partition(data, 2, "label_shard", 0.0, 0.0, seed=4, height=2, width=2,
                  shards_per_client=shards)


def test_label_shard_conserves():
    data = synthetic(3, 2, 2, per_class=30, noise_sigma=0.2, seed=6)
    part = partition(data, 5, "label_shard", 0.1, 0.1, seed=4, height=2, width=2,
                     shards_per_client=3)
    combined = concat(part.validation, part.test, *part.client_data.values())
    assert multiset(combined) == multiset(data)


def test_partition_insufficient_data():
    data = synthetic(2, 2, 2, per_class=3, noise_sigma=0.1, seed=1)  # 1 validation, 1 test, 4 left
    for scheme in ("iid", "label_shard"):
        with pytest.raises(ValueError, match="^insufficient data: 4 examples left for 5 clients$"):
            partition(data, 5, scheme, 0.1, 0.1, seed=0, height=2, width=2)
    with pytest.raises(ValueError, match="^insufficient data: 4 examples for 6 shards$"):
        partition(data, 2, "label_shard", 0.1, 0.1, seed=0, height=2, width=2,
                  shards_per_client=3)


@given(clients=st.integers(1, 24), shards=st.integers(1, 3), scheme=st.sampled_from(["iid", "label_shard"]),
       fraction=st.sampled_from([0.0, 0.1, 0.25]), seed=st.integers(0, 2**32))
def test_partition_at_the_insufficient_data_bound_leaves_no_client_empty(clients, shards, scheme,
                                                                         fraction, seed):
    """Exactly the rows the insufficient-data checks demand: a row per client (iid) or per shard."""
    least = clients if scheme == "iid" else clients * shards
    n = least
    while n - 2 * round(fraction * n) != least:  # validation and test each take round(fraction * n)
        n += 1
    data = Dataset(np.zeros((n, 1)), np.arange(n) % 3)
    part = partition(data, clients, scheme, fraction, fraction, seed, height=1, width=1,
                     shards_per_client=shards)
    assert sorted(part.client_data) == list(range(clients))
    assert all(len(rows) >= 1 for rows in part.client_data.values())
    assert sum(len(rows) for rows in part.client_data.values()) == least


@pytest.mark.parametrize("num_clients,scheme,message", [
    (2, "random", "unknown partition scheme 'random'"),
    (0, "iid", "num_clients must be >= 1, got 0"),
])
def test_partition_refuses_a_bad_scheme_or_client_count(num_clients, scheme, message):
    data = synthetic(2, 2, 2, per_class=10, noise_sigma=0.1, seed=6)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        partition(data, num_clients, scheme, 0.1, 0.1, seed=0, height=2, width=2)


def test_partition_rejects_feature_length_mismatch():
    data = Dataset(np.zeros((2, 5)), np.array([0, 1]))
    with pytest.raises(ValueError, match="grid"):
        partition(data, 1, "iid", 0.0, 0.0, seed=0, height=2, width=2)


@settings(max_examples=25)
@given(per_class=st.integers(8, 30), clients=st.integers(1, 6),
       scheme=st.sampled_from(["iid", "label_shard"]), seed=st.integers(0, 2**32))
def test_partition_conservation_property(per_class, clients, scheme, seed):
    data = synthetic(2, 2, 2, per_class=per_class, noise_sigma=0.3, seed=11)
    part = partition(data, clients, scheme, 0.1, 0.1, seed=seed,
                     height=2, width=2, shards_per_client=2)
    assert all(len(items) >= 1 for items in part.client_data.values())
    combined = concat(part.validation, part.test, *part.client_data.values())
    assert multiset(combined) == multiset(data)


@settings(max_examples=25)
@given(per_class=st.integers(8, 30), clients=st.integers(1, 6), spc=st.integers(1, 3),
       scheme=st.sampled_from(["iid", "label_shard"]), seed=st.integers(0, 2**32))
def test_partition_matches_per_example_reference(per_class, clients, spc, scheme, seed):
    data = synthetic(3, 2, 2, per_class=per_class, noise_sigma=0.3, seed=12)
    part = partition(data, clients, scheme, 0.15, 0.1, seed=seed,
                     height=2, width=2, shards_per_client=spc)
    val_rows, test_rows, client_rows = reference_partition(data, clients, scheme, 0.15, 0.1,
                                                           seed, spc)
    for got, rows in [(part.validation, val_rows), (part.test, test_rows)] + [
            (part.client_data[c], client_rows[c]) for c in range(clients)]:
        assert np.array_equal(got.x, data.x[rows]) and np.array_equal(got.y, data.y[rows])


def test_gen_synthetic_matches_per_example_reference():
    # a tiny grid, and the desk grid: 38,400 draws across many seeds.NORMALS_CHUNK chunks
    for classes, height, width, per_class, sigma, seed in [(3, 2, 3, 4, 0.4, 21), (3, 8, 8, 200, 0.3, 2021)]:
        data = synthetic(classes, height, width, per_class=per_class, noise_sigma=sigma, seed=seed)
        stream = Sm64Stream(seed)
        row = 0
        for c in range(classes):
            template = np.zeros(height * width)
            template[c] = data_mod.TEMPLATE_BRIGHT
            for _ in range(per_class):
                noise = np.array([gauss(stream) for _ in range(height * width)])
                expected = np.clip(template + sigma * noise, 0.0, 1.0)
                assert data.x[row].tobytes() == expected.tobytes() and data.y[row] == c
                row += 1


def test_gen_synthetic_cold_peak_memory():
    # a cold desk-size generation holds x, its noise and one chunk of draws, not every draw at once
    key = (3, 8, 8, 200, 0.3, 2022)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data = synthetic(*key)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 2 * data.x.nbytes + 512 * 1024
