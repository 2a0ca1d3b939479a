"""Dataset representation, synthetic generation, CSV ingestion and partitioning.

A ``Dataset`` is one read-only array pair: ``x`` holds n H x W grayscale grids
flattened row-major into [0, 1] float64 features (shape ``[n, H*W]``), so
trigger geometry stays meaningful on synthetic data, and ``y`` holds the n
int64 labels. Splits and client shards are row subsets that keep the source
order of their rows. The synthetic task gives class c a fixed bright cell
(flat index c) of intensity 0.95 plus clipped Gaussian noise: the features,
row by row, take ``seeds.normals(seed, n*H*W)``: Box-Muller values
``sqrt(-2 * log(u1)) * cos(2 * pi * u2)`` from consecutive word pairs of
``Sm64Stream(seed)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .seeds import Sm64Stream, mix64, normals, tag64

TEMPLATE_BRIGHT = 0.95

PARTITION_SCHEMES = ("iid", "label_shard")


@dataclass(frozen=True, eq=False)
class Dataset:
    """n examples as features ``x`` (float64 [n, H*W]) and labels ``y`` (int64 [n]).

    The constructor takes ownership of both arrays and makes them read-only.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError(f"dataset needs x of shape [n, d] and y of shape [n], "
                             f"got {x.shape} and {y.shape}")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, rows) -> "Dataset":
        """The rows ``rows`` (a slice or an index array), in that order."""
        return Dataset(self.x[rows], self.y[rows])


@dataclass
class FederatedPartition:
    client_data: Dict[int, Dataset]
    validation: Dataset
    test: Dataset
    height: int
    width: int


def check_grid(num_classes: int, height: int, width: int, key: str = "") -> None:
    """Raise ValueError unless there are two classes or more and both grid sides are >= 1."""
    if num_classes < 2:
        raise ValueError(f"{key}num_classes must be >= 2, got {num_classes}")
    if height < 1 or width < 1:
        raise ValueError(f"{key}height and {key}width must be >= 1, got {height}x{width}")


def check_synthetic(num_classes: int, height: int, width: int, per_class: int, noise_sigma: float,
                    key: str = "") -> None:
    """Raise ValueError unless ``gen_synthetic`` takes these arguments past ``check_grid``; messages say key + name."""
    if height * width < num_classes:
        raise ValueError(f"{key}height x {key}width grid {height}x{width} has fewer cells than "
                         f"{key}num_classes = {num_classes}")
    if per_class < 1:
        raise ValueError(f"{key}per_class must be >= 1, got {per_class}")
    if not 0 <= noise_sigma < float("inf"):
        raise ValueError(f"{key}noise_sigma must be finite and >= 0, got {noise_sigma!r}")


def gen_synthetic(num_classes: int, height: int, width: int, per_class: int,
                  noise_sigma: float, seed: int) -> Dataset:
    """per_class examples of each class in class order, deterministic in seed."""
    check_grid(num_classes, height, width)
    check_synthetic(num_classes, height, width, per_class, noise_sigma)
    try:  # numpy refuses a size past its index range with ValueError or OverflowError
        y = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
        x = np.zeros((y.shape[0], height * width), dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise MemoryError(str(exc)) from exc
    x[np.arange(y.shape[0]), y] = TEMPLATE_BRIGHT
    if noise_sigma != 0.0:
        # template + sigma * noise, clipped; in place, so only one extra array lives. A zero template
        # cell clips any noise <= 0 to +0.0, which a noise of 0.0 gives too, so libm skips those.
        noise = normals(seed, x.size, clipped=x.ravel() == 0.0).reshape(x.shape)
        with np.errstate(over="ignore"):  # a product past the float range is +-inf, which the clip bounds
            noise *= noise_sigma
        x += noise
        np.clip(x, 0.0, 1.0, out=x)
    return Dataset(x, y)


def load_csv(path: str, num_classes: int) -> Dataset:
    """Parse ``label,f0,f1,...`` rows; grid shape comes from the run config."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header row")
        if not header or header[0] != "label":
            raise ValueError(f"{path}: line 1: header must start with 'label', got {header[:1]!r}")
        n_features = len(header) - 1
        if n_features < 1:
            raise ValueError(f"{path}: line 1: header declares no feature columns")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_features + 1:
                raise ValueError(f"{path}: line {lineno}: expected {n_features + 1} fields, got {len(row)}")
            try:
                label = int(row[0])
                feats = [float(v) for v in row[1:]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed numeric value")
            if not 0 <= label < num_classes:
                raise ValueError(f"{path}: line {lineno}: label {label} out of range")
            bad = [v for v in feats if not 0.0 <= v <= 1.0]
            if bad:
                raise ValueError(f"{path}: line {lineno}: feature value {bad[0]} outside [0, 1]")
            rows.append(feats)
            labels.append(label)
    return Dataset(np.array(rows, dtype=np.float64).reshape(len(rows), n_features),
                   np.array(labels, dtype=np.int64))


def save_csv(data: Dataset, path: str) -> None:
    if len(data) == 0:
        raise ValueError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"f{i}" for i in range(data.x.shape[1])])
        for label, feats in zip(data.y.tolist(), data.x.tolist()):
            writer.writerow([label] + [repr(v) for v in feats])


def partition(data: Dataset, num_clients: int, scheme: str,
              val_fraction: float, test_fraction: float, seed: int, *,
              height: int, width: int,
              shards_per_client: int = 1) -> FederatedPartition:
    """Split off validation/test, then deal the rest to clients.

    The fractions are taken as given: ``config.DataConfig`` checks them.

    ``iid`` deals the shuffled rest round-robin; ``label_shard`` sorts it by
    label (stable), cuts ``num_clients * shards_per_client`` contiguous shards
    and deals ``shards_per_client`` shards to each client.
    """
    if scheme not in PARTITION_SCHEMES:
        raise ValueError(f"unknown partition scheme {scheme!r}")
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if data.x.shape[1] != height * width:
        raise ValueError(f"example feature length {data.x.shape[1]} does not match grid {height}x{width}")

    n = len(data)
    order = list(range(n))
    Sm64Stream(mix64(seed, tag64("split"))).shuffle(order)
    order = np.array(order, dtype=np.int64)
    n_val = round(val_fraction * n)
    n_test = round(test_fraction * n)
    if n - n_val - n_test < num_clients:
        raise ValueError(f"insufficient data: {n - n_val - n_test} examples left for {num_clients} clients")
    rest = order[n_val + n_test :]

    if scheme == "iid":
        client_rows = {c: rest[c::num_clients] for c in range(num_clients)}
    else:
        if shards_per_client < 1:
            raise ValueError(f"shards_per_client must be >= 1, got {shards_per_client}")
        n_shards = num_clients * shards_per_client
        if len(rest) < n_shards:
            raise ValueError(f"insufficient data: {len(rest)} examples for {n_shards} shards")
        shards = np.array_split(rest[np.argsort(data.y[rest], kind="stable")], n_shards)
        shard_order = list(range(n_shards))
        Sm64Stream(mix64(seed, tag64("shards"))).shuffle(shard_order)
        client_rows = {}
        for c in range(num_clients):
            mine = shard_order[c * shards_per_client : (c + 1) * shards_per_client]
            client_rows[c] = np.concatenate([shards[s] for s in mine])
    return FederatedPartition(client_data={c: data[rows] for c, rows in client_rows.items()},
                              validation=data[order[:n_val]],
                              test=data[order[n_val : n_val + n_test]],
                              height=height, width=width)
