"""Dataset representation, its ``DataConfig`` section, synthetic generation, CSV ingestion and partitioning.

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
import io
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .seeds import Sm64Stream, mix64, normals, tag64

TEMPLATE_BRIGHT = 0.95

PARTITION_SCHEMES = ("iid", "label_shard")

DATA_SOURCES = ("synthetic", "csv")


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


@dataclass(frozen=True)
class DataConfig:
    """The ``data.*`` section of a run config; each refusal names its key and the value given."""

    source: str = "synthetic"
    num_classes: int = 3
    height: int = 8
    width: int = 8
    per_class: int = 400
    noise_sigma: float = 0.2
    csv_path: str = ""
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    scheme: str = "iid"
    shards_per_client: int = 1

    def __post_init__(self):
        if self.source not in DATA_SOURCES:
            raise ValueError(f"data.source must be one of {', '.join(DATA_SOURCES)}, got {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ValueError("data.source = csv requires data.csv_path")
        if self.num_classes < 2:
            raise ValueError(f"data.num_classes must be >= 2, got {self.num_classes}")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"data.height and data.width must be >= 1, got {self.height}x{self.width}")
        if self.source == "synthetic":
            if self.height * self.width < self.num_classes:
                raise ValueError(f"data.height x data.width grid {self.height}x{self.width} has fewer cells "
                                 f"than data.num_classes = {self.num_classes}")
            if self.per_class < 1:
                raise ValueError(f"data.per_class must be >= 1, got {self.per_class}")
            if not 0 <= self.noise_sigma < float("inf"):
                raise ValueError(f"data.noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.scheme not in PARTITION_SCHEMES:
            raise ValueError(f"data.partition must be one of iid, label_shard:<int >= 1>, got {self.scheme!r}")
        if self.scheme == "label_shard" and self.shards_per_client < 1:
            raise ValueError(f"data.partition must be one of iid, label_shard:<int >= 1>, "
                             f"got 'label_shard:{self.shards_per_client}'")
        if self.scheme == "iid" and self.shards_per_client != 1:
            raise ValueError(f"data.shards_per_client must be 1 under data.partition = iid, "
                             f"got {self.shards_per_client}")
        v, t = self.val_fraction, self.test_fraction
        if not (0 <= v < 1 and 0 <= t < 1 and v + t < 1):
            raise ValueError(f"data.val_fraction and data.test_fraction must lie in [0, 1) "
                             f"and sum below 1, got {v!r} and {t!r}")


def gen_synthetic(cfg: DataConfig, seed: int) -> Dataset:
    """cfg.per_class examples of each class in class order, deterministic in seed.

    A size too large to allocate is a MemoryError that names the data keys, led by the larger factor:
    the example count or one example's grid.
    """
    try:
        try:  # numpy refuses a size past its index range with ValueError or OverflowError
            y = np.repeat(np.arange(cfg.num_classes, dtype=np.int64), cfg.per_class)
            x = np.zeros((y.shape[0], cfg.height * cfg.width), dtype=np.float64)
        except (ValueError, OverflowError) as exc:
            raise MemoryError(str(exc)) from exc
        x[np.arange(y.shape[0]), y] = TEMPLATE_BRIGHT
        if cfg.noise_sigma != 0.0:
            # template + sigma * noise, clipped; in place, so only one extra array lives. A zero template
            # cell clips any noise <= 0 to +0.0, which a noise of 0.0 gives too, so libm skips those.
            noise = normals(seed, x.size, clipped=x.ravel() == 0.0).reshape(x.shape)
            with np.errstate(over="ignore"):  # a product past the float range is +-inf, which the clip bounds
                noise *= cfg.noise_sigma
            x += noise
            np.clip(x, 0.0, 1.0, out=x)
    except MemoryError as exc:
        grid = f"data.height x data.width = {cfg.height}x{cfg.width} grid"
        examples = f"data.per_class x data.num_classes = {cfg.per_class} x {cfg.num_classes} examples"
        more_examples = cfg.per_class * cfg.num_classes >= cfg.height * cfg.width
        blame = (f"data.per_class = {cfg.per_class} is too large: {examples} of a {grid}" if more_examples
                 else f"{grid} is too large for {examples}")
        raise MemoryError(f"{blame}: {exc}") from exc
    return Dataset(x, y)


def read_text(path: str) -> str:
    """The file at path decoded as UTF-8, line ends as stored; a non-UTF-8 byte raises ValueError naming path."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}")


def load_csv(path: str, num_classes: int) -> Dataset:
    """Parse ``label,f0,f1,...`` rows; grid shape comes from the run config."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
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
