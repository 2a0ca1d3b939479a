"""The four aggregation rules: FedAvg, Krum, Multi-Krum (configured as bulyan)
and a squared-distance medoid (geomed); see bulyan() and geomed().

All selection rules break ties by lowest input index, and Krum scores sum
squared distances over the n - f - 2 nearest other updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import params

AGGREGATION_RULES = ("fedavg", "krum", "bulyan", "geomed")


@dataclass(frozen=True)
class AggregatorConfig:
    rule: str = "fedavg"
    krum_f: int = 2       # assumed bound on adversarial updates
    bulyan_m: int = 5     # size of the averaged low-score subset

    def __post_init__(self):
        if self.rule not in AGGREGATION_RULES:
            raise ValueError(f"unknown aggregation rule {self.rule!r}")
        if self.krum_f < 0:
            raise ValueError("krum_f must be >= 0")
        if self.bulyan_m < 1:
            raise ValueError("bulyan_m must be >= 1")


def min_updates(cfg: AggregatorConfig) -> int:
    """Fewest updates the configured rule accepts per aggregation."""
    if cfg.rule in ("krum", "bulyan"):
        return max(cfg.krum_f + 3, cfg.bulyan_m if cfg.rule == "bulyan" else 1)
    return 1


def _sq_dist_matrix(updates: Sequence[np.ndarray]) -> np.ndarray:
    n = len(updates)
    d = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = params.l2_dist_sq(updates[i], updates[j])
    return d


def fedavg(updates: Sequence[np.ndarray]) -> np.ndarray:
    return params.mean(updates)


def krum_scores(updates: Sequence[np.ndarray], f: int) -> List[float]:
    """Score s(i) = sum of squared distances to the n - f - 2 nearest others."""
    n = len(updates)
    if n < f + 3:
        raise ValueError(f"krum needs at least f + 3 = {f + 3} updates, got {n}")
    dist = _sq_dist_matrix(updates)
    n_neighbors = n - f - 2
    scores = []
    for i in range(n):
        others = np.delete(dist[i], i)
        others.sort()
        scores.append(float(others[:n_neighbors].sum()))
    return scores


def krum(updates: Sequence[np.ndarray], f: int) -> np.ndarray:
    scores = krum_scores(updates, f)
    return updates[int(np.argmin(scores))]


def bulyan(updates: Sequence[np.ndarray], f: int, m: int) -> np.ndarray:
    """Multi-Krum (Blanchard et al., NeurIPS 2017): mean of the m lowest-Krum-score updates.

    Not the Bulyan of El Mhamdi et al. (ICML 2018), which follows Krum
    selection with a coordinate-wise trimmed mean.
    """
    n = len(updates)
    if m > n:
        raise ValueError(f"bulyan: m={m} exceeds n={n}")
    scores = krum_scores(updates, f)
    chosen = np.argsort(scores, kind="stable")[:m]
    return params.mean([updates[int(i)] for i in chosen])


def geomed(updates: Sequence[np.ndarray]) -> np.ndarray:
    """The input update minimizing the summed *squared* distance to all others.

    Not RFA's geometric median (Pillutla et al.; Weiszfeld iterations), which
    minimizes the summed distance and need not be one of the inputs.
    """
    if len(updates) == 0:
        raise ValueError("geomed: empty update list")
    dist = _sq_dist_matrix(updates)
    totals = dist.sum(axis=1)
    return updates[int(np.argmin(totals))]


def aggregate(cfg: AggregatorConfig, updates: Sequence[np.ndarray]) -> np.ndarray:
    if cfg.rule == "fedavg":
        return fedavg(updates)
    if cfg.rule == "krum":
        return krum(updates, cfg.krum_f)
    if cfg.rule == "bulyan":
        return bulyan(updates, cfg.krum_f, cfg.bulyan_m)
    return geomed(updates)
