"""Adversarial client behaviors and their placement over mining pools.

Three ingredients compose every attack scenario: a data manipulation
(labelflip or a fixed white-box trigger), an optional model-replacement boost
of the transmitted update, and a placement policy that marks which client
slots in which pools are adversarial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

import numpy as np

from .data import Dataset
from .seeds import Sm64Stream, derive_seed

ATTACK_KINDS = ("none", "labelflip", "backdoor")
PLACEMENTS = ("none", "one_pool", "all_pools")
BOOST_MODES = ("off", "replacement")


@dataclass(frozen=True)
class AdversaryConfig:
    attack: str = "none"
    placement: str = "none"
    pool_id: int = 0                 # target pool for one_pool placement
    adversaries_per_pool: int = 1
    boost: str = "off"
    boost_eta: float = 1.0           # server learning rate the adversary assumes
    trigger_size: int = 2
    target_label: int = 0
    poison_fraction: float = 0.5     # share of an adversary's local data that gets the trigger

    def __post_init__(self):
        if self.attack not in ATTACK_KINDS:
            raise ValueError(f"adversary.attack must be one of {', '.join(ATTACK_KINDS)}, got {self.attack!r}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"adversary.placement must be one of {', '.join(PLACEMENTS)}, got {self.placement!r}")
        if (self.attack == "none") != (self.placement == "none"):
            raise ValueError("placement is 'none' exactly when attack is 'none'")
        if self.placement != "one_pool" and self.pool_id != 0:
            raise ValueError(f"adversary.pool_id must be 0 under adversary.placement = {self.placement}, "
                             f"got {self.pool_id}")
        if self.boost not in BOOST_MODES:
            raise ValueError(f"adversary.boost must be one of {', '.join(BOOST_MODES)}, got {self.boost!r}")
        if self.adversaries_per_pool < 1:
            raise ValueError(f"adversaries_per_pool must be >= 1, got {self.adversaries_per_pool}")
        if self.boost_eta <= 0:
            raise ValueError(f"boost_eta must be > 0, got {self.boost_eta}")
        if self.trigger_size < 1:
            raise ValueError(f"trigger_size must be >= 1, got {self.trigger_size}")
        if self.target_label < 0:
            raise ValueError(f"target_label must be >= 0, got {self.target_label}")
        if not (0 < self.poison_fraction <= 1):
            raise ValueError(f"poison_fraction must lie in (0, 1], got {self.poison_fraction}")


def flip_labels(data: Dataset, num_classes: int) -> Dataset:
    """Relabel y -> (num_classes - 1) - y; the features array is shared."""
    bad = data.y[(data.y < 0) | (data.y >= num_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {num_classes} classes")
    return Dataset(data.x, (num_classes - 1) - data.y)


def check_trigger(trigger_size: int, height: int, width: int) -> None:
    """Raise ValueError unless the k x k trigger is smaller than the grid's shorter side."""
    if trigger_size >= min(height, width):
        raise ValueError(f"trigger_size {trigger_size} must be smaller than "
                         f"min grid side {min(height, width)}")


def apply_trigger(x: np.ndarray, height: int, width: int, trigger_size: int) -> np.ndarray:
    """Copy of the rows ``x`` with a white k x k box in each grid's bottom-right corner."""
    k = trigger_size
    check_trigger(k, height, width)
    out = np.array(x, dtype=np.float64)
    out.reshape(-1, height, width)[:, height - k :, width - k :] = 1.0
    return out


def poison_examples(data: Dataset, height: int, width: int,
                    cfg: AdversaryConfig, seed: int) -> Dataset:
    """Trigger a deterministic poison_fraction share of a client's examples and relabel them."""
    n = len(data)
    n_poison = min(n, max(1, round(cfg.poison_fraction * n)))
    rows = np.array(Sm64Stream(seed).sample(range(n), n_poison), dtype=np.int64)
    x, y = np.array(data.x), np.array(data.y)
    x[rows] = apply_trigger(x[rows], height, width, cfg.trigger_size)
    y[rows] = cfg.target_label
    return Dataset(x, y)


def build_backdoor_test(test_data: Dataset, height: int, width: int,
                        trigger_size: int) -> Dataset:
    """Triggered copies of the test split that keep their original clean labels."""
    return Dataset(apply_trigger(test_data.x, height, width, trigger_size), test_data.y)


def boost_update(v_adv: np.ndarray, v_global: np.ndarray, n: int, eta: float) -> np.ndarray:
    """Model-replacement transmission: v_global + (n/eta) * (v_adv - v_global).

    Averaged with n-1 converged benign updates and pushed through the server
    update rule with learning rate eta, the aggregate lands on v_adv.
    """
    if v_adv.shape[0] != v_global.shape[0]:
        raise ValueError(f"boost_update: dimension mismatch ({v_adv.shape[0]} vs {v_global.shape[0]})")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    beta = n / eta
    return v_global + beta * (v_adv - v_global)


def assign_adversaries(num_pools: int, clients_per_pool: int, cfg: AdversaryConfig,
                       seed: int) -> FrozenSet[int]:
    """Adversarial client ids, pool * clients_per_pool + slot; FederationConfig checked that they fit."""
    if cfg.placement == "none":
        return frozenset()
    pools = [cfg.pool_id] if cfg.placement == "one_pool" else range(num_pools)
    ids = set()
    for p in pools:
        stream = Sm64Stream(derive_seed(seed, 0, p, 0, "adversary-slots"))
        ids.update(p * clients_per_pool + slot
                   for slot in stream.sample(range(clients_per_pool), cfg.adversaries_per_pool))
    return frozenset(ids)
