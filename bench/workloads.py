"""The benchmark's three workloads, each a run config built from a master seed.

* ``desk_backdoor``: the desk preset under ``one_pool_backdoor``. Local
  training dominates; aggregation and the chain are negligible.
* ``wide_krum``: one client-server aggregation of 60 MLP updates per round
  under Krum, so pairwise distances (O(n^2 * d)) carry a third or more of
  the run.
* ``long_chain``: 1,000 cheap rounds sealed at difficulty 8, so
  ``chain.append`` (sealing plus whole-chain re-validation, O(R^2) over a
  run) is the largest share.
"""

from __future__ import annotations

from dataclasses import replace

from rfc_sim import config
from rfc_sim.aggregation import AggregatorConfig
from rfc_sim.metrics import MetricSpec
from rfc_sim.models import ModelSpec

DEFAULT_SEED = 42


def desk_backdoor(seed: int) -> config.RunConfig:
    rc = config.preset("one_pool_backdoor", config.desk_default())
    return config.with_master_seed(rc, seed)


def wide_krum(seed: int) -> config.RunConfig:
    rc = config.preset("all_pools_labelflip", config.desk_default())
    fed = rc.federation
    fed = replace(fed, topology="client_server", clients_per_pool=20,
                  clients_sampled_per_round=60, rounds=16,
                  aggregator=AggregatorConfig(rule="krum", krum_f=10),
                  model=ModelSpec("mlp", 64, 3, hidden_dim=256),
                  optimizer=replace(fed.optimizer, local_epochs=1))
    return config.with_master_seed(replace(rc, federation=fed), seed)


def long_chain(seed: int) -> config.RunConfig:
    rc = config.desk_default()
    fed = replace(rc.federation, rounds=1000, chain_difficulty=8,
                  clients_sampled_per_round=3, metric=MetricSpec("macro_f1"),
                  optimizer=replace(rc.federation.optimizer, local_epochs=1))
    return config.with_master_seed(replace(rc, federation=fed), seed)


WORKLOADS = {
    "desk_backdoor": desk_backdoor,
    "wide_krum": wide_krum,
    "long_chain": long_chain,
}
