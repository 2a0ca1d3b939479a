"""The bench tracer still wraps every rfc_sim name it patches, and puts each back."""

import importlib.util
import json
from pathlib import Path

from rfc_sim import cli, config, consensus

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_measures_a_run_and_uninstalls(tmp_path):
    tracer_mod = load_tracer()
    rc = config.parse_config_text("rounds = 2\nnum_pools = 2\nclients_per_pool = 4\n"
                                  "clients_sampled_per_round = 4\ndata.height = 3\ndata.width = 3\n"
                                  "data.per_class = 40\noptimizer.local_epochs = 2\nmaster_seed = 11\n")
    tracer, originals = tracer_mod.Tracer(), {}
    try:
        tracer.install()  # raises AttributeError if a wrapped name is gone; uninstall undoes the rest
        for owner, attr, original in tracer._undo:  # chain.append is wrapped twice: the first is the real one
            originals.setdefault((owner, attr), original)
        assert all(getattr(owner, attr) is not original for (owner, attr), original in originals.items())
        result = consensus.run_federation(rc.federation, config.build_partition(rc))
        cli.write_outputs(result, rc, str(tmp_path))
        layers = tracer_mod.layer_metrics(tracer, result)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for (owner, attr), original in originals.items())
    # every per-layer metric the benchmark declares, bar the overhead that run.py computes
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - {"trace.overhead_s"} <= set(layers)
    assert layers["data.examples_generated"] == 3 * 40
    # a round scores its candidates in one stacked pass: one score_model call per round
    assert layers["metrics.score_calls"] == 2 and layers["consensus.useful_candidate_ratio"] == 1.0
    assert layers["chain.block_hashes"] > 0 and layers["cli.bytes_written"] > 0
    assert layers["models.examples_evaluated"] > 0 and layers["consensus.round_self_s"] > 0
