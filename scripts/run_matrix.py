#!/usr/bin/env python3
"""Run the full desk-scale scenario matrix and tabulate summary statistics.

Covers every aggregation rule x topology x scenario x consensus metric combo
on the desk preset, averaged over the requested seeds. Writes one CSV row per
(scenario, rule, topology, metric, seed) plus a compact final-accuracy table
on stdout. The full matrix with three seeds (240 runs) took 80 s on a 2-vCPU host.
"""

import argparse
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rfc_sim import consensus, metrics
from rfc_sim.aggregation import AGGREGATION_RULES
from rfc_sim.config import PRESET_NAMES, build_partition, desk_default, preset, with_master_seed
from rfc_sim.consensus import TOPOLOGIES

CONSENSUS_METRICS = ("accuracy", "loss")

CSV_HEADER = ("scenario,rule,topology,metric,seed,final_accuracy,best_accuracy,avg10_accuracy,"
              "final_loss,best_loss,avg10_loss,final_backdoor,best_backdoor,avg10_backdoor")


def variant_config(scenario, rule, topology, metric_name, seed):
    rc = preset(scenario, desk_default())
    fed = rc.federation
    fed = replace(fed, aggregator=replace(fed.aggregator, rule=rule), topology=topology,
                  metric=metrics.MetricSpec(metric_name))
    return with_master_seed(replace(rc, federation=fed), seed)


def summary_triple(series, direction):
    stats = metrics.summarize(series, direction)
    return stats.final, stats.best, stats.avg_last_10


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="matrix_out", help="output directory")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated master seeds")
    parser.add_argument("--scenarios", default=",".join(PRESET_NAMES))
    parser.add_argument("--rules", default=",".join(AGGREGATION_RULES))
    parser.add_argument("--topologies", default=",".join(TOPOLOGIES))
    parser.add_argument("--metrics", default=",".join(CONSENSUS_METRICS))
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    scenarios = args.scenarios.split(",")
    rules = args.rules.split(",")
    topologies = args.topologies.split(",")
    metric_names = args.metrics.split(",")

    os.makedirs(args.out, exist_ok=True)
    rows = [CSV_HEADER]
    finals = {}
    started = time.monotonic()
    total = len(scenarios) * len(rules) * len(topologies) * len(metric_names) * len(seeds)
    done = 0
    for scenario in scenarios:
        for rule in rules:
            for topology in topologies:
                for metric_name in metric_names:
                    acc_sum = 0.0
                    for seed in seeds:
                        rc = variant_config(scenario, rule, topology, metric_name, seed)
                        result = consensus.run_federation(rc.federation, build_partition(rc))
                        recs = result.records
                        acc = summary_triple([r.test_accuracy for r in recs], "maximize")
                        loss = summary_triple([r.test_loss for r in recs], "minimize")
                        bd = summary_triple([r.backdoor_accuracy_target for r in recs], "maximize")
                        rows.append(",".join([scenario, rule, topology, metric_name, str(seed)]
                                             + [repr(v) for v in acc + loss + bd]))
                        acc_sum += acc[0]
                        done += 1
                        print(f"\r{done}/{total} runs ({time.monotonic() - started:.0f}s)",
                              end="", flush=True)
                    finals[(scenario, rule, topology, metric_name)] = acc_sum / len(seeds)
    print()

    out_csv = os.path.join(args.out, "matrix.csv")
    with open(out_csv, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {out_csv}")

    label = {"rfc": {"fedavg": "PoFL", "krum": "K-RFC", "bulyan": "B-RFC", "geomed": "G-RFC"},
             "client_server": {"fedavg": "FedAvg", "krum": "Krum", "bulyan": "Bulyan",
                               "geomed": "GeoMed"}}
    for metric_name in metric_names:
        print(f"\nfinal test accuracy (seed-averaged, consensus metric = {metric_name})")
        names = [label[t][r] for r in rules for t in topologies]
        print(f"{'scenario':<22}" + "".join(f"{n:>9}" for n in names))
        for scenario in scenarios:
            cells = []
            for rule in rules:
                for topology in topologies:
                    value = finals.get((scenario, rule, topology, metric_name))
                    cells.append(f"{value:>9.3f}" if value is not None else f"{'-':>9}")
            print(f"{scenario:<22}" + "".join(cells))


if __name__ == "__main__":
    main()
