#!/usr/bin/env python3
"""Race three algorithms on class-disjoint clients and compare both views.

Ten clients each hold two of ten classes. FedAvg trains a learnable
classifier whose vectors for locally missing classes collapse during
local epochs; FedGE fixes the classifier as a simplex frame; FedGELA
additionally rescales the frame's columns by each client's class
distribution and restricts the softmax to locally existing classes.

Generic accuracy (GA) scores the aggregated model over all classes;
personal accuracy (PA) scores each client's personal model on its own
test split. The angle columns track the mean pairwise angle between
class means, globally and within each client's existing classes.
"""
from fedgela import parse_config, run_federation

BASE = {
    "classes": 10, "input_dim": 20, "n_per_class": 100,
    "class_sep": 2.0, "noise_sigma": 1.0,
    "scheme": "pcdd", "classes_per_client": 2, "clients": 10,
    "rounds": 15, "epochs": 5, "batch_size": 20, "min_size": 10,
    "lr": 0.02, "e_w": 1e-4, "e_h": 400.0, "hidden": "64",
    "feature_dim": 32, "seed": 0, "eval_every": 5, "finetune_epochs": 10,
}

for algo in ("fedavg", "fedge", "fedgela"):
    result = run_federation(parse_config(BASE | {"algo": algo}))
    print(f"\n{algo}")
    print("  round    GA      PA    global-angle  local-existing-angle")
    for log in result.logs:
        report = log.report
        if report is None:
            continue
        print(f"  {log.round:5d}  {report.ga:.3f}   {report.pa:.3f}   "
              f"{report.angles.global_mean_angle:9.1f}   "
              f"{report.angles.local_exist_angle:12.1f}")
