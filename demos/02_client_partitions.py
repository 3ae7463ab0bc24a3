#!/usr/bin/env python3
"""Partition one dataset across clients two ways and print count heatmaps.

Dirichlet(beta) controls heterogeneity smoothly: huge beta is near-IID,
small beta leaves many clients with zero samples of some classes. The
pcdd scheme is the pure form of that: every client holds exactly
`classes_per_client` classes.
"""
import numpy as np

from fedgela import dirichlet_partition, pcdd_partition, synth_gaussian_mixture
from fedgela.diagnostics import partition_table

ds = synth_gaussian_mixture(n_classes=10, input_dim=12, n_per_class=100,
                            class_sep=3.0, noise_sigma=1.0, seed=0)


def show(title, shards):
    table = partition_table(shards, ds.n_classes)
    print(f"\n{title}  (rows = clients, columns = classes)")
    for shard, row in zip(shards, table):
        cells = " ".join(f"{v:4d}" if v else "   ." for v in row)
        print(f"  client {shard.client_id}: {cells}   "
              f"|C_k|={len(shard.existing_classes)} n_k={shard.n_k}")


for beta in (10000.0, 0.5, 0.1):
    show(f"Dirichlet beta={beta}",
         dirichlet_partition(ds, n_clients=10, beta=beta, seed=3, min_size=1))

shards = pcdd_partition(ds, n_clients=10, classes_per_client=2, seed=3)
show("pcdd, 2 classes per client", shards)

# the class-distribution vector phi: zero on missing classes, mean one
from fedgela import compute_phi

phi = compute_phi(shards[0].counts, shards[0].n_k, gamma=1.0 / ds.n_classes)
print("\nclient 0 counts:", shards[0].counts.tolist())
print("client 0 phi   :", np.round(phi, 3).tolist(), f"(mean {phi.mean():.3f})")
