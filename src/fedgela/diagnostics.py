"""Checks and reports that no federated run calls.

The handlers of the gradcheck, partition-report, gen-data and lpm-oracle
subcommands, and the library functions only they use: the simplex-frame
check (verify_etf), the free-feature fit under the fixed frame
(lpm_feature_fit) with its within-class variability (nc1_variability), the
dataset CSV writer (save_csv) and the client-by-class table
(partition_table, write_partition_csv). `cli` imports this module only when
one of those subcommands runs, so `run` and `sweep` never load it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import fedsim
from .cli import ConfigError, RunConfig, _resolve_out_dir, write_csv
from .datagen import Dataset
from .etfgeom import make_etf
from .neuralnet import Layout, finite_diff_check, init_backbone

__all__ = ["EtfReport", "verify_etf", "lpm_feature_fit", "nc1_variability", "save_csv",
           "partition_table", "write_partition_csv", "GRADCHECK_THRESHOLD",
           "gradcheck_battery", "cmd_gradcheck", "cmd_partition_report", "cmd_gen_data",
           "cmd_lpm_oracle"]


class EtfReport(NamedTuple):
    """Deviations of a candidate frame from the simplex identities."""

    max_norm_dev: float      # worst |column norm - 1|
    max_dot_dev: float       # worst |<m_i, m_j> + 1/(C-1)|, i != j
    col_sum_norm: float      # Euclidean norm of the column sum
    tol: float
    passed: bool


def verify_etf(frame: np.ndarray, tol: float = 1e-9) -> EtfReport:
    """Measure a d x C matrix's deviation from the simplex identities of
    unit columns (an e_w = 1 frame).

    Returns the worst column-norm deviation, worst pairwise-dot deviation
    and the norm of the column sum; `passed` is True when all three are
    below tol.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = np.asarray(frame, dtype=np.float64)
    c = m.shape[1]
    norms = np.linalg.norm(m, axis=0)
    max_norm_dev = float(np.max(np.abs(norms - 1.0)))
    gram = m.T @ m
    off_diag = gram[~np.eye(c, dtype=bool)]
    max_dot_dev = float(np.max(np.abs(off_diag + 1.0 / (c - 1.0)))) if c > 1 else 0.0
    col_sum_norm = float(np.linalg.norm(m.sum(axis=1)))
    passed = max(max_norm_dev, max_dot_dev, col_sum_norm) < tol
    return EtfReport(max_norm_dev, max_dot_dev, col_sum_norm, float(tol), passed)


def lpm_feature_fit(frame: np.ndarray, labels, e_h: float, iterations: int, lr: float,
                    seed=0) -> np.ndarray:
    """Optimize free per-sample features under the fixed d x C frame.

    Projected gradient descent on each sample's cross-entropy against the
    frame (all-ones phi, full class mask), with features constrained to the
    sqrt(e_h) sphere. Returns the final n x d feature matrix.
    """
    w = np.asarray(frame, dtype=np.float64)
    feature_dim, n_classes = w.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels outside [0, n_classes)")
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((len(y), feature_dim))
    h = math.sqrt(e_h) * h / np.linalg.norm(h, axis=1, keepdims=True)
    onehot = np.zeros((len(y), n_classes))
    onehot[np.arange(len(y)), y] = 1.0
    for _ in range(int(iterations)):
        z = h @ w
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        probs = ez / ez.sum(axis=1, keepdims=True)
        g = (probs - onehot) @ w.T   # per-sample loss, no 1/n
        h = h - lr * g
        h = math.sqrt(e_h) * h / np.linalg.norm(h, axis=1, keepdims=True)
    return h


def nc1_variability(features, labels) -> float:
    """Trace of the average within-class covariance of the features.

    Equals the pooled mean squared distance of each feature to its class
    mean; zero exactly when every feature sits at its class mean.
    """
    f = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    total = 0.0
    for c in np.unique(y):
        rows = f[y == c]
        diff = rows - rows.mean(axis=0)
        total += float(np.sum(diff * diff))
    return total / len(y)


def save_csv(ds: Dataset, path) -> None:
    """Inverse of datagen.load_csv; floats are written with 17 significant
    digits so the round trip is exact."""
    write_csv(path, [f"f{i}" for i in range(ds.input_dim)] + ["label"],
              ([*row, label] for row, label in zip(ds.features, ds.labels)))


def partition_table(shards, n_classes: int) -> np.ndarray:
    """N x C matrix of per-client class counts (heatmap content)."""
    table = np.zeros((len(shards), n_classes), dtype=np.int64)
    for i, shard in enumerate(shards):
        table[i] = shard.counts
    return table


def write_partition_csv(shards, n_classes: int, path) -> None:
    """Client-by-class count table plus per-client existing-class counts."""
    header = ["client", *(f"class_{c}" for c in range(n_classes)), "existing_classes", "total"]
    write_csv(path, header, ([s.client_id, *row, len(s.existing_classes), s.n_k]
                             for s, row in zip(shards, partition_table(shards, n_classes))))


GRADCHECK_THRESHOLD = 1e-4


def gradcheck_battery(config: RunConfig, n_probes: int = 64):
    """Finite-difference check over every algorithm kind, phi pattern, and
    mask pattern on a small two-layer net, each at the config's e_h and at
    4 * e_h, where sqrt(e_h) is not 1 even at the default e_h = 1. Yields
    (label, worst_rel_error), the worse of the two errors.
    """
    n_classes, feat_dim, d_in, hidden = 5, 5, 6, 12
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((8, d_in))
    frame = make_etf(feat_dim, n_classes, config.seed, e_w=config.e_w)
    sizes = (d_in, hidden, feat_dim)
    fixed = Layout(sizes), init_backbone(Layout(sizes), (config.seed, 11)), frame
    learnable = (Layout(sizes, n_classes),
                 init_backbone(Layout(sizes, n_classes), (config.seed, 11), (config.seed, 12)),
                 None)
    phi_variants = {
        "phi_uniform": np.ones(n_classes),
        "phi_zeros": np.array([2.0, 1.5, 0.0, 1.5, 0.0]),
    }
    mask_variants = {
        "full_mask": None,
        "restricted_mask": np.array([True, True, False, True, False]),
    }
    for algo in fedsim.VALID_ALGOS:
        lam = 0.1 if algo == "fedprox" else 0.0
        layout, row, fixed_frame = fixed if algo in fedsim.FIXED_FRAME else learnable
        for phi_name, phi in phi_variants.items():
            for mask_name, mask in mask_variants.items():
                allowed = np.arange(n_classes) if mask is None else np.nonzero(mask)[0]
                labels = rng.choice(allowed, size=len(x))
                err = max(finite_diff_check(
                    layout, row, x, labels, fixed_frame, phi=phi, class_mask=mask,
                    e_h=e_h, step=1e-5, n_probes=n_probes,
                    seed=(config.seed, 13), lambda_prox=lam,
                ) for e_h in (config.e_h, 4 * config.e_h))
                yield f"{algo}/{phi_name}/{mask_name}", err


def cmd_gradcheck(config: RunConfig) -> int:
    worst_label, worst = None, -1.0
    for label, err in gradcheck_battery(config):
        status = "ok" if err < GRADCHECK_THRESHOLD else "FAIL"
        print(f"{status:4s} {label:40s} rel_err={err:.3e}")
        if err > worst:
            worst_label, worst = label, err
    if worst >= GRADCHECK_THRESHOLD:
        print(f"gradcheck FAILED: worst offender {worst_label} at {worst:.3e}")
        return 1
    print(f"gradcheck passed: worst {worst_label} at {worst:.3e}")
    return 0


def cmd_partition_report(config: RunConfig) -> int:
    ds = fedsim.build_dataset(config)
    shards = fedsim.build_partition(ds, config)
    out = _resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "partition.csv"
    write_partition_csv(shards, ds.n_classes, path)
    sizes = [s.n_k for s in shards]
    existing = [len(s.existing_classes) for s in shards]
    print(f"{len(shards)} clients, shard sizes {min(sizes)}..{max(sizes)}, "
          f"existing classes {min(existing)}..{max(existing)} -> {path}")
    return 0


def cmd_gen_data(config: RunConfig, out_path) -> int:
    ds = fedsim.build_dataset(config)
    save_csv(ds, out_path)
    print(f"wrote {ds.n} samples, {ds.n_classes} classes, d={ds.input_dim} -> {out_path}")
    return 0


def _parse_label_counts(text: str) -> list:
    """The per-class sample counts of --label-counts, at least two; a bad
    entry raises a ConfigError naming it."""
    counts = []
    for i, entry in enumerate(e.strip() for e in text.split(",")):
        if not entry.isdecimal() or int(entry) < 1:
            raise ConfigError(f"--label-counts: entry {i} ({entry!r}) is not a positive integer")
        counts.append(int(entry))
    if len(counts) < 2:
        raise ConfigError(f"--label-counts {text!r} names one class, need >= 2")
    return counts


def cmd_lpm_oracle(config: RunConfig, feature_dim, label_counts, iterations,
                   lr, threshold) -> int:
    """Fit free features under the frame and check each one's cosine to its
    class vector; every argument is checked before the fit."""
    counts = _parse_label_counts(label_counts)
    if feature_dim != 0 and feature_dim < len(counts):
        raise ConfigError(f"--dim must be 0 (2C) or >= the {len(counts)} classes of "
                          f"--label-counts, got {feature_dim}")
    if iterations < 1:
        raise ConfigError(f"--iters must be >= 1, got {iterations}")
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"--lr must be finite and positive, got {lr}")
    if not math.isfinite(threshold):
        raise ConfigError(f"--threshold must be finite, got {threshold}")
    labels = np.repeat(np.arange(len(counts)), counts)
    d = feature_dim if feature_dim else 2 * len(counts)
    feats = lpm_feature_fit(make_etf(d, len(counts), config.seed, e_w=config.e_w), labels,
                            config.e_h, iterations=iterations, lr=lr, seed=config.seed)
    cos = np.sum(feats * make_etf(d, len(counts), config.seed).T[labels], axis=1)
    cos /= np.linalg.norm(feats, axis=1)
    nc1 = nc1_variability(feats, labels)
    for c in range(len(counts)):
        cc = cos[labels == c]
        print(f"class {c}: n={counts[c]} min_cos={cc.min():.6f} mean_cos={cc.mean():.6f}")
    print(f"worst cosine {cos.min():.6f}, within-class variability {nc1:.3e}")
    if cos.min() <= threshold:
        print(f"FAIL: worst cosine {cos.min():.6f} <= threshold {threshold}")
        return 1
    return 0
