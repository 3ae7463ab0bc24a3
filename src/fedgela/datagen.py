"""Synthetic classification data, CSV ingestion, and client partitioning.

Data never leaves the coordinator in this simulator: a partition is just a
list of per-client index shards over one shared dataset, with per-shard
class histograms and a stratified train/test split.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .etfgeom import _frozen, random_rotation

__all__ = [
    "Dataset",
    "ClientShard",
    "PartitionInfeasibleError",
    "synth_gaussian_mixture",
    "dirichlet_partition",
    "pcdd_partition",
    "check_pcdd",
    "make_client_shard",
    "load_csv",
    "dataset_sha256",
]

DEFAULT_TEST_FRAC = 0.2


class PartitionInfeasibleError(RuntimeError):
    """No admissible partition found under the given constraints."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels in [0, n_classes)."""

    features: np.ndarray   # n x d_in
    labels: np.ndarray     # n ints
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen(self.features, np.float64))
        object.__setattr__(self, "labels", _frozen(self.labels, np.int64))
        if self.features.ndim != 2:
            raise ValueError("features must be an n x d_in matrix")
        if self.labels.ndim != 1 or len(self.labels) != len(self.features):
            raise ValueError("labels and feature rows must have equal length")
        if len(self.labels) < 1:
            raise ValueError("empty dataset: need n >= 1")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class ClientShard:
    """One client's slice of a dataset.

    `indices` is the client's full sample set (disjoint across shards of one
    partition); `counts` is its per-class histogram n_{k,c}; train/test are a
    stratified split of `indices`.
    """

    client_id: int
    indices: np.ndarray
    counts: np.ndarray
    n_k: int
    existing_classes: tuple
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", _frozen(self.indices, np.int64))
        object.__setattr__(self, "counts", _frozen(self.counts, np.int64))
        object.__setattr__(self, "train_indices", _frozen(self.train_indices, np.int64))
        object.__setattr__(self, "test_indices", _frozen(self.test_indices, np.int64))
        if self.n_k < 1 or len(self.indices) != self.n_k:
            raise ValueError("empty or inconsistent client shard")
        if int(self.counts.sum()) != self.n_k:
            raise ValueError("shard counts do not sum to n_k")
        if not self.existing_classes:
            raise ValueError("shard has no existing classes")


def synth_gaussian_mixture(
    n_classes: int,
    input_dim: int,
    n_per_class: int,
    class_sep: float,
    noise_sigma: float,
    seed,
) -> "Dataset":
    """Balanced isotropic Gaussian blobs around distinct unit directions.

    Class c's mean is a unit vector scaled by class_sep (orthogonal
    directions when input_dim >= n_classes, random distinct ones otherwise);
    samples add N(0, noise_sigma^2) noise per coordinate. Deterministic per
    seed.
    """
    if n_classes < 2 or input_dim < 2 or n_per_class < 1:
        raise ValueError(
            "invalid sizes: need n_classes >= 2, input_dim >= 2, "
            f"n_per_class >= 1, got ({n_classes}, {input_dim}, {n_per_class})"
        )
    if not class_sep > 0 or not noise_sigma > 0:
        raise ValueError("class_sep and noise_sigma must be positive")
    rng = np.random.default_rng(seed)
    if input_dim >= n_classes:
        directions = random_rotation(input_dim, n_classes, seed).entries.T
    else:
        directions = rng.standard_normal((n_classes, input_dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = class_sep * directions
    labels = np.repeat(np.arange(n_classes), n_per_class)
    noise = noise_sigma * rng.standard_normal((len(labels), input_dim))
    features = means[labels] + noise
    return Dataset(features=features, labels=labels, n_classes=n_classes)


def make_client_shard(
    ds: Dataset, client_id: int, indices, test_frac: float, rng
) -> ClientShard:
    """Build a shard with a stratified train/test split.

    Per class, round(test_frac * n_c) samples go to test (capped at n_c - 1
    so every class keeps a train sample). If rounding leaves the test split
    empty and some class has >= 2 samples, one sample is promoted.
    """
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if idx.size == 0:
        raise ValueError("empty client shard")
    if not 0.0 <= test_frac < 1.0:
        raise ValueError(f"test_frac must be in [0, 1), got {test_frac}")
    counts = np.bincount(ds.labels[idx], minlength=ds.n_classes)
    existing = tuple(int(c) for c in np.nonzero(counts)[0])
    test_parts = []
    per_class = {c: idx[ds.labels[idx] == c] for c in existing}
    for c in existing:
        cls_idx = per_class[c]
        n_c = len(cls_idx)
        n_test = min(int(np.floor(test_frac * n_c + 0.5)), n_c - 1)
        if n_test > 0:
            perm = rng.permutation(n_c)
            test_parts.append(cls_idx[perm[:n_test]])
    test = np.concatenate(test_parts) if test_parts else np.empty(0, dtype=np.int64)
    if test_frac > 0 and test.size == 0:
        # all classes rounded to zero; promote one sample from the largest
        # class that can spare it
        order = sorted(existing, key=lambda c: (-counts[c], c))
        for c in order:
            if counts[c] >= 2:
                cls_idx = per_class[c]
                test = cls_idx[rng.permutation(len(cls_idx))[:1]]
                break
    test = np.sort(test)
    train = np.setdiff1d(idx, test, assume_unique=True)
    return ClientShard(
        client_id=int(client_id),
        indices=idx,
        counts=counts,
        n_k=int(idx.size),
        existing_classes=existing,
        train_indices=train,
        test_indices=test,
    )


def _largest_remainder_alloc(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` by proportions; remainders go to the
    largest fractional parts, ties broken by lower index."""
    raw = proportions * total
    base = np.floor(raw).astype(np.int64)
    remainder = total - int(base.sum())
    frac = raw - base
    order = np.lexsort((np.arange(len(frac)), -frac))
    base[order[:remainder]] += 1
    return base


def dirichlet_partition(
    ds: Dataset, n_clients: int, beta: float, seed: int, min_size: int = 1,
    test_frac: float = DEFAULT_TEST_FRAC,
) -> list:
    """Partition by per-class Dirichlet(beta) proportions over clients.

    For every class, a Dir(beta, ..., beta) vector over the N clients decides
    how that class's samples split. If any shard ends up below min_size, the
    whole partition is resampled with an incremented seed, up to 1000
    attempts.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    if beta is None or not beta > 0:
        raise ValueError(f"dirichlet scheme needs beta > 0, got {beta}")
    best_min = -1
    for attempt in range(1000):
        rng = np.random.default_rng(seed + attempt)
        assigned = [[] for _ in range(n_clients)]
        for c in range(ds.n_classes):
            cls_idx = np.nonzero(ds.labels == c)[0]
            if cls_idx.size == 0:
                continue
            cls_idx = rng.permutation(cls_idx)
            props = rng.dirichlet(np.full(n_clients, beta))
            counts = _largest_remainder_alloc(props, cls_idx.size)
            stops = np.cumsum(counts)
            start = 0
            for k, stop in enumerate(stops):
                if stop > start:
                    assigned[k].append(cls_idx[start:stop])
                start = stop
        sizes = [sum(len(a) for a in parts) for parts in assigned]
        best_min = max(best_min, min(sizes))
        if min(sizes) >= min_size:
            return [
                make_client_shard(ds, k, np.concatenate(assigned[k]), test_frac, rng)
                for k in range(n_clients)
            ]
    raise PartitionInfeasibleError(
        f"no partition with min shard size >= {min_size} in 1000 attempts "
        f"(best minimum achieved: {best_min})"
    )


def check_pcdd(n_classes: int, clients: int, classes_per_client: int) -> None:
    """Raise ValueError unless `clients` clients of `classes_per_client`
    classes each can hold every one of `n_classes` classes: no client holds
    more classes than there are, and together they hold them all."""
    if classes_per_client > n_classes:
        raise ValueError(f"classes_per_client={classes_per_client} exceeds the class count "
                         f"classes={n_classes}")
    if clients * classes_per_client < n_classes:
        raise ValueError(f"coverage infeasible: clients={clients} x classes_per_client="
                         f"{classes_per_client} < classes={n_classes}")


def pcdd_partition(
    ds: Dataset, n_clients: int, classes_per_client: int, seed: int,
    test_frac: float = DEFAULT_TEST_FRAC,
) -> list:
    """Partition where each client holds exactly `classes_per_client` classes.

    Classes are dealt round-robin over a seeded class permutation (so all
    classes are covered), and each class's samples are split equally among
    the clients holding it, remainder to the earlier holders.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if classes_per_client is None or classes_per_client < 1:
        raise ValueError(f"pcdd scheme needs classes_per_client >= 1, got {classes_per_client}")
    cpc = classes_per_client
    check_pcdd(ds.n_classes, n_clients, cpc)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n_classes)
    holders = [[] for _ in range(ds.n_classes)]
    for slot in range(n_clients * cpc):
        cls = int(perm[slot % ds.n_classes])
        holders[cls].append(slot // cpc)
    assigned = [[] for _ in range(n_clients)]
    for c in range(ds.n_classes):
        cls_idx = rng.permutation(np.nonzero(ds.labels == c)[0])
        n_holders = len(holders[c])
        if cls_idx.size < n_holders:
            raise PartitionInfeasibleError(
                f"class {c} has {cls_idx.size} samples for {n_holders} holders"
            )
        base, extra = divmod(cls_idx.size, n_holders)
        start = 0
        for pos, k in enumerate(holders[c]):
            take = base + (1 if pos < extra else 0)
            assigned[k].append(cls_idx[start:start + take])
            start += take
    return [
        make_client_shard(ds, k, np.concatenate(assigned[k]), test_frac, rng)
        for k in range(n_clients)
    ]


def load_csv(path) -> Dataset:
    """Read a dataset from CSV: header f0,...,f{d-1},label then one row per
    sample of d finite reals and one non-negative integer label."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ValueError(f"empty dataset file: {path}")
    header = [c.strip() for c in lines[0].split(",")]
    d = len(header) - 1
    if d < 1 or header[-1] != "label" or header[:-1] != [f"f{i}" for i in range(d)]:
        raise ValueError(f"{path}:1: bad header, expected 'f0,...,f{{d-1}},label'")
    feats, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(cells)}")
        try:
            feats.append([float(x) for x in cells[:-1]])
            label = int(cells[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
        bad = [j for j, v in enumerate(feats[-1]) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{path}:{lineno}: non-finite feature "
                             f"f{bad[0]} = {feats[-1][bad[0]]}")
        if label < 0:
            raise ValueError(f"{path}:{lineno}: label must be >= 0, got {label}")
        labels.append(label)
    if not labels:
        raise ValueError(f"empty dataset file: {path} has a header but no rows")
    return Dataset(
        features=np.asarray(feats),
        labels=np.asarray(labels),
        n_classes=int(max(labels)) + 1,
    )


def dataset_sha256(ds: Dataset) -> str:
    """Content hash of a dataset (shape + raw bytes), for run manifests."""
    h = hashlib.sha256()
    h.update(repr((ds.features.shape, ds.n_classes)).encode())
    h.update(np.ascontiguousarray(ds.features).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
    return h.hexdigest()
