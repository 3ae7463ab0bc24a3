"""Federated rounds: client sampling, local training, weighted aggregation.

Four algorithm families share one loop. FedAvg and FedProx train a learnable
classifier jointly with the backbone and aggregate both; FedGE and FedGELA
keep the classifier fixed as a simplex frame and only ever exchange
backbones, with FedGELA (and the LA-only ablation arm) scaling classifier
columns by each client's class-distribution vector and restricting the
softmax to locally existing classes.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .datagen import (
    ClientShard,
    Dataset,
    PartitionSpec,
    dataset_sha256,
    dirichlet_partition,
    load_csv,
    pcdd_partition,
    synth_gaussian_mixture,
)
from .etfgeom import make_etf
from .neuralnet import (
    BackboneParams,
    PhiVector,
    _as_mask,
    _check_labels,
    _effective_matrix,
    flatten,
    init_backbone,
    init_classifier,
    train_step,
)

__all__ = ["AlgoKind", "Hyperparams", "feature_width", "ClientState", "ServerState",
           "RoundLog", "FederationResult", "compute_phi", "sample_clients", "local_train",
           "aggregate", "finetune_personalize",
           "run_federation", "run_many", "build_dataset", "build_partition",
           "write_round_csv", "read_round_csv", "write_manifest",
           "ROUND_CSV_COLUMNS"]

VALID_ALGOS = ("fedavg", "fedprox", "fedge", "fedgela", "laonly")

# rng stream tags so every random draw has its own derived seed
_SEED_INIT = 1
_SEED_SAMPLE = 2
_SEED_SHUFFLE = 3
_SEED_FINETUNE = 4
_SEED_ETF = 5


@dataclass(frozen=True)
class AlgoKind:
    """Which federated variant runs, plus the proximal weight for fedprox."""

    kind: str
    lambda_prox: float = 0.0

    def __post_init__(self):
        if self.kind not in VALID_ALGOS:
            raise ValueError(f"unknown algorithm '{self.kind}', "
                             f"algo must be one of {VALID_ALGOS}")
        if self.lambda_prox < 0:
            raise ValueError(f"lambda_prox must be >= 0, got {self.lambda_prox}")
        if self.lambda_prox > 0 and self.kind != "fedprox":
            raise ValueError(f"lambda_prox = {self.lambda_prox} is only meaningful for "
                             f"fedprox, not {self.kind}")

    @property
    def fixed_classifier(self) -> bool:
        return self.kind in ("fedge", "fedgela")

    @property
    def adapts_phi(self) -> bool:
        """Scales classifier columns by the client's distribution vector and
        restricts the softmax to the client's existing classes; the other
        algorithms personalize by fine-tuning the global model on each shard."""
        return self.kind in ("fedgela", "laonly")


@dataclass(frozen=True)
class Hyperparams:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 100
    e_h: float = 1.0

    def __post_init__(self):
        for name, ok, rule in (("lr", self.lr > 0, "> 0"), ("epochs", self.epochs >= 0, ">= 0"),
                               ("batch_size", self.batch_size >= 1, ">= 1"),
                               ("e_h", self.e_h > 0, "> 0")):
            if not ok:
                raise ValueError(f"invalid hyperparameter {name} = "
                                 f"{getattr(self, name)!r}, must be {rule}")


def feature_width(algo: AlgoKind, feature_dim: int | None, n_classes: int,
                  source: str) -> int:
    """The width of a run's features: `feature_dim`, or the class count when
    it is None. The simplex frame of a fixed classifier needs one dimension
    per class; `source` names where the class count comes from."""
    width = feature_dim or n_classes
    if algo.fixed_classifier and width < n_classes:
        raise ValueError(f"config key 'feature_dim' must be >= the {n_classes} classes of "
                         f"{source} for the simplex frame of algo={algo.kind}, got {width}")
    return width


@dataclass
class ClientState:
    """One client's shard, adaptation vector, and last local model."""

    client_id: int
    shard: ClientShard
    phi: PhiVector | None
    mask: np.ndarray                       # boolean, True on existing classes
    backbone: BackboneParams | None = None
    classifier: np.ndarray | None = None   # learnable variants only


@dataclass
class ServerState:
    backbone: BackboneParams
    classifier: object                     # EtfClassifier, or backbone.classifier
    round: int = 0


@dataclass
class RoundLog:
    """Per-round record: participants, losses, and evaluation diagnostics."""

    round: int
    algo: str
    participants: tuple
    client_losses: dict
    mean_train_loss: float | None
    ga: float | None = None
    pa: float | None = None
    global_mean_angle: float | None = None
    local_exist_angle: float | None = None
    clf_exist_angle: float | None = None
    clf_miss_angle: float | None = None


@dataclass
class FederationResult:
    logs: list
    server: ServerState
    clients: list
    dataset: Dataset
    shards: list
    global_test_indices: np.ndarray


def compute_phi(counts, n_k: int, gamma: float, q_kind: str = "identity") -> PhiVector:
    """Distribution vector phi_c = Q(n_{k,c} / n_k) / gamma with Q identity,
    exp, or sqrt.

    Identity computes n_{k,c} / (n_k * gamma). With gamma = 1/C this is
    C * n_{k,c} / n_k: zero exactly on missing classes and averaging to one
    over all classes. exp/sqrt give nonzero weight to missing classes; the
    class mask, not phi, is what excludes them from training.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if n_k <= 0:
        raise ValueError("empty client: n_k must be positive")
    if int(counts.sum()) != int(n_k):
        raise ValueError(f"counts sum {counts.sum():.0f} does not match n_k={n_k}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if q_kind == "identity":
        return PhiVector(phi=counts / (n_k * gamma))
    if q_kind not in ("exp", "sqrt"):
        raise ValueError(f"unknown q_kind '{q_kind}', expected identity/exp/sqrt")
    q = np.exp if q_kind == "exp" else np.sqrt
    return PhiVector(phi=q(counts / n_k) / gamma)


def sample_clients(n_clients: int, k: int, round_seed) -> np.ndarray:
    """Uniform sample of k distinct client ids, sorted ascending.

    Deterministic per round_seed (an int or a sequence combining the master
    seed and the round index).
    """
    if k > n_clients:
        raise ValueError(f"cannot sample {k} of {n_clients} clients")
    rng = np.random.default_rng(round_seed)
    ids = rng.choice(n_clients, size=k, replace=False)
    return np.sort(ids)


def build_client_states(shards, n_classes: int, algo: AlgoKind,
                        gamma: float | None = None, q_kind: str = "identity") -> list:
    g = gamma if gamma is not None else 1.0 / n_classes
    clients = []
    for shard in shards:
        mask = shard.counts > 0
        phi = compute_phi(shard.counts, shard.n_k, g, q_kind) if algo.adapts_phi else None
        clients.append(ClientState(
            client_id=shard.client_id,
            shard=shard,
            phi=phi,
            mask=mask if algo.adapts_phi else np.ones(n_classes, dtype=bool),
        ))
    return clients


@dataclass
class LocalResult:
    backbone: BackboneParams
    classifier: np.ndarray | None
    epoch_losses: list


# Largest rows x parameters of one stacked training step. The REFERENCE net
# (about 3.4k parameters) then trains 17-19 clients per stack, and a net of
# more than 2**15 parameters one client at a time: stacking wide nets gains
# nothing, since their steps are BLAS-bound, while every stacked row adds
# several parameter-sized buffers to the peak memory.
STACK_ELEMENTS = 2 ** 16


def local_train(clients, backbone: BackboneParams, classifier, algo: AlgoKind,
                hp: Hyperparams, ds: Dataset, seed_parts):
    """Run `hp.epochs` epochs of mini-batch SGD on each client's train split,
    every client starting from the given (global) weights.

    `clients` is a sequence of ClientStates and `seed_parts` one shuffle seed
    tuple per client; the result is a list of LocalResults in the same order.
    Batches are a seeded shuffle each epoch (seed derived from the client's
    seed_parts and the epoch index); the last partial batch is kept.
    Learnable-classifier variants update the classifier jointly, as part of
    the model's row; fedprox adds lambda_prox * (theta - theta_global) to
    every gradient. The clients train as one stack of models
    (neuralnet.flatten, neuralnet.train_step), at most STACK_ELEMENTS
    parameters per step, each bit-identical to training that client alone.
    If the stack fails, the clients train again one at a time in input
    order, so the error raised is the one that training them one after
    another raises first; a numeric failure is re-raised naming the client.
    """
    clients, seeds = list(clients), [tuple(s) for s in seed_parts]
    if len(seeds) != len(clients):
        raise ValueError(f"need one seed_parts per client, got {len(seeds)} "
                         f"for {len(clients)} clients")
    try:
        results = _train_clients(clients, seeds, backbone, classifier, algo, hp, ds)
    except (ValueError, FloatingPointError):
        # trajectories are independent, so the first client that fails alone
        # is the one the sequential loop fails on
        for c, s in zip(clients, seeds):
            try:
                _train_clients([c], [s], backbone, classifier, algo, hp, ds)
            except FloatingPointError as exc:
                raise FloatingPointError(f"client {c.client_id}: {exc}") from exc
        raise
    return results


def _train_clients(clients, seeds, backbone, classifier, algo, hp, ds) -> list:
    """local_train's results in input order. Stacks hold clients sorted by
    train-split size (descending, stable), so the clients that still have a
    full batch at an offset are a prefix of the stack."""
    n_classes = _effective_matrix(classifier).shape[1]
    masks = []
    for c in clients:
        train_idx = c.shard.train_indices
        if train_idx.size == 0:
            raise ValueError(f"client {c.client_id} has an empty train split")
        mask = None
        if algo.adapts_phi:
            mask = _as_mask(c.mask, n_classes)
            _check_labels(ds.labels[train_idx], mask)  # once, not per batch
        masks.append(mask)
    start = BackboneParams(backbone.weights, backbone.biases, backbone.layer_sizes,
                           None if algo.fixed_classifier else classifier)
    cap = max(1, STACK_ELEMENTS // start.theta.size)
    order = sorted(range(len(clients)), key=lambda p: -clients[p].shard.train_indices.size)
    results = [None] * len(clients)
    for g in range(0, len(order), cap):
        group = order[g:g + cap]
        stacked = _train_stack(group, clients, seeds, masks, start, classifier,
                               algo, hp, ds)
        for p, res in zip(group, stacked):
            results[p] = res
    return results


def _train_stack(positions, clients, seeds, masks, start, classifier,
                 algo, hp, ds) -> list:
    """Train clients[p] for p in `positions` (train splits of non-increasing
    size) as one stack of models, each starting from the model `start` (with
    the learnable classifier, if any); one LocalResult each."""
    k_rows = len(positions)
    learnable = not algo.fixed_classifier
    prox = algo.kind == "fedprox" and algo.lambda_prox > 0
    model = flatten(start, k_rows, prox)
    frame = _effective_matrix(classifier)
    n_classes = frame.shape[1]
    prox_ref = start.theta if prox else None
    phi = mask = None
    if algo.adapts_phi:
        phis = [clients[p].phi for p in positions]
        if any(f is not None for f in phis):
            phi = np.stack([np.ones(n_classes) if f is None else f.phi
                            for f in phis])[:, None, :]
        row_masks = [masks[p] for p in positions]
        if not all(m.all() for m in row_masks):
            mask = np.stack(row_masks)[:, None, :]
    step = dict(e_h=float(hp.e_h), lr=float(hp.lr), momentum=float(hp.momentum),
                weight_decay=float(hp.weight_decay),
                lambda_prox=float(algo.lambda_prox), prox_ref=prox_ref)

    # one epoch's steps: (batch number, first row, row stop, batch start, batch
    # stop); the rows with a full batch at offset i form a prefix, and each
    # partial last batch is a one-row stack of its own
    n = [clients[p].shard.train_indices.size for p in positions]
    size = hp.batch_size
    steps = []
    for j, i in enumerate(range(0, n[0], size)):
        full = sum(nk >= i + size for nk in n)
        if full:
            steps.append((j, 0, full, i, i + size))
        steps += [(j, k, k + 1, i, n[k]) for k in range(full, k_rows) if n[k] > i]
    stacks = {}
    for _, start, stop, _, _ in steps:
        if (start, stop) not in stacks:
            rows = model if (start, stop) == (0, k_rows) else model.rows(start, stop)
            cut = slice(start, stop)
            stacks[start, stop] = rows, dict(
                step, w_eff=rows.classifier if learnable else frame,
                phi=None if phi is None else phi[cut],
                mask=None if mask is None else mask[cut])
    n_batches = [-(-nk // size) for nk in n]
    losses = np.empty((k_rows, n_batches[0]))
    epoch_losses = [[] for _ in positions]
    shuffled = np.zeros((k_rows, n[0]), dtype=np.int64)   # padding is never stepped on
    classes = np.arange(n_classes)
    for epoch in range(hp.epochs):
        for k, p in enumerate(positions):
            rng = np.random.default_rng(seeds[p] + (epoch,))
            train_idx = clients[p].shard.train_indices
            shuffled[k, :n[k]] = train_idx[rng.permutation(n[k])]
        xs, hot = ds.features[shuffled], ds.labels[shuffled][..., None] == classes
        for j, start, stop, i, end in steps:
            rows, kwargs = stacks[start, stop]
            losses[start:stop, j] = train_step(rows, xs[start:stop, i:end],
                                               hot[start:stop, i:end], **kwargs)
        for k in range(k_rows):
            epoch_losses[k].append(float(np.mean(losses[k, :n_batches[k]])))
    out = []
    for k in range(k_rows):
        bb = model.row(k)
        out.append(LocalResult(backbone=bb, classifier=bb.classifier,
                               epoch_losses=epoch_losses[k]))
    return out


def aggregate(updates, weights) -> BackboneParams:
    """Weighted average of models of one layout, the learnable classifier
    included when they carry one: their rows theta are reduced in list order."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(updates) != len(weights) or len(updates) == 0:
        raise ValueError("need one weight per update")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be positive and sum to 1")
    first = updates[0]
    for u in updates[1:]:
        if u.layer_sizes != first.layer_sizes or u.theta.shape != first.theta.shape:
            raise ValueError(f"shape mismatch across updates: {first.layer_sizes} with "
                             f"{first.theta.size} parameters against {u.layer_sizes} "
                             f"with {u.theta.size}")
    acc = weights[0] * first.theta
    for w, u in zip(weights[1:], updates[1:]):
        acc = acc + w * u.theta
    return first._on(acc)


def finetune_personalize(backbone: BackboneParams, classifier, shards,
                         algo: AlgoKind, hp: Hyperparams, epochs: int,
                         ds: Dataset, seed_parts):
    """Continue the algorithm's local training on each shard from the given
    (global) weights for `epochs` epochs; epochs=0 returns them unchanged.
    `shards` is a sequence of ClientShards and `seed_parts` one seed tuple
    per shard, as in local_train; the result is a list of LocalResults."""
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    clients = [ClientState(client_id=s.client_id, shard=s, phi=None,
                           mask=np.ones(ds.n_classes, dtype=bool)) for s in shards]
    ft_hp = replace(hp, epochs=int(epochs))
    return local_train(clients, backbone, classifier, algo, ft_hp, ds, seed_parts)


def build_dataset(config) -> Dataset:
    if config.dataset == "csv":
        return load_csv(config.csv_path)
    return synth_gaussian_mixture(
        n_classes=config.classes,
        input_dim=config.input_dim,
        n_per_class=config.n_per_class,
        class_sep=config.class_sep,
        noise_sigma=config.noise_sigma,
        seed=config.data_seed,
    )


def build_partition(ds: Dataset, config) -> list:
    spec = PartitionSpec(
        scheme=config.scheme,
        n_clients=config.clients,
        seed=config.partition_seed,
        beta=config.beta,
        classes_per_client=config.classes_per_client,
        min_size=config.min_size,
    )
    if spec.scheme == "dirichlet":
        return dirichlet_partition(ds, spec, test_frac=config.test_frac)
    return pcdd_partition(ds, spec, test_frac=config.test_frac)


def _evaluate(server: ServerState, clients, algo: AlgoKind, hp: Hyperparams,
              ds: Dataset, global_test: np.ndarray, participants, round_index: int,
              master_seed, finetune_epochs: int):
    """GA, PA and angles at one evaluation point (metrics.evaluate). A client's
    personal model is its client state if the algorithm adapts phi, else its
    fine-tune; the global weights fill in what is None."""
    models = clients
    if not algo.adapts_phi:
        models = finetune_personalize(
            server.backbone, server.classifier, [c.shard for c in clients], algo, hp,
            finetune_epochs, ds,
            [(master_seed, _SEED_FINETUNE, round_index, c.client_id) for c in clients])
    personal = [(c.shard, m.backbone if m.backbone is not None else server.backbone,
                 m.classifier if m.classifier is not None else server.classifier,
                 c.phi, c.mask) for m, c in zip(models, clients)]
    return metrics.evaluate((server.backbone, server.classifier), personal,
                            [(c.shard, c.backbone, c.classifier) for c in participants],
                            ds, global_test, hp.e_h)


def _check_evaluable(shards, ds: Dataset, global_test: np.ndarray) -> None:
    """PA needs every client's test split and the global angle needs every
    class in the global test set."""
    for s in shards:
        if s.test_indices.size == 0:
            raise ValueError(f"client {s.client_id} has an empty test split")
    absent = np.flatnonzero(np.bincount(ds.labels[global_test], minlength=ds.n_classes) == 0)
    if absent.size:
        raise ValueError(f"class {absent[0]} is absent from the global test set")


def run_federation(config, dataset: Dataset | None = None,
                   shards: list | None = None) -> FederationResult:
    """Run T federated rounds of sample / broadcast / local train / aggregate.

    Each round trains its sampled clients in one local_train call and
    aggregates them in ascending client-id order, so results are
    bit-deterministic per master seed. Evaluation metrics are recorded every
    `eval_every` rounds and on the final round; a partition that cannot be
    evaluated, or a loaded csv whose class count is not `classes`, is
    rejected before round 1.
    """
    algo = AlgoKind(kind=config.algo, lambda_prox=config.lambda_prox)
    hp = Hyperparams(lr=config.lr, momentum=config.momentum,
                     weight_decay=config.weight_decay, epochs=config.epochs,
                     batch_size=config.batch_size, e_h=config.e_h)
    ds = dataset if dataset is not None else build_dataset(config)
    n_classes = ds.n_classes
    # parse_config checks synthetic data; a csv's class count is known here
    from_csv = dataset is None and config.dataset == "csv"
    if from_csv and config.classes != n_classes:
        raise ValueError(f"config key 'classes' is {config.classes}, but csv_path "
                         f"{config.csv_path} has {n_classes} classes")
    feat_dim = feature_width(algo, getattr(config, "feature_dim", None), n_classes,
                             f"csv_path {config.csv_path}" if from_csv else "the dataset")
    shards = shards if shards is not None else build_partition(ds, config)
    layer_sizes = (ds.input_dim,) + tuple(config.hidden) + (feat_dim,)
    seed = config.seed

    backbone = init_backbone(layer_sizes, (seed, _SEED_INIT))
    if algo.fixed_classifier:
        classifier = make_etf(feat_dim, n_classes, (seed, _SEED_ETF), e_w=config.e_w)
    else:
        backbone = BackboneParams(backbone.weights, backbone.biases, layer_sizes,
                                  init_classifier(feat_dim, n_classes, (seed, _SEED_INIT, 1)))
        classifier = backbone.classifier
    server = ServerState(backbone=backbone, classifier=classifier)
    clients = build_client_states(shards, n_classes, algo,
                                  gamma=config.gamma, q_kind=config.q_kind)
    global_test = np.sort(np.concatenate([s.test_indices for s in shards]))
    if config.rounds >= 1 and config.eval_every:
        _check_evaluable(shards, ds, global_test)
    k = config.clients_per_round

    logs = []
    for t in range(1, config.rounds + 1):
        ids = sample_clients(len(clients), k, (seed, _SEED_SAMPLE, t))
        sampled = [clients[int(cid)] for cid in ids]
        try:
            trained = local_train(
                sampled, server.backbone, server.classifier, algo, hp, ds,
                [(seed, _SEED_SHUFFLE, t, c.client_id) for c in sampled],
            )
        except FloatingPointError as exc:
            raise FloatingPointError(f"round {t}: {exc}") from exc
        for c, res in zip(sampled, trained):
            c.backbone, c.classifier = res.backbone, res.classifier
        n_sampled = np.array([c.shard.n_k for c in sampled], dtype=np.float64)
        weights = n_sampled / n_sampled.sum()
        server.backbone = aggregate([res.backbone for res in trained], weights)
        if not algo.fixed_classifier:
            server.classifier = server.backbone.classifier
        server.round = t

        client_losses = {c.client_id: float(np.mean(res.epoch_losses))
                         for c, res in zip(sampled, trained) if res.epoch_losses}
        mean_loss = float(np.mean(list(client_losses.values()))) if client_losses else None
        log = RoundLog(
            round=t, algo=algo.kind, participants=tuple(int(i) for i in ids),
            client_losses=client_losses, mean_train_loss=mean_loss,
        )
        if config.eval_every and (t % config.eval_every == 0 or t == config.rounds):
            try:
                report = _evaluate(server, clients, algo, hp, ds, global_test, sampled,
                                   t, seed, config.finetune_epochs)
            except FloatingPointError as exc:
                raise FloatingPointError(f"round {t}: {exc}") from exc
            log.ga, log.pa = report.ga, report.pa
            angles = report.angles
            log.global_mean_angle = angles.global_all_class_mean_angle
            log.local_exist_angle = angles.per_client_existing_class_mean_angle
            log.clf_exist_angle = angles.classifier_existing_angle
            log.clf_miss_angle = angles.classifier_missing_angle
        logs.append(log)
    return FederationResult(logs=logs, server=server, clients=clients,
                            dataset=ds, shards=shards,
                            global_test_indices=global_test)


def _logs_and_dataset(config) -> tuple:
    result = run_federation(config)
    return result.logs, result.dataset


def run_many(configs):
    """Yield (logs, dataset) of run_federation(config) for each config, in
    input order.

    The runs share a pool of forked worker processes, one per usable CPU (the
    affinity mask, so `taskset` sets the count) and at most one per config.
    With one worker, or where fork is unavailable, each run happens in this
    process when its result is asked for. Either way a run stays in one
    process and gives the same bytes. The first failing config in input
    order raises its own error, and the configs not yet started are
    cancelled.
    """
    configs = list(configs)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(configs))
    if workers > 1:
        # imported here: `run` never pays for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a worker starts with numpy and this package
        # imported, and the executor forks every worker before it starts
        # its own thread
        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                # popped in input order, so a result is dropped once consumed
                pending = [pool.submit(_logs_and_dataset, c) for c in configs][::-1]
                while pending:
                    yield pending.pop().result()
            finally:
                pool.shutdown(cancel_futures=True)
            return
    for config in configs:
        yield _logs_and_dataset(config)


ROUND_CSV_COLUMNS = (
    "round", "algo", "ga", "pa", "global_mean_angle", "local_exist_angle",
    "clf_exist_angle", "clf_miss_angle", "mean_train_loss",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_round_csv(logs, path) -> None:
    """One row per round; floats carry 17 significant digits so the file
    re-parses to the in-memory values exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ROUND_CSV_COLUMNS) + "\n")
        for log in logs:
            row = [_fmt(getattr(log, col)) for col in ROUND_CSV_COLUMNS]
            fh.write(",".join(row) + "\n")


def read_round_csv(path) -> list:
    """Round rows as dicts (floats parsed, empty cells -> None)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        row = {}
        for key, cell in zip(header, cells):
            if key == "algo":
                row[key] = cell
            elif key == "round":
                row[key] = int(cell)
            else:
                row[key] = None if cell == "" else float(cell)
        rows.append(row)
    return rows


def write_manifest(path, config, ds: Dataset) -> None:
    """Run manifest: config echo, master seed, and dataset content hash."""
    payload = {
        "format_version": 1,
        "config": config.to_dict(),
        "master_seed": config.seed,
        "dataset_sha256": dataset_sha256(ds),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
