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

__all__ = [
    "AlgoKind",
    "Hyperparams",
    "ClientState",
    "ServerState",
    "RoundLog",
    "FederationResult",
    "compute_phi",
    "alt_phi",
    "sample_clients",
    "local_train",
    "aggregate",
    "aggregate_tensors",
    "finetune_personalize",
    "run_federation",
    "build_dataset",
    "build_partition",
    "write_round_csv",
    "read_round_csv",
    "write_manifest",
    "ROUND_CSV_COLUMNS",
]

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
            raise ValueError(f"unknown algorithm '{self.kind}', expected one of {VALID_ALGOS}")
        if self.lambda_prox < 0:
            raise ValueError(f"lambda_prox must be >= 0, got {self.lambda_prox}")
        if self.lambda_prox > 0 and self.kind != "fedprox":
            raise ValueError("lambda_prox is only meaningful for fedprox")

    @property
    def fixed_classifier(self) -> bool:
        return self.kind in ("fedge", "fedgela")

    @property
    def adapts_phi(self) -> bool:
        """Scales classifier columns by the client's distribution vector."""
        return self.kind in ("fedgela", "laonly")

    @property
    def restricted_mask(self) -> bool:
        """Softmax restricted to the client's existing classes."""
        return self.kind in ("fedgela", "laonly")

    @property
    def finetunes_for_pa(self) -> bool:
        """Personal accuracy via on-shard fine-tuning of the global model."""
        return self.kind in ("fedavg", "fedprox", "fedge")


@dataclass(frozen=True)
class Hyperparams:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 100
    e_h: float = 1.0

    def __post_init__(self):
        if not self.lr > 0 or self.epochs < 0 or self.batch_size < 1 or not self.e_h > 0:
            raise ValueError("invalid hyperparameters")


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
    classifier: object                     # EtfClassifier or learnable ndarray
    algo: AlgoKind
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


def compute_phi(counts, n_k: int, gamma: float) -> PhiVector:
    """Distribution vector phi_c = n_{k,c} / (n_k * gamma).

    With gamma = 1/C this is C * n_{k,c} / n_k: zero exactly on missing
    classes and averaging to one over all classes.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if n_k <= 0:
        raise ValueError("empty client: n_k must be positive")
    if int(counts.sum()) != int(n_k):
        raise ValueError(f"counts sum {counts.sum():.0f} does not match n_k={n_k}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return PhiVector(phi=counts / (n_k * gamma))


def alt_phi(counts, n_k: int, q_kind: str, gamma: float) -> PhiVector:
    """Distribution vector through an alternative map Q of class fractions:
    phi_c = Q(n_{k,c}/n_k) / gamma with Q identity, exp, or sqrt.

    Identity reduces to compute_phi. exp/sqrt give nonzero weight to missing
    classes; the class mask, not phi, is what excludes them from training.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if n_k <= 0:
        raise ValueError("empty client: n_k must be positive")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = counts / n_k
    if q_kind == "identity":
        q = x
    elif q_kind == "exp":
        q = np.exp(x)
    elif q_kind == "sqrt":
        q = np.sqrt(x)
    else:
        raise ValueError(f"unknown q_kind '{q_kind}', expected identity/exp/sqrt")
    return PhiVector(phi=q / gamma)


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


def _client_phi(shard: ClientShard, n_classes: int, gamma: float | None,
                q_kind: str) -> PhiVector:
    g = gamma if gamma is not None else 1.0 / n_classes
    if q_kind == "identity":
        return compute_phi(shard.counts, shard.n_k, g)
    return alt_phi(shard.counts, shard.n_k, q_kind, g)


def build_client_states(shards, n_classes: int, algo: AlgoKind,
                        gamma: float | None = None, q_kind: str = "identity") -> list:
    clients = []
    for shard in shards:
        mask = shard.counts > 0
        phi = _client_phi(shard, n_classes, gamma, q_kind) if algo.adapts_phi else None
        clients.append(ClientState(
            client_id=shard.client_id,
            shard=shard,
            phi=phi,
            mask=mask if algo.restricted_mask else np.ones(n_classes, dtype=bool),
        ))
    return clients


@dataclass
class LocalResult:
    backbone: BackboneParams
    classifier: np.ndarray | None
    epoch_losses: list


def local_train(client: ClientState, backbone: BackboneParams, classifier,
                algo: AlgoKind, hp: Hyperparams, ds: Dataset,
                seed_parts) -> LocalResult:
    """Run `hp.epochs` epochs of mini-batch SGD on the client's train split.

    Batches are a seeded shuffle each epoch (seed derived from seed_parts
    and the epoch index); the last partial batch is kept. Learnable-
    classifier variants update the classifier jointly; fedprox adds
    lambda_prox * (theta - theta_global) to every gradient. The local model
    is one flat vector (neuralnet.flatten) trained by neuralnet.train_step;
    a numeric failure is re-raised naming the client.
    """
    train_idx = client.shard.train_indices
    if train_idx.size == 0:
        raise ValueError(f"client {client.client_id} has an empty train split")
    learnable = not algo.fixed_classifier
    model = flatten(backbone, classifier if learnable else None)
    w_eff = model.classifier if learnable else _effective_matrix(classifier)
    prox_ref = None
    if algo.kind == "fedprox" and algo.lambda_prox > 0:
        prox_ref = model.theta.copy()
    phi = client.phi.phi if algo.adapts_phi and client.phi is not None else None
    mask = None
    if algo.restricted_mask:
        mask = _as_mask(client.mask, w_eff.shape[1])
        _check_labels(ds.labels[train_idx], mask)   # once per client, not per batch
        mask = None if mask.all() else mask
    step = dict(w_eff=w_eff, phi=phi, mask=mask, e_h=float(hp.e_h), lr=float(hp.lr),
                momentum=float(hp.momentum), weight_decay=float(hp.weight_decay),
                lambda_prox=float(algo.lambda_prox), prox_ref=prox_ref)
    size = hp.batch_size
    epoch_losses = []
    try:
        for epoch in range(hp.epochs):
            rng = np.random.default_rng(tuple(seed_parts) + (epoch,))
            shuffled = train_idx[rng.permutation(train_idx.size)]
            xs, ys = ds.features[shuffled], ds.labels[shuffled]
            losses = [train_step(model, xs[i:i + size], ys[i:i + size], **step)
                      for i in range(0, len(ys), size)]
            epoch_losses.append(float(np.mean(losses)))
    except FloatingPointError as exc:
        raise FloatingPointError(f"client {client.client_id}: {exc}") from exc
    return LocalResult(backbone=model.params, classifier=model.classifier,
                       epoch_losses=epoch_losses)


def aggregate_tensors(tensor_sets, weights) -> list:
    """Entrywise convex combination of parallel tensor lists."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(tensor_sets) != len(weights) or len(tensor_sets) == 0:
        raise ValueError("need one weight per update")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be positive and sum to 1")
    first = tensor_sets[0]
    for ts in tensor_sets[1:]:
        if len(ts) != len(first) or any(a.shape != b.shape for a, b in zip(ts, first)):
            raise ValueError("shape mismatch across updates")
    out = []
    for j in range(len(first)):
        acc = weights[0] * first[j]
        for i in range(1, len(tensor_sets)):
            acc = acc + weights[i] * tensor_sets[i][j]
        out.append(acc)
    return out


def aggregate(updates, weights) -> BackboneParams:
    """Weighted average of backbone parameter sets (reduced in list order)."""
    sizes = {u.layer_sizes for u in updates}
    if len(sizes) != 1:
        raise ValueError(f"shape mismatch across updates: {sizes}")
    merged = aggregate_tensors([u.tensors() for u in updates], weights)
    n = updates[0].n_layers
    return BackboneParams(weights=merged[:n], biases=merged[n:],
                          layer_sizes=updates[0].layer_sizes)


def finetune_personalize(backbone: BackboneParams, classifier, shard: ClientShard,
                         algo: AlgoKind, hp: Hyperparams, epochs: int,
                         ds: Dataset, seed_parts) -> LocalResult:
    """Continue the algorithm's local training on one shard from the given
    (global) weights for `epochs` epochs; epochs=0 returns them unchanged."""
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    client = ClientState(
        client_id=shard.client_id,
        shard=shard,
        phi=None,
        mask=np.ones(ds.n_classes, dtype=bool),
    )
    ft_hp = replace(hp, epochs=int(epochs))
    return local_train(client, backbone, classifier, algo, ft_hp, ds, seed_parts)


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


def _personal_models(server: ServerState, clients, algo: AlgoKind):
    """(backbone, classifier, phi, mask) per client for direct PA evaluation.

    Clients that never trained fall back to the current global weights (what
    they would have just received).
    """
    out = []
    for c in clients:
        bb = c.backbone if c.backbone is not None else server.backbone
        if algo.fixed_classifier:
            clf = server.classifier
        else:
            clf = c.classifier if c.classifier is not None else server.classifier
        out.append((bb, clf, c.phi, c.mask))
    return out


def _evaluate(server: ServerState, clients, algo: AlgoKind, hp: Hyperparams,
              ds: Dataset, global_test: np.ndarray, participants, round_index: int,
              master_seed, finetune_epochs: int):
    std_classifier = server.classifier
    ga = metrics.generic_accuracy(
        server.backbone, std_classifier, ds.features[global_test],
        ds.labels[global_test], hp.e_h,
    )
    if algo.finetunes_for_pa:
        personal = []
        for c in clients:
            res = finetune_personalize(
                server.backbone, std_classifier, c.shard, algo, hp,
                finetune_epochs, ds,
                seed_parts=(master_seed, _SEED_FINETUNE, round_index, c.client_id),
            )
            clf = res.classifier if res.classifier is not None else std_classifier
            personal.append((res.backbone, clf, None, None))
    else:
        personal = _personal_models(server, clients, algo)
    pa, per_client = metrics.personal_accuracy(
        personal, [c.shard for c in clients], ds, hp.e_h
    )
    local_entries = []
    for c in clients:
        if c.client_id in participants and c.backbone is not None:
            local_entries.append(
                (c.shard, c.backbone, c.classifier if not algo.fixed_classifier else None)
            )
    angles = metrics.angle_report(
        server.backbone, std_classifier, [c.shard for c in clients], ds,
        global_test, hp.e_h, local_entries=local_entries,
    )
    return metrics.EvalReport(ga=ga, pa=pa, per_client_acc=tuple(per_client),
                              angles=angles)


def run_federation(config, dataset: Dataset | None = None,
                   shards: list | None = None) -> FederationResult:
    """Run T federated rounds of sample / broadcast / local train / aggregate.

    Sequential execution in ascending client-id order, so results are
    bit-deterministic per master seed. Evaluation metrics are recorded every
    `eval_every` rounds and on the final round.
    """
    algo = AlgoKind(kind=config.algo, lambda_prox=config.lambda_prox)
    hp = Hyperparams(lr=config.lr, momentum=config.momentum,
                     weight_decay=config.weight_decay, epochs=config.epochs,
                     batch_size=config.batch_size, e_h=config.e_h)
    ds = dataset if dataset is not None else build_dataset(config)
    shards = shards if shards is not None else build_partition(ds, config)
    n_classes = ds.n_classes
    feat_dim = getattr(config, "feature_dim", None) or n_classes
    layer_sizes = (ds.input_dim,) + tuple(config.hidden) + (feat_dim,)
    seed = config.seed

    etf = make_etf(feat_dim, n_classes, (seed, _SEED_ETF), e_w=config.e_w)
    backbone = init_backbone(layer_sizes, (seed, _SEED_INIT))
    if algo.fixed_classifier:
        classifier = etf
    else:
        classifier = init_classifier(feat_dim, n_classes, (seed, _SEED_INIT, 1))
    server = ServerState(backbone=backbone, classifier=classifier, algo=algo)
    clients = build_client_states(shards, n_classes, algo,
                                  gamma=config.gamma, q_kind=config.q_kind)
    global_test = np.sort(np.concatenate([s.test_indices for s in shards]))
    k = config.clients_per_round

    logs = []
    for t in range(1, config.rounds + 1):
        ids = sample_clients(len(clients), k, (seed, _SEED_SAMPLE, t))
        results = {}
        for cid in ids:
            cid = int(cid)
            try:
                results[cid] = local_train(
                    clients[cid], server.backbone, server.classifier, algo, hp,
                    ds, seed_parts=(seed, _SEED_SHUFFLE, t, cid),
                )
            except FloatingPointError as exc:
                raise FloatingPointError(f"round {t}: {exc}") from exc
            clients[cid].backbone = results[cid].backbone
            if results[cid].classifier is not None:
                clients[cid].classifier = results[cid].classifier
        n_sampled = np.array([clients[c].shard.n_k for c in results], dtype=np.float64)
        weights = n_sampled / n_sampled.sum()
        server.backbone = aggregate([results[c].backbone for c in results], weights)
        if not algo.fixed_classifier:
            server.classifier = aggregate_tensors(
                [[results[c].classifier] for c in results], weights
            )[0]
        server.round = t

        client_losses = {c: float(np.mean(r.epoch_losses))
                         for c, r in results.items() if r.epoch_losses}
        mean_loss = float(np.mean(list(client_losses.values()))) if client_losses else None
        log = RoundLog(
            round=t, algo=algo.kind, participants=tuple(int(i) for i in ids),
            client_losses=client_losses, mean_train_loss=mean_loss,
        )
        if config.eval_every and (t % config.eval_every == 0 or t == config.rounds):
            report = _evaluate(
                server, clients, algo, hp, ds, global_test,
                set(int(i) for i in ids), t, seed, config.finetune_epochs,
            )
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
