"""Federated rounds: client sampling, local training, weighted aggregation.

Four algorithm families share one loop. FedAvg and FedProx train a learnable
classifier jointly with the backbone and aggregate both; FedGE and FedGELA
keep the classifier fixed as a simplex frame and only ever exchange
backbones, with FedGELA (and the LA-only ablation arm) scaling classifier
columns by each client's class-distribution vector and restricting the
softmax to locally existing classes.

A run's whole state is a RunState of a few arrays: `init_state` builds it,
`step` runs one round on it and `evaluate` scores it; `run_federation`
decides which rounds are evaluated.
"""
from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .datagen import (
    Dataset,
    PartitionSpec,
    dataset_sha256,
    dirichlet_partition,
    load_csv,
    pcdd_partition,
    synth_gaussian_mixture,
)
from .etfgeom import make_etf
from .neuralnet import Layout, _as_phi, _check_labels, flatten, init_backbone, train_step

__all__ = ["AlgoKind", "Hyperparams", "feature_width", "RunInputs", "RunState",
           "RoundLog", "compute_phi", "sample_clients", "local_train",
           "aggregate", "finetune_personalize", "init_state", "step",
           "evaluate", "run_federation", "run_many", "build_dataset", "build_partition",
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


@dataclass(frozen=True)
class RunInputs:
    """What a run reads and never writes: its config (and the AlgoKind and
    Hyperparams built from it), data set and shards, the per-client (N, C)
    phi and boolean class-mask arrays (None unless the algorithm adapts
    phi), the `layout` of every model row (learnable classifier included),
    the (d, C) matrix of the fixed simplex `frame` (None for a learnable
    classifier) and the global test indices."""

    config: object
    algo: AlgoKind
    hp: Hyperparams
    dataset: Dataset
    shards: tuple
    phi: np.ndarray | None
    mask: np.ndarray | None
    layout: Layout
    frame: np.ndarray | None
    global_test: np.ndarray


@dataclass
class RunState:
    """A run after `round` rounds: the server's model row, one row per
    client (its last local model, where `trained`) and one RoundLog per
    round. Every random draw is seeded from the master seed, the round and
    the client, and the optimizer state starts afresh each round, so this is
    the whole state of a run: a copy stepped on matches the original."""

    inputs: RunInputs
    round: int
    server_theta: np.ndarray      # (P,)
    client_theta: np.ndarray      # (N, P)
    trained: np.ndarray           # (N,) bool
    logs: list


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

    def record(self, report: metrics.EvalReport) -> None:
        """Copy an evaluation's GA, PA and angles onto this log."""
        self.ga, self.pa = report.ga, report.pa
        for name in _ANGLE_COLUMNS:
            setattr(self, name, getattr(report.angles, name))


def compute_phi(counts, n_k: int, gamma: float, q_kind: str = "identity") -> np.ndarray:
    """The (C,) distribution vector phi_c = Q(n_{k,c} / n_k) / gamma with Q
    identity, exp, or sqrt; its entries must come out finite and
    non-negative.

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
        return _as_phi(counts / (n_k * gamma), counts.size)
    if q_kind not in ("exp", "sqrt"):
        raise ValueError(f"unknown q_kind '{q_kind}', expected identity/exp/sqrt")
    q = np.exp if q_kind == "exp" else np.sqrt
    return _as_phi(q(counts / n_k) / gamma, counts.size)


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


# Largest rows x parameters of one stacked training step. The REFERENCE net
# (about 3.4k parameters) then trains 17-19 clients per stack, and a net of
# more than 2**15 parameters one client at a time: stacking wide nets gains
# nothing, since their steps are BLAS-bound, while every stacked row adds
# several parameter-sized buffers to the peak memory.
STACK_ELEMENTS = 2 ** 16


def _pick(rows, sel):
    """rows[sel], or None for no rows."""
    return None if rows is None else rows[sel]


def local_train(shards, layout: Layout, start_row: np.ndarray, frame, algo: AlgoKind,
                hp: Hyperparams, ds: Dataset, seed_parts, phi=None, mask=None):
    """Run `hp.epochs` epochs of mini-batch SGD on each shard's train split,
    every client starting from the (global) model `start_row` of `layout`.

    A fixed-classifier algorithm takes a layout without a classifier and the
    (d, C) `frame` matrix, the others a layout holding a learnable
    classifier and no frame. `seed_parts` is one shuffle seed tuple per
    shard. Only an algorithm that adapts phi takes `phi` and `mask`, (m, C)
    arrays of the clients' class weights and existing classes, and rejects a
    train label outside its client's mask; given neither, it trains unscaled
    on every class, as the fine-tune does. Returns the (m, P) matrix of the
    trained model rows, in input order, and the (m, epochs) matrix of each
    client's mean batch loss per epoch. Batches are a seeded shuffle each
    epoch (seed derived from the client's seed_parts and the epoch index);
    the last partial batch is kept. Learnable-classifier variants update the
    classifier jointly, as part of the model's row; fedprox adds
    lambda_prox * (theta - theta_global) to every gradient. The clients
    train as one stack of models (neuralnet.flatten, neuralnet.train_step),
    at most STACK_ELEMENTS parameters per step, each bit-identical to
    training that client alone. If the stack fails, the clients train again
    one at a time in input order, so the error raised is the one that
    training them one after another raises first; a numeric failure is
    re-raised naming the client.
    """
    if not algo.adapts_phi and (phi is not None or mask is not None):
        raise ValueError(f"algo={algo.kind} does not adapt phi, so it takes no phi or mask")
    fixed = algo.fixed_classifier
    if (frame is not None) != fixed or (layout.n_classes is None) != fixed:
        raise ValueError(f"algo={algo.kind} needs a start model " + (
            "without a classifier, and a frame" if fixed else "with its classifier, no frame"))
    shards, seeds = list(shards), [tuple(s) for s in seed_parts]
    if len(seeds) != len(shards):
        raise ValueError(f"need one seed_parts per client, got {len(seeds)} "
                         f"for {len(shards)} clients")
    try:
        return _train_clients(shards, seeds, layout, start_row, frame, algo, hp, ds, phi, mask)
    except (ValueError, FloatingPointError):
        # trajectories are independent, so the first client that fails alone
        # is the one the sequential loop fails on
        for k, (s, seed) in enumerate(zip(shards, seeds)):
            one = slice(k, k + 1)
            try:
                _train_clients([s], [seed], layout, start_row, frame, algo, hp, ds,
                               _pick(phi, one), _pick(mask, one))
            except FloatingPointError as exc:
                raise FloatingPointError(f"client {s.client_id}: {exc}") from exc
        raise


def _train_clients(shards, seeds, layout, start_row, frame, algo, hp, ds, phi, mask) -> tuple:
    """local_train's row and loss matrices. Stacks hold clients sorted by
    train-split size (descending, stable), so the clients that still have a
    full batch at an offset are a prefix of the stack."""
    n_classes = layout.n_classes or frame.shape[1]
    for name, rows in (("phi", phi), ("mask", mask)):
        if rows is not None and np.shape(rows) != (len(shards), n_classes):
            raise ValueError(f"{name} must hold one row of {n_classes} classes per "
                             f"client, got shape {np.shape(rows)} for {len(shards)} clients")
    for k, s in enumerate(shards):
        if s.train_indices.size == 0:
            raise ValueError(f"client {s.client_id} has an empty train split")
        if mask is not None:
            _check_labels(ds.labels[s.train_indices], mask[k])  # once, not per batch
    cap = max(1, STACK_ELEMENTS // layout.size)
    order = sorted(range(len(shards)), key=lambda p: -shards[p].train_indices.size)
    rows = np.empty((len(shards), layout.size))
    losses = np.empty((len(shards), hp.epochs))
    for g in range(0, len(order), cap):
        group = order[g:g + cap]
        rows[group], losses[group] = _train_stack(group, shards, seeds, layout, start_row,
                                                  frame, algo, hp, ds, _pick(phi, group),
                                                  _pick(mask, group))
    return rows, losses


def _train_stack(positions, shards, seeds, layout, start_row, frame, algo, hp, ds,
                 phi, mask) -> tuple:
    """Train shards[p] for p in `positions` (train splits of non-increasing
    size) as one stack of models, each starting from the model `start_row`
    of `layout` (with its learnable classifier, else against the fixed
    `frame`), with the (k, C) `phi` and `mask` rows of those clients.
    Returns the (k, P) trained rows and (k, epochs) losses."""
    k_rows = len(positions)
    model = flatten(layout, start_row, k_rows, frame, phi, mask, algo.lambda_prox)
    hyper = dict(e_h=float(hp.e_h), lr=float(hp.lr), momentum=float(hp.momentum),
                 weight_decay=float(hp.weight_decay))

    # one epoch's steps: (batch number, first row, row stop, batch start, batch
    # stop); the rows with a full batch at offset i form a prefix, and each
    # partial last batch is a one-row stack of its own
    n = [shards[p].train_indices.size for p in positions]
    size = hp.batch_size
    steps = []
    for j, i in enumerate(range(0, n[0], size)):
        full = sum(nk >= i + size for nk in n)
        if full:
            steps.append((j, 0, full, i, i + size))
        steps += [(j, k, k + 1, i, n[k]) for k in range(full, k_rows) if n[k] > i]
    stacks = {rows: model.rows(*rows) for rows in {(a, b) for _, a, b, _, _ in steps}}
    n_batches = [-(-nk // size) for nk in n]
    losses = np.empty((k_rows, hp.epochs, n_batches[0]))
    shuffled = np.zeros((k_rows, n[0]), dtype=np.int64)   # padding is never stepped on
    classes = np.arange(model.w_eff.shape[-1])
    # each client's shuffle seed seed_parts + (epoch,) as the words numpy reads
    # from it, built once: each epoch writes its index into the last word
    words = [_seed_words(seeds[p] + (0,)) for p in positions]
    for epoch in range(hp.epochs):
        for k, p in enumerate(positions):
            words[k][-1] = epoch
            rng = np.random.default_rng(words[k])
            train_idx = shards[p].train_indices
            shuffled[k, :n[k]] = train_idx[rng.permutation(n[k])]
        xs, hot = ds.features[shuffled], ds.labels[shuffled][..., None] == classes
        for j, start, stop, i, end in steps:
            losses[start:stop, epoch, j] = train_step(stacks[start, stop], xs[start:stop, i:end],
                                                      hot[start:stop, i:end], **hyper)
    # each epoch's mean batch loss, per run of clients with one batch count (a
    # contiguous run, as the sizes do not increase)
    epoch_losses = np.empty((k_rows, hp.epochs))
    runs = [k for k in range(k_rows) if k == 0 or n_batches[k] != n_batches[k - 1]]
    for a, b in zip(runs, runs[1:] + [k_rows]):
        epoch_losses[a:b] = losses[a:b, :, :n_batches[a]].mean(axis=-1)
    return model.theta, epoch_losses


def _seed_words(parts) -> np.ndarray:
    """The uint32 words numpy's SeedSequence reads from the sequence of
    non-negative ints `parts`: each part's 32-bit words, lowest first (one
    word for 0). So default_rng(_seed_words(parts)) draws what
    default_rng(parts) draws. A negative part raises ValueError, as numpy does."""
    words = []
    for part in map(operator.index, parts):
        if part < 0:
            raise ValueError(f"seed parts must be non-negative, got {part}")
        words += [(part >> s) & 0xFFFFFFFF for s in range(0, max(part.bit_length(), 1), 32)]
    return np.array(words, dtype=np.uint32)


def aggregate(rows, weights) -> np.ndarray:
    """Weighted average of model rows of one layout (an (m, P) matrix or a
    list of rows): w0 * r0 + w1 * r1 + ..., reduced in list order."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(rows) != len(weights) or len(rows) == 0:
        raise ValueError("need one weight per row")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be positive and sum to 1")
    shapes = {np.shape(r) for r in rows}
    if len(shapes) > 1:
        raise ValueError(f"shape mismatch across rows: {sorted(shapes)}")
    acc = weights[0] * rows[0]
    for w, r in zip(weights[1:], rows[1:]):
        acc = acc + w * r
    return acc


def finetune_personalize(shards, layout: Layout, start_row: np.ndarray, frame,
                         algo: AlgoKind, hp: Hyperparams, epochs: int, ds: Dataset, seed_parts):
    """Continue the algorithm's local training on each shard from the
    (global) model `start_row` of `layout` (against `frame`, as local_train)
    for `epochs` epochs, with no phi and every class; epochs=0 returns it
    unchanged. Otherwise as local_train: the (m, P) rows and the (m, epochs)
    losses."""
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    return local_train(shards, layout, start_row, frame, algo,
                       replace(hp, epochs=int(epochs)), ds, seed_parts)


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


def _check_evaluable(shards, ds: Dataset, global_test: np.ndarray) -> None:
    """PA needs every client's test split and the global angle needs every
    class in the global test set."""
    for s in shards:
        if s.test_indices.size == 0:
            raise ValueError(f"client {s.client_id} has an empty test split")
    absent = np.flatnonzero(np.bincount(ds.labels[global_test], minlength=ds.n_classes) == 0)
    if absent.size:
        raise ValueError(f"class {absent[0]} is absent from the global test set")


def init_state(config, dataset: Dataset | None = None,
               shards: list | None = None) -> RunState:
    """A run before round 1: the data set and partition of `config` (or the
    given ones), the initial models and the clients' phi and masks. A
    partition that cannot be evaluated, or a loaded csv whose class count
    is not `classes`, is rejected here."""
    algo = AlgoKind(kind=config.algo, lambda_prox=config.lambda_prox)
    hp = Hyperparams(lr=config.lr, momentum=config.momentum,
                     weight_decay=config.weight_decay, epochs=config.epochs,
                     batch_size=config.batch_size, e_h=config.e_h)
    ds = dataset if dataset is not None else build_dataset(config)
    n_classes = ds.n_classes
    # parse_config checks the class-count rules against `classes`, which a
    # csv, whose class count is known only here, must match
    if dataset is None and config.dataset == "csv" and config.classes != n_classes:
        raise ValueError(f"config key 'classes' is {config.classes}, but csv_path "
                         f"{config.csv_path} has {n_classes} classes")
    feat_dim = feature_width(algo, getattr(config, "feature_dim", None), n_classes, "the dataset")
    shards = tuple(shards if shards is not None else build_partition(ds, config))
    layer_sizes = (ds.input_dim,) + tuple(config.hidden) + (feat_dim,)
    seed = config.seed

    fixed = algo.fixed_classifier
    layout = Layout(layer_sizes, None if fixed else n_classes)
    server = init_backbone(layout, (seed, _SEED_INIT), None if fixed else (seed, _SEED_INIT, 1))
    frame = None
    if fixed:
        frame = make_etf(feat_dim, n_classes, (seed, _SEED_ETF), e_w=config.e_w).classifier
    phi = mask = None
    if algo.adapts_phi:
        gamma = config.gamma if config.gamma is not None else 1.0 / n_classes
        phi = np.stack([compute_phi(s.counts, s.n_k, gamma, config.q_kind) for s in shards])
        mask = np.stack([s.counts > 0 for s in shards])
    global_test = np.sort(np.concatenate([s.test_indices for s in shards]))
    if config.rounds >= 1 and config.eval_every:
        _check_evaluable(shards, ds, global_test)
    inputs = RunInputs(config=config, algo=algo, hp=hp, dataset=ds, shards=shards,
                       phi=phi, mask=mask, layout=layout, frame=frame,
                       global_test=global_test)
    return RunState(inputs=inputs, round=0, server_theta=server,
                    client_theta=np.zeros((len(shards), layout.size)),
                    trained=np.zeros(len(shards), dtype=bool), logs=[])


def step(state: RunState) -> RoundLog:
    """Round t = state.round + 1 on `state`: sample clients, train them from
    the server row in one local_train call and aggregate their rows in
    ascending client-id order. Appends the round's log (not evaluated) to
    state.logs and returns it."""
    inp, t = state.inputs, state.round + 1
    algo, seed = inp.algo, inp.config.seed
    ids = sample_clients(len(inp.shards), inp.config.clients_per_round, (seed, _SEED_SAMPLE, t))
    sampled = [inp.shards[i] for i in ids]
    try:
        rows, losses = local_train(
            sampled, inp.layout, state.server_theta, inp.frame, algo, inp.hp,
            inp.dataset, [(seed, _SEED_SHUFFLE, t, s.client_id) for s in sampled],
            _pick(inp.phi, ids), _pick(inp.mask, ids))
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {t}: {exc}") from exc
    state.client_theta[ids] = rows
    state.trained[ids] = True
    n_sampled = np.array([s.n_k for s in sampled], dtype=np.float64)
    state.server_theta = aggregate(rows, n_sampled / n_sampled.sum())
    state.round = t

    client_losses = {s.client_id: float(np.mean(row))
                     for s, row in zip(sampled, losses) if row.size}
    mean_loss = float(np.mean(list(client_losses.values()))) if client_losses else None
    log = RoundLog(round=t, algo=algo.kind, participants=tuple(int(i) for i in ids),
                   client_losses=client_losses, mean_train_loss=mean_loss)
    state.logs.append(log)
    return log


def evaluate(state: RunState) -> metrics.EvalReport:
    """GA, PA and angles of `state` (metrics.evaluate): its server row, one
    personal row per client and the local rows of the last round's
    participants. A personal row is the client's own row, or the server row
    until it has trained, if the algorithm adapts phi; else the client's
    fine-tune of the server row, seeded by state.round."""
    inp, t = state.inputs, state.round
    try:
        if inp.algo.adapts_phi:
            personal = np.where(state.trained[:, None], state.client_theta, state.server_theta)
            local = None   # a participant's local row is its personal row
        else:
            personal, _ = finetune_personalize(
                inp.shards, inp.layout, state.server_theta, inp.frame, inp.algo, inp.hp,
                inp.config.finetune_epochs, inp.dataset,
                [(inp.config.seed, _SEED_FINETUNE, t, s.client_id) for s in inp.shards])
            local = state.client_theta
        participants = state.logs[-1].participants if state.logs else ()
        return metrics.evaluate(inp.layout, inp.frame, state.server_theta, personal, inp.phi,
                                inp.mask, local, participants, inp.shards, inp.dataset,
                                inp.global_test, inp.hp.e_h)
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {t}: {exc}") from exc


def run_federation(config, dataset: Dataset | None = None,
                   shards: list | None = None) -> RunState:
    """Run T federated rounds of sample / broadcast / local train / aggregate
    (init_state, then T steps), evaluating every `eval_every` rounds and the
    last, and return the final RunState. Results are bit-deterministic per
    master seed."""
    state = init_state(config, dataset, shards)
    for t in range(1, config.rounds + 1):
        log = step(state)
        if config.eval_every and (t % config.eval_every == 0 or t == config.rounds):
            log.record(evaluate(state))
    return state


def _logs_and_dataset(config) -> tuple:
    state = run_federation(config)
    return state.logs, dataset_sha256(state.inputs.dataset)


def run_many(configs):
    """Yield (logs, dataset digest) of run_federation(config) for each
    config, in input order: the digest is datagen.dataset_sha256 of the
    run's data set, so a pooled run sends back a few kB, not its data.

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


# the fields that RoundLog and metrics.AngleReport share
_ANGLE_COLUMNS = ("global_mean_angle", "local_exist_angle", "clf_exist_angle",
                  "clf_miss_angle")
ROUND_CSV_COLUMNS = ("round", "algo", "ga", "pa", *_ANGLE_COLUMNS, "mean_train_loss")


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


def write_manifest(path, config, dataset_digest: str) -> None:
    """Run manifest: config echo, master seed, and the data set's content
    hash (datagen.dataset_sha256)."""
    payload = {
        "format_version": 1,
        "config": config.to_dict(),
        "master_seed": config.seed,
        "dataset_sha256": dataset_digest,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
