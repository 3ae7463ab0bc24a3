"""The benchmark's workloads: which CLI invocations run, on which inputs.

Every workload is a closed loop of `fedgela` CLI invocations, one at a time,
each in a fresh process. A benchmark seed picks `SEEDS_PER_RUN` master seeds
for the experiment configs, so GA/PA are averaged over several independent
inputs and the run-to-run spread of the accuracies stays small.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


# tests/conftest.py::REFERENCE at the time the benchmark was defined, copied
# so that a later edit of the test fixture cannot silently change the workload.
REFERENCE = {
    "classes": 10,
    "input_dim": 20,
    "n_per_class": 100,
    "class_sep": 2.0,
    "noise_sigma": 1.0,
    "scheme": "pcdd",
    "classes_per_client": 2,
    "clients": 10,
    "rounds": 30,
    "epochs": 10,
    "batch_size": 20,
    "min_size": 10,
    "lr": 0.02,
    "e_w": 1e-4,
    "e_h": 400.0,
    "hidden": "64",
    "feature_dim": 32,
    "eval_every": 1,
    "finetune_epochs": 10,
}

DIRICHLET = {
    "scheme": "dirichlet",
    "beta": 0.3,
    "clients": 20,
    "clients_per_round": 10,
    "batch_size": 64,
    "min_size": 32,
    "hidden": "256,128",
    "feature_dim": 32,
    "n_per_class": 300,
    "eval_every": 5,
    "rounds": 5,
    "epochs": 3,
    "finetune_epochs": 3,
}

SEEDS_PER_RUN = 6

# Algorithms whose personal accuracy comes from fine-tuning the global model
# on each client's shard at every evaluation round.
FINETUNE_ALGOS = ("fedavg", "fedprox", "fedge")

# Tag of the program's client-sampling seed: round t samples with
# sample_clients(..., (seed, SAMPLE_TAG, t)). Used only to compute the
# training-sample count from the schedule; the traced run checks it against
# a count taken at the forward() call boundary.
SAMPLE_TAG = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "run" or "sweep"
    settings: dict
    # calibrate.calibrate arguments: MLP widths, classes, batch, steps; the
    # workload's own shapes, with steps for about calibrate.REFERENCE_S
    calibration: tuple
    arms: tuple = ()             # sweep only: (arm name, {key: value})
    seeds_per_invocation: int = 1


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the experiment runs it is expected to produce."""

    key: str                     # same key -> same inputs -> same output bytes
    command: str
    settings: dict
    arms: tuple
    seeds: tuple
    calibration: tuple
    runs: list = field(default_factory=list)   # (label, config dict, subdir)

    def argv(self, out_dir: Path) -> list:
        sets = dict(self.settings)
        if self.command == "run":
            sets["seed"] = self.seeds[0]
        sets["out_dir"] = str(out_dir)
        argv = [self.command]
        for k, v in sets.items():
            argv += ["--set", f"{k}={v}"]
        for name, overrides in self.arms:
            spec = ",".join(f"{k}={v}" for k, v in overrides.items())
            argv += ["--arm", f"{name}:{spec}"]
        if self.command == "sweep":
            argv += ["--seeds", ",".join(str(s) for s in self.seeds)]
        return argv


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pcdd-fedgela",
            command="run",
            settings=dict(REFERENCE, algo="fedgela", rounds=10, eval_every=1),
            calibration=((20, 64, 32), 10, 20, 2000),
        ),
        Workload(
            name="pcdd-fedprox",
            command="run",
            settings=dict(REFERENCE, algo="fedprox", lambda_prox=0.01,
                          rounds=6, eval_every=1),
            calibration=((20, 64, 32), 10, 20, 2000),
        ),
        Workload(
            name="dirichlet-sweep",
            command="sweep",
            settings=DIRICHLET,
            calibration=((20, 256, 128, 32), 10, 64, 250),
            arms=(("fedavg", {"algo": "fedavg"}), ("fedgela", {"algo": "fedgela"})),
            seeds_per_invocation=2,
        ),
    )
}


def invocations(workload: Workload, bench_seed: int) -> list:
    """The distinct invocations one benchmark run cycles through.

    The master seeds are bench_seed * SEEDS_PER_RUN + j, so distinct
    benchmark seeds never share an input.
    """
    seeds = [bench_seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
    per = workload.seeds_per_invocation
    out = []
    for i in range(0, len(seeds), per):
        group = tuple(seeds[i:i + per])
        if workload.command == "run":
            cfg = dict(workload.settings, seed=group[0])
            runs = [("run", cfg, ".")]
        else:
            runs = []
            for name, overrides in workload.arms:
                for s in group:
                    cfg = dict(workload.settings, seed=s, data_seed=s, partition_seed=s)
                    cfg.update(overrides)
                    runs.append((f"{name}_seed{s}", cfg, f"{name}_seed{s}"))
        out.append(Invocation(
            key=f"{workload.name}:{','.join(str(s) for s in group)}",
            command=workload.command, settings=dict(workload.settings),
            arms=workload.arms, seeds=group, calibration=workload.calibration,
            runs=runs,
        ))
    return out


def eval_rounds(rounds: int, eval_every: int) -> list:
    return [t for t in range(1, rounds + 1) if t % eval_every == 0 or t == rounds]


def train_samples(cfg_dict: dict) -> int:
    """SGD training samples of one experiment run: local epochs over the
    sampled clients' train splits plus, for fine-tuning algorithms, the PA
    fine-tune epochs over every client at each evaluation round. Computed
    from the partition and the sampling schedule, not counted in the program.
    """
    from fedgela import cli, fedsim

    cfg = cli.parse_config(cfg_dict)
    ds = fedsim.build_dataset(cfg)
    n_train = [s.train_indices.size for s in fedsim.build_partition(ds, cfg)]
    local = 0
    for t in range(1, cfg.rounds + 1):
        ids = fedsim.sample_clients(len(n_train), cfg.clients_per_round,
                                    (cfg.seed, SAMPLE_TAG, t))
        local += sum(n_train[int(c)] for c in ids)
    total = local * cfg.epochs
    if cfg.algo in FINETUNE_ALGOS:
        n_evals = len(eval_rounds(cfg.rounds, cfg.eval_every))
        total += n_evals * cfg.finetune_epochs * sum(n_train)
    return int(total)


def flops_per_sample(cfg_dict: dict) -> int:
    """Matmul flops of one training sample through the MLP and classifier:
    forward, plus backward to every weight and to every hidden input."""
    from fedgela import cli

    cfg = cli.parse_config(cfg_dict)
    dims = [cfg.input_dim, *cfg.hidden, cfg.feature_dim or cfg.classes]
    fwd = 2 * (sum(a * b for a, b in zip(dims, dims[1:])) + dims[-1] * cfg.classes)
    bwd = 2 * fwd - 2 * dims[0] * dims[1]
    return fwd + bwd
