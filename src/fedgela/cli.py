"""Configuration-driven entry point.

Subcommands: run (one federated experiment), sweep (compare arms over a
seed list on shared splits, running them concurrently on the usable CPUs),
gradcheck (finite-difference verification of every training path),
partition-report (client-by-class count heatmap), gen-data (write a
synthetic CSV), lpm-oracle (free-feature fit under the fixed frame,
reporting per-class cosines and within-class variability).

Configs are flat `key = value` text files; any key can be overridden on the
command line with --set key=value. Relative output directories are placed
under $FEDGELA_OUT_ROOT when it is set. Exit codes: 0 success, 1 check
failure, 2 config error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fedsim, metrics
from .datagen import check_pcdd, dataset_sha256, save_csv, write_partition_csv
from .etfgeom import make_etf
from .neuralnet import Layout, finite_diff_check, init_backbone, lpm_feature_fit, save_checkpoint

__all__ = ["RunConfig", "ConfigError", "parse_config", "main", "entrypoint"]


class ConfigError(ValueError):
    """Invalid, unknown, missing, or conflicting configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment configuration (defaults filled)."""

    dataset: str = "synthetic"
    csv_path: str | None = None
    classes: int = 10
    input_dim: int = 20
    n_per_class: int = 100
    class_sep: float = 3.0
    noise_sigma: float = 1.0
    scheme: str = "dirichlet"
    beta: float | None = 0.5
    classes_per_client: int | None = None
    clients: int = 10
    clients_per_round: int = 10
    min_size: int = 100
    test_frac: float = 0.2
    algo: str = "fedavg"
    lambda_prox: float = 0.0
    q_kind: str = "identity"
    gamma: float | None = None   # None -> 1/C at runtime
    rounds: int = 30
    epochs: int = 10
    batch_size: int = 100
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    e_w: float = 1.0
    e_h: float = 1.0
    hidden: tuple = (64,)
    feature_dim: int | None = None   # None -> class count
    eval_every: int = 1
    finetune_epochs: int = 10
    seed: int = 0
    data_seed: int = 0
    partition_seed: int = 0
    out_dir: str = "runs/run"

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "hidden":
                v = ",".join(str(int(h)) for h in v)
            out[f.name] = v
        return out


# each key's type, read from RunConfig's annotations: int, float, str or
# tuple (hidden), with " | None" on the keys that may stay unset
_KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, value) -> object:
    kind = _KEY_TYPES[key].removesuffix(" | None")
    if kind == "tuple":
        return _parse_hidden(value)
    if isinstance(value, str):
        value = value.strip()
    if kind == "str":
        return str(value)
    try:
        number = int(value) if kind == "int" else float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key '{key}': cannot parse {value!r}") from None
    if kind == "int":
        # int() truncates 2.5 to 2; a string already had to spell an integer
        if not isinstance(value, str) and number != value:
            raise ConfigError(f"config key '{key}' must be an integer, got {value!r}")
        return number
    if not math.isfinite(number):
        raise ConfigError(f"config key '{key}' must be finite, got {value!r}")
    return number


def _parse_hidden(value) -> tuple:
    """The hidden-layer widths of a comma-separated string or a sequence."""
    try:
        widths = tuple(int(x) for x in (value.split(",") if isinstance(value, str) else value)
                       if str(x).strip())
    except (TypeError, ValueError):
        raise ConfigError(f"config key 'hidden': cannot parse {value!r}") from None
    if any(h < 1 for h in widths):
        raise ConfigError(f"config key 'hidden': every width must be >= 1, got {value!r}")
    return widths


# (keys, test, phrase): a key whose value fails the test raises "config key
# '<key>' must be <phrase>, got <value>"; an unset optional key (None) passes
_RULES = (
    (("dataset",), lambda v: v in ("synthetic", "csv"), "synthetic or csv"),
    (("scheme",), lambda v: v in ("dirichlet", "pcdd"), "dirichlet or pcdd"),
    (("q_kind",), lambda v: v in ("identity", "exp", "sqrt"), "identity/exp/sqrt"),
    (("classes", "input_dim"), lambda v: v >= 2, ">= 2"),
    (("n_per_class", "clients", "clients_per_round", "min_size", "eval_every",
      "classes_per_client", "feature_dim"), lambda v: v >= 1, ">= 1"),
    (("beta", "class_sep", "noise_sigma", "e_w", "gamma"), lambda v: v > 0, "positive"),
    (("rounds", "finetune_epochs", "seed", "data_seed", "partition_seed", "momentum",
      "weight_decay"), lambda v: v >= 0, ">= 0"),
    (("test_frac",), lambda v: 0 <= v < 1, "in [0, 1)"),
)

# (test, message): a config for which test(keys given, config) holds raises
# the message, formatted with the config
_CROSS_RULES = (
    (lambda given, c: "beta" in given and "classes_per_client" in given,
     "conflicting partition settings: both 'beta' (dirichlet) and "
     "'classes_per_client' (pcdd) given"),
    (lambda given, c: c["scheme"] == "pcdd" and c["classes_per_client"] is None,
     "scheme 'pcdd' requires 'classes_per_client'"),
    (lambda given, c: c["scheme"] == "dirichlet" and "classes_per_client" in given,
     "config key 'classes_per_client' is a pcdd setting, but scheme is {scheme!r}"),
    (lambda given, c: c["dataset"] == "csv" and not c["csv_path"],
     "missing required config key 'csv_path' for dataset=csv"),
    (lambda given, c: c["clients_per_round"] > c["clients"],
     "config key 'clients_per_round' ({clients_per_round}) exceeds 'clients' ({clients})"),
)


# the partition key each scheme owns; a config, or a sweep arm that switches
# scheme, leaves the other scheme's key unset
_SCHEME_KEYS = {"dirichlet": "beta", "pcdd": "classes_per_client"}


def _read_config_file(path) -> dict:
    raw = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = value.strip()
    return raw


def parse_config(source, overrides=None) -> RunConfig:
    """Build a validated RunConfig from a file path or a key/value mapping.

    Unknown keys are rejected; `overrides` (an iterable of 'key=value'
    strings or a mapping) wins over the file. Each rule is checked once:
    the single-key rules of _RULES, the cross-key rules of _CROSS_RULES, the
    algorithm and optimizer rules of fedsim.AlgoKind and fedsim.Hyperparams,
    and, from `classes` (which init_state holds a csv's class count to),
    fedsim.feature_width's frame rule and datagen.check_pcdd's class cover.
    """
    if isinstance(source, (str, os.PathLike)):
        raw = _read_config_file(source)
    else:
        # None means "unset" so config echoes (to_dict) re-parse cleanly
        raw = {k: v for k, v in dict(source).items() if v is not None}
    if isinstance(overrides, dict):
        raw.update(overrides)
    else:
        for ov in overrides or ():
            if "=" not in ov:
                raise ConfigError(f"override '{ov}' is not of the form key=value")
            k, v = ov.split("=", 1)
            raw[k.strip()] = v.strip()

    unknown = set(raw) - set(_KEY_TYPES)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    given = {key: _coerce(key, value) for key, value in raw.items()}

    merged = {f.name: f.default for f in fields(RunConfig)} | given
    # the scheme follows the partition key given; the other scheme's key is unset
    merged["scheme"] = given.get("scheme", "pcdd" if "classes_per_client" in given
                                 else "dirichlet")
    for scheme, key in _SCHEME_KEYS.items():
        if scheme != merged["scheme"]:
            merged[key] = None
    # chained defaults: data seed follows master, partition seed follows data
    for key, default in (("data_seed", "seed"), ("partition_seed", "data_seed"),
                         ("clients_per_round", "clients"), ("min_size", "batch_size")):
        if key not in given:
            merged[key] = merged[default]

    for keys, ok, phrase in _RULES:
        for key in keys:
            if merged[key] is not None and not ok(merged[key]):
                raise ConfigError(f"config key '{key}' must be {phrase}, got {merged[key]!r}")
    for broken, message in _CROSS_RULES:
        if broken(given, merged):
            raise ConfigError(message.format(**merged))
    try:
        algo = fedsim.AlgoKind(merged["algo"], merged["lambda_prox"])
        fedsim.Hyperparams(lr=merged["lr"], momentum=merged["momentum"],
                           weight_decay=merged["weight_decay"], epochs=merged["epochs"],
                           batch_size=merged["batch_size"], e_h=merged["e_h"])
        fedsim.feature_width(algo, merged["feature_dim"], merged["classes"],
                             "config key 'classes'")
        if merged["scheme"] == "pcdd":
            check_pcdd(merged["classes"], merged["clients"], merged["classes_per_client"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(**merged)


def _resolve_out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    root = os.environ.get("FEDGELA_OUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _final_metrics(logs) -> tuple:
    for log in reversed(logs):
        if log.ga is not None:
            return log.ga, log.pa
    return None, None


def cmd_run(config: RunConfig) -> int:
    """Run one experiment; write rounds.csv, manifest.json and checkpoints.
    The output directory is created only once the run has succeeded."""
    state = fedsim.run_federation(config)
    inputs = state.inputs
    out = _resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    fedsim.write_round_csv(state.logs, out / "rounds.csv")
    fedsim.write_manifest(out / "manifest.json", config, dataset_sha256(inputs.dataset))
    save_checkpoint(out / "global_model.npz", inputs.layout.views(state.server_theta))
    clients_dir = out / "clients"
    clients_dir.mkdir(exist_ok=True)
    clients = inputs.layout.views(state.client_theta)
    for i in np.flatnonzero(state.trained):
        save_checkpoint(clients_dir / f"client_{inputs.shards[i].client_id:03d}.npz",
                        clients.row(i))
    ga, pa = _final_metrics(state.logs)
    if ga is not None:
        print(f"run complete: algo={config.algo} rounds={config.rounds} "
              f"GA={ga:.4f} PA={pa:.4f} -> {out}")
    else:
        print(f"run complete: algo={config.algo} rounds={config.rounds} -> {out}")
    return 0


def _parse_arm(spec: str) -> tuple:
    """'name:key=val[,key=val...]' -> (name, dict of overrides).

    Accepts loge_w as a convenience key (classifier length on a log10 axis):
    loge_w=3 means e_w = 1e3.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise ConfigError(f"arm '{spec}' has no name")
    overrides = {}
    if rest.strip():
        for part in rest.split(","):
            if "=" not in part:
                raise ConfigError(f"arm '{spec}': bad override '{part}'")
            k, v = part.split("=", 1)
            k, v = k.strip(), v.strip()
            if k == "loge_w":
                try:
                    e_w = 10.0 ** float(v)
                except ValueError:
                    raise ConfigError(f"arm '{spec}': cannot parse loge_w={v!r}") from None
                except OverflowError:
                    e_w = math.inf
                if not math.isfinite(e_w):
                    raise ConfigError(f"arm '{spec}': loge_w={v!r} gives a non-finite e_w")
                overrides["e_w"] = e_w
            else:
                overrides[k] = v
    return name, overrides


def _sweep_runs(base: RunConfig, arms, seeds, out: Path) -> list:
    """(arm name, seed, RunConfig) of every run, all parsed before any runs;
    a bad or duplicate arm raises a ConfigError naming it."""
    base_dict = base.to_dict()
    runs, names = [], set()
    for name, overrides in arms:
        if name in names:
            raise ConfigError(f"duplicate arm name '{name}'")
        names.add(name)
        for seed in seeds:
            cfg_dict = dict(base_dict)
            cfg_dict.update({"seed": seed, "data_seed": seed, "partition_seed": seed})
            if "scheme" in overrides:
                for scheme, key in _SCHEME_KEYS.items():
                    if scheme != str(overrides["scheme"]).strip():
                        cfg_dict.pop(key, None)
            cfg_dict.update(overrides)
            cfg_dict["out_dir"] = str(out / f"{name}_seed{seed}")
            try:
                runs.append((name, seed, parse_config(cfg_dict)))
            except ConfigError as exc:
                raise ConfigError(f"arm '{name}': {exc}") from None
    return runs


def _parse_seeds(text: str) -> list:
    """The distinct non-negative master seeds of a --seeds list; a bad entry
    raises a ConfigError naming it."""
    seeds = []
    for entry in (e.strip() for e in text.split(",")):
        if not entry:
            continue
        if not entry.isdecimal():
            raise ConfigError(f"--seeds: '{entry}' is not a non-negative integer")
        if int(entry) in seeds:
            raise ConfigError(f"--seeds: seed {int(entry)} is listed twice")
        seeds.append(int(entry))
    if not seeds:
        raise ConfigError(f"--seeds {text!r} names no seed")
    return seeds


def cmd_sweep(base: RunConfig, arm_specs, seeds) -> int:
    """Run every arm for every seed on shared data/partition splits and
    write a per-arm summary of final PA/GA mean and std.

    Every arm x seed config is parsed before the first run. The runs go to
    fedsim.run_many, and this process alone writes their outputs, in (arm,
    seed) order. The first run in that order that fails leaves
    sweep_status.json (status, arm, seed, error) in the sweep directory, no
    later run's directory, and no summary.csv."""
    if len(arm_specs) < 2:
        raise ConfigError("sweep needs at least 2 arms")
    arms = [_parse_arm(s) for s in arm_specs]
    out = _resolve_out_dir(base).absolute()
    runs = _sweep_runs(base, arms, seeds, out)
    status = out / "sweep_status.json"
    status.unlink(missing_ok=True)
    finals = {name: ([], []) for name, _ in arms}
    with closing(fedsim.run_many(cfg for _, _, cfg in runs)) as results:
        for name, seed, cfg in runs:
            try:
                logs, dataset = next(results)
                arm_out = _resolve_out_dir(cfg)
                arm_out.mkdir(parents=True, exist_ok=True)
                fedsim.write_round_csv(logs, arm_out / "rounds.csv")
                fedsim.write_manifest(arm_out / "manifest.json", cfg, dataset)
                ga, pa = _final_metrics(logs)
                if ga is None:
                    raise RuntimeError(f"arm '{name}' seed {seed} recorded no evaluation")
            except Exception as exc:
                out.mkdir(parents=True, exist_ok=True)
                status.write_text(json.dumps({"status": "failed", "arm": name, "seed": seed,
                                              "error": str(exc)}, indent=2) + "\n",
                                  encoding="utf-8")
                raise
            gas, pas = finals[name]
            gas.append(ga)
            pas.append(pa)
    rows = [(name, len(seeds), float(np.mean(pas)), float(np.std(pas)),
             float(np.mean(gas)), float(np.std(gas)))
            for name, (gas, pas) in finals.items()]
    out.mkdir(parents=True, exist_ok=True)
    summary = out / "summary.csv"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("arm,seeds,pa_mean,pa_std,ga_mean,ga_std\n")
        for name, n, pm, ps, gm, gs in rows:
            fh.write(f"{name},{n},{pm:.17g},{ps:.17g},{gm:.17g},{gs:.17g}\n")
    width = max(len(r[0]) for r in rows)
    for name, _, pm, ps, gm, gs in rows:
        print(f"{name:<{width}}  PA {pm:.4f} +- {ps:.4f}   GA {gm:.4f} +- {gs:.4f}")
    print(f"summary -> {summary}")
    return 0


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
    frame = make_etf(feat_dim, n_classes, config.seed, e_w=config.e_w).classifier
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
        layout, row, fixed_frame = fixed if fedsim.AlgoKind(algo).fixed_classifier else learnable
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
    etf = make_etf(d, len(counts), config.seed, e_w=config.e_w)
    feats = lpm_feature_fit(len(counts), d, config.e_h, etf, labels,
                            iterations=iterations, lr=lr, seed=config.seed)
    cos = np.sum(feats * etf.m.T[labels], axis=1)
    cos /= np.linalg.norm(feats, axis=1)
    nc1 = metrics.nc1_variability(feats, labels)
    for c in range(len(counts)):
        cc = cos[labels == c]
        print(f"class {c}: n={counts[c]} min_cos={cc.min():.6f} mean_cos={cc.mean():.6f}")
    print(f"worst cosine {cos.min():.6f}, within-class variability {nc1:.3e}")
    if cos.min() <= threshold:
        print(f"FAIL: worst cosine {cos.min():.6f} <= threshold {threshold}")
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedgela",
        description="Federated learning simulator with a fixed simplex-frame "
                    "classifier and per-client distribution adaptation.",
    )
    # dest: argparse names the missing subcommand "command" in its usage error
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")

    def command(name, summary, run):
        """Register subcommand `name`; main calls run(config, args)."""
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(run=run)
        return p

    command("run", "run one federated experiment", lambda config, args: cmd_run(config))

    p = command("sweep", "compare arms over a seed list",
                lambda config, args: cmd_sweep(config, args.arms, _parse_seeds(args.seeds)))
    p.add_argument("--arm", dest="arms", action="append", required=True,
                   metavar="NAME:KEY=VAL[,KEY=VAL...]",
                   help="one arm (config overrides); repeatable")
    p.add_argument("--seeds", default="0,1,2",
                   help="comma-separated master seeds (default 0,1,2)")

    command("gradcheck", "finite-difference gradient check",
            lambda config, args: cmd_gradcheck(config))
    command("partition-report", "client-by-class count table",
            lambda config, args: cmd_partition_report(config))

    p = command("gen-data", "write a synthetic dataset CSV",
                lambda config, args: cmd_gen_data(config, args.out))
    p.add_argument("--out", required=True, help="output CSV path")

    p = command("lpm-oracle", "free-feature fit under the fixed frame",
                lambda config, args: cmd_lpm_oracle(config, args.dim, args.label_counts,
                                                    args.iters, args.lr, args.threshold))
    p.add_argument("--dim", type=int, default=0, help="feature dimension (default 2C)")
    p.add_argument("--label-counts", default="10,10,10,10",
                   help="comma-separated per-class sample counts")
    p.add_argument("--iters", type=int, default=3000)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.99,
                   help="minimum acceptable feature-to-class-vector cosine")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(parse_config(args.config or {}, overrides=args.overrides), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure inside a component
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())
