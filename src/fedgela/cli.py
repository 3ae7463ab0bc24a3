"""Configuration-driven entry point.

Subcommands: run (one federated experiment), sweep (compare arms over a
seed list on shared splits, running them concurrently on the usable CPUs),
and four whose handlers live in `diagnostics`: gradcheck
(finite-difference verification of every training path), partition-report
(client-by-class count heatmap), gen-data (write a synthetic CSV),
lpm-oracle (free-feature fit under the fixed frame, reporting per-class
cosines and within-class variability).

Configs are flat `key = value` text files; any key can be overridden on the
command line with --set key=value. Relative output directories are placed
under $FEDGELA_OUT_ROOT when it is set. This module writes every output
file, each whole or not at all (_write). Exit codes: 0 success, 1 check
failure, 2 config error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fedsim, metrics
from .datagen import check_pcdd, dataset_sha256
from .neuralnet import save_checkpoint

__all__ = ["RunConfig", "ConfigError", "parse_config", "main", "entrypoint", "write_csv",
           "write_round_csv", "read_round_csv", "write_manifest", "ROUND_CSV_COLUMNS"]


class ConfigError(ValueError):
    """Invalid, unknown, missing, or conflicting configuration."""


class RunConfig(NamedTuple):
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
        return self._asdict() | {"hidden": ",".join(str(int(h)) for h in self.hidden)}


# each key's type, read from RunConfig's annotations: int, float, str or
# tuple (hidden), with " | None" on the keys that may stay unset (the
# annotations are strings, which NamedTuple keeps as ForwardRefs)
_KEY_TYPES = {key: kind.__forward_arg__ for key, kind in RunConfig.__annotations__.items()}


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
# '<key>' must be <phrase>, got <value>"; an unset optional key (None), and a
# key of _SYNTHETIC_KEYS in a csv run, passes
_RULES = (
    (("dataset",), lambda v: v in ("synthetic", "csv"), "synthetic or csv"),
    (("scheme",), lambda v: v in ("dirichlet", "pcdd"), "dirichlet or pcdd"),
    (("q_kind",), lambda v: v in ("identity", "exp", "sqrt"), "identity/exp/sqrt"),
    (("algo",), lambda v: v in fedsim.VALID_ALGOS, "/".join(fedsim.VALID_ALGOS)),
    (("classes", "input_dim"), lambda v: v >= 2, ">= 2"),
    (("n_per_class", "clients", "clients_per_round", "batch_size", "min_size", "eval_every",
      "classes_per_client", "feature_dim"), lambda v: v >= 1, ">= 1"),
    (("beta", "class_sep", "noise_sigma", "lr", "e_w", "e_h", "gamma"), lambda v: v > 0,
     "positive"),
    (("rounds", "epochs", "finetune_epochs", "seed", "data_seed", "partition_seed",
      "lambda_prox", "momentum", "weight_decay"), lambda v: v >= 0, ">= 0"),
    (("test_frac",), lambda v: 0 <= v < 1, "in [0, 1)"),
)

# the keys that only a synthetic data set reads: a csv sets its own width
_SYNTHETIC_KEYS = ("input_dim", "n_per_class", "class_sep", "noise_sigma")

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
    (lambda given, c: c["lambda_prox"] > 0 and c["algo"] != "fedprox",
     "config key 'lambda_prox' ({lambda_prox!r}) is a fedprox setting, but algo is {algo!r}"),
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


def _given_keys(source, overrides=None) -> dict:
    """The keys a config file path or a key/value mapping gives, as given,
    with `overrides` (an iterable of 'key=value' strings or a mapping)
    winning over it; a mapping's None means unset."""
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
    return raw


def parse_config(source, overrides=None) -> RunConfig:
    """Build a validated RunConfig from a file path or a key/value mapping
    and its overrides (_given_keys).

    Unknown keys are rejected. Each rule is checked once: the single-key
    rules of _RULES, the cross-key rules of _CROSS_RULES and, from `classes`
    (which init_state holds a csv's class count to), fedsim.feature_width's
    frame rule and datagen.check_pcdd's class cover.
    """
    raw = _given_keys(source, overrides)
    unknown = set(raw) - set(_KEY_TYPES)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    given = {key: _coerce(key, value) for key, value in raw.items()}

    merged = RunConfig._field_defaults | given
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

    unread = _SYNTHETIC_KEYS if merged["dataset"] == "csv" else ()
    for keys, ok, phrase in _RULES:
        for key in keys:
            if merged[key] is not None and key not in unread and not ok(merged[key]):
                raise ConfigError(f"config key '{key}' must be {phrase}, got {merged[key]!r}")
    for broken, message in _CROSS_RULES:
        if broken(given, merged):
            raise ConfigError(message.format(**merged))
    try:
        fedsim.feature_width(merged["algo"], merged["feature_dim"], merged["classes"],
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


def _write(path, fill) -> None:
    """Write the file `path` whole or not at all: fill(fh) writes a binary
    temporary file beside it, which os.replace then moves to `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if getattr(exc, "filename", None) == str(tmp):   # name the file asked for
            exc.filename = str(path)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_text(path, text: str) -> None:
    _write(path, lambda fh: fh.write(text.encode("utf-8")))


def write_csv(path, header, rows) -> None:
    """A CSV of the `header` names and the `rows`, every cell through _fmt:
    floats carry 17 significant digits, so they re-parse exactly."""
    _write_text(path, "".join(",".join(map(_fmt, row)) + "\n" for row in (header, *rows)))


# AngleReport's angles are its first four fields; skipped_clients is no column
ROUND_CSV_COLUMNS = ("round", "algo", "ga", "pa", *metrics.AngleReport._fields[:4],
                     "mean_train_loss")


def write_round_csv(logs, path) -> None:
    """One row per round (fedsim.RoundLog), the columns ROUND_CSV_COLUMNS; a
    round that was not evaluated leaves its report's cells empty."""
    rows = []
    for log in logs:
        report = log.report
        scores = (None,) * 6 if report is None else (report.ga, report.pa, *report.angles[:4])
        rows.append((log.round, log.algo, *scores, log.mean_train_loss))
    write_csv(path, ROUND_CSV_COLUMNS, rows)


def read_round_csv(path) -> list:
    """Round rows as dicts (floats parsed, empty cells -> None). An empty
    file, or a row with fewer or more cells than the header, raises
    ValueError naming the path and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty: no header line")
    header = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path} line {number}: {len(cells)} cells, "
                             f"the header has {len(header)}")
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
    payload = {"format_version": 1, "config": config.to_dict(), "master_seed": config.seed,
               "dataset_sha256": dataset_digest}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run(out: Path, config: RunConfig, logs, dataset_digest: str) -> None:
    """Create the run directory `out` and write its rounds.csv and manifest.json."""
    out.mkdir(parents=True, exist_ok=True)
    write_round_csv(logs, out / "rounds.csv")
    write_manifest(out / "manifest.json", config, dataset_digest)


def _final_report(logs):
    """The report of the last evaluated round, or None."""
    return next((log.report for log in reversed(logs) if log.report is not None), None)


def cmd_run(config: RunConfig) -> int:
    """Run one experiment; write rounds.csv, manifest.json and checkpoints,
    removing the client checkpoints this run did not write. The output
    directory is created only once the run has succeeded."""
    state = fedsim.run_federation(config)
    inputs = state.inputs
    out = _resolve_out_dir(config)
    _write_run(out, config, state.logs, dataset_sha256(inputs.dataset))
    checkpoints = {out / "global_model.npz": state.server_theta}
    clients_dir = out / "clients"
    clients_dir.mkdir(exist_ok=True)
    for i in np.flatnonzero(state.trained):
        name = f"client_{inputs.shards[i].client_id:03d}.npz"
        checkpoints[clients_dir / name] = state.client_theta[i]
    for stale in set(clients_dir.glob("client_*.npz")) - set(checkpoints):
        stale.unlink()
    for path, row in checkpoints.items():
        _write(path, lambda fh: save_checkpoint(fh, inputs.layout, row))
    report = _final_report(state.logs)
    scores = "" if report is None else f"GA={report.ga:.4f} PA={report.pa:.4f} "
    print(f"run complete: algo={config.algo} rounds={config.rounds} {scores}-> {out}")
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


def _sweep_runs(given: dict, arms, seeds, out: Path) -> list:
    """(arm name, seed, RunConfig) of every run, all parsed before any runs:
    each arm's overrides on the keys the base config was `given`, so the
    defaults that follow another key (clients_per_round, min_size) follow
    the arm's. A bad or duplicate arm raises a ConfigError naming it."""
    runs, names = [], set()
    for name, overrides in arms:
        if name in names:
            raise ConfigError(f"duplicate arm name '{name}'")
        names.add(name)
        for seed in seeds:
            cfg_dict = dict(given, seed=seed, data_seed=seed, partition_seed=seed)
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


def cmd_sweep(base: RunConfig, arm_specs, seeds, given: dict) -> int:
    """Run every arm for every seed on shared data/partition splits and
    write a per-arm summary of final PA/GA mean and std. `given` holds the
    keys that the base config was parsed from.

    Every arm x seed config is parsed before the first run. The runs go to
    fedsim.run_many, and this process alone writes their outputs, in (arm,
    seed) order. The first run in that order that fails leaves
    sweep_status.json (status, arm, seed, error) in the sweep directory, no
    later run's directory, and no summary.csv."""
    if len(arm_specs) < 2:
        raise ConfigError("sweep needs at least 2 arms")
    arms = [_parse_arm(s) for s in arm_specs]
    out = _resolve_out_dir(base).absolute()
    runs = _sweep_runs(given, arms, seeds, out)
    status, summary = out / "sweep_status.json", out / "summary.csv"
    status.unlink(missing_ok=True)
    summary.unlink(missing_ok=True)
    finals = {name: ([], []) for name, _ in arms}
    with closing(fedsim.run_many(cfg for _, _, cfg in runs)) as results:
        for name, seed, cfg in runs:
            try:
                logs, dataset = next(results)
                _write_run(_resolve_out_dir(cfg), cfg, logs, dataset)
                report = _final_report(logs)
                if report is None:
                    raise RuntimeError(f"arm '{name}' seed {seed} recorded no evaluation")
            except Exception as exc:
                out.mkdir(parents=True, exist_ok=True)
                _write_text(status, json.dumps({"status": "failed", "arm": name, "seed": seed,
                                                "error": str(exc)}, indent=2) + "\n")
                raise
            gas, pas = finals[name]
            gas.append(report.ga)
            pas.append(report.pa)
    rows = [(name, len(seeds), float(np.mean(pas)), float(np.std(pas)),
             float(np.mean(gas)), float(np.std(gas)))
            for name, (gas, pas) in finals.items()]
    out.mkdir(parents=True, exist_ok=True)
    write_csv(summary, ("arm", "seeds", "pa_mean", "pa_std", "ga_mean", "ga_std"), rows)
    width = max(len(r[0]) for r in rows)
    for name, _, pm, ps, gm, gs in rows:
        print(f"{name:<{width}}  PA {pm:.4f} +- {ps:.4f}   GA {gm:.4f} +- {gs:.4f}")
    print(f"summary -> {summary}")
    return 0


def _diagnostics():
    """The module of the gradcheck, partition-report, gen-data and lpm-oracle
    handlers, imported when one of them runs: `run` and `sweep` never load it."""
    from . import diagnostics

    return diagnostics


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
                lambda config, args: cmd_sweep(config, args.arms, _parse_seeds(args.seeds),
                                               _given_keys(args.config or {}, args.overrides)))
    p.add_argument("--arm", dest="arms", action="append", required=True,
                   metavar="NAME:KEY=VAL[,KEY=VAL...]",
                   help="one arm (config overrides); repeatable")
    p.add_argument("--seeds", default="0,1,2",
                   help="comma-separated master seeds (default 0,1,2)")

    command("gradcheck", "finite-difference gradient check",
            lambda config, args: _diagnostics().cmd_gradcheck(config))
    command("partition-report", "client-by-class count table",
            lambda config, args: _diagnostics().cmd_partition_report(config))

    p = command("gen-data", "write a synthetic dataset CSV",
                lambda config, args: _diagnostics().cmd_gen_data(config, args.out))
    p.add_argument("--out", required=True, help="output CSV path")

    p = command("lpm-oracle", "free-feature fit under the fixed frame",
                lambda config, args: _diagnostics().cmd_lpm_oracle(
                    config, args.dim, args.label_counts, args.iters, args.lr, args.threshold))
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
