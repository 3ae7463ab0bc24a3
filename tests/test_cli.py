import json
import os
import re
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from fedgela import cli
from fedgela.cli import ConfigError, RunConfig, main, parse_config, read_round_csv

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "classes": 4, "input_dim": 6, "n_per_class": 30, "class_sep": 3.0,
    "noise_sigma": 1.0, "scheme": "pcdd", "classes_per_client": 2,
    "clients": 4, "rounds": 2, "epochs": 2, "batch_size": 10, "min_size": 5,
    "lr": 0.05, "e_w": 9.0, "hidden": "16", "seed": 1, "algo": "fedgela",
}


def write_config(tmp_path, entries, name="cfg.txt"):
    path = tmp_path / name
    lines = [f"{k} = {v}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseConfig:
    def test_minimal_fills_paper_defaults(self):
        cfg = parse_config({"dataset": "synthetic", "algo": "fedgela"})
        assert cfg.lr == 0.01
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-4
        assert cfg.epochs == 10
        assert cfg.batch_size == 100
        assert cfg.e_h == 1.0
        assert cfg.gamma is None  # resolved to 1/C at runtime
        assert cfg.min_size == cfg.batch_size
        assert cfg.clients_per_round == cfg.clients

    def test_file_parsing_with_comments(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        with open(path, "a") as fh:
            fh.write("# a comment\n\nmomentum = 0.8  # inline\n")
        cfg = parse_config(path)
        assert cfg.momentum == 0.8
        assert cfg.classes == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key.*learning_rate"):
            parse_config({"learning_rate": "0.1"})

    def test_negative_beta_names_key(self):
        with pytest.raises(ConfigError, match="'beta'"):
            parse_config({"scheme": "dirichlet", "beta": -1})

    @pytest.mark.parametrize("key,value", [("rounds", 2.5), ("clients", 3.9), ("seed", -0.5)])
    def test_non_integral_number_for_int_key_names_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"'{key}' must be an integer, got {value}"):
            parse_config({key: value})

    def test_integral_float_for_int_key_accepted(self):
        cfg = parse_config({"rounds": 2.0, "clients": 3.0})
        assert (cfg.rounds, cfg.clients) == (2, 3)
        assert type(cfg.rounds) is int

    def test_dirichlet_and_pcdd_conflict(self):
        with pytest.raises(ConfigError, match="conflicting partition settings"):
            parse_config({"beta": 0.5, "classes_per_client": 2})

    def test_pcdd_requires_classes_per_client(self):
        with pytest.raises(ConfigError, match="classes_per_client"):
            parse_config({"scheme": "pcdd"})

    def test_csv_requires_path(self):
        with pytest.raises(ConfigError, match="csv_path"):
            parse_config({"dataset": "csv"})

    def test_lambda_prox_requires_fedprox(self):
        with pytest.raises(ConfigError, match="lambda_prox"):
            parse_config({"algo": "fedavg", "lambda_prox": 0.1})

    @pytest.mark.parametrize("key", ["seed", "data_seed", "partition_seed"])
    def test_negative_seed_names_key(self, key):
        with pytest.raises(ConfigError, match=rf"'{key}' must be >= 0, got -1"):
            parse_config({key: -1})

    def test_negative_seed_on_command_line_names_key(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(write_config(tmp_path, SMALL)),
                   "--set", "seed=-1", "--set", f"out_dir={out}"])
        assert rc == 2
        assert "'seed' must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_chaining(self):
        cfg = parse_config({"seed": 7})
        assert cfg.data_seed == 7 and cfg.partition_seed == 7
        cfg = parse_config({"seed": 7, "data_seed": 3})
        assert cfg.data_seed == 3 and cfg.partition_seed == 3

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        cfg = parse_config(path, overrides=["lr=0.2", "rounds=5"])
        assert cfg.lr == 0.2 and cfg.rounds == 5

    def test_bad_override_format(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(path, overrides=["lr:0.2"])

    def test_duplicate_key_in_file(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("lr = 0.1\nlr = 0.2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_hidden_parsing(self):
        assert parse_config({"hidden": "64,32"}).hidden == (64, 32)
        assert parse_config({"hidden": ""}).hidden == ()

    @pytest.mark.parametrize("hidden", ["0", "64,0", "-3"])
    def test_non_positive_hidden_width_rejected(self, hidden):
        with pytest.raises(ConfigError, match="'hidden'"):
            parse_config({"hidden": hidden})

    @pytest.mark.parametrize("algo", ["fedge", "fedgela"])
    def test_frame_needs_feature_dim_at_least_classes(self, algo):
        with pytest.raises(ConfigError, match="'feature_dim'"):
            parse_config({"algo": algo, "classes": 10, "feature_dim": 5})
        assert parse_config({"algo": algo, "classes": 10, "feature_dim": 10}).feature_dim == 10
        assert parse_config({"algo": "fedavg", "classes": 10, "feature_dim": 5}).feature_dim == 5

    def test_to_dict_round_trip_identical(self):
        cfg = parse_config(dict(SMALL))
        again = parse_config(cfg.to_dict())
        assert again == cfg
        # dirichlet flavour as well
        cfg2 = parse_config({"scheme": "dirichlet", "beta": 0.3, "algo": "fedprox",
                             "lambda_prox": 0.5})
        assert parse_config(cfg2.to_dict()) == cfg2


# one out-of-range setting per config rule: (settings, key the message names,
# the bad value as the message shows it, or None where the rule is a
# conflict between keys rather than a bad value)
RULE_CASES = [
    ({"dataset": "mnist"}, "dataset", "'mnist'"),
    ({"scheme": "iid"}, "scheme", "'iid'"),
    ({"q_kind": "log"}, "q_kind", "'log'"),
    ({"algo": "fedsgd"}, "algo", "'fedsgd'"),
    ({"classes": 1}, "classes", "1"),
    ({"input_dim": -3}, "input_dim", "-3"),
    ({"n_per_class": -3}, "n_per_class", "-3"),
    ({"clients": -3}, "clients", "-3"),
    ({"clients_per_round": -3}, "clients_per_round", "-3"),
    ({"min_size": -3}, "min_size", "-3"),
    ({"batch_size": -3, "min_size": 5}, "batch_size", "-3"),
    ({"eval_every": -3}, "eval_every", "-3"),
    ({"feature_dim": -3}, "feature_dim", "-3"),
    ({"classes_per_client": -3}, "classes_per_client", "-3"),
    ({"hidden": "64,-3"}, "hidden", "-3"),
    ({"beta": -2.5}, "beta", "-2.5"),
    ({"class_sep": -2.5}, "class_sep", "-2.5"),
    ({"noise_sigma": -2.5}, "noise_sigma", "-2.5"),
    ({"lr": -2.5}, "lr", "-2.5"),
    ({"e_w": -2.5}, "e_w", "-2.5"),
    ({"e_h": -2.5}, "e_h", "-2.5"),
    ({"gamma": -2.5}, "gamma", "-2.5"),
    ({"rounds": -3}, "rounds", "-3"),
    ({"epochs": -3}, "epochs", "-3"),
    ({"finetune_epochs": -3}, "finetune_epochs", "-3"),
    ({"seed": -3}, "seed", "-3"),
    ({"data_seed": -3}, "data_seed", "-3"),
    ({"partition_seed": -3}, "partition_seed", "-3"),
    ({"algo": "fedprox", "lambda_prox": -2.5}, "lambda_prox", "-2.5"),
    ({"momentum": -2.5}, "momentum", "-2.5"),
    ({"weight_decay": -2.5}, "weight_decay", "-2.5"),
    ({"test_frac": 1.5}, "test_frac", "1.5"),
    ({"algo": "fedgela", "classes": 10, "feature_dim": 7}, "feature_dim", "7"),
    ({"algo": "fedavg", "lambda_prox": 0.5}, "lambda_prox", None),
    ({"beta": 0.5, "classes_per_client": 2}, "classes_per_client", None),
    ({"scheme": "pcdd"}, "classes_per_client", "'pcdd'"),
    ({"scheme": "dirichlet", "classes_per_client": -3}, "classes_per_client", "'dirichlet'"),
    ({"dataset": "csv"}, "csv_path", "csv"),
    ({"clients": 5, "clients_per_round": 6}, "clients_per_round", "6"),
    ({"classes_per_client": 11}, "classes_per_client", "11"),
    ({"classes_per_client": 2, "clients": 4}, "clients", "clients=4"),
    ({"lr": 0.0}, "lr", "0.0"),
    # min_size follows batch_size, but the key given is the one named
    ({"batch_size": 0}, "batch_size", "0"),
]


@pytest.mark.parametrize("settings,key,shown", RULE_CASES,
                         ids=[f"{key}-{i}" for i, (_, key, _) in enumerate(RULE_CASES)])
def test_every_config_rule_names_key_and_value(settings, key, shown):
    with pytest.raises(ConfigError) as info:
        parse_config(settings)
    message = str(info.value)
    assert re.search(rf"\b{key}\b", message), message
    assert shown is None or shown in message, message


def test_every_single_key_rule_has_a_case():
    keys = {key for keys, _, _ in cli._RULES for key in keys}
    covered = {key for settings, key, _ in RULE_CASES if key in settings}
    assert not keys - covered


class TestCmdRun:
    def test_smoke_run_single_round(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1,
                                                   "out_dir": str(tmp_path / "out")})
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        rows = read_round_csv(tmp_path / "out" / "rounds.csv")
        assert len(rows) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == 1
        assert (tmp_path / "out" / "global_model.npz").exists()
        assert (tmp_path / "out" / "clients" / "client_000.npz").exists()

    def test_last_line_shows_the_last_report(self, tmp_path, capsys):
        for rounds in (0, 3):
            out = tmp_path / f"r{rounds}"
            cfg_path = write_config(tmp_path, SMALL | {"rounds": rounds, "eval_every": 2,
                                                       "out_dir": str(out)})
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_path)]) == 0
            scores = ""
            if rounds:
                last = read_round_csv(out / "rounds.csv")[-1]
                scores = f"GA={last['ga']:.4f} PA={last['pa']:.4f} "
            assert capsys.readouterr().out == (f"run complete: algo=fedgela rounds={rounds} "
                                               f"{scores}-> {out}\n")

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            cfg_path = write_config(
                tmp_path, SMALL | {"out_dir": str(tmp_path / name)}, f"{name}.txt")
            assert main(["run", "--config", str(cfg_path)]) == 0
        a = (tmp_path / "a" / "rounds.csv").read_bytes()
        b = (tmp_path / "b" / "rounds.csv").read_bytes()
        assert a == b

    def test_manifest_echo_reparses_identically(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL | {"out_dir": str(tmp_path / "out")})
        cfg = parse_config(cfg_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert parse_config(manifest["config"]) == cfg

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"beta": -2})
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # csv path that does not exist -> runtime failure, exit 3
        cfg_path = write_config(tmp_path, {"dataset": "csv",
                                           "csv_path": str(tmp_path / "nope.csv")})
        assert main(["run", "--config", str(cfg_path)]) == 3

    def test_failed_run_creates_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, {"dataset": "csv", "out_dir": str(out),
                                           "csv_path": str(tmp_path / "nope.csv")})
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert not out.exists()

    def test_one_input_column_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--set", "input_dim=1", "--set", "rounds=1",
                     "--set", f"out_dir={out}"]) == 2
        assert "config key 'input_dim' must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDGELA_OUT_ROOT", str(tmp_path / "root"))
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1, "out_dir": "rel"})
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "rel" / "rounds.csv").exists()

    def test_rerun_removes_the_client_checkpoints_it_did_not_write(self, tmp_path, capsys):
        partial = ["--set", "rounds=1", "--set", "clients_per_round=2"]
        for out in ("out", "fresh"):
            cfg_path = write_config(tmp_path, SMALL | {"out_dir": str(tmp_path / out)})
            if out == "out":   # an earlier run in which all 4 clients trained
                assert main(["run", "--config", str(cfg_path)]) == 0
                assert len(list((tmp_path / out / "clients").iterdir())) == 4
            assert main(["run", "--config", str(cfg_path), *partial]) == 0
        names = sorted(p.name for p in (tmp_path / "out" / "clients").iterdir())
        assert len(names) == 2
        assert names == sorted(p.name for p in (tmp_path / "fresh" / "clients").iterdir())


class TestModuleEntryPoint:
    """`python -m fedgela` maps each outcome to its exit code."""

    def _run(self, tmp_path, *args):
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        return subprocess.run([sys.executable, "-m", "fedgela", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_gradcheck_exits_zero(self, tmp_path):
        proc = self._run(tmp_path, "gradcheck")
        assert proc.returncode == 0, proc.stderr
        assert "gradcheck passed" in proc.stdout

    def test_config_error_exits_two_and_writes_nothing(self, tmp_path):
        proc = self._run(tmp_path, "run", "--set", "algo=bogus")
        assert proc.returncode == 2
        assert "algo" in proc.stderr
        assert not any(tmp_path.iterdir())

    def test_overflow_exits_three_with_the_error_line_alone(self, tmp_path):
        # numpy's overflow warnings would repeat the guard's error on stderr
        cfg_path = write_config(tmp_path, SMALL | {"lr": 1e30, "rounds": 1})
        proc = self._run(tmp_path, "run", "--config", str(cfg_path))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        # round 1 trains without tripping a guard, then the server row
        # overflows in evaluation, and the line names that model
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: round 1: server row: "), proc.stderr
        assert "numeric overflow" in lines[0]


class TestCmdSweep:
    def test_two_arm_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL | {"out_dir": str(tmp_path / "sweep")})
        rc = main(["sweep", "--config", str(cfg_path),
                   "--arm", "avg:algo=fedavg", "--arm", "gela:algo=fedgela",
                   "--seeds", "0,1,2"])
        assert rc == 0
        lines = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert lines[0] == "arm,seeds,pa_mean,pa_std,ga_mean,ga_std"
        assert len(lines) == 3
        assert lines[1].startswith("avg,3,") and lines[2].startswith("gela,3,")

    def test_arms_follow_their_own_keys_with_the_chained_defaults(self, tmp_path):
        # clients_per_round follows clients and min_size follows batch_size
        # per arm, unless the base config gives them
        from fedgela.cli import _sweep_runs
        base = {k: v for k, v in SMALL.items() if k != "min_size"}
        arms = [("a", {"clients": "20"}), ("b", {"batch_size": "7"}),
                ("c", {"clients": "8", "batch_size": "7"})]
        runs = {name: cfg for name, _, cfg in _sweep_runs(base, arms, [0], tmp_path)}
        assert (runs["a"].clients, runs["a"].clients_per_round, runs["a"].min_size) == (20, 20, 10)
        assert (runs["b"].clients, runs["b"].clients_per_round, runs["b"].min_size) == (4, 4, 7)
        assert (runs["c"].clients, runs["c"].clients_per_round, runs["c"].min_size) == (8, 8, 7)
        given = base | {"clients_per_round": 2, "min_size": 3}
        (_, _, cfg), = _sweep_runs(given, arms[2:], [0], tmp_path)
        assert (cfg.clients, cfg.clients_per_round, cfg.min_size) == (8, 2, 3)

    def test_each_arm_runs_the_config_run_parses(self, tmp_path, capsys):
        sets = ["scheme=pcdd", "classes_per_client=2", "classes=4", "rounds=1", "n_per_class=30",
                "input_dim=6", "hidden=16", "epochs=1", "finetune_epochs=1"]
        argv = sum((["--set", kv] for kv in sets), [])
        out = tmp_path / "sweep"
        assert main(["sweep", *argv, "--set", f"out_dir={out}", "--arm", "a:clients=2",
                     "--arm", "b:clients=4", "--seeds", "0"]) == 0
        for arm, clients in (("a", 2), ("b", 4)):
            alone = tmp_path / f"run_{arm}"
            assert main(["run", *argv, "--set", f"clients={clients}", "--set", "seed=0",
                         "--set", f"out_dir={alone}"]) == 0
            swept = json.loads((out / f"{arm}_seed0" / "manifest.json").read_text())["config"]
            ran = json.loads((alone / "manifest.json").read_text())["config"]
            assert swept["clients_per_round"] == clients
            assert swept | {"out_dir": None} == ran | {"out_dir": None}
            assert ((out / f"{arm}_seed0" / "rounds.csv").read_bytes()
                    == (alone / "rounds.csv").read_bytes())

    def test_ge_equals_gela_on_uniform_split(self, tmp_path):
        # exact-uniform clients: phi == 1, so the GA trajectories coincide
        base = SMALL | {"classes_per_client": 4, "out_dir": str(tmp_path / "sweep")}
        cfg_path = write_config(tmp_path, base)
        rc = main(["sweep", "--config", str(cfg_path),
                   "--arm", "ge:algo=fedge", "--arm", "gela:algo=fedgela",
                   "--seeds", "0,1"])
        assert rc == 0
        for seed in (0, 1):
            ge = read_round_csv(tmp_path / "sweep" / f"ge_seed{seed}" / "rounds.csv")
            gela = read_round_csv(tmp_path / "sweep" / f"gela_seed{seed}" / "rounds.csv")
            assert [r["ga"] for r in ge] == [r["ga"] for r in gela]

    def test_ew_sweep_produces_complete_table(self, tmp_path):
        # classifier-length sweep on a log10 axis: one run per value
        cfg_path = write_config(tmp_path, SMALL | {"out_dir": str(tmp_path / "ew")})
        arms = [f"ew{p}:loge_w={p}" for p in range(4)]
        rc = main(["sweep", "--config", str(cfg_path),
                   *sum((["--arm", a] for a in arms), []),
                   "--seeds", "0"])
        assert rc == 0
        lines = (tmp_path / "ew" / "summary.csv").read_text().splitlines()
        assert len(lines) == 5
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["ew0", "ew1", "ew2", "ew3"]
        # loge_w translated into e_w = 10^p in each arm's manifest
        import json
        for p in range(4):
            manifest = json.loads(
                (tmp_path / "ew" / f"ew{p}_seed0" / "manifest.json").read_text())
            assert manifest["config"]["e_w"] == 10.0 ** p

    def test_failed_arm_creates_no_arm_dir(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1, "out_dir": str(out)})
        bad = f"bad:dataset=csv,csv_path={tmp_path / 'nope.csv'}"
        assert main(["sweep", "--config", str(cfg_path), "--arm", "ok:algo=fedavg",
                     "--arm", bad, "--seeds", "0"]) == 3
        assert (out / "ok_seed0" / "rounds.csv").exists()
        assert not (out / "bad_seed0").exists()
        assert not (out / "summary.csv").exists()

    def test_failed_sweep_removes_an_earlier_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1, "out_dir": str(out)})
        argv = ["sweep", "--config", str(cfg_path), "--arm", "a:algo=fedavg", "--seeds", "0"]
        assert main(argv + ["--arm", "b:algo=fedgela"]) == 0
        assert (out / "summary.csv").exists()
        assert main(argv + ["--arm", "b:lr=1e30"]) == 3
        assert json.loads((out / "sweep_status.json").read_text())["arm"] == "b"
        assert not (out / "summary.csv").exists()

    def test_csv_arm_without_class_cover_fails_before_any_run(self, tmp_path, capsys):
        csv_path = tmp_path / "ten.csv"
        assert main(["gen-data", "--set", "classes=10", "--set", "n_per_class=6",
                     "--out", str(csv_path)]) == 0
        out = tmp_path / "sweep"
        capsys.readouterr()
        rc = main(["sweep", "--set", "dataset=csv", "--set", f"csv_path={csv_path}",
                   "--set", "classes=10", "--set", "classes_per_client=2",
                   "--set", "clients=5", "--set", f"out_dir={out}",
                   "--arm", "a:algo=fedavg", "--arm", "b:clients=4,clients_per_round=4",
                   "--seeds", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "arm 'b'" in err and "coverage infeasible" in err
        assert not out.exists()

    def test_pool_writes_the_bytes_of_the_serial_sweep(self, tmp_path, monkeypatch, capsys):
        # one usable CPU runs in-process; two fork a pool, even on a 1-CPU host
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, SMALL | {"out_dir": str(out)})
        argv = ["sweep", "--config", str(cfg_path), "--arm", "avg:algo=fedavg",
                "--arm", "gela:algo=fedgela", "--seeds", "0,1,2"]
        outputs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            capsys.readouterr()
            assert main(argv) == 0
            files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                     if p.is_file()}
            outputs.append((files, capsys.readouterr().out))
            shutil.rmtree(out)
        assert len(outputs[0][0]) == 2 * 3 * 2 + 1
        assert outputs[0] == outputs[1]

    def test_status_names_first_failure_in_arm_order(self, tmp_path, monkeypatch):
        # fast_bad fails at load, before slow_bad overflows in round 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1, "out_dir": str(out)})
        rc = main(["sweep", "--config", str(cfg_path), "--arm", "slow_bad:lr=1e300",
                   "--arm", f"fast_bad:dataset=csv,csv_path={tmp_path / 'nope.csv'}",
                   "--arm", "ok:algo=fedavg", "--seeds", "0"])
        assert rc == 3
        status = json.loads((out / "sweep_status.json").read_text())
        assert (status["arm"], status["seed"]) == ("slow_bad", 0)
        assert status["error"].startswith("round 1: ")
        assert sorted(p.name for p in out.iterdir()) == ["sweep_status.json"]

    def test_single_arm_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        assert main(["sweep", "--config", str(cfg_path),
                     "--arm", "only:algo=fedavg"]) == 2


def _contents(out: Path) -> dict:
    """Every file under `out` by relative path: its bytes, or a checkpoint's
    members (a zip archive stamps its write time)."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.suffix == ".npz":
            with zipfile.ZipFile(path) as archive:
                files[path.relative_to(out)] = {n: archive.read(n) for n in archive.namelist()}
        else:
            files[path.relative_to(out)] = path.read_bytes()
    return files


class TestOutputsArriveWhole:
    """Every output file appears under its final name only through os.replace
    of a complete temporary file, so an interrupted write leaves no partial
    file and no temporary one."""

    COMMANDS = {"run": [], "sweep": ["--arm", "a:algo=fedavg", "--arm", "b:algo=fedgela",
                                     "--seeds", "0"]}

    def _main(self, tmp_path, command):
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1, "out_dir": str(tmp_path / "out")})
        return main([command, "--config", str(cfg_path), *self.COMMANDS[command]])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_file_arrives_by_replace_from_a_temporary_file(self, tmp_path, monkeypatch,
                                                                 capsys, command):
        real, moved = os.replace, []

        def replace(src, dst):
            # (temporary file, final name, whether the final name existed before)
            moved.append((Path(src), Path(dst), os.path.exists(dst)))
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert self._main(tmp_path, command) == 0
        out = tmp_path / "out"
        assert sorted(dst for _, dst, _ in moved) == sorted(p for p in out.rglob("*")
                                                            if p.is_file())
        assert len(moved) == {"run": 3 + 4, "sweep": 2 * 2 + 1}[command]
        for src, dst, existed in moved:
            assert src != dst and src.parent == dst.parent and not src.exists()
            assert not existed, f"{dst} was written before its replace"

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_failed_replace_leaves_no_partial_or_temporary_file(self, tmp_path, monkeypatch,
                                                                  capsys, command, k):
        out = tmp_path / "out"
        assert self._main(tmp_path, command) == 0
        whole = _contents(out)
        shutil.rmtree(out)
        real, moved = os.replace, []

        def replace(src, dst):
            if len(moved) == k:
                raise OSError(f"no replace after {k} files")
            real(src, dst)
            moved.append(dst)

        monkeypatch.setattr(os, "replace", replace)
        assert self._main(tmp_path, command) == 3
        assert f"no replace after {k} files" in capsys.readouterr().err
        left = _contents(out) if out.exists() else {}
        assert len(left) == k
        assert left == {name: whole[name] for name in left}


class TestCmdGradcheck:
    def test_healthy_build_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        # every algorithm kind x phi pattern x mask pattern appears
        assert out.count("fedgela/") == 4
        assert out.count("laonly/") == 4

    def test_zero_phi_class_still_passes(self, capsys):
        assert main(["gradcheck", "--set", "seed=5"]) == 0
        assert "phi_zeros" in capsys.readouterr().out

    def test_broken_backward_fails(self, monkeypatch, capsys):
        import fedgela.neuralnet as nn
        real = nn.gradient_pass

        def zeroed(model, *args, **kwargs):
            loss = real(model, *args, **kwargs)
            model.grad[...] = 0.0
            return loss

        monkeypatch.setattr(nn, "gradient_pass", zeroed)
        assert main(["gradcheck"]) == 1
        assert "worst offender" in capsys.readouterr().out

    def test_forward_without_sqrt_e_h_scale_fails(self, monkeypatch, capsys):
        # at the default e_h = 1 the scale is 1, so only the 4 * e_h probe sees it
        import fedgela.neuralnet as nn
        real = nn._forward_half
        monkeypatch.setattr(nn, "_forward_half",
                            lambda weights, biases, x, e_h: real(weights, biases, x, 1.0))
        assert main(["gradcheck"]) == 1
        assert "worst offender" in capsys.readouterr().out


class TestCmdPartitionReport:
    def test_pcdd_rows_have_exactly_two_classes(self, tmp_path):
        cfg = SMALL | {"classes": 10, "clients": 10, "input_dim": 12,
                       "classes_per_client": 2, "n_per_class": 40,
                       "out_dir": str(tmp_path / "part")}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["partition-report", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "part" / "partition.csv").read_text().splitlines()
        assert len(lines) == 11
        for line in lines[1:]:
            cells = line.split(",")
            counts = [int(x) for x in cells[1:11]]
            assert sum(1 for c in counts if c > 0) == 2
            assert int(cells[11]) == 2

    def test_dirichlet_huge_beta_near_uniform(self, tmp_path):
        for seed in (0, 1, 2):
            cfg = {"classes": 5, "input_dim": 8, "n_per_class": 200,
                   "scheme": "dirichlet", "beta": 10000, "clients": 10,
                   "min_size": 1, "seed": seed,
                   "out_dir": str(tmp_path / f"part{seed}")}
            cfg_path = write_config(tmp_path, cfg, f"cfg{seed}.txt")
            assert main(["partition-report", "--config", str(cfg_path)]) == 0
            lines = (tmp_path / f"part{seed}" / "partition.csv").read_text().splitlines()
            for line in lines[1:]:
                cells = [int(x) for x in line.split(",")[1:6]]
                props = np.array(cells) / sum(cells)
                assert np.max(np.abs(props - 0.2)) < 0.05

    def test_single_client_is_global_histogram(self, tmp_path):
        cfg = SMALL | {"clients": 1, "classes_per_client": 4,
                       "out_dir": str(tmp_path / "one")}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["partition-report", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "one" / "partition.csv").read_text().splitlines()
        counts = [int(x) for x in lines[1].split(",")[1:5]]
        assert counts == [30, 30, 30, 30]


class TestCmdGenData:
    def test_writes_loadable_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, {"classes": 3, "input_dim": 4,
                                           "n_per_class": 5})
        out = tmp_path / "synth.csv"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        from fedgela.datagen import load_csv
        ds = load_csv(out)
        assert ds.n == 15 and ds.n_classes == 3 and ds.input_dim == 4

    def test_csv_feeds_back_into_run(self, tmp_path):
        gen_cfg = write_config(tmp_path, {"classes": 4, "input_dim": 6,
                                          "n_per_class": 30, "class_sep": 3.0})
        out = tmp_path / "synth.csv"
        assert main(["gen-data", "--config", str(gen_cfg), "--out", str(out)]) == 0
        run_cfg = write_config(
            tmp_path,
            SMALL | {"dataset": "csv", "csv_path": str(out), "rounds": 1,
                     "out_dir": str(tmp_path / "runcsv")},
            "run.txt",
        )
        assert main(["run", "--config", str(run_cfg)]) == 0

    def test_csv_run_leaves_the_synthetic_data_keys_unchecked(self, tmp_path):
        # a csv sets its own width and size, so these keys are not read
        unread = {"input_dim": 1, "n_per_class": 0, "class_sep": 0.0, "noise_sigma": -1.0}
        csv_path = tmp_path / "synth.csv"
        assert main(["gen-data", "--config", str(write_config(tmp_path, SMALL)),
                     "--out", str(csv_path)]) == 0
        run = SMALL | unread | {"dataset": "csv", "csv_path": str(csv_path), "rounds": 1,
                                "out_dir": str(tmp_path / "runcsv")}
        assert parse_config(run).input_dim == 1
        assert main(["run", "--config", str(write_config(tmp_path, run, "run.txt"))]) == 0
        for key, value in unread.items():
            with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
                parse_config(SMALL | {key: value})

    def test_classes_must_match_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "ten.csv"
        assert main(["gen-data", "--set", "classes=10", "--set", "n_per_class=6",
                     "--out", str(csv_path)]) == 0
        out = tmp_path / "run"
        run_cfg = write_config(tmp_path, SMALL | {"dataset": "csv", "csv_path": str(csv_path),
                                                  "classes": 4, "out_dir": str(out)})
        capsys.readouterr()
        assert main(["run", "--config", str(run_cfg)]) == 3
        err = capsys.readouterr().err
        assert "'classes' is 4" in err and "has 10 classes" in err and str(csv_path) in err
        assert not out.exists()

    def test_missing_directory_error_names_the_output_path(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "synth.csv"
        assert main(["gen-data", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


class TestCmdLpmOracle:
    def test_reports_cosines_and_passes(self, capsys):
        rc = main(["lpm-oracle", "--label-counts", "10,10,10,10",
                   "--dim", "8", "--iters", "2000", "--lr", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst cosine" in out and "variability" in out

    def test_fails_below_threshold(self, capsys):
        rc = main(["lpm-oracle", "--label-counts", "10,10", "--dim", "4",
                   "--iters", "1", "--lr", "0.001"])
        assert rc == 1


class TestCmdLpmOracleArguments:
    @pytest.mark.parametrize("args,named", [
        (["--label-counts", "x,1"], "--label-counts: entry 0 ('x')"),
        (["--label-counts", ","], "--label-counts: entry 0 ('')"),
        (["--label-counts", "10,-1"], "--label-counts: entry 1 ('-1')"),
        (["--label-counts", "0,0,3"], "--label-counts: entry 0 ('0')"),
        (["--label-counts", "5"], "--label-counts '5' names one class"),
        (["--iters", "-5"], "--iters must be >= 1, got -5"),
        (["--lr", "0"], "--lr must be finite and positive"),
        (["--lr", "inf"], "--lr must be finite and positive"),
        (["--threshold", "nan"], "--threshold must be finite"),
        (["--dim", "2"], "--dim must be 0 (2C) or >= the 4 classes"),
    ])
    def test_bad_argument_is_config_error_naming_it(self, capsys, args, named):
        assert main(["lpm-oracle", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err


class TestNonFiniteConfigRejected:
    @pytest.mark.parametrize("key,value", [("e_h", "inf"), ("e_w", "inf"), ("lr", "inf"),
                                           ("class_sep", "inf"), ("momentum", "inf"),
                                           ("weight_decay", "nan"), ("gamma", "-inf")])
    def test_run_names_key_and_writes_nothing(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, SMALL | {"out_dir": str(out)})
        assert main(["run", "--config", str(cfg_path), "--set", f"{key}={value}"]) == 2
        assert f"config key '{key}' must be finite, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_mapping_value_rejected(self):
        with pytest.raises(ConfigError, match="'beta' must be finite"):
            parse_config({"beta": float("inf")})
        with pytest.raises(ConfigError, match="'rounds': cannot parse inf"):
            parse_config({"rounds": float("inf")})

    @pytest.mark.parametrize("loge_w", ["400", "inf", "nan"])
    def test_sweep_arm_with_non_finite_e_w_rejected(self, tmp_path, capsys, loge_w):
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1, "out_dir": str(out)})
        rc = main(["sweep", "--config", str(cfg_path), "--arm", "a:loge_w=1",
                   "--arm", f"b:loge_w={loge_w}", "--seeds", "0"])
        assert rc == 2
        assert f"loge_w='{loge_w}' gives a non-finite e_w" in capsys.readouterr().err
        assert not out.exists()


class TestSweepFailsBeforeCompute:
    def _sweep(self, tmp_path, *arms, base=None):
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, (base or SMALL) | {"rounds": 1, "out_dir": str(out)})
        rc = main(["sweep", "--config", str(cfg_path),
                   *sum((["--arm", a] for a in arms), []), "--seeds", "0"])
        return rc, out

    @pytest.mark.parametrize("bad", ["b:algo=nosuch", "b:lr=-1", "b:classes_per_client=5"])
    def test_bad_arm_rejected_before_any_run(self, tmp_path, capsys, bad):
        rc, out = self._sweep(tmp_path, "a:algo=fedavg", bad)
        assert rc == 2
        assert "arm 'b'" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_arm_names_rejected(self, tmp_path, capsys):
        rc, out = self._sweep(tmp_path, "a:algo=fedavg", "a:algo=fedgela")
        assert rc == 2
        assert "duplicate arm name 'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds,named", [(",", "','"), ("x", "'x'"), ("0,x", "'x'"),
                                             ("-1", "'-1'"), ("1,1", "seed 1"),
                                             ("0, 2,0", "seed 0")])
    def test_bad_seed_list_rejected_before_any_run(self, tmp_path, capsys, seeds, named):
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, SMALL | {"rounds": 1, "out_dir": str(out)})
        rc = main(["sweep", "--config", str(cfg_path), "--arm", "a:algo=fedavg",
                   "--arm", "b:algo=fedgela", "--seeds", seeds])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --seeds") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("base_settings, arm, scheme", [
        ({"scheme": "dirichlet", "beta": 0.5}, {"scheme": "pcdd", "classes_per_client": "2"},
         "pcdd"),
        ({"scheme": "pcdd", "classes_per_client": 2}, {"scheme": "dirichlet", "beta": "0.3"},
         "dirichlet"),
        ({"scheme": "pcdd", "classes_per_client": 2}, {"scheme": "dirichlet"}, "dirichlet"),
    ])
    def test_arm_switching_scheme_drops_the_base_partition_key(self, tmp_path, base_settings,
                                                               arm, scheme):
        from fedgela.cli import _sweep_runs
        base = {k: v for k, v in SMALL.items() if k != "classes_per_client"} | base_settings
        (_, _, cfg), = _sweep_runs(base, [("b", arm)], [0], tmp_path)
        assert cfg.scheme == scheme
        assert (cfg.beta is None) == (scheme == "pcdd")
        assert (cfg.classes_per_client is None) == (scheme == "dirichlet")

    def test_arm_switches_partition_scheme(self, tmp_path):
        base = SMALL | {"scheme": "dirichlet", "beta": 0.5}
        del base["classes_per_client"]
        rc, out = self._sweep(tmp_path, "a:algo=fedavg",
                              "b:scheme=pcdd,classes_per_client=2", base=base)
        assert rc == 0
        names = [line.split(",")[0] for line in
                 (out / "summary.csv").read_text().splitlines()[1:]]
        assert names == ["a", "b"]
        for arm, scheme in (("a", "dirichlet"), ("b", "pcdd")):
            manifest = json.loads((out / f"{arm}_seed0" / "manifest.json").read_text())
            assert manifest["config"]["scheme"] == scheme

    def test_run_time_failure_writes_status(self, tmp_path):
        bad = f"bad:dataset=csv,csv_path={tmp_path / 'nope.csv'}"
        rc, out = self._sweep(tmp_path, "ok:algo=fedavg", bad)
        assert rc == 3
        status = json.loads((out / "sweep_status.json").read_text())
        assert status["status"] == "failed"
        assert (status["arm"], status["seed"]) == ("bad", 0)
        assert "nope.csv" in status["error"]
        assert not (out / "summary.csv").exists()
        # a rerun that succeeds leaves no stale failure record
        rc, out = self._sweep(tmp_path, "ok:algo=fedavg", "ok2:algo=fedge")
        assert rc == 0
        assert not (out / "sweep_status.json").exists()
