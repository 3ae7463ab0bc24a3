"""Byte pins: the SHA-256 of every output of six fixed runs.

Each entry of golden.json is one `fedgela run`: the five algorithms on the
reference config for 3 rounds (fedprox with lambda_prox = 0.01), and one
fedgela run with two hidden layers on a Dirichlet split with partial
participation, whose stacks are ragged, include one-row stacks and hit the
stack cap. The test reruns them in-process and compares the SHA-256 of
rounds.csv, of manifest.json without its out_dir echo, and of each
checkpoint's arrays.

A change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and says why in CHANGES.md. Without that flag the script writes nothing: it
prints its usage and exits 2.
"""
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import REFERENCE

from fedgela.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

RUNS = {algo: dict(REFERENCE, algo=algo, rounds=3) for algo in
        ("fedavg", "fedprox", "fedge", "fedgela", "laonly")}
RUNS["fedprox"]["lambda_prox"] = 0.01
# about 10.3k parameters, so a stack holds at most 6 of the 7 sampled clients
RUNS["dirichlet-2layer"] = {
    "classes": 10, "input_dim": 20, "n_per_class": 60, "scheme": "dirichlet",
    "beta": 0.3, "clients": 12, "clients_per_round": 7, "batch_size": 16,
    "min_size": 8, "hidden": "96,64", "feature_dim": 32, "rounds": 3, "epochs": 2,
    "finetune_epochs": 2, "eval_every": 2, "lr": 0.02, "e_h": 400.0, "e_w": 1e-4,
    "algo": "fedgela", "seed": 5,
}


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out: Path) -> dict:
    """{output file: SHA-256} of one run directory."""
    found = {"rounds.csv": _sha((out / "rounds.csv").read_bytes())}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    del manifest["config"]["out_dir"]
    found["manifest.json"] = _sha(json.dumps(manifest, sort_keys=True).encode())
    for path in sorted(out.rglob("*.npz")):
        h = hashlib.sha256()
        with np.load(path) as data:
            for name in sorted(data.files):
                arr = data[name]
                h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
                h.update(arr.tobytes())
        found[path.relative_to(out).as_posix()] = h.hexdigest()
    return found


def run_digests(name: str, out: Path) -> dict:
    argv = ["run", "--set", f"out_dir={out}"]
    for key, value in RUNS[name].items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0, f"{name}: run failed"
    return digests(out)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = run_digests(name, tmp_path / name)
    expected = golden["runs"][name]
    if found != expected:
        files = sorted(f for f in set(found) | set(expected) if found.get(f) != expected.get(f))
        msg = f"golden entry '{name}' differs in {', '.join(files)}"
        if golden["versions"] != versions():
            msg += f"; recorded with {golden['versions']}, running {versions()}"
        pytest.fail(msg)


def regenerate(argv, target=GOLDEN) -> int:
    """Rewrite `target` from the six runs of this tree, for `--regenerate`
    only; any other arguments print the usage and return 2, writing nothing."""
    if list(argv) != ["--regenerate"]:
        print("usage: PYTHONPATH=src python tests/test_golden.py --regenerate",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(name, Path(tmp) / name) for name in sorted(RUNS)}
    target.write_text(json.dumps({"versions": versions(), "runs": runs}, indent=2,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


@pytest.mark.parametrize("argv", [[], ["--help"]])
def test_regenerate_needs_its_flag(argv, tmp_path, capsys):
    target = tmp_path / "golden.json"
    assert regenerate(argv, target) == 2
    assert not target.exists()
    assert "--regenerate" in capsys.readouterr().err


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
