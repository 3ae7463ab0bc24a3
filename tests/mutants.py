"""Mutation check of the numeric core: every mutant must be killed.

A mutant is (name, file under src/fedgela, source line, replacement). The
source line is given without its indentation and must occur exactly once
in the file; the replacement takes its place at the same indentation. For
each mutant, src/ is copied to a temporary directory, the line is
replaced, and the kill set runs against the copy in a subprocess:

  1. `fedgela gradcheck` (the finite-difference battery);
  2. the bitwise tests against tests/reference_ops.py, the named tests of
     the rules a digest alone would catch (compute_phi, the n_k weighting,
     the evaluation schedule, the seed streams, the allocation, the pcdd
     class deal, the CSV and checkpoint checks, the evaluability check and
     the angle columns a round records) and, last, the golden pins
     (tests/test_golden.py), in one pytest call that stops at the first
     failure, so a mutant is reported by the rule it breaks.

A mutant is killed when a step fails. The unmutated copy runs the kill set
first and must pass it. The script exits 1 if that baseline fails, if a
mutant survives, or if a mutant's source line is not found exactly once,
so the list has to follow the code it names.

    python tests/mutants.py

It checks one mutant per usable CPU at a time and takes about 25 s on 2 CPUs,
too long for tier-1, so run it by hand for every change to `neuralnet.py`,
`fedsim.py`, `metrics.py` or `datagen.py`.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    ("drop the bias add", "neuralnet.py",
     "z += b",
     "pass"),
    ("drop sqrt(e_h)", "neuralnet.py",
     "h = np.multiply(raw, math.sqrt(e_h))",
     "h = np.multiply(raw, 1.0)"),
    ("corrupt the radial projection", "neuralnet.py",
     "radial = (g * u).sum(axis=2, keepdims=True)",
     "radial = 0.5 * (g * u).sum(axis=2, keepdims=True)"),
    ("drop the lambda_prox scale", "neuralnet.py",
     "diff *= model.lambda_prox      # the roundings of lambda_prox * (theta - prox_ref)",
     "pass"),
    ("drop phi", "neuralnet.py",
     "z *= phi",
     "pass"),
    ("ignore the mask", "neuralnet.py",
     "zm = z if mask is None else np.where(mask, z, -np.inf)",
     "zm = z"),
    ("skip momentum", "neuralnet.py",
     "vel *= momentum",
     "vel *= 0.0"),
    ("reverse the aggregation order", "fedsim.py",
     "acc = weights[0] * rows[0]",
     "rows, weights = rows[::-1], weights[::-1]; acc = weights[0] * rows[0]"),
    ("write the stack's rows back in sorted order", "fedsim.py",
     "rows[group], losses[group] = _train_stack(group, shards, seeds, layout, start_row,",
     "rows[g:g + len(group)], losses[group] = _train_stack(group, shards, seeds, layout, "
     "start_row,"),
    ("compute_phi drops gamma", "fedsim.py",
     "return _as_phi(counts / (n_k * gamma), counts.size)",
     "return _as_phi(counts / n_k, counts.size)"),
    ("swap compute_phi's exp and sqrt", "fedsim.py",
     'q = np.exp if q_kind == "exp" else np.sqrt',
     'q = np.sqrt if q_kind == "exp" else np.exp'),
    ("score an untrained client's zero row", "fedsim.py",
     "personal = np.where(state.trained[:, None], state.client_theta, state.server_theta)",
     "personal = state.client_theta"),
    ("predict ignores the mask", "metrics.py",
     "z = np.where(mask[None, :], z, -np.inf)",
     "pass"),
    ("skip the last round's evaluation", "fedsim.py",
     "if config.eval_every and (t % config.eval_every == 0 or t == config.rounds):",
     "if config.eval_every and t % config.eval_every == 0:"),
    ("never write the epoch word", "fedsim.py",
     "words[k][-1] = epoch",
     "pass"),
    ("seed words drop a part's high words", "fedsim.py",
     "words += [(part >> s) & 0xFFFFFFFF for s in range(0, max(part.bit_length(), 1), 32)]",
     "words += [part & 0xFFFFFFFF]"),
    ("average every epoch over the stack's first batch count", "fedsim.py",
     "epoch_losses[a:b] = losses[a:b, :, :n_batches[a]].mean(axis=-1)",
     "epoch_losses[a:b] = losses[a:b, :, :n_batches[0]].mean(axis=-1)"),
    ("drop the one-hot subtraction", "neuralnet.py",
     "g -= hot                           # subtracts 0.0 off the label: bits unchanged",
     "pass"),
    ("the fine-tune seed tag reuses _SEED_SHUFFLE", "fedsim.py",
     "[(inp.config.seed, _SEED_FINETUNE, t, s.client_id) for s in inp.shards])",
     "[(inp.config.seed, _SEED_SHUFFLE, t, s.client_id) for s in inp.shards])"),
    ("sample_clients drops its sort", "fedsim.py",
     "return np.sort(ids)",
     "return ids"),
    ("aggregate with uniform weights, not n_k", "fedsim.py",
     "state.server_theta = aggregate(rows, n_sampled / n_sampled.sum())",
     "state.server_theta = aggregate(rows, np.full(len(rows), 1.0 / len(rows)))"),
    ("angle_report swaps existing and missing classes", "metrics.py",
     "missing = [c for c in all_classes if c not in shard.existing_classes]",
     "existing, missing = [c for c in all_classes if c not in shard.existing_classes], "
     "existing"),
    ("_fmt writes 16 significant digits", "fedsim.py",
     'return f"{float(value):.17g}"',
     'return f"{float(value):.16g}"'),
    ("the largest-remainder allocation favours the smallest part", "datagen.py",
     "order = np.lexsort((np.arange(len(frac)), -frac))",
     "order = np.lexsort((np.arange(len(frac)), frac))"),
    ("load_checkpoint drops its shape check", "neuralnet.py",
     "if tensors[-1].shape != shape:",
     "if False:"),
    ("skip the evaluability check", "fedsim.py",
     "_check_evaluable(shards, ds, global_test)",
     "pass"),
    ("pcdd deals each class's slots to clients round-robin", "datagen.py",
     "holders[cls].append(slot // cpc)",
     "holders[cls].append(slot % n_clients)"),
    ("load_csv skips its non-finite check", "datagen.py",
     "if bad:",
     "if False:"),
    ("RoundLog.record leaves out clf_miss_angle", "fedsim.py",
     "for name in _ANGLE_COLUMNS:",
     "for name in _ANGLE_COLUMNS[:3]:"),
)

GRADCHECK = [sys.executable, "-c",
             "import sys; from fedgela.cli import main; sys.exit(main(['gradcheck']))"]
KILL_TESTS = [
    "tests/test_neuralnet.py::TestShippedForward",
    "tests/test_neuralnet.py::TestCheckpoint",
    "tests/test_fedsim.py::TestFusedStepMatchesPublicOps",
    "tests/test_fedsim.py::TestStackedMatchesSingle",
    "tests/test_fedsim.py::TestComputePhi",
    "tests/test_fedsim.py::TestAltPhi",
    "tests/test_fedsim.py::TestRunState::test_step_weights_the_server_row_by_n_k",
    "tests/test_fedsim.py::TestRunFederation::test_last_round_evaluated_off_the_schedule",
    "tests/test_fedsim.py::TestFinetunePersonalize"
    "::test_finetune_shuffles_apart_from_the_rounds_training",
    "tests/test_datagen.py::TestLargestRemainderAlloc",
    "tests/test_datagen.py::TestPcddPartition::test_two_classes_per_client",
    "tests/test_datagen.py::TestCsv::test_non_finite_feature_names_line",
    "tests/test_fedsim.py::TestPartitionCheckedBeforeTraining",
    "tests/test_fedsim.py::TestEvaluationForwardsOnce"
    "::test_local_angle_scores_local_model_not_finetune",
    "tests/test_golden.py",
]


def mutate(src: Path, file: str, line: str, replacement: str) -> None:
    """Replace the one line of src/fedgela/<file> whose text is `line`."""
    path = src / "fedgela" / file
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        raise LookupError(f"{file}: source line {line!r} found {len(hits)} times, not once")
    text = lines[hits[0]]
    indent = text[:len(text) - len(text.lstrip())]
    lines[hits[0]] = indent + replacement + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def kill_set(work: Path) -> str | None:
    """The first kill-set step that fails on the tree in `work`, or None."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    steps = (
        ("gradcheck", GRADCHECK),
        # run from ROOT, so pyproject.toml's addopts keep the unused plugins out
        ("pytest", [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                    f"--basetemp={work / 'pytest'}", *KILL_TESTS]),
    )
    for label, cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode:
            failed = [ln for ln in done.stdout.splitlines()
                      if ln.startswith(("FAILED", "ERROR", "gradcheck FAILED"))]
            return f"{label}: {failed[0] if failed else f'exit {done.returncode}'}"
    return None


def check(mutant) -> tuple:
    """(name, verdict line, ok) of one mutant; None is the unmutated tree."""
    name = "baseline (no mutation)" if mutant is None else mutant[0]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fedgela-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            try:
                mutate(work / "src", *mutant[1:])
            except LookupError as exc:
                return name, f"STALE     {exc}", False
        failure = kill_set(work)
    took = f"{time.perf_counter() - start:5.1f}s"
    if mutant is None:
        return name, (f"ok        {took}" if failure is None
                      else f"BROKEN    {took} the kill set fails unmutated: {failure}"), \
            failure is None
    return name, (f"SURVIVED  {took}" if failure is None
                  else f"killed    {took} by {failure}"), failure is not None


def main() -> int:
    start = time.perf_counter()
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        results = list(pool.map(check, (None,) + MUTANTS))
    width = max(len(name) for name, _, _ in results)
    for name, verdict, _ in results:
        print(f"{name:<{width}}  {verdict}")
    baseline_ok = results[0][2]
    bad = sum(not ok for _, _, ok in results[1:])
    print(f"{len(MUTANTS)} mutants, {bad} survived or stale"
          f"{'' if baseline_ok else ', baseline broken'} "
          f"in {time.perf_counter() - start:.1f}s")
    return 0 if baseline_ok and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
