"""fedgela benchmark: time the CLI on fixed federated workloads and check
every run's output.

Run from the repository root:

    python3 perfbench/run.py --workload pcdd-fedgela --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each invocation of `fedgela.cli.main` runs in a fresh worker process, one at
a time. --trace 0 reports the end-to-end metrics from untraced runs;
--trace 1 alternates untraced and traced runs of the same inputs and reports
the per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. All outputs go to a temporary
directory under the working directory, which is removed before exit.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import zipfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent

# name -> unit; the same names and units as BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "ga": "fraction",
    "pa": "fraction",
}
PER_LAYER = {
    "neuralnet.forward.self_s": "s",
    "neuralnet.forward.calls": "count",
    "neuralnet.logits.self_s": "s",
    "neuralnet.logits.calls": "count",
    "neuralnet.ce_loss.self_s": "s",
    "neuralnet.ce_loss.calls": "count",
    "neuralnet.backward.self_s": "s",
    "neuralnet.backward.calls": "count",
    "neuralnet.sgd_step.self_s": "s",
    "neuralnet.sgd_step.calls": "count",
    "neuralnet.eval_forward.self_s": "s",
    "neuralnet.flops_per_step": "flop",
    "neuralnet.gflops": "GFLOP/s",
    "fedsim.local_train.calls": "count",
    "fedsim.local_train.self_s": "s",
    "fedsim.local_train.us_per_step": "us",
    "fedsim.local_train.p50_ms": "ms",
    "fedsim.local_train.p90_ms": "ms",
    "fedsim.finetune_personalize.calls": "count",
    "fedsim.finetune_personalize.wall_share": "fraction",
    "fedsim.aggregate.total_s": "s",
    "fedsim.sample_clients.total_s": "s",
    "fedsim.steps": "count",
    "fedsim.samples": "count",
    "metrics.generic_accuracy.calls": "count",
    "metrics.generic_accuracy.total_s": "s",
    "metrics.personal_accuracy.calls": "count",
    "metrics.personal_accuracy.total_s": "s",
    "metrics.angle_report.calls": "count",
    "metrics.angle_report.total_s": "s",
    "etfgeom.make_etf.total_s": "s",
    "etfgeom.mean_pairwise_angle.calls": "count",
    "etfgeom.mean_pairwise_angle.total_s": "s",
    "datagen.build_dataset.total_s": "s",
    "datagen.partition.total_s": "s",
    "datagen.dataset_sha256.total_s": "s",
    "cli.parse_config.calls": "count",
    "cli.parse_config.total_s": "s",
    "cli.write.files": "count",
    "cli.write.bytes": "B",
    "cli.write.total_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
    "trace.absent": "count",
}

# Workers run with one BLAS thread. On a 2-CPU host the default second
# OpenBLAS thread kept the other CPU busy (CPU/wall 1.95) and made
# dirichlet-sweep slower, not faster; with one thread, proc.cpu_util
# measures the program's own parallelism.
WORKER_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKER_TIMEOUT_S = 120
# Stop starting new invocations after this long, even below the minimum
# count, so that a run always ends within the harness's time limit.
HARD_STOP_S = 120


@dataclass
class Rep:
    """One worker invocation and what the harness found in its output."""

    inv: workloads.Invocation
    traced: bool
    result: dict | None = None
    failures: list = field(default_factory=list)    # (run label, reason)
    accuracy: list = field(default_factory=list)    # (ga, pa) per run
    digests: dict = field(default_factory=dict)
    files: int = 0
    bytes: int = 0
    trace: dict | None = None


def check_rounds(path: Path, rounds: int) -> tuple:
    """Problems found in one rounds.csv, and its final (ga, pa)."""
    if not path.is_file():
        return [f"{path.name} missing"], None
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if "ga" not in header or "pa" not in header or "round" not in header:
        return [f"{path.name}: bad header {header}"], None
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    problems = []
    if [r.get("round") for r in rows] != [str(t) for t in range(1, rounds + 1)]:
        problems.append(f"expected rounds 1..{rounds}, got {len(rows)} rows")
    for r in rows:
        for key, cell in r.items():
            if key in ("round", "algo") or cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                problems.append(f"round {r.get('round')} {key}: not a number {cell!r}")
                continue
            if not math.isfinite(value):
                problems.append(f"round {r.get('round')} {key}: non-finite {cell}")
            elif key in ("ga", "pa") and not 0.0 <= value <= 1.0:
                problems.append(f"round {r.get('round')} {key}: {value} outside [0, 1]")
    final = rows[-1] if rows else {}
    if final.get("ga", "") == "" or final.get("pa", "") == "":
        problems.append("final round has no GA/PA")
    if problems:
        return problems, None
    return [], (float(final["ga"]), float(final["pa"]))


def file_digest(path: Path) -> str:
    """SHA-256 of an output file's content. Checkpoints are zip archives that
    carry write timestamps, so they are hashed by member name and bytes;
    manifests drop the out_dir echo, which names the temporary directory."""
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode() + b"\0" + zf.read(name))
    elif path.name == "manifest.json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.get("config", {}).pop("out_dir", None)
        h.update(json.dumps(payload, sort_keys=True).encode())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprints(out: Path, files) -> dict:
    """Digest of every output file, with all checkpoints folded into one."""
    digests, ckpt = {}, hashlib.sha256()
    for f in files:
        rel = str(f.relative_to(out))
        if f.suffix == ".npz":
            ckpt.update(f"{rel}={file_digest(f)}\n".encode())
        else:
            digests[rel] = file_digest(f)
    if any(f.suffix == ".npz" for f in files):
        digests["checkpoints"] = ckpt.hexdigest()
    return digests


def execute(inv, traced: bool, tmp: Path, src: Path, n: int) -> Rep:
    rep = Rep(inv=inv, traced=traced)
    out = tmp / f"out{n}"
    spec_path, result_path = tmp / f"spec{n}.json", tmp / f"result{n}.json"
    spans_path = tmp / f"spans{n}.json"
    spec = {"src": str(src), "argv": inv.argv(out),
            "spans": str(spans_path) if traced else None,
            "calibration": inv.calibration}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, **WORKER_ENV)
    env.pop("FEDGELA_OUT_ROOT", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env,
        )
        error = None if proc.returncode == 0 else (
            f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {WORKER_TIMEOUT_S} s"
    if error is None:
        rep.result = json.loads(result_path.read_text(encoding="utf-8"))
        if rep.result["rc"] != 0:
            error = f"fedgela exit code {rep.result['rc']}: {proc.stderr.strip()[-500:]}"
    for label, cfg, sub in inv.runs:
        if error is not None:
            rep.failures.append((label, error))
            continue
        problems, acc = check_rounds(out / sub / "rounds.csv", cfg["rounds"])
        if problems:
            rep.failures.append((label, "; ".join(problems)))
        else:
            rep.accuracy.append(acc)
    if out.is_dir():
        files = sorted(p for p in out.rglob("*") if p.is_file())
        rep.files = len(files)
        rep.bytes = sum(f.stat().st_size for f in files)
        rep.digests = fingerprints(out, files)
    if traced and error is None:
        rep.trace = json.loads(spans_path.read_text(encoding="utf-8"))
    for p in (spec_path, result_path, spans_path):
        p.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    return rep


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload, bench_seed: int, seconds: float, trace: bool,
                 tmp: Path, src: Path) -> dict:
    invs = workloads.invocations(workload, bench_seed)
    samples = {inv.key: sum(workloads.train_samples(cfg) for _, cfg, _ in inv.runs)
               for inv in invs}
    flops_per_sample = workloads.flops_per_sample(invs[0].runs[0][1])
    # every input at least twice (a traced step runs it twice), so that
    # every input's output bytes are compared between two executions
    min_steps = len(invs) if trace else 2 * len(invs)
    reps = []
    start = time.perf_counter()
    step = 0
    while True:
        inv = invs[step % len(invs)]
        order = (False, True) if trace else (False,)
        if trace and (step // len(invs)) % 2:
            order = (True, False)
        t0 = time.perf_counter()
        for traced in order:
            reps.append(execute(inv, traced, tmp, src, len(reps)))
        step += 1
        now = time.perf_counter()
        # do not start a step that would end past `seconds`
        if (step >= min_steps and now + (now - t0) - start > seconds) \
                or now - start >= HARD_STOP_S:
            break

    problems = []
    for rep in reps:
        for label, reason in rep.failures:
            problems.append(f"{rep.inv.key} {label}: {reason}")
    by_key = {}
    for rep in reps:
        if not rep.failures:
            by_key.setdefault(rep.inv.key, []).append(rep)
    fingerprints = {}
    for key, group in by_key.items():
        fingerprints[key] = group[0].digests
        for other in group[1:]:
            if other.digests != group[0].digests:
                kind = "traced vs untraced" if other.traced != group[0].traced else "repeat"
                problems.append(f"{key}: output bytes differ between runs ({kind})")

    attempted = sum(len(rep.inv.runs) for rep in reps)
    failed = sum(len(rep.failures) for rep in reps)
    plain = [r for r in reps if not r.traced and r.result and not r.failures]
    absent = []
    if trace:
        values, absent = trace_metrics(reps, plain, samples, flops_per_sample, problems)
        units = PER_LAYER
    else:
        values = e2e_metrics(plain, samples)
        units = END_TO_END
    return {
        "workload": workload.name,
        "correct": failed == 0 and not problems and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "problems": problems,
        "absent": absent,
        "fingerprints": fingerprints,
        "runs": len(reps),
        "unscaled_wall_s": _median([r.result["wall_s"] for r in plain]),
        "cal_s": _median([r.result["cal_s"] for r in plain]),
    }


def e2e_metrics(plain, samples) -> dict:
    """End-to-end metrics of one run.

    The shared host's speed drifts by tens of percent over minutes, so each
    execution's wall and set-up times are scaled to a host of reference
    speed: multiplied by `calibrate.REFERENCE_S` over the time the fixed
    calibration took in the same worker right afterwards. Each input is
    then timed by the median of its scaled executions in the run. wall_s
    and setup_s are the means over the inputs of those medians, and
    samples_per_s is the inputs' samples over their median time after
    set-up, so all three come from the same per-input figures (see
    README.md for the measurements).
    """
    if not plain:
        return dict.fromkeys(END_TO_END, 0.0)
    by_key = {}
    for rep in plain:
        by_key.setdefault(rep.inv.key, []).append(rep)

    def scaled(group, name):
        return _median([r.result[name] * calibrate.REFERENCE_S / r.result["cal_s"]
                        for r in group])

    wall = [scaled(g, "wall_s") for g in by_key.values()]
    setup = [scaled(g, "setup_s") for g in by_key.values()]
    runs = [a for group in by_key.values() for a in group[0].accuracy]
    return {
        "wall_s": statistics.fmean(wall),
        "setup_s": statistics.fmean(setup),
        "samples_per_s": sum(samples[k] for k in by_key) / (sum(wall) - sum(setup)),
        "peak_rss_mb": _median([r.result["maxrss_mb"] for r in plain]),
        "ga": statistics.fmean(a[0] for a in runs),
        "pa": statistics.fmean(a[1] for a in runs),
    }


def trace_metrics(reps, plain, samples, flops_per_sample, problems) -> tuple:
    per_rep, absent = [], []
    for rep in reps:
        if rep.trace is None:
            continue
        values, absent = spans.summarize(rep.trace, flops_per_sample, samples[rep.inv.key])
        counted = values["fedsim.samples"]
        if counted and counted != samples[rep.inv.key]:
            problems.append(f"{rep.inv.key}: {counted} training samples counted at "
                            f"forward(), {samples[rep.inv.key]} computed from the schedule")
        values["cli.write.files"] = rep.files
        values["cli.write.bytes"] = rep.bytes
        per_rep.append(values)
    out = {name: _median([v[name] for v in per_rep]) for name in per_rep[0]} if per_rep else {}
    out["proc.cpu_util"] = _median([r.result["cpu_s"] / r.result["wall_s"] for r in plain])
    # per input: median traced minus median untraced execution
    walls = {}
    for r in reps:
        if r.result and not r.failures:
            walls.setdefault((r.inv.key, r.traced), []).append(r.result["wall_s"])
    overhead = [_median(walls[key, True]) - _median(walls[key, False])
                for key, traced in walls if traced and (key, False) in walls]
    out["trace.overhead_s"] = statistics.fmean(overhead) if overhead else 0.0
    out["trace.absent"] = len(absent)
    for name, unit in PER_LAYER.items():
        out.setdefault(name, 0)
        if unit == "count":
            out[name] = int(out[name])
    return out, absent


def context(root: Path, src: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "worker_env": WORKER_ENV,
        "git_commit": git_commit(root),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.rglob("*.py"))),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit id, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_result(res: dict) -> None:
    print(f"== {res['workload']}: {res['runs']} invocations, "
          f"{res['failed']} of {res['attempted']} runs failed")
    for name, m in res["metrics"].items():
        print(f"   {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"   timings scaled to a calibration of {calibrate.REFERENCE_S} s; "
          f"here it took {res['cal_s']:.4f} s (median), and the unscaled "
          f"median wall time of an execution was {res['unscaled_wall_s']:.4f} s")
    for p in res["problems"]:
        print(f"   PROBLEM {p}")
        print(f"{res['workload']}: {p}", file=sys.stderr)
    if res["absent"]:
        print(f"   absent (source function gone): {', '.join(res['absent'])}")
    print("fingerprints " + json.dumps({res["workload"]: res["fingerprints"]}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "fedgela" / "__init__.py").is_file():
        print(f"error: no fedgela package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    print("context " + json.dumps(context(root, src), sort_keys=True))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        results = [run_workload(workloads.WORKLOADS[n], args.seed, args.seconds,
                                bool(args.trace), tmp, src) for n in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for res in results:
        print_result(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
