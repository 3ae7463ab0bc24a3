"""Fast self-test of the benchmark harness on tiny configs.

Run from anywhere: python3 perfbench/selftest.py
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "classes": 4, "input_dim": 6, "n_per_class": 20, "scheme": "pcdd",
    "classes_per_client": 2, "clients": 4, "rounds": 2, "epochs": 1,
    "batch_size": 10, "min_size": 5, "hidden": "8", "feature_dim": 4,
    "eval_every": 1, "finetune_epochs": 1,
}
TINY_RUN = workloads.Workload(
    name="tiny-fedprox", command="run",
    settings=dict(TINY, algo="fedprox", lambda_prox=0.01),
    calibration=((6, 8, 4), 4, 10, 20))
TINY_SWEEP = workloads.Workload(
    name="tiny-sweep", command="sweep",
    settings={k: v for k, v in TINY.items() if k != "classes_per_client"}
    | {"scheme": "dirichlet", "beta": 0.5, "clients_per_round": 2},
    calibration=((6, 8, 4), 4, 10, 20),
    arms=(("fedavg", {"algo": "fedavg"}), ("fedgela", {"algo": "fedgela"})),
    seeds_per_invocation=2)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _assert_metrics(self, res, units):
        self.assertEqual(list(res["metrics"]), list(units))
        for name, unit in units.items():
            m = res["metrics"][name]
            self.assertEqual(m["unit"], unit, name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_declared_metrics_match_benchmark_json(self):
        decl = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in decl["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in decl["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in decl["workloads"]], list(workloads.WORKLOADS))

    def test_untraced_sweep_reports_every_end_to_end_metric(self):
        res = run.run_workload(TINY_SWEEP, 0, 0, False, self.tmp, SRC)
        self.assertTrue(res["correct"], res["problems"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["attempted"], 4 * res["runs"])    # 2 arms x 2 seeds each
        self.assertEqual(res["runs"], 2 * len(workloads.invocations(TINY_SWEEP, 0)))
        self._assert_metrics(res, run.END_TO_END)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertGreater(m["setup_s"], 0)
        # the three timings come from the same executions
        samples = statistics.fmean(
            sum(workloads.train_samples(cfg) for _, cfg, _ in inv.runs)
            for inv in workloads.invocations(TINY_SWEEP, 0))
        self.assertAlmostEqual(m["samples_per_s"] * (m["wall_s"] - m["setup_s"]), samples,
                               delta=1e-6 * samples)
        self.assertEqual(list(self.tmp.iterdir()), [])

    def test_traced_run_reports_every_per_layer_metric(self):
        res = run.run_workload(TINY_RUN, 0, 0, True, self.tmp, SRC)
        self.assertTrue(res["correct"], res["problems"])
        self._assert_metrics(res, run.PER_LAYER)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertEqual(res["absent"], [])
        self.assertGreater(m["fedsim.finetune_personalize.calls"], 0)
        self.assertEqual(m["fedsim.samples"],
                         workloads.train_samples(dict(TINY_RUN.settings, seed=0)))
        self.assertEqual(m["neuralnet.sgd_step.calls"], m["fedsim.steps"])

    def test_tampered_rounds_csv_counts_as_failed(self):
        from fedgela import cli

        out = self.tmp / "run"
        argv = ["run"] + [a for k, v in dict(TINY, algo="fedgela", out_dir=out).items()
                          for a in ("--set", f"{k}={v}")]
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cli.main(argv), 0)
        path = out / "rounds.csv"
        problems, acc = run.check_rounds(path, TINY["rounds"])
        self.assertEqual(problems, [])
        self.assertTrue(0 <= acc[0] <= 1 and 0 <= acc[1] <= 1)
        good = path.read_text(encoding="utf-8").splitlines()
        header = good[0].split(",")
        for column, bad in (("mean_train_loss", "nan"), ("ga", "1.5"), ("pa", "inf")):
            cells = good[-1].split(",")
            cells[header.index(column)] = bad
            path.write_text("\n".join(good[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
            problems, acc = run.check_rounds(path, TINY["rounds"])
            self.assertTrue(problems, column)
            self.assertIsNone(acc)
        path.write_text("\n".join(good[:-1]) + "\n", encoding="utf-8")
        self.assertTrue(run.check_rounds(path, TINY["rounds"])[0])   # a round missing

    def test_missing_wrapped_function_is_reported_absent(self):
        # a package with only two of the six modules and no sgd_step at all
        pkg = self.tmp / "fakepkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "neuralnet.py").write_text(
            "def forward(params, inputs):\n    return len(inputs)\n")
        (pkg / "fedsim.py").write_text(
            "from .neuralnet import forward\n\n"
            "def local_train(batch):\n    return forward(None, batch)\n")
        sys.path.insert(0, str(self.tmp))
        try:
            import fakepkg.fedsim

            tracer = spans.Tracer()
            tracer.install("fakepkg")
            self.assertEqual(fakepkg.fedsim.local_train([1, 2, 3]), 3)
        finally:
            sys.path.remove(str(self.tmp))
        trace = {"wrapped": tracer.wrapped, "spans": tracer.spans}
        values, absent = spans.summarize(trace, flops_per_sample=100, samples=3)
        for name in ("neuralnet.sgd_step.calls", "neuralnet.sgd_step.self_s",
                     "fedsim.steps", "neuralnet.flops_per_step", "fedsim.aggregate.total_s",
                     "cli.write.total_s", "metrics.angle_report.calls"):
            self.assertIn(name, absent)
            self.assertEqual(values[name], 0)
        for name in ("neuralnet.forward.calls", "fedsim.local_train.calls", "neuralnet.gflops"):
            self.assertNotIn(name, absent)
        self.assertEqual(values["neuralnet.forward.calls"], 1)
        self.assertEqual(values["fedsim.local_train.calls"], 1)
        self.assertEqual(values["fedsim.samples"], 3)

    def test_no_result_without_the_package(self):
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pcdd-fedgela",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
