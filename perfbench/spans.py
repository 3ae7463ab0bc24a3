"""Span tracing of the fedgela package, from outside it.

`Tracer.install` wraps every public module-level function of the six
fedgela modules and rebinds each wrapper wherever the original is bound:
its own module and every loaded fedgela module that imported it by name
(fedsim calls `forward`, `sgd_step`, ... through its own globals). Calls
of `forward` and `logits` from `metrics` are recorded as
`neuralnet.eval_forward` and `neuralnet.eval_logits`, so that evaluation
is kept apart from the training step.

A span is (name, start, end, parent span index, run id, rows). The run id
counts `run_federation` calls; `rows` is the batch size of a training
`forward`, else 0. Spans stay in memory until `dump`.

`summarize` turns a span list into the per-layer metrics. A metric none of
whose source functions exists any more is reported as 0 and listed as
absent.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import statistics
import sys
from time import perf_counter

MODULES = ("neuralnet", "fedsim", "metrics", "datagen", "etfgeom", "cli")

# (module that holds the binding, original span name) -> span name there
CALL_SITE_NAMES = {
    ("metrics", "neuralnet.forward"): "neuralnet.eval_forward",
    ("metrics", "neuralnet.logits"): "neuralnet.eval_logits",
}

TRAIN_STEP_OPS = ("forward", "logits", "ce_loss", "backward", "sgd_step")
WRITERS = ("write_round_csv", "write_manifest", "save_checkpoint")

# Source functions of the metrics that are not named `<layer>.<function>.*`.
SOURCES = {
    "fedsim.aggregate": ("aggregate", "aggregate_tensors"),
    "fedsim.steps": ("sgd_step",),
    "fedsim.samples": ("forward",),
    "neuralnet.flops_per_step": ("sgd_step",),
    "neuralnet.gflops": TRAIN_STEP_OPS,
    "datagen.partition": ("build_partition",),
    "cli.write": WRITERS,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._run = 0
        self.wrapped = []          # span names installed

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        starts_run = name.endswith(".run_federation")
        counts_rows = name == "neuralnet.forward"

        def traced(*args, **kwargs):
            if starts_run:
                self._run += 1
            idx = len(spans)
            spans.append(None)     # reserve the index so children see it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rows = _rows(args, kwargs) if counts_rows else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._run, rows)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "fedgela") -> None:
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES
                   if importlib.util.find_spec(f"{package}.{m}") is not None}
        importlib.import_module(package)
        targets = [(mod, "" if name == package else name.rsplit(".", 1)[-1])
                   for name, mod in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers = {}
                for holder, holder_short in targets:
                    for key, value in list(vars(holder).items()):
                        if value is not fn:
                            continue
                        site = CALL_SITE_NAMES.get((holder_short, name), name)
                        if site not in wrappers:
                            wrappers[site] = self.wrap(site, fn)
                            self.wrapped.append(site)
                        setattr(holder, key, wrappers[site])

    def dump(self, path) -> None:
        """Write the spans; call only after every traced call has returned."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": self.wrapped, "spans": self.spans}, fh)


def _rows(args, kwargs) -> int:
    inputs = args[1] if len(args) > 1 else kwargs.get("inputs")
    try:
        return len(inputs)
    except TypeError:
        return 0


def _fn(span_name: str) -> str:
    return span_name.rsplit(".", 1)[-1]


def summarize(trace: dict, flops_per_sample: int, samples: int) -> tuple:
    """Per-layer metrics of one traced invocation -> (values, absent names).

    `samples` is the training-sample count computed from the schedule; the
    flop metrics use it so that they do not depend on how `forward` is called.
    """
    spans = trace["spans"]

    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    by_fn = {}
    for i, s in enumerate(spans):
        by_fn.setdefault(_fn(s[0]), []).append(i)
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def calls(fn):
        return len(by_fn.get(fn, ()))

    def self_s(fn):
        return sum(dur[i] - child[i] for i in by_fn.get(fn, ()))

    def covered(fns):
        """Time inside any span of `fns`, not counting nested ones twice."""
        fns = set(fns)
        inside = [False] * n
        total = 0.0
        for i in range(n):           # a parent always precedes its children
            p = spans[i][3]
            nested = p >= 0 and (inside[p] or _fn(spans[p][0]) in fns)
            inside[i] = nested
            if _fn(spans[i][0]) in fns and not nested:
                total += dur[i]
        return total

    lt = sorted(dur[i] for i in by_fn.get("local_train", ()))
    steps = calls("sgd_step")
    step_s = covered(TRAIN_STEP_OPS)
    wall = covered({"main"})
    flops = flops_per_sample * samples

    values = {
        "fedsim.local_train.calls": len(lt),
        "fedsim.local_train.self_s": self_s("local_train"),
        "fedsim.local_train.us_per_step": 1e6 * sum(lt) / steps if steps else 0.0,
        "fedsim.local_train.p50_ms": 1e3 * _quantile(lt, 0.5),
        "fedsim.local_train.p90_ms": 1e3 * _quantile(lt, 0.9),
        "fedsim.finetune_personalize.calls": calls("finetune_personalize"),
        "fedsim.finetune_personalize.wall_share":
            covered({"finetune_personalize"}) / wall if wall else 0.0,
        "fedsim.aggregate.total_s": covered({"aggregate", "aggregate_tensors"}),
        "fedsim.sample_clients.total_s": covered({"sample_clients"}),
        "fedsim.steps": steps,
        "fedsim.samples": sum(spans[i][5] for i in by_fn.get("forward", ())),
        "neuralnet.eval_forward.self_s": self_s("eval_forward"),
        "neuralnet.flops_per_step": flops / steps if steps else 0.0,
        "neuralnet.gflops": flops / step_s / 1e9 if step_s else 0.0,
        "etfgeom.make_etf.total_s": covered({"make_etf"}),
        "datagen.build_dataset.total_s": covered({"build_dataset"}),
        "datagen.partition.total_s": covered({"build_partition"}),
        "datagen.dataset_sha256.total_s": covered({"dataset_sha256"}),
        "cli.parse_config.calls": calls("parse_config"),
        "cli.parse_config.total_s": covered({"parse_config"}),
        "cli.write.total_s": covered(WRITERS),
    }
    for op in TRAIN_STEP_OPS:
        values[f"neuralnet.{op}.self_s"] = self_s(op)
        values[f"neuralnet.{op}.calls"] = calls(op)
    for fn in ("generic_accuracy", "personal_accuracy", "angle_report"):
        values[f"metrics.{fn}.calls"] = calls(fn)
        values[f"metrics.{fn}.total_s"] = covered({fn})
    values["etfgeom.mean_pairwise_angle.calls"] = calls("mean_pairwise_angle")
    values["etfgeom.mean_pairwise_angle.total_s"] = covered({"mean_pairwise_angle"})

    present = {_fn(name) for name in trace["wrapped"]}
    absent = []
    for metric in values:
        layer, rest = metric.split(".", 1)
        key = metric if metric in SOURCES else f"{layer}.{rest.split('.')[0]}"
        if not any(f in present for f in SOURCES.get(key, (_fn(key),))):
            absent.append(metric)
            values[metric] = 0
    return values, absent


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
