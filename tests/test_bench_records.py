"""Every speed claim comes with a BENCH_*.json record at the repo root; each
record states its claim, the machine, the method, and the parent and change
medians of every workload it measured."""
import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_fields(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record["claim"], str) and record["claim"].strip()
    assert isinstance(record["method"], str) and record["method"].strip()
    machine = record["machine"]
    assert isinstance(machine["cpus"], int) and machine["cpus"] >= 1
    for key in ("python", "numpy"):
        assert isinstance(machine[key], str) and machine[key]
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        metrics = workload["end_to_end"]
        assert metrics, name
        for metric, sides in metrics.items():
            for side in ("parent", "change"):
                assert isinstance(sides[side]["median"], Real), (name, metric, side)
