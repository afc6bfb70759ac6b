"""Tests of the benchmark harness (not of the program).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from child import run_op  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail(list(range(200, 0, -1)))
    assert (value, pct) == (190, 95.0)
    assert sum(x > value for x in range(1, 201)) == 10
    value, pct = run.tail(range(1, 22))
    assert value == 11 and pct == pytest.approx(100 * 11 / 21)


def test_tail_falls_back_to_the_maximum_below_21_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail(range(20)) == (19, 100.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.5, 0],
    ]
    assert self_times(spans) == [5.5, 2.0, 1.0, 1.5]
    assert summarize(spans) == {"root": (5.5, 1), "a": (3.5, 2), "b": (1.0, 1)}


def test_tracer_links_nested_calls_and_counts_generator_invocations():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

        @staticmethod
        def gen(n):
            yield from range(n)

    tracer = Tracer()
    tracer.wrap(Module, "inner", "inner")
    tracer.wrap(Module, "outer", "outer")
    tracer.wrap_generator(Module, "gen", "gen")
    assert Module.outer(1) == 4
    assert list(Module.gen(3)) == [0, 1, 2]
    tracer.restore()
    assert Module.outer(1) == 4 and len(tracer.spans) == 2 + 4
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names[:2] == [("outer", -1), ("inner", 0)]
    assert summarize(tracer.spans, tracer.invocations)["gen"][1] == 1


@pytest.fixture(scope="module")
def verify_ops(tmp_path_factory):
    """Two real verify4-docs operations and their outputs."""
    run_dir = tmp_path_factory.mktemp("verify")
    workload = workloads.WORKLOADS["verify4-docs"]
    inputs = workload.prepare(run_dir, 7, 1)  # the minimum: 21 documents
    keys = inputs["passes"][0][:2]
    ops = [run_op(workload, inputs, key, run_dir / f"{key}.out") for key in keys]
    return workload, run_dir, ops


def test_gate_passes_the_reference_output(verify_ops):
    workload, run_dir, ops = verify_ops
    reference = json.loads((BENCH / "reference.json").read_text())[workload.name]
    assert run.gate(workload, reference, ops, run_dir) == [[], []]


def test_gate_fails_an_operation_whose_output_changed_by_one_byte(verify_ops):
    workload, run_dir, ops = verify_ops
    reference = json.loads((BENCH / "reference.json").read_text())[workload.name]
    path = run_dir / ops[1]["file"]
    data = bytearray(path.read_bytes())
    i = data.index(b'"holds"')
    data[i + 1] = ord("H")
    changed = dict(ops[1], file="changed.out", sha256=hashlib.sha256(data).hexdigest())
    (run_dir / "changed.out").write_bytes(data)
    problems = run.gate(workload, reference, [ops[0], changed], run_dir)
    assert problems[0] == []
    assert any("sha256 differs" in p for p in problems[1])
    assert sum(1 for p in problems if p) == 1


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    plain = {"ops": [{"key": "sweep", "seconds": 1.0, "calibration_s": 0.0005, "bytes": 1}],
             "maxrss_kib": 1024}
    e2e, _ = run.end_to_end_metrics(workloads.WORKLOADS["sweep3-tables"], plain, [0.1])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layers = run.per_layer_metrics(plain, dict(plain, layers={}))
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {k: v["unit"] for k, v in {**e2e, **layers}.items()}
