"""The benchmark's traced run calls into the program by name and signature
(``perfbench/workloads.py``).  Each workload is instrumented and warmed up
here, so a renamed or re-signatured function fails tier-1 rather than only
the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from gamma_top import theoremlab

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")

# the layer spans each workload's warm-up passes through once instrumented
EXPECTED_LAYERS = {
    "sweep3-tables": {
        "finspace.enumerate_topologies", "gamma_core.operations_for", "gamma_core.Space",
        "gamma_core.operators", "gamma_sets.families", "theoremlab.check_invariants",
        "theoremlab.run_suite",
    },
    "verify4-docs": {
        "documents.parse_space", "gamma_core.operators", "gamma_sets.families",
        "theoremlab.bridge_pairings", "theoremlab.run_suite", "theoremlab.to_dict", "cli.emit",
    },
    "mine3-tables": {"theoremlab.mine", "theoremlab.to_dict", "cli.emit"},
}
# and the claims it checks, one span each
EXPECTED_CLAIMS = {
    "sweep3-tables": workloads.SWEEP_CLAIMS,
    "verify4-docs": theoremlab.CLAIM_IDS,
    "mine3-tables": (),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_warm_up_records_the_layer_spans(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(tmp_path, 1, 0.01)
    tracer = spans.Tracer()
    try:
        workload.instrument(tracer)
        workload.warm_up(inputs)
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    claims = {workloads.CLAIM_SPANS[cid] for cid in EXPECTED_CLAIMS[name]}
    assert EXPECTED_LAYERS[name] <= set(workloads.LAYER_SPANS)
    assert recorded == EXPECTED_LAYERS[name] | claims
