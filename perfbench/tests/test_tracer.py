"""Self-tests for the benchmark's tracer, on scaled-down copies of the workloads.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mebench.corpus import SynthSpec  # noqa: E402
from mebench.flowcore import FlowParams  # noqa: E402
from mebench.model import TrainConfig  # noqa: E402
from mebench.protocol import ForestConfig  # noqa: E402
from perfbench.tracer import BINDINGS, Binding, Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import FlowWorkload, LosoWorkload, PrimaFacieWorkload  # noqa: E402

QUICK_FLOW = FlowParams(iterations=5, pyramid_levels=1)

# Same code paths as the benchmark's workloads, at a size that runs in seconds.
SMALL = {
    "flow-128": FlowWorkload(spec=SynthSpec(1, 3, 32, 0.0), flow_params=QUICK_FLOW),
    "loso-desk": LosoWorkload(
        spec=SynthSpec(1, 3, 32, 0.0), flow_params=QUICK_FLOW, train=TrainConfig(epochs=1, batch_size=2)
    ),
    "primafacie-16": PrimaFacieWorkload(
        spec=SynthSpec(2, 3, 32, 1.0), flow_params=QUICK_FLOW, forest=ForestConfig(n_trees=2, max_depth=2), budget=2
    ),
}


def _originals():
    return {(b.module, b.attr): getattr(importlib.import_module(b.module), b.attr) for b in BINDINGS}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per workload: the tracer that saw its set-up and one pass."""
    runs = {}
    for name, workload in SMALL.items():
        tracer = Tracer()
        with tracer:
            state = workload.setup(tmp_path_factory.mktemp(name), seed=3)
            workload.run(state)
        runs[name] = tracer
    return runs


@pytest.mark.parametrize("binding", BINDINGS, ids=lambda b: f"{b.module}.{b.attr}")
def test_every_binding_records_calls_where_expected(binding, traced_runs):
    for workload in binding.expected_on:
        calls = traced_runs[workload].binding_calls[(binding.module, binding.attr)]
        assert calls >= 1, f"{binding.module}.{binding.attr} recorded no call on {workload}"


def test_tracing_off_leaves_every_attribute_identical():
    before = _originals()
    tracer = Tracer()
    tracer.install()
    during = _originals()
    assert all(during[key] is not before[key] for key in before)
    tracer.uninstall()
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_tracing_off_after_an_exception_restores_attributes():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_tracing_leaves_outputs_unchanged(tmp_path):
    workload = SMALL["flow-128"]
    state = workload.setup(tmp_path, seed=5)
    plain = workload.check(state, workload.run(state))
    with Tracer():
        out = workload.run(state)
    assert workload.check(state, out).digest == plain.digest


def test_layer_metrics_cover_benchmark_json(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layer_metrics(traced_runs["loso-desk"])) | {
        "trace.run_s", "trace.untraced_run_s", "trace.overhead_s", "trace.overhead_ratio"
    }
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = tracer._wrap(inner, Binding("m", "inner", "x.inner"))

    def outer():
        return wrapped_inner() + wrapped_inner()

    tracer._wrap(outer, Binding("m", "outer", "x.outer"))()
    totals = tracer.span_totals()
    assert totals["x.inner"]["calls"] == 2 and totals["x.outer"]["calls"] == 1
    assert totals["x.outer"]["self_s"] == pytest.approx(totals["x.outer"]["s"] - totals["x.inner"]["s"])
    assert totals["x.inner"]["self_s"] == pytest.approx(totals["x.inner"]["s"])
