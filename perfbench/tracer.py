"""In-memory span tracer that wraps mebench's public functions from outside.

Nothing inside ``src/`` knows about tracing. ``Tracer.install`` replaces
module attributes with timing wrappers and ``Tracer.uninstall`` puts the
original objects back, so an untraced run executes exactly the program's
own code.

Most callers bind functions at import time (``from .flowcore import
estimate_flow``), so each function is wrapped where its caller looks it
up, not only where it is defined. The autodiff ops are looked up as
``ad.<op>`` at call time, so the ``mebench.model.autodiff`` attributes
are wrapped; the ``Tensor._push`` closure each op returns is wrapped too,
which times the backward pass per op.

A span is (name, start, end, parent). Spans are kept in flat arrays and
aggregated only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

# Autodiff ops reported by name; every other op is folded into "other".
NAMED_OPS = ("conv2d", "linear", "matmul", "layer_norm", "softmax", "cross_entropy_mean", "relu", "mean")
OTHER_OPS = ("add", "mul", "scale", "reshape", "transpose", "concat")


# ----------------------------------------------------------------- hooks
# A hook sees (tracer, args, kwargs, result) after a wrapped call returns
# and adds to the tracer's counters.


def _count_pixels(tracer, args, kwargs, result):
    tracer.counters["flow_px"] += args[0].values.size


def _count_ofi_read(tracer, args, kwargs, result):
    tracer.counters["ofi_reads"] += 1
    tracer.ofi_paths.add(str(args[0]))


def _count_cache(tracer, args, kwargs, result):
    force = kwargs.get("force", args[3] if len(args) > 3 else False)
    if not force:
        tracer.counters["cache_lookups"] += result.computed + result.cached
        tracer.counters["cache_hits"] += result.cached


def _count_train_samples(tracer, args, kwargs, result):
    tracer.counters["train_samples"] += len(args[1])


def _count_folds(tracer, args, kwargs, result):
    tracer.counters["folds"] += len(result[1])


def _count_forest(tracer, args, kwargs, result):
    tracer.counters["forest_trees"] += len(result.trees)
    tracer.counters["forest_nodes"] += sum(_tree_nodes(tree) for tree in result.trees)


def _tree_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    return count


def _conv2d_flop(args, kwargs, result) -> float:
    w = args[1]
    filters, chans, kh, kw = w.shape
    batch, _, out_h, out_w = result.shape
    return 2.0 * batch * filters * out_h * out_w * chans * kh * kw


def _linear_flop(args, kwargs, result) -> float:
    d_out, d_in = args[1].shape
    return 2.0 * (result.data.size // d_out) * d_in * d_out


# Forward flop count per op, computed from shapes. The backward pass of
# both ops does two products of the same size (input and weight grads).
_OP_FLOP = {"conv2d": _conv2d_flop, "linear": _linear_flop}


@dataclass(frozen=True)
class Binding:
    """One module attribute to wrap, and the workloads expected to call it."""

    module: str
    attr: str
    span: str
    hook: Optional[Callable] = None
    expected_on: tuple = ()


_FLOW, _LOSO, _PF = "flow-128", "loso-desk", "primafacie-16"

BINDINGS = (
    Binding("mebench.corpus", "synthesize_desk_corpus", "corpus.synthesize_desk_corpus", None, (_FLOW, _LOSO, _PF)),
    Binding("mebench.pipeline", "estimate_flow", "flowcore.estimate_flow", _count_pixels, (_FLOW, _LOSO, _PF)),
    Binding("mebench.pipeline", "compute_strain", "flowcore.compute_strain", None, (_FLOW, _LOSO, _PF)),
    Binding("mebench.pipeline", "write_flow_image", "flowcore.write_flow_image", None, (_FLOW, _LOSO, _PF)),
    Binding("mebench.pipeline", "read_flow_image", "flowcore.read_flow_image", _count_ofi_read, (_LOSO,)),
    Binding("mebench.pipeline", "load_frame", "flowcore.load_frame", None, (_FLOW, _LOSO, _PF)),
    Binding("mebench.pipeline", "load_rgb_frame", "flowcore.load_rgb_frame", None, (_LOSO,)),
    Binding("mebench.flowcore", "read_flow_image", "flowcore.read_flow_image", _count_ofi_read, (_LOSO, _PF)),
    Binding("mebench.pipeline", "materialize_flow_images", "pipeline.materialize_flow_images", _count_cache,
            (_FLOW, _LOSO, _PF)),
    Binding("mebench.pipeline", "load_train_samples", "pipeline.load_train_samples", None, (_LOSO,)),
    Binding("mebench.protocol.benchmark", "load_train_samples", "pipeline.load_train_samples", None, (_LOSO,)),
    Binding("mebench.model.training", "forward", "model.forward", None, (_LOSO,)),
    Binding("mebench.model.gradcam", "forward", "model.forward", None, (_LOSO,)),
    Binding("mebench.model.training", "backward", "model.backward", _count_train_samples, (_LOSO,)),
    Binding("mebench.model.training", "optimizer_step", "model.optimizer_step", None, (_LOSO,)),
    Binding("mebench.protocol.benchmark", "train_fold", "model.train_fold", None, (_LOSO,)),
    Binding("mebench.model", "train_fold", "model.train_fold", None, (_LOSO,)),
    Binding("mebench.protocol.benchmark", "evaluate_predictions", "model.evaluate_predictions", None, (_LOSO,)),
    Binding("mebench.model", "gradcam", "model.gradcam", None, (_LOSO,)),
    Binding("mebench.model", "extract_frozen_features", "model.extract_frozen_features", None, (_PF,)),
    Binding("mebench.protocol", "run_loso_variant", "protocol.run_loso_variant", _count_folds, (_LOSO,)),
    Binding("mebench.protocol", "run_prima_facie", "protocol.run_prima_facie", None, (_PF,)),
    Binding("mebench.protocol.primafacie", "run_scenario", "protocol.run_scenario", None, (_PF,)),
    Binding("mebench.protocol.primafacie", "forest_train", "protocol.forest_train", _count_forest, (_PF,)),
    Binding("mebench.protocol.primafacie", "forest_predict_batch", "protocol.forest_predict_batch", None, (_PF,)),
) + tuple(
    Binding("mebench.model.autodiff", op, f"model.autodiff.{op}", None, (_LOSO,) if op in NAMED_OPS else ())
    for op in NAMED_OPS + OTHER_OPS
)


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.ofi_paths: set[str] = set()
        self.binding_calls: dict[tuple, int] = defaultdict(int)
        self._originals: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, binding: Binding):
        nid = self._id(binding.span)
        key = (binding.module, binding.attr)
        hook = binding.hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.binding_calls[key] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _wrap_op(self, fn, binding: Binding):
        fwd_id = self._id(binding.span + ".fwd")
        bwd_id = self._id(binding.span + ".bwd")
        key = (binding.module, binding.attr)
        flop = _OP_FLOP.get(binding.attr)
        flop_key = binding.span + ".flop"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.binding_calls[key] += 1
            idx = self._open(fwd_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            fwd_flop = flop(args, kwargs, out) if flop is not None else 0.0
            self.counters[flop_key] += fwd_flop
            push = out._push
            if push is not None:

                def timed_push(g):
                    bidx = self._open(bwd_id)
                    try:
                        push(g)
                    finally:
                        self._close(bidx)
                    self.counters[flop_key] += 2.0 * fwd_flop

                out._push = timed_push
            return out

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for binding in BINDINGS:
            module = importlib.import_module(binding.module)
            original = getattr(module, binding.attr)
            if binding.module == "mebench.model.autodiff":
                wrapped = self._wrap_op(original, binding)
            else:
                wrapped = self._wrap(original, binding)
            self._originals.append((module, binding.attr, original))
            setattr(module, binding.attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ aggregation

    def span_totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
        totals: dict[str, dict] = {}
        for i in range(n):
            t = totals.setdefault(self.names[self.name_id[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += durations[i]
            t["self_s"] += durations[i] - child[i]
        return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json (trace.* excepted)."""
    totals = tracer.span_totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def t(name):
        return totals.get(name, zero)

    c = tracer.counters
    m: dict[str, float] = {}
    for name in ("flowcore.estimate_flow", "flowcore.compute_strain", "flowcore.write_flow_image",
                 "flowcore.read_flow_image", "flowcore.load_frame", "pipeline.load_train_samples",
                 "model.forward", "model.optimizer_step", "model.train_fold", "model.gradcam",
                 "model.extract_frozen_features", "protocol.forest_train", "protocol.forest_predict_batch"):
        m[f"{name}.calls"] = t(name)["calls"]
        m[f"{name}.s"] = t(name)["s"]
    m["flowcore.estimate_flow.us_per_px"] = 1e6 * _ratio(t("flowcore.estimate_flow")["s"], c["flow_px"])
    m["pipeline.materialize_flow_images.calls"] = t("pipeline.materialize_flow_images")["calls"]
    m["pipeline.materialize_flow_images.self_s"] = t("pipeline.materialize_flow_images")["self_s"]
    m["pipeline.flow_cache_hit_ratio"] = _ratio(c["cache_hits"], c["cache_lookups"])
    m["pipeline.ofi_reads_per_clip"] = _ratio(c["ofi_reads"], len(tracer.ofi_paths))

    for op in NAMED_OPS + ("other",):
        members = OTHER_OPS if op == "other" else (op,)
        fwd = [t(f"model.autodiff.{o}.fwd") for o in members]
        bwd = [t(f"model.autodiff.{o}.bwd") for o in members]
        m[f"model.autodiff.{op}.calls"] = sum(x["calls"] for x in fwd)
        m[f"model.autodiff.{op}.fwd_s"] = sum(x["s"] for x in fwd)
        m[f"model.autodiff.{op}.bwd_s"] = sum(x["s"] for x in bwd)
    conv_s = m["model.autodiff.conv2d.fwd_s"] + m["model.autodiff.conv2d.bwd_s"]
    m["model.autodiff.conv2d.gflop"] = c["model.autodiff.conv2d.flop"] / 1e9
    m["model.autodiff.conv2d.gflop_per_s"] = _ratio(m["model.autodiff.conv2d.gflop"], conv_s)
    m["model.autodiff.linear.gflop"] = c["model.autodiff.linear.flop"] / 1e9

    m["model.backward.calls"] = t("model.backward")["calls"]
    m["model.backward.self_s"] = t("model.backward")["self_s"]
    m["model.train_samples_per_s"] = _ratio(c["train_samples"], t("model.train_fold")["s"])
    m["model.evaluate_predictions.s"] = t("model.evaluate_predictions")["s"]
    m["protocol.run_loso_variant.s"] = t("protocol.run_loso_variant")["s"]
    m["protocol.folds"] = int(c["folds"])
    m["protocol.forest_train.us_per_node"] = 1e6 * _ratio(t("protocol.forest_train")["s"], c["forest_nodes"])
    m["protocol.forest_trees"] = int(c["forest_trees"])
    m["protocol.forest_nodes"] = int(c["forest_nodes"])
    m["protocol.run_scenario.s"] = t("protocol.run_scenario")["s"]
    m["corpus.synthesize_desk_corpus.s"] = t("corpus.synthesize_desk_corpus")["s"]

    layer_self: dict[str, float] = defaultdict(float)
    for name, tot in totals.items():
        layer_self[name.split(".", 1)[0]] += tot["self_s"]
    for layer in ("corpus", "flowcore", "pipeline", "model", "protocol"):
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(tracer.start)
    return m
