"""Span tracer for the benchmark's traced runs.

Inside ``with tracer:`` the public entry points of each mixssm module are
replaced by timing wrappers; leaving the block puts the originals back, so
the untraced runs execute the package exactly as shipped.  The tracer
accumulates across entries: a workload enters it around each unit of work
and keeps its own checks outside.

What is wrapped:

* the 20 primitives, in every module that binds them by name (``tensor``
  itself for the operator sugar, and ``encoders``, ``fusion``,
  ``network``, ``modules``, ``train``) and in the activation table of
  ``encoders``; patching ``mixssm.tensor`` alone would miss most calls;
* module spans: the layer ``__call__``s, ``Model.forward_classify`` (the
  head), ``selective_module``, ``linear_scan``, ``cross_entropy_loss``,
  ``Adam.step``, ``Tensor.backward`` and ``check_parameter_gradients``;
* ``TapeNode``: each node records the innermost span that created it and
  its ``backward_fn`` is timed, which charges backward time to the module
  that recorded the op.

A span's self time is its duration minus the time of the spans nested in it;
primitives are not spans, so an op's forward time stays in the self time of
the module that called it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import ExitStack
from time import perf_counter
from unittest import mock

import numpy as np

# primitive function name -> metric name
PRIMITIVES = {
    "add": "add",
    "mul": "mul",
    "maximum": "maximum",
    "matmul": "matmul",
    "conv2d": "conv2d",
    "reshape": "reshape",
    "transpose": "transpose",
    "slice_": "slice",
    "concat": "concat",
    "flip": "flip",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "softplus": "softplus",
    "gelu": "gelu",
    "layer_norm": "layer_norm",
    "softmax": "softmax",
    "reduce_sum": "reduce_sum",
    "reduce_mean": "reduce_mean",
    "reduce_max": "reduce_max",
}
OPS = tuple(PRIMITIVES.values())
# TapeNode.op names that differ from the metric name
TAPE_OPS = {"elementwise_max": "maximum", "softmax_axis": "softmax"}
STRUCTURAL_OPS = frozenset({"reshape", "transpose", "slice", "concat", "flip"})
PRIMITIVE_HOLDERS = ("tensor", "encoders", "fusion", "network", "modules", "train")
# module-level tables that hold primitives by value: encoders picks its activation from one
PRIMITIVE_TABLES = (("encoders", "_ACTIVATIONS"),)

# (module, class, method, span)
METHOD_SPANS = (
    ("network", "PatchEmbed", "__call__", "network.patch_embed"),
    ("modules", "LayerNorm", "__call__", "network.norm"),
    ("network", "PatchMerging", "__call__", "network.merge"),
    ("network", "MixSsmBlock", "__call__", "network.block"),
    ("network", "Model", "forward_classify", "network.head"),
    ("encoders", "SsmBranch", "__call__", "encoders.ssm"),
    ("encoders", "ConvBranch", "__call__", "encoders.conv"),
    ("encoders", "AttentionBranch", "__call__", "encoders.msa"),
    ("encoders", "ChannelMlpBranch", "__call__", "encoders.mlp"),
    ("train", "Adam", "step", "train.optimizer"),
    ("tensor", "Tensor", "backward", "tensor.backward"),
)
# (modules binding the function, function, span)
FUNCTION_SPANS = (
    (("encoders",), "linear_scan", "encoders.linear_scan"),
    (("fusion", "network"), "selective_module", "fusion"),
    (("train",), "cross_entropy_loss", "train.loss"),
    (("gradcheck",), "check_parameter_gradients", "gradcheck.check"),
)
# spans reported as <span>.fwd_ms (self time) and <span>.bwd_ms
LAYER_SPANS = (
    "encoders.ssm",
    "encoders.conv",
    "encoders.msa",
    "encoders.mlp",
    "encoders.linear_scan",
    "fusion",
    "network.patch_embed",
    "network.norm",
    "network.merge",
    "network.block",
    "network.head",
)


def _module(name: str):
    # import_module, not attribute access: the package re-exports the
    # function ``train`` under the name of the module ``mixssm.train``
    return importlib.import_module(f"mixssm.{name}")


def _buffer(arr: np.ndarray):
    """(identity, bytes) of the memory an array views."""
    owner = arr.base if isinstance(arr.base, np.ndarray) else arr
    return id(owner), owner.nbytes


class Tracer:
    """Accumulates op, span and tape statistics while entered."""

    def __init__(self):
        self.stack: list[list] = []  # [span name, seconds of nested spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.op_fwd_s: dict[str, float] = defaultdict(float)
        self.op_bwd_s: dict[str, float] = defaultdict(float)
        self.span_bwd_s: dict[str, float] = defaultdict(float)
        self.op_calls = 0
        self.out_bytes = 0
        self.tape_nodes = 0
        self.structural_nodes = 0
        self.tape_bytes = 0
        self._tape_buffers: set[int] = set()
        self._patches: ExitStack | None = None

    # -- install / remove ------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._patches is not None:
            raise RuntimeError("tracer is already installed")
        with ExitStack() as patches:  # undoes a partial install if one fails
            for fname, metric in PRIMITIVES.items():
                original = getattr(_module("tensor"), fname)
                wrapper = self._op_wrapper(original, metric)
                for holder in PRIMITIVE_HOLDERS:
                    mod = _module(holder)
                    if getattr(mod, fname, None) is original:
                        patches.enter_context(mock.patch.object(mod, fname, wrapper))
                for holder, table_name in PRIMITIVE_TABLES:
                    table = getattr(_module(holder), table_name)
                    bound = {key: wrapper for key, value in table.items() if value is original}
                    patches.enter_context(mock.patch.dict(table, bound))
            for holders, fname, span in FUNCTION_SPANS:
                wrapper = self._span_wrapper(getattr(_module(holders[0]), fname), span)
                for holder in holders:
                    patches.enter_context(mock.patch.object(_module(holder), fname, wrapper))
            for holder, cls_name, method, span in METHOD_SPANS:
                cls = getattr(_module(holder), cls_name)
                wrapper = self._span_wrapper(cls.__dict__[method], span)
                patches.enter_context(mock.patch.object(cls, method, wrapper))
            tensor = _module("tensor")
            patches.enter_context(
                mock.patch.object(tensor, "TapeNode", self._node_class(tensor.TapeNode)))
            self._patches = patches.pop_all()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()
        self._patches = None
        self.stack.clear()

    # -- wrappers ---------------------------------------------------------

    def _op_wrapper(self, fn, metric: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.op_fwd_s[metric] += perf_counter() - t0
            self.op_calls += 1
            self.out_bytes += out.data.nbytes
            return out

        return traced

    def _span_wrapper(self, fn, span: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.stack.pop()
                self.incl_s[span] += dur
                self.self_s[span] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                if span == "tensor.backward":
                    # the tape is consumed; its buffers may be freed and their ids reused
                    self._tape_buffers.clear()

        return traced

    def _node_class(self, base):
        tracer = self

        class TracedTapeNode(base):
            __slots__ = ()

            def __init__(self, op, inputs, backward_fn):
                metric = TAPE_OPS.get(op, op)
                span = tracer.stack[-1][0] if tracer.stack else None

                def timed(g):
                    t0 = perf_counter()
                    grads = backward_fn(g)
                    dt = perf_counter() - t0
                    tracer.op_bwd_s[metric] += dt
                    tracer.span_bwd_s[span] += dt
                    return grads

                super().__init__(op, inputs, timed)
                tracer._count_node(metric, inputs, backward_fn)

        return TracedTapeNode

    def _count_node(self, metric: str, inputs, backward_fn) -> None:
        """Count the node and the bytes it keeps alive (computed from array sizes).

        A node holds its input tensors and the arrays its backward closure
        saved.  Parameters are held by the model whether or not a tape
        exists, so their buffers are not charged to the tape.
        """
        self.tape_nodes += 1
        if metric in STRUCTURAL_OPS:
            self.structural_nodes += 1
        params = set()
        arrays = []
        for t in inputs:
            if t.node is None and t.requires_grad:
                params.add(_buffer(t.data)[0])
            else:
                arrays.append(t.data)
        for cell in backward_fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
        for arr in arrays:
            key, nbytes = _buffer(arr)
            if key not in params and key not in self._tape_buffers:
                self._tape_buffers.add(key)
                self.tape_bytes += nbytes

    # -- report -------------------------------------------------------------

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-unit tensor, encoder, fusion and network figures."""
        ms = 1e3 / units
        out: dict[str, float] = {}
        for op in OPS:
            out[f"tensor.fwd_ms.{op}"] = self.op_fwd_s[op] * ms
            out[f"tensor.bwd_ms.{op}"] = self.op_bwd_s[op] * ms
        backward_s = self.incl_s["tensor.backward"]
        out.update({
            "tensor.op_calls": self.op_calls / units,
            "tensor.tape_nodes": self.tape_nodes / units,
            "tensor.structural_nodes": self.structural_nodes / units,
            "tensor.tape_bytes": self.tape_bytes / units,
            "tensor.out_bytes": self.out_bytes / units,
            "tensor.backward_ms": backward_s * ms,
            "tensor.backward_overhead_ms": (backward_s - sum(self.op_bwd_s.values())) * ms,
        })
        for span in LAYER_SPANS:
            out[f"{span}.fwd_ms"] = self.self_s[span] * ms
            out[f"{span}.bwd_ms"] = self.span_bwd_s[span] * ms
        return out
