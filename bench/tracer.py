"""Per-layer tracing from outside the package.

``Tracer`` replaces the public functions of each mtlid module with timing
wrappers, in every module namespace that binds the same function object,
and restores the originals on exit. Each primitive's output node gets its
``_vjp`` wrapped as well, so backward time is charged to the layer whose
span was innermost when the node was built. Spans nest: a span's self time
is its duration minus the time of the spans it encloses, and the time the
tracer spends in its own hooks is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PRIMITIVES = (
    "matmul",
    "add",
    "mul",
    "scale",
    "tanh",
    "gelu",
    "softmax",
    "softmax_masked",
    "layer_norm",
    "dropout",
    "embedding",
    "reshape",
    "transpose",
    "select",
    "concat_last",
    "cross_entropy_from_logits",
)

# Module functions timed as spans, named "<module>.<function>".
FUNCTIONS = {
    "data": ("load_tsv", "load_texts"),
    "preprocess": ("build_vocab", "encode"),
    "tensor": ("init_parameters",),
    "encoder": ("embed", "multi_head_attention", "encode_batch"),
    "attnpool": ("task_attention",),
    "model": ("compute_loss", "save_checkpoint", "load_checkpoint"),
    "train": ("evaluate",),
    "cli": ("cmd_predict",),
}

# Methods timed as spans: (module, class, method) -> span name.
METHODS = {
    ("tensor", "Tensor", "backward"): "tensor.backward",
    ("tensor", "Adam", "step"): "tensor.adam.step",
    ("model", "MtlModel", "forward"): "model.forward",
}

# Every namespace searched for bindings of a traced function.
NAMESPACES = ("tensor", "encoder", "attnpool", "model", "train", "data", "preprocess", "cli")

# Spans that own the backward time of the nodes built inside them.
LAYERS = (
    "encoder.embed",
    "encoder.multi_head_attention",
    "encoder.encode_batch",
    "attnpool.task_attention",
    "model.forward",
    "model.compute_loss",
)

TRACE_MARK = "__bench_trace__"


def _module(short: str):
    return importlib.import_module(f"mtlid.{short}")


def _graph(root) -> list:
    """Every node reachable from root through parents."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _matmul_flops(a, b) -> float:
    batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
    return 2.0 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


class Tracer:
    """Context manager: install wrappers on enter, restore on exit."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.bwd_by_layer: defaultdict[str, float] = defaultdict(float)
        self.gflop = {"fwd": 0.0, "vjp": 0.0}
        self.nodes_recorded = 0
        self.backward_nodes: list[int] = []
        self.interior_buffers: list[int] = []
        self.leaf_buffers = 0
        self.all_buffers = 0
        self.step_ms: list[float] = []
        self.positions = 0
        self.pad_positions = 0
        self.texts = 0
        self.truncated = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._step_start: float | None = None
        self._graph_nodes: list = []
        self._tensor_cls = None

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, seconds: float, hooks: float = 0.0) -> None:
        self._stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += seconds
        self.self_time[name] += seconds - frame[1]
        if self._stack:
            self._stack[-1][1] += seconds + hooks

    def _layer(self) -> str:
        for name, _ in reversed(self._stack):
            if name in LAYERS:
                return name
        return "other"

    def _wrap(self, name: str, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = perf_counter()
            if pre is not None:
                pre(args, kwargs)
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, perf_counter() - t0)
                raise
            t1 = perf_counter()
            if post is not None:
                post(out, args, kwargs)
            tracer._exit(frame, t1 - t0, (t0 - h0) + (perf_counter() - t1))
            return out

        setattr(wrapper, TRACE_MARK, True)
        return wrapper

    # -- hooks -------------------------------------------------------------

    def _primitive_post(self, op: str):
        def post(out, args, kwargs):
            flops = 0.0
            if op == "matmul":
                flops = _matmul_flops(args[0], args[1]) / 1e9
                self.gflop["fwd"] += flops
            if (
                isinstance(out, self._tensor_cls)
                and out._vjp is not None
                and not any(out is a for a in args)
            ):
                self.nodes_recorded += 1
                out._vjp = self._wrap_vjp(op, out._vjp, self._layer(), flops)

        return post

    def _wrap_vjp(self, op: str, vjp, layer: str, gflop: float):
        name = f"tensor.vjp.{op}"

        def traced_vjp(g):
            frame = self._enter(name)
            t0 = perf_counter()
            try:
                return vjp(g)
            finally:
                dt = perf_counter() - t0
                self._exit(frame, dt)
                self.bwd_by_layer[layer] += dt
                self.gflop["vjp"] += 2.0 * gflop

        return traced_vjp

    def _backward_pre(self, args, kwargs):
        self._graph_nodes = _graph(args[0])
        self.backward_nodes.append(len(self._graph_nodes))

    def _backward_post(self, out, args, kwargs):
        interior = leaves = 0
        for node in self._graph_nodes:
            if node.grad is not None:
                if node._parents:
                    interior += 1
                else:
                    leaves += 1
        self._graph_nodes = []
        self.interior_buffers.append(interior)
        self.leaf_buffers += leaves
        self.all_buffers += interior + leaves

    def _forward_pre(self, args, kwargs):
        if kwargs.get("train_mode", args[2] if len(args) > 2 else False):
            self._step_start = perf_counter()

    def _adam_post(self, out, args, kwargs):
        if self._step_start is not None:
            self.step_ms.append((perf_counter() - self._step_start) * 1e3)
            self._step_start = None

    def _encode_post(self, out, args, kwargs):
        text = args[0]
        l_max = args[2] if len(args) > 2 else kwargs["l_max"]
        self.texts += 1
        self.positions += l_max
        self.pad_positions += l_max - out.true_length
        self.truncated += len(text.split()) + 1 > l_max

    # -- install -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = {short: _module(short) for short in NAMESPACES}
        self._tensor_cls = modules["tensor"].Tensor
        targets = []  # (original function, span name, post hook)
        for op in PRIMITIVES:
            targets.append((getattr(modules["tensor"], op), f"tensor.fwd.{op}", self._primitive_post(op)))
        for short, names in FUNCTIONS.items():
            for fn_name in names:
                post = self._encode_post if (short, fn_name) == ("preprocess", "encode") else None
                targets.append((getattr(modules[short], fn_name), f"{short}.{fn_name}", post))
        try:
            for original, span, post in targets:
                wrapper = self._wrap(span, original, post=post)
                for module in modules.values():
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patch(module, attr, wrapper)
            hooks = {
                "tensor.backward": (self._backward_pre, self._backward_post),
                "tensor.adam.step": (None, self._adam_post),
                "model.forward": (self._forward_pre, None),
            }
            for (short, cls_name, method), span in METHODS.items():
                cls = getattr(modules[short], cls_name)
                pre, post = hooks[span]
                self._patch(cls, method, self._wrap(span, cls.__dict__[method], pre, post))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()
