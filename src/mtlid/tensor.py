"""Dense tensors with reverse-mode automatic differentiation and Adam.

float32 is the working precision. Construct tensors from float64 arrays
(or pass dtype=np.float64) for verification runs such as finite-difference
gradient checks, which are unreliable in 32-bit. backward() writes
``Tensor.grad`` only on leaves, the tensors no operation produced (such as
parameters); interior nodes keep ``grad is None``. Leaf gradients
accumulate across backward() calls until explicitly reset. Inside
``no_grad()`` operations record no graph.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class DegenerateMaskError(ValueError):
    """Every position of a softmax row is masked out."""


class Tensor:
    """n-dimensional float array participating in a differentiation graph.

    The graph reachable through parents is acyclic by construction: each
    operation creates a fresh node pointing back at its inputs. Repeated
    backward() calls keep accumulating into a leaf's ``grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.asarray(arr, dtype=dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate d(self)/d(x) into x.grad for every reachable leaf x.

        Requires a scalar value. Gradients propagate through pass-local
        buffers, each dropped once its node's vjp has run, so calling
        backward() twice doubles leaf gradients and interior nodes keep
        ``grad is None``. A leaf's first gradient is stored as a copy: a
        vjp may pass its input buffer, or a view of it, to several
        operands, and two leaves must not share one array.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        topo = _toposort(self)
        local: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = local.pop(id(node), None)
            if g is None:
                continue
            if not node._parents:
                if node.grad is None:
                    node.grad = np.array(g, dtype=node.dtype)
                else:
                    node.grad += g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in local:
                    local[key] = local[key] + pg
                else:
                    local[key] = pg

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


_GRAD_ENABLED = contextvars.ContextVar("mtlid_grad_enabled", default=True)
_new_tensor = Tensor.__new__


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Within this block operations compute values but record no graph.

    Outputs have no parents and do not require gradients, so nothing of
    the forward pass is kept alive for a backward() that will not come.
    The values are the same as with the graph on.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """An operation's output node, built without Tensor.__init__.

    Every primitive computes data as a float array of its inputs' dtype,
    so the node takes it as is. Only a 0-d result, which numpy ufuncs
    return as a scalar, is wrapped back into an array. The node records
    its parents only when one of them requires a gradient and no_grad()
    is not active.
    """
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    out = _new_tensor(Tensor)
    out.data = data
    out.grad = None
    for p in parents:
        if p.requires_grad:
            if _GRAD_ENABLED.get():
                out.requires_grad = True
                out._parents = parents
                out._vjp = vjp
                return out
            break
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's original shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def vjp(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

    def vjp(g):
        return (g * s,)

    return _make(data, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    Both operands must have rank >= 2 and agreeing inner dimensions. With
    a 2-D right operand, as in [B, L, k] @ [k, n], the backward folds the
    leading axes into rows and runs each gradient as one 2-D product.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from exc

    flat = b.ndim == 2 and a.ndim > 2

    def vjp(g):
        ga = gb = None
        if flat:
            k, n = b.shape
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                ga = (g2 @ b.data.T).reshape(a.shape)
            if b.requires_grad:
                gb = a.data.reshape(-1, k).T @ g2
            return ga, gb
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return _make(y, (a,), vjp)


_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh formulation."""
    x = a.data
    inner = _GELU_C0 * (x + _GELU_C1 * x * x * x)
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def vjp(g):
        d_inner = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return _make(y, (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _make(y, (a,), vjp)


def softmax_masked(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to unmasked positions.

    mask broadcasts against the scores. Masked positions are set to -inf,
    so they come out exactly 0; unmasked outputs are positive and sum to 1
    per row. Max-subtraction keeps the exponentials in range. Raises
    DegenerateMaskError when a row has no unmasked position.
    """
    m = np.asarray(mask, dtype=bool)
    if not m.any(axis=-1).all():
        raise DegenerateMaskError("softmax_masked: a row has every position masked")
    kept = np.where(m, scores.data, -np.inf)
    if kept.shape != scores.shape:
        raise ShapeError(f"softmax_masked: mask {m.shape} does not broadcast to scores {scores.shape}")
    e = np.exp(kept - kept.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _make(y, (scores,), vjp)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; gradients split back accordingly."""
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_last: leading dimensions differ, {a.shape} vs {b.shape}")
    data = np.concatenate([a.data, b.data], axis=-1)
    p = a.shape[-1]

    def vjp(g):
        return g[..., :p], g[..., p:]

    return _make(data, (a, b), vjp)


def crop(a: Tensor, sizes: Sequence[int]) -> Tensor:
    """Leading-corner slice a[:sizes[0], :sizes[1], ...].

    The gradient is zero-padded back to a's shape, so entries outside the
    corner get exactly zero. Cropping to a's own shape returns a.
    """
    sizes = tuple(sizes)
    if len(sizes) != a.ndim or not all(0 <= s <= n for s, n in zip(sizes, a.shape)):
        raise ShapeError(f"crop: cannot take a {sizes} corner of {a.shape}")
    if sizes == a.shape:
        return a
    corner = tuple(slice(0, s) for s in sizes)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[corner] = g
        return (full,)

    return _make(a.data[corner], (a,), vjp)


def select(a: Tensor, index: int, axis: int) -> Tensor:
    """Pick one slice at a static index, dropping that axis."""
    data = np.take(a.data, index, axis=axis)
    slicer = [slice(None)] * a.ndim
    slicer[axis] = index
    slicer_t = tuple(slicer)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[slicer_t] = g
        return (full,)

    return _make(data, (a,), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    data = a.data.reshape(tuple(shape))

    def vjp(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), vjp)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _make(data, (a,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; gradients scatter-add by id."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding: id out of range for table with {table.shape[0]} rows"
        )
    data = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), vjp)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias.

    Each mean is a sum divided by the count, which is what numpy's mean
    computes, without its Python-level wrapper.
    """
    n = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    y = xhat * gain.data + bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=lead) if lead else g * xhat
        g_bias = g.sum(axis=lead) if lead else g
        gt = g * gain.data
        gx = inv * (
            gt
            - gt.sum(axis=-1, keepdims=True) / n
            - xhat * ((gt * xhat).sum(axis=-1, keepdims=True) / n)
        )
        return gx, g_gain, g_bias

    return _make(y, (x, gain, bias), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the survivor mask comes from the caller's rng."""
    if rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    m = keep / (1.0 - rate)
    data = x.data * m

    def vjp(g):
        return (g * m,)

    return _make(data, (x,), vjp)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def vjp(g):
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True),)

    return _make(data, (a,), vjp)


def cross_entropy_from_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax.

    Computed in log space via log-sum-exp so that large-magnitude logits
    neither overflow nor lose the correct limit.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_from_logits expects [batch, classes], got {logits.shape}")
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {int(bad)} out of range for {c} classes")
    mx = logits.data.max(axis=-1, keepdims=True)
    lse = mx + np.log(np.exp(logits.data - mx).sum(axis=-1, keepdims=True))
    picked = logits.data[np.arange(n), labels]
    data = np.asarray((lse[:, 0] - picked).mean(), dtype=logits.data.dtype)

    def vjp(g):
        p = np.exp(logits.data - lse)
        p[np.arange(n), labels] -= 1.0
        return (p * (g / n),)

    return _make(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# parameter initialization and optimization
# ---------------------------------------------------------------------------


def name_seeded_rng(global_seed: int, name: str) -> np.random.Generator:
    """Deterministic per-name generator, stable across platforms and runs."""
    digest = hashlib.sha256(f"{global_seed}:{name}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


def trunc_normal(
    shape: Sequence[int],
    rng: np.random.Generator,
    sigma: float = 0.02,
    dtype=DEFAULT_DTYPE,
) -> np.ndarray:
    """Normal(0, sigma) with entries redrawn until all lie within +-2 sigma."""
    out = rng.normal(0.0, sigma, size=tuple(shape))
    bad = np.abs(out) > 2.0 * sigma
    while bad.any():
        out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * sigma
    return out.astype(dtype)


def init_parameters(
    specs: Iterable[tuple[str, tuple[int, ...], str]],
    global_seed: int,
    dtype=DEFAULT_DTYPE,
) -> dict[str, Tensor]:
    """Materialize named parameters from (name, shape, kind) specs.

    kind is one of: "normal" (name-seeded truncated normal), "zeros",
    "ones", or "normal_rows" (each leading-axis row drawn from its own
    name-seeded stream, so shared rows stay identical when the leading
    dimension grows).
    """
    params: dict[str, Tensor] = {}
    for name, shape, kind in specs:
        if kind == "normal":
            arr = trunc_normal(shape, name_seeded_rng(global_seed, name), dtype=dtype)
        elif kind == "normal_rows":
            rows = [
                trunc_normal(shape[1:], name_seeded_rng(global_seed, f"{name}.row{r}"), dtype=dtype)
                for r in range(shape[0])
            ]
            arr = np.stack(rows) if rows else np.zeros(shape, dtype=dtype)
        elif kind == "zeros":
            arr = np.zeros(shape, dtype=dtype)
        elif kind == "ones":
            arr = np.ones(shape, dtype=dtype)
        else:
            raise ValueError(f"unknown init kind {kind!r} for parameter {name!r}")
        params[name] = Tensor(arr, requires_grad=True)
    return params


class NonFiniteGradientError(FloatingPointError):
    """A parameter's gradient holds inf or nan; the step changed nothing."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient in {name!r}")
        self.name = name


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Bias-corrected Adam over a dict of named parameters, updated in place.

    The moment decay rates and the denominator's epsilon are the module
    constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON.

    The first and second moments m and v are one flat buffer each, holding
    the parameters back to back in registration order, so a step runs each
    elementwise operation once over all parameters. All parameters must
    share one dtype.
    """

    def __init__(self, params: Mapping[str, Tensor], learning_rate: float = 1e-3):
        if learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        self.params = dict(params)
        if not self.params:
            raise ValueError("Adam needs at least one parameter")
        dtypes = {p.dtype for p in self.params.values()}
        if len(dtypes) != 1:
            raise ValueError(f"Adam: parameters mix dtypes {sorted(str(d) for d in dtypes)}")
        self.learning_rate = learning_rate
        bounds = np.cumsum([0] + [p.data.size for p in self.params.values()]).tolist()
        self._spans = list(zip(bounds[:-1], bounds[1:]))
        self.m = np.zeros(bounds[-1], dtype=dtypes.pop())
        self.v = np.zeros_like(self.m)
        self.step_count = 0

    def step(self) -> None:
        """Apply one update; every registered parameter must hold a gradient.

        Raises NonFiniteGradientError, before any state changes, when a
        gradient holds inf or nan.
        """
        grads = []
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
            grads.append(p.grad.ravel())
        g = np.concatenate(grads)
        if not np.isfinite(g).all():
            name = next(n for n, p in self.params.items() if not np.isfinite(p.grad).all())
            raise NonFiniteGradientError(name)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        m, v = self.m, self.v
        # The same elementwise operations, in the same order, as an update
        # of each parameter on its own; g is reused as scratch once read.
        update = (1.0 - ADAM_BETA1) * g
        m *= ADAM_BETA1
        m += update
        v *= ADAM_BETA2
        g *= g
        g *= 1.0 - ADAM_BETA2
        v += g
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPSILON
        np.divide(m, bc1, out=update)
        update *= self.learning_rate
        update /= g
        for p, (lo, hi) in zip(self.params.values(), self._spans):
            p.data -= update[lo:hi].reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
