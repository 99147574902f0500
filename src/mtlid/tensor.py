"""Dense tensors with reverse-mode automatic differentiation and Adam.

float32 is the working precision. Construct tensors from float64 arrays
(or pass dtype=np.float64) for verification runs such as finite-difference
gradient checks, which are unreliable in 32-bit. Every operation records
its graph unless ``no_grad()`` is active; no tensor carries a switch of
its own. backward() writes ``Tensor.grad`` on every leaf it reaches, the
tensors no operation produced (such as parameters); interior nodes keep
``grad is None``. Leaf gradients accumulate across backward() calls until
explicitly reset.

The checks every configuration applies to its counts, seeds and rates
live here too, at the bottom of the import graph, so Adam, the
vocabulary builder and each config dataclass share them.

Importing this module holds glibc's heap for the whole process: freeing
the 16 MB array below raises the mmap threshold to 16 MB and the trim
threshold to 32 MB (mallopt(3)). Left low, each freed graph trimmed the
heap and the next forward faulted it back in (880-2,900 minor faults per
16 x 64 half-step). 16 MB is above any array a step frees (4 MB), below
glibc's 32 MB cap and never touched. On another libc it changes nothing;
no test covers the cost of trimming freed graphs there.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import math
import numbers
from typing import Callable, Iterator, Sequence

import numpy as np

np.empty(16 << 20, dtype=np.uint8)  # hold the heap (see the module docstring)

DEFAULT_DTYPE = np.float32
ParamSpec = tuple[str, tuple[int, ...], str]  # name, shape, init kind


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

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.asarray(arr, dtype=dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
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
        operands, and two leaves must not share one array. For the same
        reason no vjp writes into its input; the fused ones work in place
        only on arrays they allocated.
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
                key = id(parent)
                if key in local:
                    local[key] = local[key] + pg
                else:
                    local[key] = pg

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


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

    It is the one switch of graph recording: outside it every
    operation's output keeps its parents and vjp. Inside it outputs have
    no parents, so nothing of the forward pass is kept alive for a
    backward() that will not come. The values are the same as with the
    graph on.
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
    its parents and vjp unless no_grad() is active.
    """
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    out = _new_tensor(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED.get():
        out._parents = parents
        out._vjp = vjp
    else:
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
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

    def vjp(g):
        return (g * s,)

    return _make(data, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    Both operands must have rank >= 2 and agreeing inner dimensions. Each
    gradient is numpy's batched product, summed back over any leading
    axes the operand was broadcast along.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from exc

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, for x [..., k], w [k, n] and b [n].

    The leading axes of x fold into the rows of one 2-D product, and the
    bias is added to it in place.
    """
    wd, x_shape, w_shape = w.data, x.data.shape, w.data.shape
    if len(w_shape) != 2 or not x_shape or x_shape[-1] != w_shape[0] or b.data.shape != w_shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x_shape}, {w_shape} and {b.data.shape}")
    k, n = w_shape
    x2 = x.data.reshape(-1, k)
    y = x2 @ wd
    y += b.data

    def vjp(g):
        g2 = g.reshape(-1, n)
        return (g2 @ wd.T).reshape(x_shape), x2.T @ g2, g2.sum(axis=0)

    return _make(y.reshape(*x_shape[:-1], n), (x, w, b), vjp)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return _make(y, (a,), vjp)


_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh formulation.

    Forward and backward work in place on one or two temporaries, and the
    forward on one when no graph is recorded. Each
    step rounds as the textbook expression 0.5 x (1 + tanh(c0 (x + c1 x^3)))
    and its derivative do, so the values are the same.
    """
    x = a.data
    t = x * _GELU_C1
    t *= x
    t *= x
    t += x
    t *= _GELU_C0
    np.tanh(t, out=t)
    # With no backward to come, y takes t's buffer: inference holds one
    # temporary of x's size, not two.
    y = t + 1.0 if _GRAD_ENABLED.get() else np.add(t, 1.0, out=t)
    y *= x
    y *= 0.5

    def vjp(g):
        # g * (0.5 (1 + t) + 0.5 x (1 - t^2) c0 (1 + 3 c1 x^2))
        d = x * (3.0 * _GELU_C1)
        d *= x
        d += 1.0
        d *= _GELU_C0
        gx = t * t
        np.subtract(1.0, gx, out=gx)
        gx *= x
        gx *= 0.5
        gx *= d
        np.add(t, 1.0, out=d)
        d *= 0.5
        gx += d
        gx *= g
        return (gx,)

    return _make(y, (a,), vjp)


def _masked_softmax_rows(s: np.ndarray, keep: np.ndarray, op: str) -> np.ndarray:
    """Softmax of each last-axis row of s over its kept positions, in place.

    keep is a bool mask that broadcasts to s. Masked entries are set to
    -inf, so they come out exactly 0, and the row maximum is subtracted
    before exponentiating, so the exponentials stay in range. Raises
    DegenerateMaskError, before writing to s, when a row keeps nothing;
    a row of width 0 keeps nothing.
    """
    if keep.all():
        if s.shape[-1] == 0 and math.prod(s.shape[:-1]):
            raise DegenerateMaskError(f"{op}: a row has every position masked")
    elif keep.any(axis=-1).all():
        np.copyto(s, -np.inf, where=~keep)
    else:
        raise DegenerateMaskError(f"{op}: a row has every position masked")
    # fmax skips NaN where max returns it, but a NaN score still turns its
    # whole row NaN through the sum below, so the result is the same.
    s -= np.fmax.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def softmax_masked(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to unmasked positions.

    mask broadcasts to the scores' shape (ShapeError otherwise). Masked
    positions come out exactly 0; unmasked outputs are positive and sum
    to 1 per row. Raises DegenerateMaskError when a row has no unmasked
    position.
    """
    m = np.asarray(mask, dtype=bool)
    try:
        fits = np.broadcast(m, scores.data).shape == scores.shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"softmax_masked: mask {m.shape} does not broadcast to scores {scores.shape}")
    y = _masked_softmax_rows(scores.data.copy(), m, "softmax_masked")

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _make(y, (scores,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis: softmax_masked with no position masked."""
    return softmax_masked(a, np.ones(a.shape[-1], dtype=bool))


def attention(qkv: Tensor, mask: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention as one node.

    qkv [B, L, 3d] holds the query, key and value projections side by
    side, each split into n_heads heads of d / n_heads. mask [B, L] is
    true at real positions. As in softmax_masked, masked keys get exactly
    zero weight and a row with no real key raises DegenerateMaskError.
    Returns the context [B, L, d] with the heads merged back. The
    probabilities are normalized in place and kept only for the backward.
    """
    if qkv.ndim != 3 or qkv.shape[-1] % (3 * n_heads):
        raise ShapeError(f"attention: width of {qkv.shape} is not 3 x {n_heads} heads")
    b, l, width = qkv.shape
    dk = width // (3 * n_heads)
    m = np.asarray(mask, dtype=bool)
    if m.shape != (b, l):
        raise ShapeError(f"attention: mask {m.shape} does not match [batch, length] of {qkv.shape}")
    q, k, v = qkv.data.reshape(b, l, 3, n_heads, dk).transpose(2, 0, 3, 1, 4)  # each [B, H, L, dk]
    c = 1.0 / math.sqrt(dk)
    p = np.matmul(q, k.transpose(0, 1, 3, 2))
    p *= c
    _masked_softmax_rows(p, m[:, None, None, :], "attention")
    out = np.empty((b, l, n_heads, dk), dtype=qkv.dtype)
    np.matmul(p, v, out=out.transpose(0, 2, 1, 3))

    def vjp(g):
        g4 = g.reshape(b, l, n_heads, dk)
        gc = g4.transpose(0, 2, 1, 3)
        # Each query's sum over keys of dP * P equals its dO . O (FlashAttention's D).
        d = (g4 * out).sum(axis=-1).transpose(0, 2, 1)[..., None]
        ds = np.matmul(gc, v.transpose(0, 1, 3, 2))
        ds -= d
        ds *= p
        ds *= c
        gqkv = np.empty((b, l, 3, n_heads, dk), dtype=qkv.dtype)
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(ds, k, out=gq)
        np.matmul(ds.transpose(0, 1, 3, 2), q, out=gk)
        np.matmul(p.transpose(0, 1, 3, 2), gc, out=gv)
        return (gqkv.reshape(b, l, width),)

    return _make(out.reshape(b, l, width // 3), (qkv,), vjp)


def task_scores(h: Tensor, mask: np.ndarray, w_a: Tensor, w_alpha: Tensor) -> Tensor:
    """Task-attention scores for h [B, L, d] as one node, [B, L].

    Each position's score tanh(h . w_a) is zeroed at padding (mask [B, L]
    is true at real positions), and each row of those scores is mixed
    by w_alpha [L, L]. w_a is [d, 1]. The forward makes the numpy calls
    of the composed matmul, tanh, mul and reshape graph, so the values
    are the same; the backward builds the h gradient as a broadcast
    product, not as an inner-dimension-1 matrix product.
    """
    hd = h.data
    m = np.asarray(mask, dtype=bool)
    if hd.ndim != 3 or m.shape != hd.shape[:2]:
        raise ShapeError(f"task_scores: mask {m.shape} does not match [batch, length] of {hd.shape}")
    b, l, d = hd.shape
    wa, walpha = w_a.data, w_alpha.data
    if wa.shape != (d, 1) or walpha.shape != (l, l):
        raise ShapeError(f"task_scores: w_a {wa.shape} and w_alpha {walpha.shape} do not fit {hd.shape}")
    t = np.matmul(hd, wa).reshape(b, l)
    np.tanh(t, out=t)
    c = t * m

    def vjp(g):
        # through the mask and tanh: g w_alpha^T * m * (1 - t^2)
        gt = g @ walpha.T
        gt *= m
        gt *= 1.0 - t * t
        return gt[:, :, None] * wa[:, 0], hd.reshape(-1, d).T @ gt.reshape(-1, 1), c.T @ g

    return _make(c @ walpha, (h, w_a, w_alpha), vjp)


def weighted_sum(alpha: Tensor, h: Tensor) -> Tensor:
    """Sum of the rows of h [B, L, d] weighted by alpha [B, L], as one node, [B, d].

    The forward is the batched product alpha [B, 1, L] @ h; the backward
    builds the h gradient as a broadcast product, not as an
    inner-dimension-1 matrix product.
    """
    ad, hd = alpha.data, h.data
    if hd.ndim != 3 or ad.shape != hd.shape[:2]:
        raise ShapeError(f"weighted_sum: weights {ad.shape} do not match [batch, length] of {hd.shape}")
    b, l, d = hd.shape

    def vjp(g):
        return np.matmul(hd, g[:, :, None]).reshape(b, l), ad[:, :, None] * g[:, None, :]

    return _make(np.matmul(ad.reshape(b, 1, l), hd).reshape(b, d), (alpha, h), vjp)


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
        # one flat index and row block take ufunc.at's fast 1-D path; the
        # rows are added in the same order, so the sums are the same
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.ravel(), g.reshape(ids.size, *table.shape[1:]))
        return (gt,)

    return _make(data, (table,), vjp)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Add and norm: normalize x + residual over the last axis, then apply
    elementwise gain and bias.

    The sum is centred and scaled in place. Each mean is a sum divided by
    the count, which is what numpy's mean computes, without its
    Python-level wrapper. Both addends receive the same gradient.
    """
    if residual.shape != x.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} does not match {x.shape}")
    n = x.shape[-1]
    xhat = x.data + residual.data
    xhat -= xhat.sum(axis=-1, keepdims=True) / n
    y = xhat * xhat
    inv = 1.0 / np.sqrt(y.sum(axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        tmp = g * xhat
        g_gain = tmp.sum(axis=lead)
        g_bias = g.sum(axis=lead)
        # inv * (gt - mean(gt) - xhat * mean(gt * xhat)), with gt = g * gain
        gx = g * gain.data
        np.multiply(gx, xhat, out=tmp)
        proj = tmp.sum(axis=-1, keepdims=True) / n
        gx -= gx.sum(axis=-1, keepdims=True) / n
        np.multiply(xhat, proj, out=tmp)
        gx -= tmp
        gx *= inv
        return gx, gx, g_gain, g_bias

    return _make(y, (x, residual, gain, bias), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; the survivor mask comes from the caller's rng.

    At rate 0 it returns x itself and draws nothing, so rng may be None.

    Survivors are scaled by 1/(1-rate) in x's dtype after the mask is
    applied, which gives the same values as multiplying by the scaled
    mask keep / (1-rate), from the same draws.
    """
    if rate <= 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    c = x.dtype.type(1.0) / x.dtype.type(1.0 - rate)
    data = x.data * keep
    data *= c

    def vjp(g):
        gx = g * keep
        gx *= c
        return (gx,)

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
# configuration value checks
# ---------------------------------------------------------------------------


def is_integer(value) -> bool:
    """An integral number that is not a bool: 2 is, True and 2.0 are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_count(name: str, value) -> None:
    """A config count must be a positive integer; 2.0 and True are not."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive")


def require_seed(value) -> None:
    """A seed must be a nonnegative integer, as numpy's generators require."""
    if not is_integer(value) or value < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {value!r}")


def require_real(name: str, value) -> None:
    """A rate or weight must be a finite real number; True and nan are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite and real, got {value!r}")


# ---------------------------------------------------------------------------
# parameter initialization and optimization
# ---------------------------------------------------------------------------


def name_seeded_rng(global_seed: int, name: str) -> np.random.Generator:
    """Deterministic per-name generator, stable across platforms and runs."""
    digest = hashlib.sha256(f"{global_seed}:{name}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


INIT_SIGMA = 0.02


def trunc_normal(shape: Sequence[int], rng: np.random.Generator, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Normal(0, INIT_SIGMA) with entries redrawn until all lie within +-2 INIT_SIGMA."""
    out = rng.normal(0.0, INIT_SIGMA, size=tuple(shape))
    flat = out.reshape(-1)
    # Redraws go to the out-of-range entries in index order, as boolean
    # assignment would put them, and an entry in range stays in range, so
    # only the redrawn entries need checking again.
    bad = np.flatnonzero(np.abs(flat) > 2.0 * INIT_SIGMA)
    while bad.size:
        redraw = rng.normal(0.0, INIT_SIGMA, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * INIT_SIGMA]
    return out.astype(dtype)


def _bounds(specs: Sequence[ParamSpec]) -> list[int]:
    """Where each parameter starts in the flat array, then its total size, as exact ints."""
    return list(itertools.accumulate((math.prod(shape) for _, shape, _ in specs), initial=0))


def init_parameters(specs: Sequence[ParamSpec], global_seed: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Every parameter of (name, shape, kind) specs, back to back in one flat array.

    kind is one of: "normal" (one name-seeded truncated-normal draw of
    the full shape), "zeros" or "ones". parameter_views names the parts.
    A total numpy cannot allocate raises ValueError naming it and the
    largest parameter: the sizes are settings, and nothing was drawn yet.
    """
    bounds = _bounds(specs)
    try:
        values = np.empty(bounds[-1], dtype=dtype)
    except (ValueError, MemoryError) as exc:
        name, shape, _ = max(specs, key=lambda spec: math.prod(spec[1]))
        raise ValueError(
            f"cannot allocate {bounds[-1]:,} parameters, the largest {name!r} of shape {shape}: {exc}"
        ) from exc
    for (name, shape, kind), lo, hi in zip(specs, bounds, bounds[1:]):
        if kind == "normal":
            values[lo:hi] = trunc_normal(shape, name_seeded_rng(global_seed, name), dtype=dtype).ravel()
        elif kind == "zeros":
            values[lo:hi] = 0.0
        elif kind == "ones":
            values[lo:hi] = 1.0
        else:
            raise ValueError(f"unknown init kind {kind!r} for parameter {name!r}")
    return values


def parameter_views(values: np.ndarray, specs: Sequence[ParamSpec]) -> dict[str, Tensor]:
    """Named parameters viewing the flat float array values, back to back in specs order.

    Each shares values' memory: an in-place write to either shows in both.
    """
    bounds = _bounds(specs)
    if values.dtype not in (np.float32, np.float64) or values.shape != (bounds[-1],):
        raise ValueError(f"parameters need a ({bounds[-1]},) float array, got {values.dtype} {values.shape}")
    return {
        name: Tensor(values[lo:hi].reshape(shape))
        for (name, shape, _), lo, hi in zip(specs, bounds, bounds[1:])
    }


class NonFiniteGradientError(FloatingPointError):
    """The gradient holds inf or nan; the step changed nothing."""


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def halves(n: int) -> tuple[slice, slice]:
    """[0, n) as two ranges, the first the larger by one when n is odd."""
    mid = (n + 1) // 2
    return slice(0, mid), slice(mid, n)


Job = Callable[[], None]


def in_turn(job: Job) -> Job:
    """beside where no helper runs: the caller runs job when it waits for it."""
    return job


class Adam:
    """Bias-corrected Adam over one flat array of values and one of their gradients.

    The moment decay rates and the denominator's epsilon are the module
    constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON.

    values, grads and the moments m and v share one shape and dtype, so a
    step runs each elementwise operation once over every parameter and
    updates values in place.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, learning_rate: float):
        require_real("learning_rate", learning_rate)
        if learning_rate <= 0.0:
            raise ValueError("learning_rate must be finite and positive")
        if grads.dtype != values.dtype or grads.shape != values.shape:
            raise ValueError(
                f"Adam: grads {grads.dtype} {grads.shape} do not match values {values.dtype} {values.shape}"
            )
        self.values, self.grads = values, grads
        self.learning_rate = learning_rate
        self.m = np.zeros_like(values)
        self.v = np.zeros_like(values)
        self.step_count = 0

    def step(self, beside: Callable[[Job], Job] = in_turn) -> None:
        """Apply one update from grads, which it then overwrites as scratch.

        Raises NonFiniteGradientError, before any state changes, when the
        gradient holds inf or nan; the whole gradient is checked, and the
        step counted once, before any value is written. The update runs
        as the two ranges of halves(values.size): beside(job) starts the
        second range's job beside the caller, perhaps on another thread,
        and returns a function that waits for it and raises its error; the
        caller updates the first range meanwhile. The update is
        elementwise, so the values, m and v are the bytes of one update
        over the whole arrays.
        """
        if not np.isfinite(self.grads).all():
            raise NonFiniteGradientError("non-finite gradient")
        self.step_count += 1
        first, second = halves(self.values.size)
        wait = beside(lambda: self._update(second))
        self._update(first)
        wait()

    def _update(self, part: slice) -> None:
        """The update of values[part] at step step_count."""
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        values, g, m, v = self.values[part], self.grads[part], self.m[part], self.v[part]
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
        values -= update
