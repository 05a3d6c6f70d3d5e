"""Minimal reverse-mode automatic differentiation on numpy buffers.

Tensors hold row-major float buffers (float32 by default; float64 inputs stay
float64, which keeps gradient checking meaningful). An operation records its
parents and a closure computing exact reverse-mode gradients only when one of
its inputs requires grad; otherwise its output is a plain value. Parameters
are created frozen (`nn.normal_param` and friends), so a forward pass builds
no graph unless `nn.fit` has made its parameters trainable. Serial execution
is fully deterministic, and a single graph must stay on one thread.

An op never writes into its inputs' `.values` or into the upstream gradient
`g` its backward receives. The elementwise kernels (`softmax`, `gelu`,
`layer_norm`, `cross_entropy`) and `Adam.step` instead chain `out=` and
in-place updates on buffers they allocated themselves, in the same operation
order as the plain expressions, so every value is bitwise the same; backward
leaves the buffers saved by forward intact, so it may run again.

A tensor's first gradient is a buffer it owns, and later ones are added into
it in place. So an op may hand a gradient over (`accumulate_grad(grad,
owned=True)`) only when its backward has just allocated it and keeps no other
reference to it: `matmul`'s products, `mul`'s and `scale`'s products, a
broadcast sum, and the `softmax`, `gelu`, `layer_norm`, `cross_entropy` and
`embedding` gradients. Anything else is copied: views (`reshape`,
`swapaxes`), read-only `broadcast_to` results (`reduce_sum`), a `g` passed
straight through (`add`), and a gradient of another dtype. Owning one of
those would make the next `+=` write into another node's gradient.

`matmul` of any input by a matrix (`(..., k) @ (k, n)`: a Linear layer, or a
2-D product such as the planner head) runs as one `(rows, k)` GEMM instead of
one per leading index, and its weight gradient sums all rows in one GEMM.
With a `bias` it is a whole Linear layer in one node: the bias is added in
place into the fresh GEMM output, and its gradient is summed from the same
`g`.

`softmax` may scale its input and add a constant mask to it (attention
scores) in its own output buffer, and its backward scales the gradient in
place, so the attention weights are one node. `gelu` runs in blocks of
`_BLOCK` elements, so that a block's temporaries stay in cache.
`embedding`'s backward adds each table row's gradients in the order their ids
occur, as `np.add.at` does, so the two are bitwise equal, in as few numpy
calls as rows or ranks (a row's k-th occurrence has rank k): with fewer rows
than ranks, one sequential reduce per row; otherwise the k-th occurrences of
all rows together, one add per rank.

`Adam` keeps one flat moment, gradient and scratch buffer per parameter
dtype, so a step is a fixed number of numpy calls over all parameters at
once, and one update per parameter.

Importing this module raises glibc's mmap and trim thresholds (`mallopt`), so
that multi-MB array buffers come from the heap and a freed one stays mapped
for the next training step. Left at their defaults, glibc returns each freed
temporary to the OS and the next step page-faults it in again, which cost
hundreds of thousands of minor faults per training pass. The price is that
RSS keeps its high-water mark. Where `mallopt` is absent (not glibc) this is
a no-op.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np

# When enabled, every op asserts its outputs are finite. Slow; meant for tests.
DEBUG_CHECKS = False

_FLOAT_DTYPES = (np.float32, np.float64)

# elements per block of `gelu`: large, since each block costs a round of
# numpy calls, and a power of two, so that every block but the last is a
# whole number of SIMD vectors
_BLOCK = 1 << 16

# `_scatter_rows` calls `np.add.at` for at most this many ids (measured on
# 2 CPUs with numpy 2.4.6)
_FEW_IDS = 64

# glibc mallopt parameters: mmap threshold at its 64-bit maximum, trim at 1 GiB
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_pin_heap()


class ShapeError(ValueError):
    pass


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if DEBUG_CHECKS and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_float_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def accumulate_grad(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add `grad` to this tensor's gradient. With `owned`, the caller
        hands over a buffer that nothing else references, and a first
        gradient of this tensor's dtype is kept instead of copied."""
        if self.grad is None:
            if owned and grad.dtype == self.values.dtype:
                self.grad = grad
            else:
                self.grad = grad.astype(self.values.dtype, copy=True)
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operators -----------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(other, -1.0))

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def softmax(self) -> "Tensor":
        return softmax(self)


def _node(values: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None], what: str) -> Tensor:
    """An op's output. `values` is a float array the op made, so `Tensor`'s
    conversion is skipped, and the graph is kept only when a parent requires
    grad."""
    if DEBUG_CHECKS:
        _check_finite(values, what)
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accumulate_sum(t: Tensor, g: np.ndarray) -> None:
    """Add `g`, summed down to `t`'s shape, to `t`'s gradient; a sum is a
    fresh buffer, `g` itself is not."""
    grad = _unbroadcast(g, t.shape)
    t.accumulate_grad(grad, owned=grad is not g)


# -- elementwise and structural ops -----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_sum(a, g)
        if b.requires_grad:
            _accumulate_sum(b, g)

    return _node(out, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.values, a.shape), owned=True)
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.values, b.shape), owned=True)

    return _node(out, (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    out = a.values * c

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * c, owned=True)

    return _node(out, (a,), backward, "scale")


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """`a @ b`, plus `bias` over the last axis when given (a Linear layer).
    A bias needs a matrix `b`; it is added into the product's own buffer,
    which keeps the product's dtype."""
    if a.ndim < 1 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        return _matmul_rows(a, b, bias)
    if bias is not None:
        raise ShapeError(f"matmul bias needs a matrix, got {b.shape}")
    out = np.matmul(a.values, b.values)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.values, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape), owned=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.values, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape), owned=True)

    return _node(out, (a, b), backward, "matmul")


def _matmul_rows(a: Tensor, b: Tensor, bias: Tensor | None) -> Tensor:
    """`(..., k) @ (k, n) + bias` as one `(rows, k) @ (k, n)` GEMM."""
    lead = a.shape[:-1]
    k, n = b.shape
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"matmul bias shape {bias.shape} != ({n},)")
    # not reshape(-1, k): that cannot infer rows when k == 0
    rows = math.prod(lead)
    a2 = a.values.reshape(rows, k)
    out = a2 @ b.values
    parents = (a, b)
    if bias is not None:
        out += bias.values
        parents = (a, b, bias)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(rows, n)
        if a.requires_grad:
            a.accumulate_grad((g2 @ b.values.T).reshape(a.shape), owned=True)
        if b.requires_grad:
            b.accumulate_grad(a2.T @ g2, owned=True)
        if bias is not None and bias.requires_grad:
            _accumulate_sum(bias, g)

    return _node(out.reshape(*lead, n), parents, backward, "matmul")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = a.values.reshape(shape)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _node(out, (a,), backward, "reshape")


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    out = np.swapaxes(a.values, ax1, ax2)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.swapaxes(g, ax1, ax2))

    return _node(out, (a,), backward, "swapaxes")


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.broadcast_to(g, a.shape))
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(g, a.shape))

    return _node(np.asarray(out), (a,), backward, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- nonlinearities ----------------------------------------------------------


def softmax(a: Tensor, scale: float | None = None,
            bias: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of `a * scale + bias`.

    `scale` is a Python float (a numpy float64 would promote float32 input
    to float64), and `bias` a constant that broadcasts to `a`'s shape, such
    as an attention mask; no gradient flows to it. Both are applied in the
    output's own buffer.
    """
    out = a.values * scale if scale is not None else a.values.copy()
    if bias is not None:
        out += bias
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            grad = g * out
            inner = grad.sum(axis=-1, keepdims=True)
            np.subtract(g, inner, out=grad)
            grad *= out
            if scale is not None:
                grad *= scale
            a.accumulate_grad(grad, owned=True)

    return _node(out, (a,), backward, "softmax")


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _blocks(*arrays: np.ndarray):
    """Matching slices of at most `_BLOCK` elements of equal-shape arrays, in
    row-major order; an array written through them must be C-contiguous."""
    flat = [x.reshape(-1) for x in arrays]
    for start in range(0, flat[0].size, _BLOCK):
        yield [x[start:start + _BLOCK] for x in flat]


def gelu(a: Tensor) -> Tensor:
    """GELU with the tanh approximation."""
    # 0.5 x (1 + tanh(c (x + a x^3))), evaluated in that order
    x = a.values
    t = np.empty(x.shape, x.dtype)
    out = np.empty(x.shape, x.dtype)
    scratch = np.empty(min(x.size, _BLOCK), x.dtype)
    for xb, tb, ob in _blocks(x, t, out):
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= _GELU_A
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.multiply(xb, 0.5, out=ob)
        ob *= np.add(tb, 1.0, out=scratch[:tb.size])

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2), times g
            grad = np.empty(x.shape, x.dtype)
            du = np.empty(min(x.size, _BLOCK), x.dtype)
            part = np.empty_like(du)
            for xb, tb, gb, rb in _blocks(x, t, g, grad):
                d, p = du[:xb.size], part[:xb.size]
                np.multiply(xb, xb, out=d)
                d *= 3.0 * _GELU_A
                d += 1.0
                d *= _GELU_C
                np.multiply(tb, tb, out=rb)
                np.subtract(1.0, rb, out=rb)
                np.multiply(xb, 0.5, out=p)
                p *= rb
                p *= d
                np.add(tb, 1.0, out=rb)
                rb *= 0.5
                rb += p
                rb *= gb
            a.accumulate_grad(grad, owned=True)

    return _node(out, (a,), backward, "gelu")


def _mean_last(x: np.ndarray) -> np.ndarray:
    """`x.mean(axis=-1, keepdims=True)` as `ndarray.mean` computes it (a sum,
    then a division by the count as an intp), without its Python wrapper."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total,
                          casting="unsafe")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain/bias."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError(
            f"layer_norm parameter shape {gain.shape}/{bias.shape} "
            f"does not match input {a.shape}")
    x = a.values
    xhat = x - _mean_last(x)
    var = _mean_last(xhat * xhat)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.values
    out += bias.values

    def backward(g: np.ndarray) -> None:
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).sum(axis=lead), owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=lead), owned=True)
        if a.requires_grad:
            # inv * (gx - mean(gx) - xhat * mean(gx * xhat))
            gx = g * gain.values
            m1 = _mean_last(gx)
            tmp = gx * xhat
            m2 = _mean_last(tmp)
            gx -= m1
            np.multiply(xhat, m2, out=tmp)
            gx -= tmp
            gx *= inv
            a.accumulate_grad(gx, owned=True)

    return _node(out, (a, gain, bias), backward, "layer_norm")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    out = table.values[ids]

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            table.accumulate_grad(_scatter_rows(table.values, ids, g),
                                  owned=True)

    return _node(out, (table,), backward, "embedding")


def _scatter_rows(table: np.ndarray, ids: np.ndarray,
                  g: np.ndarray) -> np.ndarray:
    """`np.add.at(np.zeros_like(table), ids, g)`, bit for bit.

    `np.add.at` adds each id's gradient to its row from zero, in id order,
    one id at a time, which is slow past a few dozen ids. Beyond `_FEW_IDS`
    ids are stable-sorted instead, so each row's occurrences keep their
    order, and one of two layouts adds them in min(rows, ranks) numpy calls,
    where rank k holds every row's k-th occurrence:
    - fewer rows than ranks (an adapter's k-row table, or one action id for
      every position): each row's segment is one `np.add.reduce` over axis
      0 from zero, which runs down each column in order, as `np.add.at`
      does. A row of width 1 would reduce pairwise, so it takes the other
      layout;
    - otherwise the rows, ranked by occurrence count, so that the rows with
      a k-th occurrence come first; their k-th gradients are laid out as one
      contiguous block, and each rank is one in-place add.
    """
    flat = ids.reshape(-1)
    grads = g.reshape(flat.shape + table.shape[1:])
    grad = np.zeros_like(table)
    if flat.size <= _FEW_IDS:
        np.add.at(grad, flat, grads)
        return grad
    order = np.argsort(flat, kind="stable")
    rows, first, counts = np.unique(flat[order], return_index=True,
                                    return_counts=True)
    depth = int(counts.max())
    if len(rows) < depth and math.prod(table.shape[1:]) > 1:
        ordered = grads[order]
        for row, s, n in zip(rows.tolist(), first.tolist(), counts.tolist()):
            np.add.reduce(ordered[s:s + n], axis=0, out=grad[row],
                          initial=0)
        return grad
    row_of = np.repeat(np.arange(len(rows)), counts)
    rank = np.arange(flat.size) - first[row_of]
    # slot[j]: where row j is in the ranking by descending count
    ranking = np.argsort(-counts, kind="stable")
    slot = np.empty_like(ranking)
    slot[ranking] = np.arange(len(rows))
    # width[k] rows have a k-th occurrence; their block begins at start[k]
    width = np.searchsorted(-counts[ranking], -np.arange(depth))
    start = np.cumsum(width) - width
    layout = np.empty_like(order)
    layout[start[rank] + slot[row_of]] = order
    laid = grads[layout]
    total = np.zeros((len(rows),) + table.shape[1:], table.dtype)
    for s, w in zip(start.tolist(), width.tolist()):
        total[:w] += laid[s:s + w]
    grad[rows[ranking]] = total
    return grad


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy of integer targets under row logits.

    `logits` may carry leading batch axes; the class axis is last. `mask`
    (same shape as `targets`, values 0/1) selects which positions count.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy targets shape {targets.shape} does not match "
            f"logits {logits.shape}")
    flat_logits = logits.values.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if mask is None:
        weights = np.ones(flat_targets.shape[0], dtype=flat_logits.dtype)
    else:
        weights = np.asarray(mask, dtype=flat_logits.dtype).reshape(-1)
    total = weights.sum()
    if total <= 0:
        raise ValueError("cross_entropy mask selects no positions")

    m = flat_logits.max(axis=-1, keepdims=True)
    e = flat_logits - m
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    logz = np.log(z) + m
    rows = np.arange(flat_targets.shape[0])
    nll = logz[:, 0] - flat_logits[rows, flat_targets]
    out = np.asarray((nll * weights).sum() / total, dtype=flat_logits.dtype)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            probs = e / z
            probs[rows, flat_targets] -= 1.0
            probs *= (weights / total)[:, None] * g
            logits.accumulate_grad(probs.reshape(logits.shape), owned=True)

    return _node(out, (logits,), backward, "cross_entropy")


# -- graph traversal ---------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate grads of every tracked tensor reachable from a scalar loss."""
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            if DEBUG_CHECKS:
                for parent in node._parents:
                    if parent.grad is not None:
                        _check_finite(parent.grad, "grad")


class Adam:
    """Adam with bias correction; grads are cleared after each step.

    The parameters of one dtype share flat moment, gradient and scratch
    buffers: a step gathers their gradients (zeros for a parameter without
    one), updates all moments with one numpy call per operation, and
    subtracts each parameter's slice of the step from it.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        by_dtype: dict[np.dtype, list[Tensor]] = {}
        for p in self.params:
            by_dtype.setdefault(p.dtype, []).append(p)
        # per dtype: its parameters, then flat m, v, grad, step and den
        self._groups = [
            (group,) + tuple(np.zeros(sum(p.size for p in group), dtype)
                             for _ in range(5))
            for dtype, group in by_dtype.items()]

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for group, m, v, g, step, den in self._groups:
            np.concatenate([p.grad.reshape(-1) if p.grad is not None
                            else np.zeros(p.size, g.dtype) for p in group],
                           out=g)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=step)
            v *= b2
            np.multiply(g, 1.0 - b2, out=step)
            step *= g
            v += step
            # lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=step)
            step *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            step /= den
            offset = 0
            for p in group:
                p.values -= step[offset:offset + p.size].reshape(p.shape)
                offset += p.size
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
