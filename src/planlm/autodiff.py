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

`matmul` of any input by a matrix (`(..., k) @ (k, n)`: a Linear layer, or a
2-D product such as the planner head) runs as one `(rows, k)` GEMM instead of
one per leading index, and its weight gradient sums all rows in one GEMM.

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

    def accumulate_grad(self, grad: np.ndarray) -> None:
        if self.grad is None:
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
    _check_finite(values, what)
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
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


# -- elementwise and structural ops -----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _node(out, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.values, b.shape))

    return _node(out, (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    out = a.values * c

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _node(out, (a,), backward, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 1 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        return _matmul_rows(a, b)
    out = np.matmul(a.values, b.values)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.values, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.values, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return _node(out, (a, b), backward, "matmul")


def _matmul_rows(a: Tensor, b: Tensor) -> Tensor:
    """`(..., k) @ (k, n)` as one `(rows, k) @ (k, n)` GEMM."""
    lead = a.shape[:-1]
    k, n = b.shape
    # not reshape(-1, k): that cannot infer rows when k == 0
    rows = math.prod(lead)
    a2 = a.values.reshape(rows, k)
    out = (a2 @ b.values).reshape(*lead, n)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(rows, n)
        if a.requires_grad:
            a.accumulate_grad((g2 @ b.values.T).reshape(a.shape))
        if b.requires_grad:
            b.accumulate_grad(a2.T @ g2)

    return _node(out, (a, b), backward, "matmul")


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


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out = a.values - a.values.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            grad = g * out
            inner = grad.sum(axis=-1, keepdims=True)
            np.subtract(g, inner, out=grad)
            grad *= out
            a.accumulate_grad(grad)

    return _node(out, (a,), backward, "softmax")


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """GELU with the tanh approximation."""
    # 0.5 x (1 + tanh(c (x + a x^3))), evaluated in that order
    x = a.values
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2), times g
            du = x * x
            du *= 3.0 * _GELU_A
            du += 1.0
            du *= _GELU_C
            grad = t * t
            np.subtract(1.0, grad, out=grad)
            part = x * 0.5
            part *= grad
            part *= du
            np.add(t, 1.0, out=grad)
            grad *= 0.5
            grad += part
            grad *= g
            a.accumulate_grad(grad)

    return _node(out, (a,), backward, "gelu")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain/bias."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError(
            f"layer_norm parameter shape {gain.shape}/{bias.shape} "
            f"does not match input {a.shape}")
    x = a.values
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.values
    out += bias.values

    def backward(g: np.ndarray) -> None:
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).sum(axis=lead))
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=lead))
        if a.requires_grad:
            # inv * (gx - mean(gx) - xhat * mean(gx * xhat))
            gx = g * gain.values
            m1 = gx.mean(axis=-1, keepdims=True)
            tmp = gx * xhat
            m2 = tmp.mean(axis=-1, keepdims=True)
            gx -= m1
            np.multiply(xhat, m2, out=tmp)
            gx -= tmp
            gx *= inv
            a.accumulate_grad(gx)

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
            grad = np.zeros_like(table.values)
            np.add.at(grad, ids, g)
            table.accumulate_grad(grad)

    return _node(out, (table,), backward, "embedding")


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
            logits.accumulate_grad(probs.reshape(logits.shape))

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
    """Adam with bias correction; grads are cleared after each step."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]
        sizes: dict[np.dtype, int] = {}
        for p in self.params:
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), p.size)
        self._scratch = {dtype: (np.empty(n, dtype), np.empty(n, dtype))
                         for dtype, n in sizes.items()}

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.values)
            # views of two scratch buffers shared by all parameters
            step, den = (w[:p.size].reshape(p.shape)
                         for w in self._scratch[p.dtype])
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
            p.values -= step
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
