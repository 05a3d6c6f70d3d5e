"""Transformer building blocks shared by the planner and the language model.

Pre-layer-norm blocks, learned position embeddings, Gaussian(0, 0.02) init
for projections and embeddings, zeros for biases.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ValidationError

INIT_STD = 0.02
MASK_BIAS = -1e9
# a validation score must fall by more than this to count as an improvement
IMPROVEMENT_TOL = 1e-9

Item = TypeVar("Item")


def normal_param(rng: np.random.Generator, shape: tuple[int, ...],
                 std: float = INIT_STD) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape).astype(np.float32))


def zeros_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32))


def ones_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32))


class Linear:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.w = normal_param(rng, (d_in, d_out))
        self.b = zeros_param((d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return (x @ self.w) + self.b

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNorm:
    def __init__(self, d: int, eps: float = 1e-5):
        self.gain = ones_param((d,))
        self.bias = zeros_param((d,))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias, eps=self.eps)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


def causal_bias(t: int, past: int | np.ndarray = 0,
                dtype=np.float32) -> Tensor:
    """Additive bias masking attention to future positions.

    With an int `past`, a (t, past + t) bias: query i sits at position
    past + i, after `past` cached keys. With one `past` per row, the rows'
    cached keys are right-aligned in P = max(past) columns (see `KVCache`),
    and the (B, 1, t, P + t) bias also masks the P - past[r] columns of row
    r's left padding.
    """
    if np.ndim(past) == 0:
        return Tensor(np.triu(np.full((t, past + t), MASK_BIAS, dtype=dtype),
                              k=past + 1))
    past = np.asarray(past)
    p = int(past.max())
    cols = np.arange(p + t)
    masked = ((cols > p + np.arange(t)[:, None])
              | (cols < (p - past)[:, None, None]))
    return Tensor(np.where(masked[:, None], MASK_BIAS, 0.0).astype(dtype))


def _right_aligned(a: np.ndarray, width: int) -> np.ndarray:
    """A copy of `a`'s last `width` key columns, zero-padded on the left."""
    out = np.zeros(a.shape[:2] + (width,) + a.shape[3:], dtype=a.dtype)
    n = min(width, a.shape[2])
    out[:, :, width - n:] = a[:, :, a.shape[2] - n:]
    return out


class KVCache:
    """The keys and values of B rows' earlier positions, outside the graph.

    `layers[l]` is block l's list: empty, or its (B, heads, P, d_head) key
    and value arrays. Rows are right-aligned: row r's `lengths[r]` positions
    fill its last columns, and P = max(lengths), so no column is kept that
    every row masks. The columns left of a row's positions are zeros, which
    `causal_bias` masks.
    """

    def __init__(self, rows: int):
        self.lengths = np.zeros(rows, dtype=np.int64)
        self.layers: list[list[np.ndarray]] = []

    def take(self, rows: np.ndarray) -> "KVCache":
        """A copy of the rows `rows` alone."""
        part = KVCache(len(rows))
        part.lengths = self.lengths[rows]
        lo = int(self.lengths.max() - part.lengths.max())
        part.layers = [[a[rows, :, lo:] for a in kv] for kv in self.layers]
        return part

    def put(self, rows, part: "KVCache") -> None:
        """Replace the rows `rows` by the rows of `part`."""
        lengths = self.lengths.copy()
        lengths[rows] = part.lengths
        width = int(lengths.max())
        if not self.layers:
            self.layers = [[np.zeros((len(lengths),) + a.shape[1:2] + (0,)
                                     + a.shape[3:], dtype=a.dtype) for a in kv]
                           for kv in part.layers]
        for kv, new in zip(self.layers, part.layers):
            for j, a in enumerate(new):
                kv[j] = _right_aligned(kv[j], width)
                kv[j][rows] = _right_aligned(a, width)
        self.lengths = lengths


class SelfAttention:
    """Multi-head scaled dot-product self-attention.

    `extra_context`, when given, is added to the concatenated head outputs
    just before the output projection (the action-adapter insertion point).

    `cache`, when given, is this layer's list of a `KVCache`. `x` then
    holds the positions after the cached ones, and the list is extended in
    place by their keys and values. A cache holds plain arrays outside the
    graph, so it refuses keys that require grad. `bias`, when given, is the
    forward's `causal_bias`, built once for all layers; a causal attention
    without one masks the future of `x` alone.
    """

    def __init__(self, rng: np.random.Generator, d: int, n_heads: int,
                 causal: bool):
        if d % n_heads != 0:
            raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
        self.d = d
        self.n_heads = n_heads
        self.d_head = d // n_heads
        self.causal = causal
        self.wq = Linear(rng, d, d)
        self.wk = Linear(rng, d, d)
        self.wv = Linear(rng, d, d)
        self.wo = Linear(rng, d, d)

    def __call__(self, x: Tensor, extra_context: Tensor | None = None,
                 cache: list | None = None,
                 bias: Tensor | None = None) -> Tensor:
        b, t, d = x.shape
        h, dh = self.n_heads, self.d_head

        def heads(lin: Linear) -> Tensor:
            return lin(x).reshape(b, t, h, dh).swapaxes(1, 2)

        q, k, v = heads(self.wq), heads(self.wk), heads(self.wv)
        if cache is not None:
            if k.requires_grad or v.requires_grad:
                raise ValidationError(
                    "a K/V cache holds no graph: cached forwards need frozen "
                    "parameters")
            if cache:
                k = Tensor(np.concatenate([cache[0], k.values], axis=2))
                v = Tensor(np.concatenate([cache[1], v.values], axis=2))
            cache[:] = [k.values, v.values]
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
        if self.causal:
            scores = scores + (causal_bias(t, dtype=x.dtype) if bias is None
                               else bias)
        ctx = scores.softmax() @ v
        ctx = ctx.swapaxes(1, 2).reshape(b, t, d)
        if extra_context is not None:
            ctx = ctx + extra_context
        return self.wo(ctx)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, lin in (("wq", self.wq), ("wk", self.wk),
                          ("wv", self.wv), ("wo", self.wo)):
            out.update(lin.params(f"{prefix}.{name}"))
        return out


class Block:
    """Pre-norm transformer block: attention then a GELU feed-forward."""

    def __init__(self, rng: np.random.Generator, d: int, n_heads: int,
                 causal: bool):
        self.ln1 = LayerNorm(d)
        self.attn = SelfAttention(rng, d, n_heads, causal)
        self.ln2 = LayerNorm(d)
        self.ff1 = Linear(rng, d, 4 * d)
        self.ff2 = Linear(rng, 4 * d, d)

    def __call__(self, x: Tensor, extra_context: Tensor | None = None,
                 cache: list | None = None,
                 bias: Tensor | None = None) -> Tensor:
        x = x + self.attn(self.ln1(x), extra_context=extra_context,
                          cache=cache, bias=bias)
        return x + self.ff2(ad.gelu(self.ff1(self.ln2(x))))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.ln1.params(f"{prefix}.ln1"))
        out.update(self.attn.params(f"{prefix}.attn"))
        out.update(self.ln2.params(f"{prefix}.ln2"))
        out.update(self.ff1.params(f"{prefix}.ff1"))
        out.update(self.ff2.params(f"{prefix}.ff2"))
        return out


def set_trainable(params: dict[str, Tensor], trainable: bool) -> None:
    for p in params.values():
        p.requires_grad = trainable
        if not trainable:
            p.grad = None


def snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Copies of the parameter values, by name."""
    return {name: p.values.copy() for name, p in params.items()}


def restore(params: dict[str, Tensor], snap: dict[str, np.ndarray]) -> None:
    """Put back the values of a `snapshot` of the same parameters."""
    for name, p in params.items():
        p.values = snap[name].copy()


def load_params(params: dict[str, Tensor], sections: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into an assembled parameter dict, by name."""
    missing = sorted(set(params) - set(sections))
    if missing:
        raise KeyError(f"checkpoint is missing sections: {missing}")
    for name, tensor in params.items():
        arr = sections[name]
        if arr.shape != tensor.shape:
            raise ad.ShapeError(
                f"section {name} shape {arr.shape} != expected {tensor.shape}")
        tensor.values = arr.astype(np.float32, copy=True)


def length_batches(items: Sequence[Item], length: Callable[[Item], int],
                   batch_size: int, rng: np.random.Generator | None = None,
                   ) -> list[list[Item]]:
    """Batches of at most `batch_size` items that share one `length(item)`.

    Without an rng, items keep their order and batches come in ascending
    length. With one, each length group is permuted before it is cut, and then
    the batches are permuted.
    """
    groups: dict[int, list[Item]] = {}
    for item in items:
        groups.setdefault(length(item), []).append(item)
    batches = []
    for _, group in sorted(groups.items()):
        if rng is not None:
            group = [group[i] for i in rng.permutation(len(group))]
        batches.extend(group[i:i + batch_size]
                       for i in range(0, len(group), batch_size))
    if rng is not None:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


def fit(trainable: dict[str, Tensor], items: Sequence[Item],
        length: Callable[[Item], int],
        batch_loss: Callable[[list[Item]], Tensor], batch_size: int, lr: float,
        max_epochs: int, patience: int, seed: int,
        val_metric: Callable[[], float] | None = None) -> dict:
    """Adam on the `trainable` parameters over shuffled equal-length batches.

    Epoch e shuffles with `default_rng((seed, e))`, and `batch_loss` gives a
    batch's mean loss. `history["train_loss"]` holds each epoch's mean over
    items. `fit` alone makes parameters trainable: the `trainable` dict
    requires grad only while an epoch's batches step it, and is frozen again
    before every `val_metric` call and on return, also when a step raises.
    So no graph is built outside the training steps.

    With `val_metric` (lower is better), the starting parameters are scored
    first and that score is the first best; then it is scored after every
    epoch (`history["val_metric"]`). Training stops after `patience` epochs
    without an improvement of more than `IMPROVEMENT_TOL`, and the best
    parameters, which may be the starting ones, are restored and their score
    kept as `history["best_val_metric"]`. Without it, training runs exactly
    `max_epochs` epochs and keeps the last parameters. A non-finite batch
    loss raises a `ValidationError` before it reaches the parameters.
    """
    opt = ad.Adam(list(trainable.values()), lr=lr)
    history: dict = {"train_loss": [], "val_metric": []}
    if val_metric is not None:
        best = val_metric()
        best_snap = snapshot(trainable)
    since_best = 0
    for epoch in range(max_epochs):
        rng = np.random.default_rng((seed, epoch))
        total = np.float64(0.0)
        count = 0
        set_trainable(trainable, True)
        try:
            for step, batch in enumerate(
                    length_batches(items, length, batch_size, rng)):
                loss = batch_loss(batch)
                value = loss.item()
                if not np.isfinite(value):
                    raise ValidationError(
                        f"training loss is {value} at epoch {epoch}, "
                        f"step {step}")
                ad.backward(loss)
                # free this step's graph before the next one is built
                del loss
                opt.step()
                total += np.float64(value) * len(batch)
                count += len(batch)
        finally:
            set_trainable(trainable, False)
        history["train_loss"].append(float(total / max(count, 1)))
        if val_metric is None:
            continue
        score = val_metric()
        history["val_metric"].append(score)
        if score < best - IMPROVEMENT_TOL:
            best = score
            best_snap = snapshot(trainable)
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    if val_metric is not None:
        restore(trainable, best_snap)
        history["best_val_metric"] = float(best)
    return history
