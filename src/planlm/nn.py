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
    values = rng.normal(0.0, std, size=shape)
    return Tensor(values.astype(np.float32, copy=False))


class _Undrawn:
    """Stands in for the `np.random.Generator` of a model that is built only
    to have its parameters loaded (`load_params`) right after: `normal`
    allocates a parameter without drawing its values."""

    def normal(self, loc: float, scale: float, size: tuple[int, ...]
               ) -> np.ndarray:
        return np.empty(size, dtype=np.float32)


# what the checkpoint loaders build their models with
UNDRAWN = _Undrawn()


def zeros_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32))


def ones_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32))


class Linear:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.w = normal_param(rng, (d_in, d_out))
        self.b = zeros_param((d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w, self.b)

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


def causal_bias(t: int, past: Sequence[int] | np.ndarray = (0,),
                dtype=np.float32) -> Tensor:
    """Additive bias masking attention to future positions.

    The (rows, 1, t, max(past) + t) bias of t queries after each row's
    `past[r]` cached keys (see `KVCache`): query i of row r sees the
    columns up to past[r] + i. A forward without a cache keeps the default,
    one row of no keys, which broadcasts over its batch.
    """
    past = np.asarray(past)
    cols = np.arange(past.max() + t)
    masked = cols > (past[:, None] + np.arange(t))[..., None]
    return Tensor(np.where(masked[:, None], MASK_BIAS, 0.0).astype(dtype))


class KVCache:
    """The keys and values of B rows' earlier positions, outside the graph.

    `layers` is empty until a forward or a `put` fills it; then `layers[l]`
    holds block l's (B, heads, context_window, d_head) key and value
    buffers. Row r's `lengths[r]` positions fill its first columns, and a
    forward writes its new positions right after them, in place. The
    columns past a row's length hold zeros or stale keys, which
    `causal_bias` masks. A row is (re)filled by extending a one-row cache
    and `put`ting it, or its first positions, in its place.
    """

    def __init__(self, rows: int):
        self.lengths = np.zeros(rows, dtype=np.int64)
        self.layers: list[list[np.ndarray]] = []

    def put(self, rows, part: "KVCache", length: int | None = None) -> None:
        """Replace the rows `rows` by the rows of `part`, which holds no
        layers when its rows hold no positions. With `length`, they take
        only the first `length` positions of `part`'s rows, and the columns
        after those keep what they held."""
        if part.layers and not self.layers:
            self.layers = [[np.zeros((len(self.lengths),) + a.shape[1:],
                                     dtype=a.dtype) for a in kv]
                           for kv in part.layers]
        cols = slice(None) if length is None else slice(length)
        for kv, part_kv in zip(self.layers, part.layers):
            for a, part_a in zip(kv, part_kv):
                a[rows, :, cols] = part_a[:, :, cols]
        self.lengths[rows] = part.lengths if length is None else length


class SelfAttention:
    """Multi-head scaled dot-product self-attention.

    `extra_context`, when given, is added to the concatenated head outputs
    just before the output projection (the action-adapter insertion point).

    `cache`, when given, is this layer's list of a `KVCache`'s key and
    value buffers, and `past` its rows' lengths. Row r of `x` then holds
    the t positions after its `past[r]` cached ones: their keys and values
    are written in place at columns past[r] to past[r] + t - 1 of row r,
    and the queries attend over the first max(past) + t columns. A cache
    holds plain arrays outside the graph, so it refuses keys that require
    grad. `bias`, when given, is added to the attention scores: the
    forward's `causal_bias`, built once for all layers. Without one, every
    position attends to every other.

    Each projection is one `matmul` node with its bias, and the scores are
    scaled by 1/sqrt(d_head) and masked inside the one `softmax` node, so a
    training step keeps no separate scaled or masked score buffers.

    `ctx`, when given, is `context` of this layer's input computed earlier;
    the call then only adds `extra_context` and projects, and ignores `x`.
    """

    def __init__(self, rng: np.random.Generator, d: int, n_heads: int):
        if n_heads < 1 or d % n_heads != 0:
            raise ValidationError(
                f"model dim {d} not divisible by {n_heads} heads")
        self.d = d
        self.n_heads = n_heads
        self.d_head = d // n_heads
        self.wq = Linear(rng, d, d)
        self.wk = Linear(rng, d, d)
        self.wv = Linear(rng, d, d)
        self.wo = Linear(rng, d, d)

    def __call__(self, x: Tensor | None, extra_context: Tensor | None = None,
                 cache: list | None = None, bias: Tensor | None = None,
                 past: np.ndarray | None = None,
                 ctx: Tensor | None = None) -> Tensor:
        if ctx is None:
            ctx = self.context(x, cache=cache, bias=bias, past=past)
        if extra_context is not None:
            ctx = ctx + extra_context
        return self.wo(ctx)

    def context(self, x: Tensor, cache: list | None = None,
                bias: Tensor | None = None,
                past: np.ndarray | None = None) -> Tensor:
        """The heads' outputs, concatenated, (B, T, d): what `extra_context`
        is added to before the output projection."""
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
            cols = past[:, None] + np.arange(t)
            for buffer, new in zip(cache, (k, v)):
                buffer[np.arange(b)[:, None], :, cols] = \
                    new.values.swapaxes(1, 2)
            k, v = (Tensor(buffer[:, :, :cols.max() + 1]) for buffer in cache)
        weights = ad.softmax(q @ k.swapaxes(-1, -2),
                             scale=float(1.0 / np.sqrt(dh)),
                             bias=None if bias is None else bias.values)
        return (weights @ v).swapaxes(1, 2).reshape(b, t, d)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, lin in (("wq", self.wq), ("wk", self.wk),
                          ("wv", self.wv), ("wo", self.wo)):
            out.update(lin.params(f"{prefix}.{name}"))
        return out


class Block:
    """Pre-norm transformer block: attention then a GELU feed-forward.

    `ctx`, when given, is the attention context of `x` computed earlier
    (`SelfAttention.context` of `ln1(x)`), and the block resumes from it.
    """

    def __init__(self, rng: np.random.Generator, d: int, n_heads: int):
        self.ln1 = LayerNorm(d)
        self.attn = SelfAttention(rng, d, n_heads)
        self.ln2 = LayerNorm(d)
        self.ff1 = Linear(rng, d, 4 * d)
        self.ff2 = Linear(rng, 4 * d, d)

    def __call__(self, x: Tensor, extra_context: Tensor | None = None,
                 cache: list | None = None, bias: Tensor | None = None,
                 past: np.ndarray | None = None,
                 ctx: Tensor | None = None) -> Tensor:
        normed = self.ln1(x) if ctx is None else None
        x = x + self.attn(normed, extra_context=extra_context, cache=cache,
                          bias=bias, past=past, ctx=ctx)
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


def load_params(params: dict[str, Tensor], sections: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays, or a `snapshot`, into an assembled parameter
    dict, by name."""
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
        load_params(trainable, best_snap)
        history["best_val_metric"] = float(best)
    return history
