"""Decoder-only language model with action conditioning.

Two conditioning styles:

* adapter: per adapted layer l (the last L layers), an action embedding table
  and a projection produce r_p = W_A E_A(a_{p+1}), added elementwise to the
  attention context at every position just before the attention output
  projection. No gating. A forward of at least k positions without action
  noise projects the k-row table once, E_A W_A^T, and each position takes
  its action's row. The base LM stays frozen while adapters train, so what
  a forward computes before the first adapted layer's representation is
  added is computed once per training window (`BaseLM.prefix`, `train_lm`).
* insert: the vocabulary is extended by one token per action and each
  sentence's tokens are preceded by its action token; all parameters train.
  It has two regimes: the LM as an internal planner learning the oracle
  action tokens (`insert_internal_oracle`), and an external planner
  supplying them (`insert_external_predicted_pa`).

The action merged at position p is the action of the text unit containing the
token at position p+1, because the prediction at p scores that next token
(`TokenStream.target_sentence`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import evaluation
from . import nn
from .autodiff import Tensor
from .corpus import TokenStream
from .errors import ValidationError

# every regime by its key, which also names its checkpoint and report entry
REGIMES = ("none", "fixed", "oracle", "predicted_oa", "predicted_pa",
           "insert_internal_oracle", "insert_external_predicted_pa")

FIXED_ACTION_ID = 0


def _fields(key: str) -> tuple[str, str, str]:
    """The (actions, style, locus) of the regime named `key` in `REGIMES`."""
    if key.startswith("insert_"):
        _, locus, actions = key.split("_", 2)
        return actions, "insert", locus
    return key, "adapter", "external"


@dataclass(frozen=True)
class Regime:
    """Which actions the LM sees, and how they are presented: one of
    `REGIMES`, which `named` builds from its key. Adapter style takes every
    action source from an external planner. Insert style takes the oracle
    from an internal one, where the LM learns the action tokens as its own
    planner, and planned actions from an external one, in training and
    evaluation alike.
    """

    actions: str
    style: str = "adapter"
    locus: str = "external"

    def __post_init__(self):
        if (self.actions, self.style, self.locus) not in map(_fields, REGIMES):
            raise ValidationError(f"no regime is {self}; the regimes are "
                                  + ", ".join(REGIMES))

    @classmethod
    def named(cls, key: str) -> "Regime":
        """The regime `key` names; refuses a key outside `REGIMES`."""
        if key not in REGIMES:
            raise ValidationError(
                f"unknown regime {key!r}; choose from " + ", ".join(REGIMES))
        return cls(*_fields(key))

    @property
    def key(self) -> str:
        """The name of this regime's checkpoint, generations and report entry."""
        if self.style == "insert":
            return f"insert_{self.locus}_{self.actions}"
        return self.actions

    def action_source(self, training: bool) -> str:
        """Where per-sentence actions come from: "none", "fixed", "oracle" or
        "planner". `predicted_oa` trains on oracle actions and is evaluated
        on planned ones.
        """
        if self.actions == "predicted_oa":
            return "oracle" if training else "planner"
        if self.actions == "predicted_pa":
            return "planner"
        return self.actions

    @property
    def needs_planner(self) -> bool:
        """Whether evaluating this regime calls the planner."""
        return self.action_source(training=False) == "planner"


@dataclass(frozen=True)
class LmConfig:
    vocab_size: int
    d_model: int = 256
    n_layers: int = 4
    n_heads: int = 4
    context_window: int = 128


@dataclass(frozen=True)
class AdapterConfig:
    n_actions: int
    action_dim: int
    adapted_layers: int          # L: adapters live in the last L layers
    init: str = "centroids"      # "centroids" | "random"
    share_tables: bool = False


class BaseLM:
    def __init__(self, config: LmConfig, rng: np.random.Generator):
        self.config = config
        d = config.d_model
        self.tok_emb = nn.normal_param(rng, (config.vocab_size, d))
        self.pos_emb = nn.normal_param(rng, (config.context_window, d))
        self.blocks = [nn.Block(rng, d, config.n_heads)
                       for _ in range(config.n_layers)]
        self.ln_f = nn.LayerNorm(d)
        self.out = nn.Linear(rng, d, config.vocab_size)

    def params_dict(self) -> dict[str, Tensor]:
        out = {"lm.tok_emb": self.tok_emb, "lm.pos_emb": self.pos_emb}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"lm.layer{i}"))
        out.update(self.ln_f.params("lm.ln_f"))
        out.update(self.out.params("lm.out"))
        return out

    def forward(self, ids: np.ndarray, adapter: "ActionAdapter | None" = None,
                actions: np.ndarray | None = None,
                action_noise: np.ndarray | None = None,
                cache: nn.KVCache | None = None,
                prefix: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
        """(B, T) token ids -> (B, T, V) logits.

        With an adapter, `actions` holds the per-position conditioning action
        ids; `action_noise` optionally perturbs each position's action
        embedding (shared across adapted layers).

        `cache`, when given, is a B-row `nn.KVCache` that the call extends in
        place; the first call gives it context-window-wide buffers. Row r's
        `ids` and `actions` then hold the T positions after its
        `cache.lengths[r]` cached ones, and so do its logits. Without a
        cache, every row starts at position 0. A cache needs frozen
        parameters.

        A forward is `_front` (the embeddings and the blocks no adapter
        changes), then the adapted blocks and the head. `prefix`, when given,
        is `prefix(ids, adapter.layer_index(0))` computed earlier, and the
        call computes only what follows it.
        """
        ids = np.asarray(ids)
        b, t = ids.shape
        cfg = self.config
        past = np.zeros(1, dtype=np.int64)
        if cache is not None:
            if len(cache.lengths) != b:
                raise ValidationError(
                    f"a cache of {len(cache.lengths)} rows cannot extend {b}")
            if not cache.layers:
                shape = (b, cfg.n_heads, cfg.context_window,
                         cfg.d_model // cfg.n_heads)
                cache.layers = [[np.zeros(shape, self.tok_emb.values.dtype)
                                 for _ in range(2)] for _ in self.blocks]
            past = cache.lengths
        cached = int(past.max())
        if cached + t > cfg.context_window:
            raise ValidationError(
                f"sequence of {cached + t} positions ({cached} cached) "
                f"exceeds context window {cfg.context_window}")
        if prefix is not None and (adapter is None or cache is not None):
            raise ValidationError("a prefix resumes an adapter forward "
                                  "without a cache")
        bias = nn.causal_bias(t, past, dtype=self.tok_emb.values.dtype)
        first_adapted = adapter.layer_index(0) if adapter is not None \
            else cfg.n_layers
        if prefix is None:
            x, ctx = self._front(ids, first_adapted, past, bias, cache), None
        else:
            x, ctx = (Tensor(part) for part in prefix)
        for i in range(first_adapted, cfg.n_layers):
            extra = adapter.reps(i - first_adapted, actions, action_noise)
            x = self.blocks[i](
                x, extra_context=extra, bias=bias, past=past, ctx=ctx,
                cache=cache.layers[i] if cache is not None else None)
            ctx = None
        if cache is not None:
            cache.lengths = cache.lengths + t
        return self.out(self.ln_f(x))

    def _front(self, ids: np.ndarray, layers: int, past: np.ndarray,
               bias: Tensor, cache: nn.KVCache | None = None) -> Tensor:
        """The embeddings of `ids` after `past` cached positions, through the
        first `layers` blocks."""
        x = ad.embedding(self.tok_emb, ids) + ad.embedding(
            self.pos_emb, past[:, None] + np.arange(ids.shape[1]))
        for i, block in enumerate(self.blocks[:layers]):
            x = block(x, bias=bias, past=past,
                      cache=cache.layers[i] if cache is not None else None)
        return x

    def prefix(self, ids: np.ndarray, layer: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """What a forward of `ids` without a cache computes before block
        `layer` adds an adapter's representation to its attention context:
        the (B, T, d_model) residual stream entering that block and that
        context, as plain arrays. Neither depends on an adapter whose first
        layer is `layer`, so while the base is frozen they can be computed
        once and passed to `forward` as its `prefix`."""
        ids = np.asarray(ids)
        past = np.zeros(1, dtype=np.int64)
        bias = nn.causal_bias(ids.shape[1], past,
                              dtype=self.tok_emb.values.dtype)
        x = self._front(ids, layer, past, bias)
        block = self.blocks[layer]
        return x.values, block.attn.context(block.ln1(x), bias=bias).values


class ActionAdapter:
    """Per-layer action embedding tables and projections, no gating."""

    def __init__(self, config: AdapterConfig, lm_config: LmConfig,
                 rng: np.random.Generator, centroids: np.ndarray | None = None):
        if not 1 <= config.adapted_layers <= lm_config.n_layers:
            raise ValidationError(
                f"adapted_layers={config.adapted_layers} out of range for "
                f"{lm_config.n_layers} layers")
        if config.init not in ("centroids", "random"):
            raise ValidationError(f"unknown adapter init {config.init!r}")
        self.config = config
        self.lm_config = lm_config
        k, d, dm = config.n_actions, config.action_dim, lm_config.d_model

        def make_table() -> Tensor:
            if config.init == "centroids":
                if centroids is None:
                    raise ValidationError("centroid adapter init requires centroids")
                if centroids.shape != (k, d):
                    raise ValidationError(
                        f"centroids shape {centroids.shape} != ({k}, {d})")
                return Tensor(centroids.astype(np.float32).copy())
            return nn.normal_param(rng, (k, d))

        n_tables = 1 if config.share_tables else config.adapted_layers
        self.e_a = [make_table() for _ in range(n_tables)]
        self.w_a = [nn.normal_param(rng, (dm, d))
                    for _ in range(config.adapted_layers)]

    def table(self, slot: int) -> Tensor:
        return self.e_a[0] if self.config.share_tables else self.e_a[slot]

    def reps(self, slot: int, actions: np.ndarray,
             action_noise: np.ndarray | None = None) -> Tensor:
        """r = W_A (E_A(a) + noise) for one adapted layer, (B, T, d_model).

        A call of at least k positions without noise projects the k-row
        table once, E_A W_A^T (k, d_model), and each position takes its
        action's row: it multiplies k rows by W_A instead of B*T, and its
        backward scatters into k rows. A row holds the same dot products as
        the projection of the looked-up embedding. A call of fewer positions
        (a cached decode step) or with noise (the noise scan) looks each
        position's embedding up, adds the noise and projects it.
        """
        if actions is None:
            raise ValidationError("adapter forward requires per-position actions")
        w_t = self.w_a[slot].swapaxes(0, 1)
        actions = np.asarray(actions)
        table = self.table(slot)
        if action_noise is None and actions.size >= table.shape[0]:
            return ad.embedding(table @ w_t, actions)
        emb = ad.embedding(table, actions)
        if action_noise is not None:
            emb = emb + Tensor(action_noise.astype(np.float32, copy=False))
        return emb @ w_t

    def layer_index(self, slot: int) -> int:
        return self.lm_config.n_layers - self.config.adapted_layers + slot

    def params_dict(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.config.share_tables:
            out["lm.adapter.shared.e_a"] = self.e_a[0]
        for slot in range(self.config.adapted_layers):
            layer = self.layer_index(slot)
            if not self.config.share_tables:
                out[f"lm.layer{layer}.adapter.e_a"] = self.e_a[slot]
            out[f"lm.layer{layer}.adapter.w_a"] = self.w_a[slot]
        return out

    def embedding_std(self) -> float:
        """Empirical std across all action-embedding entries, all layers."""
        flat = np.concatenate([t.values.ravel() for t in self.e_a])
        return float(flat.std())


# -- scoring ----------------------------------------------------------------------


def logit_fn(base: BaseLM, adapter: ActionAdapter | None,
             prefixes: dict | None = None) -> evaluation.LogitFn:
    """`base` with `adapter` as the scorers call it: the logits of a forward
    of the rows' ids, actions, action noise and cache.

    With `prefixes`, a dict, each uncached call resumes from its id batch's
    `BaseLM.prefix`, computed on the first call and kept there; valid only
    while the base stays frozen.
    """
    def logits(ids, actions, noise, cache=None):
        prefix = None
        if prefixes is not None and cache is None:
            key = (ids.shape, ids.tobytes())
            if key not in prefixes:
                prefixes[key] = base.prefix(ids, adapter.layer_index(0))
            prefix = prefixes[key]
        return base.forward(ids, adapter=adapter, actions=actions,
                            action_noise=noise, cache=cache,
                            prefix=prefix).values
    return logits


# -- insert style ------------------------------------------------------------------


def insert_style_sequence(stream: TokenStream, actions: Sequence[int],
                          vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Interleave action tokens: each sentence's tokens are preceded by a_j + V.

    a_j + V goes just before sentence j's first text (non-<bos>) token, so a
    leading <bos> (sentence 0) stays at the very front, and a sentence with
    no text token gets no action token. Requires sentence indices that never
    decrease, as `tokenize` makes them. Returns the extended id sequence and
    a boolean mask marking the action-token positions.
    """
    from .corpus import BOS_ID

    ids = stream.token_ids
    text = np.flatnonzero(ids != BOS_ID)
    sentences, first = np.unique(stream.sentence_index_of_token[text],
                                 return_index=True)
    starts = text[first]
    action_ids = vocab_size + np.asarray(actions, dtype=np.int64)[sentences]
    return (np.insert(ids, starts, action_ids),
            np.insert(np.zeros(len(ids), dtype=bool), starts, True))


def extend_for_insert(base: BaseLM, n_actions: int,
                      rng: np.random.Generator) -> BaseLM:
    """A copy of `base` with one more token per action: new rows in both the
    embedding and the prediction layer, ids V..V+n_actions-1."""
    d = base.config.d_model
    new_emb = rng.normal(0, nn.INIT_STD, (n_actions, d)).astype(np.float32)
    new_out = rng.normal(0, nn.INIT_STD, (d, n_actions)).astype(np.float32)
    snap = nn.snapshot(base.params_dict())
    snap["lm.tok_emb"] = np.concatenate([snap["lm.tok_emb"], new_emb])
    snap["lm.out.w"] = np.concatenate([snap["lm.out.w"], new_out], axis=1)
    snap["lm.out.b"] = np.concatenate([snap["lm.out.b"],
                                       np.zeros(n_actions, np.float32)])
    extended = BaseLM(replace(base.config,
                              vocab_size=base.config.vocab_size + n_actions),
                      nn.UNDRAWN)
    nn.load_params(extended.params_dict(), snap)
    return extended


# -- training ---------------------------------------------------------------------


@dataclass
class WindowExample:
    inputs: np.ndarray
    targets: np.ndarray
    actions: np.ndarray | None
    mask: np.ndarray | None
    # `BaseLM.prefix` of `inputs`, while an adapter trains on a frozen base
    prefix: tuple[np.ndarray, np.ndarray] | None = None


def window_examples(ids: np.ndarray, window: int,
                    pp_actions: np.ndarray | None = None,
                    countable: np.ndarray | None = None) -> list[WindowExample]:
    """Non-overlapping training windows; targets shifted by one."""
    ids = np.asarray(ids)
    n = len(ids)
    out = []
    for s in range(0, max(n - 1, 0), window):
        chunk = ids[s:s + window + 1]
        if len(chunk) < 2:
            break
        inputs, targets = chunk[:-1], chunk[1:]
        acts = pp_actions[s:s + len(inputs)] if pp_actions is not None else None
        mask = None
        if countable is not None:
            mask = countable[s + 1:s + 1 + len(targets)].astype(np.float32)
            if mask.sum() == 0:
                continue
        out.append(WindowExample(inputs, targets, acts, mask))
    return out


def train_lm(base: BaseLM, items: Sequence[evaluation.ScoringItem],
             val_items: Sequence[evaluation.ScoringItem] = (),
             adapter: ActionAdapter | None = None, batch_size: int = 32,
             lr: float = 1e-4, max_epochs: int = 4, patience: int = 3,
             seed: int = 0) -> dict:
    """Next-token training on non-overlapping windows of the items' ids.

    With an adapter only the adapter trains and the base LM is unchanged
    bit-for-bit; without one every base parameter trains. An item's
    `actions` condition the adapter, and its `countable` masks the loss (an
    external insert planner's action tokens are inputs, never targets). With
    `val_items`, training early-stops on their perplexity (see `nn.fit`);
    without them it runs exactly `max_epochs` epochs.

    With an adapter, each window's `BaseLM.prefix` is computed once before
    training and every step resumes from it; the val metric keeps each row
    batch's prefix (`logit_fn`'s `prefixes`). Both stay until training
    ends, two float32 (T, d_model) arrays per window or row: 8 * d_model
    bytes per training token (2 KiB at d_model 256), and about twice that
    per val token, which the val rows' half-stride windows hold about twice.
    At the default config on a 2,000-article corpus (1,800 training
    articles, 128k window tokens) that is about 280 MB. Results equal
    those of full forwards bit for bit, except that a batch of one 1-token
    window takes one-row matrix products, which may round differently.
    """
    window = base.config.context_window
    examples = [ex for item in items
                for ex in window_examples(item.ids, window,
                                          pp_actions=item.actions,
                                          countable=item.countable)]
    trainable = base.params_dict() if adapter is None else adapter.params_dict()
    if adapter is not None:
        for batch in nn.length_batches(examples, lambda ex: len(ex.inputs),
                                       batch_size):
            x, ctx = base.prefix(np.stack([ex.inputs for ex in batch]),
                                 adapter.layer_index(0))
            for ex, x_row, ctx_row in zip(batch, x, ctx):
                ex.prefix = (x_row, ctx_row)

    def batch_loss(batch: list[WindowExample]) -> Tensor:
        ids = np.stack([ex.inputs for ex in batch])
        targets = np.stack([ex.targets for ex in batch])
        actions = np.stack([ex.actions for ex in batch]) \
            if batch[0].actions is not None else None
        mask = np.stack([ex.mask for ex in batch]) \
            if batch[0].mask is not None else None
        prefix = tuple(np.stack(part) for part in
                       zip(*(ex.prefix for ex in batch))) \
            if adapter is not None else None
        return ad.cross_entropy(
            base.forward(ids, adapter=adapter, actions=actions, prefix=prefix),
            targets, mask)

    val_logits = logit_fn(base, adapter, {} if adapter is not None else None)

    def val_perplexity() -> float:
        return evaluation.corpus_perplexity(val_logits, val_items, window)

    return nn.fit(trainable, examples, lambda ex: len(ex.inputs), batch_loss,
                  batch_size, lr, max_epochs, patience, seed,
                  val_metric=val_perplexity if val_items else None)


# -- persistence --------------------------------------------------------------------


def lm_meta(network: BaseLM, adapter: ActionAdapter | None = None,
            regime: Regime | None = None) -> dict:
    """Checkpoint metadata of an adapter LM (with an adapter), an insert LM
    (a regime and no adapter) or a base LM (neither). The regime is recorded
    for people reading the checkpoint; no loader reads it."""
    meta = {"kind": "base_lm", "lm_config": asdict(network.config)}
    if adapter is not None:
        meta |= {"kind": "adapter_lm", "adapter_config": asdict(adapter.config)}
    elif regime is not None:
        meta["kind"] = "insert_lm"
    if regime is not None:
        meta["regime"] = asdict(regime)
    return meta


def lm_from_checkpoint(sections: dict[str, np.ndarray], meta: dict,
                       ) -> tuple[BaseLM, ActionAdapter | None]:
    """(network, adapter) of a base, adapter or insert LM checkpoint.

    The adapter is None unless the checkpoint holds one. An insert LM's
    network has the extended vocabulary. Like every loader, it builds the
    models with `nn.UNDRAWN`, so no random init is drawn only to be
    overwritten.
    """
    kind = meta.get("kind")
    if kind not in ("base_lm", "adapter_lm", "insert_lm"):
        raise ValidationError(f"checkpoint of kind {kind!r} is not an LM")
    lm_config = LmConfig(**meta["lm_config"])
    base = BaseLM(lm_config, nn.UNDRAWN)
    params = base.params_dict()
    adapter = None
    if kind == "adapter_lm":
        # any saved action table stands in for the centroids it started from
        table = next((v for k, v in sections.items()
                      if k.endswith(".e_a")), None)
        adapter = ActionAdapter(AdapterConfig(**meta["adapter_config"]),
                                lm_config, nn.UNDRAWN, centroids=table)
        params.update(adapter.params_dict())
    nn.load_params(params, sections)
    return base, adapter
