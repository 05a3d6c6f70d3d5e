"""External planner: predict the next writing action from prior sentences.

Each context sentence embedding gets an absolute position embedding added, a
small Transformer encoder (full self-attention, no causal mask) contextualizes
the set, the outputs are mean-pooled, and a linear head scores the K actions.
The head matrix is initialized with the action centroids so that action
geometry is available from step zero.

Training, evaluation, teacher-forced actions and decoding re-plans all ask
`next_action_logits`, under one context rule: a context keeps only its last
`context_limit` sentences, and an empty one is a single learned "begin"
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ValidationError

# one training/eval example: per-article (sentence embeddings, action ids)
ArticlePlan = tuple[np.ndarray, np.ndarray]

ARCHS = ("transformer", "mlp")     # "mlp": a single pooled vector
HEAD_INITS = ("centroids", "random")


@dataclass(frozen=True)
class PlannerConfig:
    dim: int
    n_actions: int
    n_layers: int = 2
    n_heads: int = 4
    context_limit: int = 64          # most recent sentences kept
    arch: str = "transformer"        # one of ARCHS
    head_init: str = "centroids"     # one of HEAD_INITS

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValidationError(f"unknown planner arch {self.arch!r}")
        if self.head_init not in HEAD_INITS:
            raise ValidationError(f"unknown head init {self.head_init!r}")
        if self.context_limit < 1:
            raise ValidationError("context_limit must be >= 1")


@dataclass
class PlannerMetrics:
    accuracy: float
    average_rank: float


class PlannerModel:
    def __init__(self, config: PlannerConfig, rng: np.random.Generator,
                 centroids: np.ndarray | None = None):
        d, k = config.dim, config.n_actions
        self.config = config
        self.pos = nn.normal_param(rng, (config.context_limit, d))
        self.begin = nn.normal_param(rng, (d,))
        if config.arch == "transformer":
            self.blocks = [nn.Block(rng, d, config.n_heads)
                           for _ in range(config.n_layers)]
            self.ln_f = nn.LayerNorm(d)
            self.mlp1 = self.mlp2 = None
        else:
            self.blocks = []
            self.ln_f = None
            self.mlp1 = nn.Linear(rng, d, 4 * d)
            self.mlp2 = nn.Linear(rng, 4 * d, d)
        if config.head_init == "centroids":
            if centroids is None:
                raise ValidationError("centroid head init requires centroids")
            if centroids.shape != (k, d):
                raise ValidationError(
                    f"centroids shape {centroids.shape} != ({k}, {d})")
            self.w_o = Tensor(centroids.astype(np.float32).copy())
        else:
            self.w_o = nn.normal_param(rng, (k, d))
        self.b = nn.zeros_param((k,))

    # -- parameters ------------------------------------------------------------

    def params_dict(self) -> dict[str, Tensor]:
        out = {"planner.pos": self.pos, "planner.begin": self.begin,
               "planner.w_o": self.w_o, "planner.b": self.b}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"planner.layer{i}"))
        if self.ln_f is not None:
            out.update(self.ln_f.params("planner.ln_f"))
        if self.mlp1 is not None:
            out.update(self.mlp1.params("planner.mlp1"))
            out.update(self.mlp2.params("planner.mlp2"))
        return out

    # -- forward -----------------------------------------------------------------

    def logits_batch(self, contexts: np.ndarray | None, batch: int) -> Tensor:
        """(B, K) scores of (B, L, d) contexts, or of the begin embedding."""
        d = self.config.dim
        if contexts is None:
            zero = Tensor(np.zeros((batch, 1, d), dtype=np.float32))
            x = zero + self.begin.reshape(1, 1, d)
        else:
            x = Tensor(contexts.astype(np.float32, copy=False))
        length = x.shape[1]
        if length > self.config.context_limit:
            raise ValidationError(
                f"context of {length} exceeds limit {self.config.context_limit}")
        if self.config.arch == "transformer":
            pos = ad.embedding(self.pos, np.arange(length))
            x = x + pos
            for block in self.blocks:
                x = block(x)
            pooled = self.ln_f(x).mean(axis=1)
        else:
            pooled = x.mean(axis=1)
            pooled = self.mlp2(ad.gelu(self.mlp1(pooled)))
        return ad.matmul(pooled, self.w_o.swapaxes(0, 1), self.b)

    def next_action_logits(self, contexts: Sequence) -> Tensor:
        """(B, K) scores of the action after each of B contexts, sequences of
        sentence embeddings: each keeps its last `context_limit`, as many for
        every context, and an empty one scores the begin embedding."""
        kept = [c[-self.config.context_limit:] for c in contexts]
        return self.logits_batch(np.stack(kept) if len(kept[0]) else None,
                                 len(kept))

    def predict_next_action(self, context: Sequence[np.ndarray]) -> int:
        return int(self.next_action_logits([context]).values[0].argmax())


def predict_actions_for_article(model: PlannerModel,
                                embeddings: np.ndarray) -> list[int]:
    """Greedy next-action predictions, teacher-forcing the real sentences."""
    return [model.predict_next_action(embeddings[:i])
            for i in range(embeddings.shape[0])]


# -- training ----------------------------------------------------------------------


# one next-action example: (article embeddings, article actions, position)
Example = tuple[np.ndarray, np.ndarray, int]


def _examples(articles: Sequence[ArticlePlan]) -> list[Example]:
    """Every position of every article, in order."""
    out = []
    for embeddings, actions in articles:
        if embeddings.shape[0] != len(actions):
            raise ValidationError("embeddings/actions length mismatch")
        out.extend((embeddings, actions, i) for i in range(len(actions)))
    return out


def _logits_targets(model: PlannerModel, batch: list[Example],
                    ) -> tuple[Tensor, np.ndarray]:
    """Action scores and targets of examples with equal context length."""
    targets = np.array([actions[i] for _, actions, i in batch], dtype=np.int64)
    return model.next_action_logits([emb[:i] for emb, _, i in batch]), targets


def _scored_batches(model: PlannerModel, articles: Sequence[ArticlePlan],
                    batch_size: int):
    """(logits, targets) of every example, in unshuffled batches."""
    limit = model.config.context_limit
    for batch in nn.length_batches(_examples(articles),
                                   lambda ex: min(ex[2], limit), batch_size):
        yield _logits_targets(model, batch)


def _dataset_cross_entropy(model: PlannerModel, articles: Sequence[ArticlePlan],
                           batch_size: int) -> float:
    total = np.float64(0.0)
    count = 0
    for logits, targets in _scored_batches(model, articles, batch_size):
        total += np.float64(ad.cross_entropy(logits, targets).item()) \
            * len(targets)
        count += len(targets)
    return float(total / count)


def train_planner(model: PlannerModel, train: Sequence[ArticlePlan],
                  val: Sequence[ArticlePlan], batch_size: int = 32,
                  lr: float = 1e-4, max_epochs: int = 20, patience: int = 3,
                  seed: int = 0) -> dict:
    """Cross-entropy training of next-action prediction (see `nn.fit`).

    With `val` articles, their cross-entropy is the validation metric: training
    stops after `patience` epochs without improvement and the best parameters
    are restored. Without them, training runs exactly `max_epochs` epochs.
    """
    def batch_loss(batch: list[Example]) -> Tensor:
        return ad.cross_entropy(*_logits_targets(model, batch))

    def val_loss() -> float:
        return _dataset_cross_entropy(model, val, batch_size)

    limit = model.config.context_limit
    return nn.fit(model.params_dict(), _examples(train),
                  lambda ex: min(ex[2], limit), batch_loss, batch_size, lr,
                  max_epochs, patience, seed,
                  val_metric=val_loss if val else None)


def evaluate_planner(model: PlannerModel, data: Sequence[ArticlePlan],
                     batch_size: int = 64) -> PlannerMetrics:
    """Accuracy and average oracle rank on held-out articles.

    Rank of the oracle action is 1 + the number of actions scoring strictly
    higher (optimistic on exact ties).
    """
    hits = 0
    rank_total = 0
    count = 0
    for logits, targets in _scored_batches(model, data, batch_size):
        scores = logits.values.astype(np.float64)
        rows = np.arange(len(targets))
        oracle_scores = scores[rows, targets]
        hits += int((scores.argmax(axis=1) == targets).sum())
        rank_total += int((scores > oracle_scores[:, None]).sum() + len(targets))
        count += len(targets)
    if count == 0:
        raise ValidationError("evaluate_planner needs at least one example")
    return PlannerMetrics(accuracy=hits / count, average_rank=rank_total / count)


# -- persistence --------------------------------------------------------------------


def planner_meta(model: PlannerModel) -> dict:
    return {"kind": "planner", "config": asdict(model.config)}


def planner_from_checkpoint(sections: dict[str, np.ndarray],
                            meta: dict) -> PlannerModel:
    if meta.get("kind") != "planner":
        raise ValidationError("checkpoint is not a planner")
    # the saved head stands in for the centroids it started from
    model = PlannerModel(nn.config_from_meta(meta, "config", PlannerConfig),
                         nn.UNDRAWN, centroids=sections.get("planner.w_o"))
    nn.load_params(model.params_dict(), sections)
    return model
