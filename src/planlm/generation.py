"""Decoding with the planner in the loop, and the one segmentation of
generated text.

`generate` continues a batch of prefixes in lockstep: every step samples one
token for each row, and the rows that need no (re)fill share one batched
one-token `BaseLM.forward`. Each row keeps everything that makes its tokens:
its own sampler, seeded by its prefix, its actions, its planner context and
its cache length. Every sentence a row closes is embedded once and recorded
with its nearest action and where it closed; with a planner it also joins
that row's planner context, and the row's next action is predicted and swapped
into the adapter. Boundaries are found by the corpus sentence splitter applied
incrementally to the row's generated suffix (an uppercase sentinel is
appended, as generated tokens are lowercase, so the end-of-text rule matches
the splitter's lookahead rule).

The LM decodes incrementally on one `nn.KVCache` of all rows, where each row
has its own length and positions. A row's first forward feeds the last
`window = context_window - 1` tokens of its prefix, alone (B=1, so no pad
token is fed), and its keys are spliced into the cache; every later step feeds
only the token it just sampled. A re-plan does not invalidate the cache:
position p is conditioned on the action of token p + 1, and a cached
position's next token already exists, so its action is fixed. Only the
newest position is conditioned on the row's current action, which becomes
the action of the token sampled from it. Positions are learned and absolute,
so a full row cannot slide: once it holds `window` positions it is refilled,
alone, from its last `window // 2` tokens, the stride `corpus_nll` scores
with. Rows start from different prefix lengths, so they refill at different
steps. Until a row's window first overflows, its tokens equal those of
re-running its whole window for every token; after that, each token sees
between `window // 2` and `window` tokens of context. A row's tokens do not
depend on which other rows share its batch, up to the rounding of a batched
matmul.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nn
from .actions import ActionSet, assign_action
from .corpus import TERMINALS, Vocabulary, detokenize, split_sentences
from .encoder import SentenceEncoder
from .errors import ValidationError
from .lm import FIXED_ACTION_ID, ActionAdapter, BaseLM
from .planner import PlannerModel


@dataclass(frozen=True)
class GenerationConfig:
    max_tokens: int
    temperature: float = 1.0
    top_k: int = 40

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValidationError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")


@dataclass(frozen=True)
class Prefix:
    """One row to continue: its token ids and the seed of its sampler.

    `token_actions[i]` is the action of the sentence containing token i;
    `sentence_embeddings` seeds the planner context with the prefix
    sentences.
    """

    ids: np.ndarray
    seed: int
    article_id: str = ""
    token_actions: np.ndarray | None = None
    sentence_embeddings: np.ndarray | None = None


@dataclass
class GenerationRecord:
    article_id: str
    prefix_len: int
    token_ids: list[int] = field(default_factory=list)
    text: str = ""
    planned_actions: list[int] = field(default_factory=list)
    realized_actions: list[int] = field(default_factory=list)
    sentence_ends: list[int] = field(default_factory=list)
    token_actions: list[int] = field(default_factory=list)

    def plan_following_rate(self) -> float | None:
        """Fraction of complete sentences landing in their planned cluster."""
        if not self.planned_actions:
            return None
        hits = sum(p == r for p, r in zip(self.planned_actions,
                                          self.realized_actions))
        return hits / len(self.planned_actions)

    def to_json_dict(self) -> dict:
        return {
            "article_id": self.article_id,
            "prefix_len": self.prefix_len,
            "text": self.text,
            "planned_actions": self.planned_actions,
            "realized_actions": self.realized_actions,
            "sentence_ends": self.sentence_ends,
            "token_ids": self.token_ids,
            "plan_following_rate": self.plan_following_rate(),
        }


class Generations(list):
    """The records of one `generate` call, one per prefix, in order."""

    @property
    def token_ids(self) -> list[int]:
        """Every token the call sampled, record by record."""
        return [t for record in self for t in record.token_ids]


def sample_tokens(logits: np.ndarray, temperature: float, top_k: int,
                  rngs: Sequence[np.random.Generator]) -> list[int]:
    """One token per row of (B, V) `logits`, row b drawn by `rngs[b]`:
    temperature + top-k sampling; temperature 0 is greedy (lowest-id ties)."""
    logits = logits.astype(np.float64)
    if temperature <= 0.0:
        return [int(t) for t in logits.argmax(axis=-1)]
    logits = logits / temperature
    v = logits.shape[-1]
    if 0 < top_k < v:
        # a stable sort of the negated logits ranks ties by lowest id
        order = np.argsort(-logits, axis=-1, kind="stable")
        np.put_along_axis(logits, order[:, top_k:], -np.inf, axis=-1)
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return [int(rng.choice(v, p=p)) for rng, p in zip(rngs, probs)]


def _sentence_complete(text: str) -> bool:
    """Would the splitter close this suffix before an upcoming new sentence?"""
    probe = text + " A"
    spans = split_sentences(probe)
    return len(spans) >= 2 and spans[0].char_end == len(text)


@dataclass
class _Row:
    """One prefix's decoding state. `action` is the action its next token is
    conditioned on, None without an adapter or a planner."""

    record: GenerationRecord
    rng: np.random.Generator
    ids: list[int]
    act_of_token: list[int]
    context: np.ndarray | None
    action: int | None


def _start(prefix: Prefix, conditioned: bool, planner: PlannerModel | None,
           dim: int) -> _Row:
    if prefix.ids is None or len(prefix.ids) == 0:
        raise ValidationError("generation requires a prefix")
    ids = [int(t) for t in prefix.ids]
    act_of_token = [FIXED_ACTION_ID] * len(ids) \
        if prefix.token_actions is None \
        else [int(a) for a in prefix.token_actions]
    context, action = None, FIXED_ACTION_ID if conditioned else None
    if planner is not None:
        context = prefix.sentence_embeddings
        if context is None:
            context = np.zeros((0, dim), dtype=np.float32)
        action = planner.predict_next_action(context)
    return _Row(GenerationRecord(article_id=prefix.article_id,
                                 prefix_len=len(ids)),
                np.random.default_rng(prefix.seed), ids, act_of_token,
                context, action)


def _feed(base: BaseLM, adapter: ActionAdapter | None, rows: list[_Row],
          n: int, cache: nn.KVCache) -> np.ndarray:
    """The next-token logits of `rows` after feeding each its last `n`
    tokens (all of them if fewer) on `cache`."""
    w0 = [max(0, len(row.ids) - n) for row in rows]
    ids = np.asarray([row.ids[w:] for row, w in zip(rows, w0)],
                     dtype=np.int64)
    if adapter is None:
        return base.forward(ids, cache=cache).values[:, -1]
    # position p is conditioned on the action of token p + 1
    actions = np.asarray([row.act_of_token[w + 1:] + [row.action]
                          for row, w in zip(rows, w0)], dtype=np.int64)
    return base.forward(ids, adapter=adapter, actions=actions,
                        cache=cache).values[:, -1]


def _accept(row: _Row, token: int, conditioned: bool, vocab: Vocabulary,
            encoder: SentenceEncoder, action_set: ActionSet,
            planner: PlannerModel | None) -> None:
    """Append `token` to `row`; if it closes a sentence, record it and, with
    a planner, re-plan."""
    record = row.record
    row.ids.append(token)
    record.token_ids.append(token)
    if conditioned:
        row.act_of_token.append(row.action)
        record.token_actions.append(row.action)
    if vocab.token_of(token) not in TERMINALS:
        return
    start = record.sentence_ends[-1] if record.sentence_ends else 0
    text = detokenize([vocab.token_of(t) for t in record.token_ids[start:]])
    if not _sentence_complete(text):
        return
    z = encoder.embed_sentence(text)
    record.realized_actions.append(assign_action(z, action_set))
    record.sentence_ends.append(len(record.token_ids))
    if planner is not None:
        record.planned_actions.append(row.action)
        row.context = np.vstack([row.context, z[None, :]])
        row.action = planner.predict_next_action(row.context)


def generate(base: BaseLM, adapter: ActionAdapter | None, vocab: Vocabulary,
             config: GenerationConfig, encoder: SentenceEncoder,
             action_set: ActionSet, prefixes: Sequence[Prefix],
             planner: PlannerModel | None = None) -> Generations:
    """Sample a continuation of every prefix, in lockstep; with a `planner`,
    re-plan each row at every sentence boundary it closes.

    In every regime, each sentence a row closes adds its nearest action in
    `action_set` to `realized_actions` and the count of tokens generated so
    far to `sentence_ends`. Tokens are conditioned on actions only with an
    `adapter`: on the `planner`'s next action when one is given, else on
    FIXED_ACTION_ID. Only a planner's actions are `planned_actions`.
    """
    conditioned = adapter is not None
    rows = [_start(prefix, conditioned, planner, encoder.config.dim)
            for prefix in prefixes]
    window = base.config.context_window - 1
    cache = nn.KVCache(len(rows))
    logits = np.empty((len(rows), base.config.vocab_size), dtype=np.float32)
    for _ in range(config.max_tokens):
        refill = (cache.lengths == 0) | (cache.lengths == window)
        step = np.flatnonzero(~refill)
        if step.size:
            part = cache if step.size == len(rows) else cache.take(step)
            logits[step] = _feed(base, adapter, [rows[r] for r in step], 1,
                                 part)
            if part is not cache:
                cache.put(step, part)
        for r in np.flatnonzero(refill):
            # (re)fill from the last `window` tokens, later the last half
            keep = window if cache.lengths[r] == 0 else max(1, window // 2)
            part = nn.KVCache(1)
            logits[r] = _feed(base, adapter, [rows[r]], keep, part)[0]
            cache.put([r], part)
        tokens = sample_tokens(logits, config.temperature, config.top_k,
                               [row.rng for row in rows])
        for row, token in zip(rows, tokens):
            _accept(row, token, conditioned, vocab, encoder, action_set,
                    planner)

    for row in rows:
        row.record.text = detokenize([vocab.token_of(t)
                                      for t in row.record.token_ids])
    return Generations(row.record for row in rows)
