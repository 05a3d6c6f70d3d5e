"""Decoding with the planner in the loop, and the one segmentation of
generated text.

Sampling proceeds token by token under the LM. Every sentence the decoder
closes is embedded once and recorded with its nearest action and where it
closed; with a planner it also joins the planner context, and the next action
is predicted and swapped into the adapter. Boundaries are found by the corpus
sentence splitter applied incrementally to the generated suffix (an uppercase
sentinel is appended, as generated tokens are lowercase, so the end-of-text
rule matches the splitter's lookahead rule).

The LM decodes incrementally on a K/V cache (`BaseLM.forward(cache=...)`).
The first call feeds the last `window = context_window - 1` tokens; every
later call feeds only the token just sampled. A re-plan does not invalidate
the cache: position p is conditioned on the action of token p + 1, and a
cached position's next token already exists, so its action is fixed. Only
the newest position is conditioned on `current_action`, which becomes the
action of the token sampled from it. Positions are learned and absolute, so
a full cache cannot slide: once it holds `window` positions it is rebuilt
from the last `window // 2` tokens, the stride `corpus_nll` scores with.
Until the window first overflows, the tokens equal those of re-running the
whole window for every token; after that, each token sees between
`window // 2` and `window` tokens of context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    seed: int = 0

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValidationError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")


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


def sample_token(logits: np.ndarray, temperature: float, top_k: int,
                 rng: np.random.Generator) -> int:
    """Temperature + top-k sampling; temperature 0 is greedy (lowest-id ties)."""
    logits = logits.astype(np.float64)
    if temperature <= 0.0:
        return int(logits.argmax())
    logits = logits / temperature
    if 0 < top_k < logits.shape[0]:
        order = np.lexsort((np.arange(logits.shape[0]), -logits))
        keep = order[:top_k]
        masked = np.full_like(logits, -np.inf)
        masked[keep] = logits[keep]
        logits = masked
    logits = logits - logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return int(rng.choice(logits.shape[0], p=probs))


def _sentence_complete(text: str) -> bool:
    """Would the splitter close this suffix before an upcoming new sentence?"""
    probe = text + " A"
    spans = split_sentences(probe)
    return len(spans) >= 2 and spans[0].char_end == len(text)


def generate(base: BaseLM, adapter: ActionAdapter | None, vocab: Vocabulary,
             config: GenerationConfig, encoder: SentenceEncoder,
             action_set: ActionSet,
             planner: PlannerModel | None = None,
             prefix_ids: np.ndarray | None = None,
             prefix_token_actions: np.ndarray | None = None,
             prefix_sentence_embeddings: np.ndarray | None = None,
             article_id: str = "") -> GenerationRecord:
    """Sample a continuation of `prefix_ids`; with a `planner`, re-plan at
    every sentence boundary.

    In every regime, each sentence the decoder closes adds its nearest action
    in `action_set` to `realized_actions` and the count of tokens generated
    so far to `sentence_ends`. Tokens are conditioned on actions only with an
    `adapter` (which adds `planned_actions`): on the `planner`'s next action
    when one is given, else on FIXED_ACTION_ID.
    `prefix_token_actions[i]` is the action of the sentence containing prefix
    token i; `prefix_sentence_embeddings` seeds the planner context with the
    prefix sentences.
    """
    if prefix_ids is None or len(prefix_ids) == 0:
        raise ValidationError("generation requires a prefix")

    window = base.config.context_window - 1
    rng = np.random.default_rng(config.seed)
    ids = [int(t) for t in prefix_ids]
    conditioned, uses_planner = adapter is not None, planner is not None

    # action of the sentence containing each existing token
    act_of_token = [FIXED_ACTION_ID] * len(ids) if prefix_token_actions is None \
        else [int(a) for a in prefix_token_actions]

    context = None
    current_action = FIXED_ACTION_ID if conditioned else None
    if uses_planner:
        context = prefix_sentence_embeddings
        if context is None:
            context = np.zeros((0, encoder.config.dim), dtype=np.float32)
        current_action = planner.predict_next_action(context)

    record = GenerationRecord(article_id=article_id, prefix_len=len(ids))

    cache: list = []
    n_cached = 0
    for _ in range(config.max_tokens):
        if not cache or n_cached == window:
            # (re)fill from the last `window` tokens, later the last half
            keep = max(1, window // 2) if cache else window
            w0 = max(0, len(ids) - keep)
            cache, n_cached = [], 0
        else:
            w0 = len(ids) - 1
        win_ids = np.asarray(ids[w0:], dtype=np.int64)[None, :]
        if conditioned:
            # position p is conditioned on the action of token p + 1
            pp = np.asarray([act_of_token[w0 + 1:] + [current_action]],
                            dtype=np.int64)
            logits = base.forward(win_ids, adapter=adapter, actions=pp,
                                  cache=cache).values[0, -1]
        else:
            logits = base.forward(win_ids, cache=cache).values[0, -1]
        n_cached += win_ids.shape[1]

        token = sample_token(logits, config.temperature, config.top_k, rng)
        ids.append(token)
        record.token_ids.append(token)
        if conditioned:
            act_of_token.append(current_action)
            record.token_actions.append(current_action)

        if vocab.token_of(token) in TERMINALS:
            start = record.sentence_ends[-1] if record.sentence_ends else 0
            text = detokenize([vocab.token_of(t)
                               for t in record.token_ids[start:]])
            if _sentence_complete(text):
                z = encoder.embed_sentence(text)
                record.realized_actions.append(assign_action(z, action_set))
                record.sentence_ends.append(len(record.token_ids))
                if conditioned:
                    record.planned_actions.append(current_action)
                if uses_planner:
                    context = np.vstack([context, z[None, :]])
                    current_action = planner.predict_next_action(context)

    record.text = detokenize([vocab.token_of(t) for t in record.token_ids])
    return record

