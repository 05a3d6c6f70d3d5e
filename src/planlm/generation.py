"""Decoding with the planner in the loop.

Sampling proceeds token by token under the conditioned LM; at every sentence
boundary the completed sentence is embedded, appended to the planner context,
and the next action is predicted and swapped into the adapter. Boundaries are
found by the corpus sentence splitter applied incrementally to the generated
suffix (an uppercase sentinel is appended so the end-of-text rule matches the
splitter's lookahead rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actions import ActionSet, assign_action
from .corpus import Vocabulary, detokenize, split_sentences
from .encoder import SentenceEncoder
from .errors import ValidationError
from .lm import FIXED_ACTION_ID, ActionAdapter, BaseLM, InsertLM, Regime
from .planner import PlannerModel

_TERMINAL_TOKENS = (".", "!", "?")


@dataclass(frozen=True)
class GenerationConfig:
    max_tokens: int
    temperature: float = 1.0
    top_k: int = 40
    seed: int = 0
    mode: str = "conditional"    # "conditional" | "unconditional"

    def __post_init__(self):
        if self.mode not in ("conditional", "unconditional"):
            raise ValidationError(f"unknown generation mode {self.mode!r}")
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


def generate(base: BaseLM, adapter: ActionAdapter | None, regime: Regime,
             vocab: Vocabulary, config: GenerationConfig,
             encoder: SentenceEncoder, action_set: ActionSet | None,
             planner: PlannerModel | None = None,
             prefix_ids: np.ndarray | None = None,
             prefix_token_actions: np.ndarray | None = None,
             prefix_sentence_embeddings: np.ndarray | None = None,
             article_id: str = "") -> GenerationRecord:
    """Sample a continuation, re-planning at every sentence boundary.

    `prefix_token_actions[i]` is the action of the sentence containing prefix
    token i (regime-consistent); `prefix_sentence_embeddings` seeds the
    planner context with the prefix sentences. FIXED and NONE regimes skip
    planning entirely.
    """
    source = regime.action_source(training=False)
    if source == "oracle":
        raise ValidationError(
            "oracle actions are undefined for free generation; score oracle "
            "regimes with `planlm evaluate`, which teacher-forces them")
    uses_planner = source == "planner"
    if uses_planner and planner is None:
        raise ValidationError(f"regime {regime.actions} requires a planner")
    if config.mode == "unconditional":
        from .corpus import BOS_ID
        prefix_ids = np.array([BOS_ID], dtype=np.int64)
        prefix_token_actions = None
        prefix_sentence_embeddings = None
    if prefix_ids is None or len(prefix_ids) == 0:
        raise ValidationError("conditional generation requires a prefix")

    window = base.config.context_window - 1
    rng = np.random.default_rng(config.seed)
    ids = [int(t) for t in prefix_ids]
    conditioned = source != "none"

    # action of the sentence containing each existing token
    if conditioned:
        if prefix_token_actions is not None:
            act_of_token = [int(a) for a in prefix_token_actions]
        else:
            act_of_token = [FIXED_ACTION_ID] * len(ids)
    else:
        act_of_token = []

    context = None
    current_action = FIXED_ACTION_ID if conditioned else None
    if uses_planner:
        context = prefix_sentence_embeddings
        if context is None:
            context = np.zeros((0, encoder.config.dim), dtype=np.float32)
        current_action = planner.predict_next_action(context)

    record = GenerationRecord(article_id=article_id, prefix_len=len(ids))
    sentence_tokens: list[str] = []

    for _ in range(config.max_tokens):
        w0 = max(0, len(ids) - window)
        win_ids = np.asarray(ids[w0:], dtype=np.int64)[None, :]
        if conditioned:
            pp = np.empty(win_ids.shape[1], dtype=np.int64)
            for rel, p_abs in enumerate(range(w0, len(ids))):
                pp[rel] = act_of_token[p_abs + 1] if p_abs + 1 < len(ids) \
                    else current_action
            logits = base.forward(win_ids, adapter=adapter,
                                  actions=pp[None, :]).values[0, -1]
        else:
            logits = base.forward(win_ids).values[0, -1]

        token = sample_token(logits, config.temperature, config.top_k, rng)
        ids.append(token)
        record.token_ids.append(token)
        if conditioned:
            act_of_token.append(current_action)
            record.token_actions.append(current_action)
        sentence_tokens.append(vocab.token_of(token))

        if vocab.token_of(token) in _TERMINAL_TOKENS:
            text = detokenize(sentence_tokens)
            if _sentence_complete(text):
                if conditioned and action_set is not None:
                    realized = assign_action(encoder.embed_sentence(text),
                                             action_set)
                    record.planned_actions.append(current_action)
                    record.realized_actions.append(realized)
                if uses_planner:
                    z = encoder.embed_sentence(text)
                    context = np.vstack([context, z[None, :]])
                    current_action = planner.predict_next_action(context)
                sentence_tokens = []

    record.text = detokenize([vocab.token_of(t) for t in record.token_ids])
    return record


def generate_insert_internal(insert_lm: InsertLM, vocab: Vocabulary,
                             config: GenerationConfig,
                             prefix_ids: np.ndarray | None = None) -> list[int]:
    """Decode an internal-planner insert LM under the action-token mask.

    Exactly one action token (id >= V) is forced before each sentence: at a
    sentence start only action ids may be sampled, elsewhere only text ids.
    Returns the extended id sequence (prefix included).
    """
    if insert_lm.locus != "internal":
        raise ValidationError("decoding mask is for internal-planner models")
    from .corpus import BOS_ID

    v = insert_lm.n_text_tokens
    base = insert_lm.base
    window = base.config.context_window - 1
    rng = np.random.default_rng(config.seed)
    ids = [int(t) for t in prefix_ids] if prefix_ids is not None else [BOS_ID]
    expect_action = True
    sentence_tokens: list[str] = []
    emitted = 0
    while emitted < config.max_tokens:
        win = np.asarray(ids[-window:], dtype=np.int64)[None, :]
        logits = base.forward(win).values[0, -1].copy()
        if expect_action:
            logits[:v] = -np.inf
        else:
            logits[v:] = -np.inf
        token = sample_token(logits, config.temperature, config.top_k, rng)
        ids.append(token)
        emitted += 1
        if token >= v:
            expect_action = False
            continue
        sentence_tokens.append(vocab.token_of(token))
        if vocab.token_of(token) in _TERMINAL_TOKENS and \
                _sentence_complete(detokenize(sentence_tokens)):
            expect_action = True
            sentence_tokens = []
    return ids
