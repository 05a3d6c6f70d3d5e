"""Quantitative evaluation.

Pure metrics (perplexity aggregation, ROUGE-2, edit distance, HMM critic) plus
model-facing scorers: perplexity and the per-step action scans.
The scorers only see a `logit_fn(ids, actions, noise) -> (B, T, V) array`
callable (`actions` and `noise` may be None), so they work with any
conditioning style; the scans also pass it `cache=`, a `KVCache` that the
call extends. All of them score their rows through one length-batched loop,
and every scored token sees the context of the LM's one attention rule: a
row of each article in `corpus_nll`, and in the scans an `oracle_pass` of
it, continued from each sentence's first predicting position.
The HMM critic is batched the same way: its fit and its one scorer,
`corpus_latent_perplexity`, run one scaled forward (and, to fit, backward)
pass per length group of sequences.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import TokenStream
from .errors import ValidationError
from .nn import KVCache, length_batches


# -- surface metrics -----------------------------------------------------------


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance (insertions, deletions, substitutions)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        current = [i]
        for j, y in enumerate(b, 1):
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + (x != y)))
        previous = current
    return previous[len(b)]


def rouge2_f1(reference: Sequence, hypothesis: Sequence) -> float:
    """Clipped bigram-overlap F1; 0.0 when neither side has bigrams."""
    ref_bigrams = Counter(zip(reference, reference[1:]))
    hyp_bigrams = Counter(zip(hypothesis, hypothesis[1:]))
    overlap = sum((ref_bigrams & hyp_bigrams).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(hyp_bigrams.values())
    recall = overlap / sum(ref_bigrams.values())
    return 2.0 * precision * recall / (precision + recall)


def normalized_edit(actions_real: Sequence[int], actions_generated: Sequence[int],
                    base_len: int, generated_token_len: int) -> float:
    """Edit distance between action sequences, scaled to a base token length.

    Raw distance grows linearly with how much text is compared, so a
    generation of 2x the base length has its distance divided by 2.
    """
    if generated_token_len <= 0:
        raise ValidationError("generated_token_len must be positive")
    raw = levenshtein(actions_real, actions_generated)
    return raw * base_len / generated_token_len


def perplexity_from_nll(total_nll: float, token_count: int) -> float:
    """exp of the mean negative log-likelihood, accumulated in float64."""
    if token_count <= 0:
        raise ValidationError("perplexity needs at least one scored token")
    return float(np.exp(np.float64(total_nll) / token_count))


# -- HMM critic ------------------------------------------------------------------

HMM_TOL_PER_SYMBOL = 1e-6  # Baum-Welch stops below this gain per symbol


@dataclass
class HmmCritic:
    """Critic for action sequences: N hidden states over K action symbols."""

    initial: np.ndarray      # (N,)
    transition: np.ndarray   # (N, N) row-stochastic
    emission: np.ndarray     # (N, K) row-stochastic
    log_likelihood: float = 0.0
    iterations_run: int = 0

    @property
    def n_states(self) -> int:
        return int(self.initial.shape[0])

    def validate(self) -> None:
        for name, row_matrix in (("transition", self.transition),
                                 ("emission", self.emission)):
            if np.any(row_matrix < 0):
                raise ValidationError(f"{name} has negative entries")
            if not np.allclose(row_matrix.sum(axis=1), 1.0, atol=1e-9):
                raise ValidationError(f"{name} rows do not sum to 1")
        if not math.isclose(float(self.initial.sum()), 1.0, abs_tol=1e-9):
            raise ValidationError("initial distribution does not sum to 1")


def _length_groups(seqs: Sequence[np.ndarray],
                   ) -> list[tuple[list[int], np.ndarray]]:
    """`(index, batch)` for each length of the non-empty sequences.

    `batch` stacks the sequences of one length into an (S, T) array, in
    first-seen order, and `index` holds their positions in `seqs`. Groups come
    in ascending length.
    """
    nonempty = [i for i, s in enumerate(seqs) if len(s) > 0]
    return [(index, np.stack([seqs[i] for i in index]))
            for index in length_batches(nonempty, lambda i: len(seqs[i]),
                                        len(nonempty))]


def _check_symbols(seqs: Sequence[np.ndarray], n_symbols: int) -> None:
    """Refuse a symbol outside [0, n_symbols), naming its sequence."""
    for i, seq in enumerate(seqs):
        bad = seq[(seq < 0) | (seq >= n_symbols)]
        if bad.size:
            raise ValidationError(f"sequence {i}: symbol {bad[0]} out of "
                                  f"range [0, {n_symbols})")


def _scaled_forward(critic: HmmCritic, batch: np.ndarray, emitted: np.ndarray,
                    index: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Rabiner's scaled forward pass over (S, T) equal-length sequences.

    `emitted` is `critic.emission.T[batch]`, (S, T, N): p(o_t | state).
    `alpha[s, t]` is p(state_t | o_0..o_t) and `scale[s, t]` is
    p(o_t | o_0..o_t-1), so log p(sequence s) = sum(log(scale[s])) without
    underflow. Each step updates all S rows at once. A symbol of probability
    zero is refused, naming its sequence by `index`.
    """
    n_seqs, length = batch.shape
    alpha = np.empty((n_seqs, length, critic.n_states))
    scale = np.empty((n_seqs, length))
    prior = np.broadcast_to(critic.initial, (n_seqs, critic.n_states))
    for t in range(length):
        joint = prior * emitted[:, t]
        scale[:, t] = joint.sum(axis=1)
        if not scale[:, t].all():
            row = np.flatnonzero(scale[:, t] == 0.0)[0]
            raise ValidationError(
                f"sequence {index[row]}: symbol {batch[row, t]} at step {t} "
                f"has probability zero")
        alpha[:, t] = joint / scale[:, t, None]
        prior = alpha[:, t] @ critic.transition
    return alpha, scale


def _scaled_backward(critic: HmmCritic, emitted: np.ndarray,
                     scale: np.ndarray) -> np.ndarray:
    """Beta of the scaled forward pass, over the same (S, T, N) `emitted`.

    `beta[s, t]` is p(o_t+1.. | state_t) / p(o_t+1.. | o_0..o_t).
    """
    beta = np.ones_like(emitted)
    for t in range(emitted.shape[1] - 2, -1, -1):
        beta[:, t] = ((emitted[:, t + 1] * beta[:, t + 1])
                      @ critic.transition.T / scale[:, t + 1, None])
    return beta


def corpus_latent_perplexity(critic: HmmCritic,
                             sequences: Sequence[Sequence[int]]) -> float | None:
    """Length-weighted latent perplexity over sequences; None if all empty.

    One scaled forward pass per length group scores its sequences together.
    """
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    _check_symbols(seqs, critic.emission.shape[1])
    total_ll = 0.0
    total_len = 0
    for index, batch in _length_groups(seqs):
        _, scale = _scaled_forward(critic, batch, critic.emission.T[batch],
                                   index)
        total_ll += float(np.log(scale).sum())
        total_len += batch.size
    if total_len == 0:
        return None
    return float(np.exp(-total_ll / total_len))


def hmm_fit(sequences: Sequence[Sequence[int]], n_states: int, n_symbols: int,
            seed: int, max_iters: int = 100,
            smoothing: float = 1e-6) -> HmmCritic:
    """Baum-Welch EM, scaled forward-backward, from a Dirichlet-uniform
    random init.

    The non-empty sequences are grouped by length once. Each iteration runs
    one batched forward and backward pass per group, in ascending length, and
    adds the group's statistics in that order: the initial-state posteriors
    summed over its sequences, the emission posteriors by one `np.add.at`
    over its symbols in sequence order, and the transition posteriors by one
    product over all its t -> t+1 steps. The `smoothing` pseudo-counts make
    each step MAP-EM under a Dirichlet prior: it never lowers the
    log-likelihood plus `smoothing` times the summed log transition and
    emission probabilities, though it may lower the likelihood alone. The
    stopping rule and `log_likelihood` use the likelihood alone.
    """
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    groups = _length_groups(seqs)
    if not groups:
        raise ValidationError("hmm_fit needs at least one non-empty sequence")
    _check_symbols(seqs, n_symbols)
    total_symbols = sum(len(s) for s in seqs)

    rng = np.random.default_rng(seed)
    critic = HmmCritic(
        initial=rng.dirichlet(np.ones(n_states)),
        transition=rng.dirichlet(np.ones(n_states), size=n_states),
        emission=rng.dirichlet(np.ones(n_symbols), size=n_states))

    prev_ll = prev_objective = -np.inf
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        pi_stats = np.zeros(n_states)
        t_stats = np.zeros((n_states, n_states))
        b_stats = np.zeros((n_states, n_symbols))
        total_ll = 0.0

        for index, batch in groups:
            emitted = critic.emission.T[batch]
            alpha, scale = _scaled_forward(critic, batch, emitted, index)
            beta = _scaled_backward(critic, emitted, scale)
            total_ll += float(np.log(scale).sum())

            gamma = alpha * beta
            pi_stats += gamma[:, 0].sum(axis=0)
            np.add.at(b_stats.T, batch.ravel(), gamma.reshape(-1, n_states))
            # xi summed over t: one product over all transitions t -> t+1
            ahead = (emitted[:, 1:] * beta[:, 1:]
                     / scale[:, 1:, None]).reshape(-1, n_states)
            t_stats += critic.transition * (
                alpha[:, :-1].reshape(-1, n_states).T @ ahead)

        objective = total_ll + smoothing * float(
            np.log(critic.transition).sum() + np.log(critic.emission).sum())
        if objective < prev_objective - 1e-8 * max(1.0, abs(prev_objective)):
            raise AssertionError(
                f"EM objective decreased: {prev_objective} -> {objective}")
        gain = (total_ll - prev_ll) / total_symbols
        prev_ll, prev_objective = total_ll, objective

        transition = t_stats + smoothing
        transition /= transition.sum(axis=1, keepdims=True)
        emission = b_stats + smoothing
        emission /= emission.sum(axis=1, keepdims=True)
        critic = HmmCritic(initial=pi_stats / pi_stats.sum(),
                           transition=transition, emission=emission)

        if gain < HMM_TOL_PER_SYMBOL:
            break

    critic.log_likelihood = prev_ll
    critic.iterations_run = iterations
    critic.validate()
    return critic


# -- scoring LM rows -------------------------------------------------------------


# logit_fn(ids, actions, noise, cache=None) -> (B, T, V) logits. `cache`, when
# given, is a B-row `KVCache` that the call extends: row b's ids then follow
# its `cache.lengths[b]` cached positions.
LogitFn = Callable[..., np.ndarray]


class Row(NamedTuple):
    """One LM row: input ids, conditioning actions or None, action noise or
    None, the positions whose next-token predictions are scored, and those
    tokens. `prefix`, when given, is a one-row `KVCache` whose positions the
    row's ids follow."""

    ids: np.ndarray
    actions: np.ndarray | None
    noise: np.ndarray | None
    positions: np.ndarray
    targets: np.ndarray
    prefix: KVCache | None = None


def _nll_rows(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-position negative log-likelihood in float64."""
    logits = logits.astype(np.float64)
    m = logits.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return lse - picked


def _scored_rows(logit_fn: LogitFn,
                 rows: Sequence[Row]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row index, NLL at its scored positions), in batch order.

    Up to 64 rows of one length and one cached length (0 without a prefix)
    share an LM call, so every row of a call attends over as many columns as
    it would alone; rows of one call keep their order. Rows without a prefix
    take an uncached call. The rows of a call with prefixes first copy their
    prefixes into one B-row `KVCache`, as wide as one prefix, one `put` per
    run of adjacent rows with the same prefix, and the call extends it. One
    `_nll_rows` call scores the positions of all rows of a call.
    """
    def shape(r: int) -> tuple[int, int]:
        prefix = rows[r].prefix
        return len(rows[r].ids), 0 if prefix is None else int(prefix.lengths[0])

    for batch in length_batches(range(len(rows)), shape, 64):
        picked = [rows[r] for r in batch]
        ids, actions, noise = (None if picked[0][f] is None
                               else np.stack([row[f] for row in picked])
                               for f in range(3))
        if picked[0].prefix is None:
            logits = logit_fn(ids, actions, noise)
        else:
            cache = KVCache(len(batch))
            for part, run in itertools.groupby(range(len(batch)),
                                               lambda b: picked[b].prefix):
                cache.put(list(run), part)
            logits = logit_fn(ids, actions, noise, cache=cache)
        counts = [len(row.positions) for row in picked]
        nll = _nll_rows(
            logits[np.repeat(np.arange(len(batch)), counts),
                   np.concatenate([row.positions for row in picked])],
            np.concatenate([row.targets for row in picked]))
        yield from zip(batch, np.split(nll, np.cumsum(counts)[:-1]))


# -- perplexity -------------------------------------------------------------------


@dataclass
class ScoringItem:
    """One article prepared for perplexity scoring.

    `actions` are per-position conditioning ids (None when unconditioned);
    `countable` marks token indices whose prediction counts toward the loss
    (None counts every target) - insert style uses it to skip action tokens.
    """

    ids: np.ndarray
    actions: np.ndarray | None = None
    countable: np.ndarray | None = None


def corpus_nll(logit_fn: LogitFn, items: Sequence[ScoringItem]
               ) -> tuple[float, int]:
    """Total NLL and count of the items' countable targets, each scored once.

    Each item is one row, forwarded whole: the LM's one attention rule
    (`nn.attention_bias`) predicts target t from the context that decoding
    gives a token sampled at t. A row of T tokens takes (heads, T, T)
    attention scores.
    """
    rows = []
    for item in items:
        ids = np.asarray(item.ids)
        targets = np.arange(1, len(ids))
        if item.countable is not None:
            targets = targets[item.countable[1:]]
        if targets.size:
            rows.append(Row(ids, item.actions, None, targets - 1,
                            ids[targets]))

    total = np.float64(0.0)
    count = 0
    for _, nll in _scored_rows(logit_fn, rows):
        total += nll.sum()
        count += len(nll)
    return float(total), count


# -- per-step action scans ---------------------------------------------------------

# an article the scans score: its tokens, oracle actions and `oracle_pass`
ScanArticle = tuple[TokenStream, Sequence[int], KVCache]


def oracle_pass(logit_fn: LogitFn, stream: TokenStream,
                sentence_oracle: Sequence[int]) -> KVCache:
    """The cache of one B=1 forward of the article's tokens but the last,
    each position conditioned on the oracle action of the sentence it
    predicts: the context both scans continue. The forward takes (heads,
    T, T) attention scores, as `corpus_nll`'s row of the article does."""
    cache = KVCache(1)
    oracle = np.asarray(sentence_oracle, dtype=np.int64)[stream.target_sentence]
    if len(stream.token_ids) > 1:
        logit_fn(stream.token_ids[None, :-1], oracle[None, :-1], None,
                 cache=cache)
    return cache


@dataclass
class ScanResult:
    ppl_at_rank: np.ndarray               # (K,)
    oracle_ppl: float
    mean_oracle_rank: float
    mean_oracle_margin: float             # nats per token
    nearest_rank: int                     # rank whose PPL is nearest oracle's
    per_article_rank1_ppl: dict[str, float]
    per_article_oracle_ppl: dict[str, float]
    n_sentences: int


def _sentence_scores(logit_fn: LogitFn, articles: Sequence[ScanArticle],
                     variants: Callable
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The article id and oracle action of every scoreable sentence of the
    articles, in order, and the (sentences, variants) mean NLL of each
    sentence's tokens under each variant.

    The scans read the LM's one attention rule: every token of sentence j
    is scored on the context that `corpus_nll` and decoding give it. The
    positions p0 to p1 predict sentence j's tokens, and each variant's row
    holds them, after the positions of the article's `oracle_pass` before
    p0 that a forward keeps, the last min(p0, context_window - 1) of them
    (`KVCache.before`). Every variant conditions the positions before p0 on
    oracle actions, so by causality their keys and values are the pass's.
    `variants(oracle action of sentence j, row length)` gives each
    variant's (actions, noise or None) for the row, in sentence order. All
    sentences' rows are then scored together, so one LM call batches many
    sentences and articles.
    """
    rows: list[Row] = []
    owners, actions = [], []
    for stream, sentence_oracle, cache in articles:
        ids = stream.token_ids
        for j, action in enumerate(sentence_oracle):
            predicting = np.flatnonzero(stream.sentence_index_of_token == j) - 1
            predicting = predicting[predicting >= 0]
            if predicting.size == 0:
                continue
            prefix = cache.before(int(predicting[0]))
            rows.extend(Row(ids[predicting], row_actions, noise,
                            predicting - predicting[0], ids[predicting + 1],
                            prefix)
                        for row_actions, noise in variants(int(action),
                                                           len(predicting)))
            owners.append(stream.article_id)
            actions.append(int(action))
    if not owners:
        raise ValidationError("the scans saw no scoreable sentences")

    nll = np.empty(len(rows))
    for r, row_nll in _scored_rows(logit_fn, rows):
        nll[r] = row_nll.mean()
    return np.asarray(owners), np.asarray(actions), nll.reshape(len(owners), -1)


def oracle_scan(logit_fn: LogitFn, articles: Sequence[ScanArticle],
                k: int) -> ScanResult:
    """Score every sentence under each of the K actions.

    For sentence j the conditioning action is replaced at exactly the
    positions predicting its tokens; earlier positions keep oracle actions
    (the article's `oracle_pass`, which `_sentence_scores` continues). Rows
    of the result are sorted ascending, so rank 1 is the per-step best. A
    sentence's margin is its mean NLL over the K actions minus its NLL
    under the oracle action.
    """
    def variants(action, length):
        return [(np.full(length, a), None) for a in range(k)]

    owners, actions, nll = _sentence_scores(logit_fn, articles, variants)
    oracle = nll[np.arange(len(nll)), actions]
    ranked = np.sort(nll, axis=1)
    ppl_at_rank = np.exp(ranked.mean(axis=0))
    oracle_ppl = float(np.exp(oracle.mean()))
    mine = {aid: owners == aid for aid in dict.fromkeys(owners.tolist())}
    return ScanResult(
        ppl_at_rank=ppl_at_rank, oracle_ppl=oracle_ppl,
        mean_oracle_rank=float(np.mean(1 + (nll < oracle[:, None]).sum(1))),
        mean_oracle_margin=float((nll - oracle[:, None]).mean(1).mean()),
        nearest_rank=int(np.abs(ppl_at_rank - oracle_ppl).argmin()) + 1,
        per_article_rank1_ppl={aid: float(np.exp(ranked[m, 0].mean()))
                               for aid, m in mine.items()},
        per_article_oracle_ppl={aid: float(np.exp(oracle[m].mean()))
                                for aid, m in mine.items()},
        n_sentences=len(oracle))


def noise_scan(logit_fn: LogitFn, articles: Sequence[ScanArticle],
               n_variants: int, sigma: float, action_dim: int,
               seed: int) -> np.ndarray:
    """Perplexity at each rank when every sentence is scored under Gaussian
    perturbations of its oracle action, ranks sorted ascending.

    Each variant draws one noise vector (shared across adapted layers) added
    to the oracle action embedding at the sentence's positions; conditioning
    elsewhere stays oracle (the article's `oracle_pass`, which
    `_sentence_scores` continues). The sentences draw their noise in order,
    before any row is scored.
    """
    rng = np.random.default_rng(seed)

    def variants(action, length):
        draws = rng.normal(0.0, sigma, (n_variants, 1, action_dim))
        return [(np.full(length, action),
                 np.repeat(draw, length, axis=0).astype(np.float32))
                for draw in draws]

    _, _, nll = _sentence_scores(logit_fn, articles, variants)
    return np.exp(np.sort(nll, axis=1).mean(axis=0))
