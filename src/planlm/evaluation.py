"""Quantitative evaluation.

Pure metrics (perplexity aggregation, ROUGE-2, edit distance, HMM critic) plus
model-facing scorers: sliding-window perplexity and the per-step action scans.
The scorers only see a `logit_fn(ids, actions, noise) -> (B, T, V) array`
callable (`actions` and `noise` may be None), so they work with any
conditioning style. All of them score their rows through one length-batched
loop. The HMM critic is batched the same way: its fit and its scoring run one
scaled forward (and, to fit, backward) pass per length group of sequences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .nn import length_batches


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


def _scaled_forward(critic: HmmCritic, batch: np.ndarray,
                    index: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Rabiner's scaled forward pass over (S, T) equal-length sequences.

    `alpha[s, t]` is p(state_t | o_0..o_t) and `scale[s, t]` is
    p(o_t | o_0..o_t-1), so log p(sequence s) = sum(log(scale[s])) without
    underflow. Each step updates all S rows at once. A symbol of probability
    zero is refused, naming its sequence by `index`.
    """
    n_seqs, length = batch.shape
    alpha = np.empty((n_seqs, length, critic.n_states))
    scale = np.empty((n_seqs, length))
    emitted = critic.emission.T[batch]  # (S, T, N): p(o_t | state)
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


def _scaled_backward(critic: HmmCritic, batch: np.ndarray,
                     scale: np.ndarray) -> np.ndarray:
    """Beta of the scaled forward pass, over the same (S, T) batch.

    `beta[s, t]` is p(o_t+1.. | state_t) / p(o_t+1.. | o_0..o_t).
    """
    emitted = critic.emission.T[batch]
    beta = np.ones_like(emitted)
    for t in range(batch.shape[1] - 2, -1, -1):
        beta[:, t] = ((emitted[:, t + 1] * beta[:, t + 1])
                      @ critic.transition.T / scale[:, t + 1, None])
    return beta


def hmm_forward_loglik(critic: HmmCritic, sequence: Sequence[int]) -> float:
    """Log p(sequence) by the scaled forward pass."""
    seq = np.asarray(sequence, dtype=np.int64)
    if seq.size == 0:
        raise ValidationError("cannot score an empty sequence")
    _, scale = _scaled_forward(critic, seq[None], [0])
    return float(np.log(scale).sum())


def corpus_latent_perplexity(critic: HmmCritic,
                             sequences: Sequence[Sequence[int]]) -> float | None:
    """Length-weighted latent perplexity over sequences; None if all empty.

    One scaled forward pass per length group scores its sequences together.
    """
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    total_ll = 0.0
    total_len = 0
    for index, batch in _length_groups(seqs):
        total_ll += float(np.log(_scaled_forward(critic, batch, index)[1]).sum())
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
    product over all its t -> t+1 steps.
    """
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    groups = _length_groups(seqs)
    if not groups:
        raise ValidationError("hmm_fit needs at least one non-empty sequence")
    symbols = np.concatenate(seqs)
    bad = np.flatnonzero((symbols < 0) | (symbols >= n_symbols))
    if bad.size:
        ends = np.cumsum([len(s) for s in seqs])
        first = int(np.searchsorted(ends, bad[0], side="right"))
        raise ValidationError(
            f"sequence {first}: symbol {symbols[bad[0]]} out of range "
            f"[0, {n_symbols})")
    total_symbols = symbols.size

    rng = np.random.default_rng(seed)
    critic = HmmCritic(
        initial=rng.dirichlet(np.ones(n_states)),
        transition=rng.dirichlet(np.ones(n_states), size=n_states),
        emission=rng.dirichlet(np.ones(n_symbols), size=n_states))

    prev_ll = -np.inf
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        pi_stats = np.zeros(n_states)
        t_stats = np.zeros((n_states, n_states))
        b_stats = np.zeros((n_states, n_symbols))
        total_ll = 0.0

        for index, batch in groups:
            alpha, scale = _scaled_forward(critic, batch, index)
            beta = _scaled_backward(critic, batch, scale)
            total_ll += float(np.log(scale).sum())

            gamma = alpha * beta
            pi_stats += gamma[:, 0].sum(axis=0)
            np.add.at(b_stats.T, batch.ravel(), gamma.reshape(-1, n_states))
            # xi summed over t: one product over all transitions t -> t+1
            ahead = (critic.emission.T[batch[:, 1:]] * beta[:, 1:]
                     / scale[:, 1:, None]).reshape(-1, n_states)
            t_stats += critic.transition * (
                alpha[:, :-1].reshape(-1, n_states).T @ ahead)

        if total_ll < prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise AssertionError(
                f"EM log-likelihood decreased: {prev_ll} -> {total_ll}")
        gain = (total_ll - prev_ll) / total_symbols
        prev_ll = total_ll

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


LogitFn = Callable[[np.ndarray, np.ndarray | None, np.ndarray | None],
                   np.ndarray]

# One LM row: input ids, conditioning actions or None, action noise or None,
# the positions whose next-token predictions are scored, and those tokens.
Row = tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray,
            np.ndarray]


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

    Up to 64 rows of one length share an LM call; equal-length rows keep
    their order.
    """
    for batch in length_batches(range(len(rows)), lambda r: len(rows[r][0]),
                                64):
        ids, actions, noise = (None if rows[batch[0]][f] is None
                               else np.stack([rows[r][f] for r in batch])
                               for f in range(3))
        logits = logit_fn(ids, actions, noise)
        for b, r in enumerate(batch):
            _, _, _, positions, targets = rows[r]
            yield r, _nll_rows(logits[b, positions], targets)


# -- sliding-window perplexity ---------------------------------------------------


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


def corpus_nll(logit_fn: LogitFn, items: Sequence[ScoringItem],
               window: int) -> tuple[float, int]:
    """Total NLL and token count, sliding windows with half-window scoring.

    Every scoreable target is counted exactly once: the first window counts
    all its targets, later windows only the fresh tail beyond the previous
    window's coverage.
    """
    if window < 2:
        raise ValidationError("window must be >= 2")
    stride = window // 2

    rows: list[Row] = []
    for item in items:
        ids = np.asarray(item.ids)
        n = len(ids)
        s = 0
        while True:
            count_from = 1 if s == 0 else s + window - stride
            if count_from > n - 1:
                break
            inputs = ids[s:s + window]
            n_targets = min(len(inputs), n - 1 - s)
            absolute = np.arange(s + 1, s + 1 + n_targets)
            counted = (absolute >= count_from) & (absolute <= s + window - 1)
            if item.countable is not None:
                counted &= item.countable[absolute]
            acts = item.actions[s:s + len(inputs)] \
                if item.actions is not None else None
            if counted.any():
                positions = np.flatnonzero(counted)
                rows.append((inputs, acts, None, positions,
                             ids[s + 1 + positions]))
            if s + window >= n:
                break
            s += stride

    total = np.float64(0.0)
    count = 0
    for _, nll in _scored_rows(logit_fn, rows):
        total += nll.sum()
        count += len(nll)
    return float(total), count


def corpus_perplexity(logit_fn: LogitFn, items: Sequence[ScoringItem],
                      window: int) -> float:
    total, count = corpus_nll(logit_fn, items, window)
    return perplexity_from_nll(total, count)


# -- per-step action scans ---------------------------------------------------------


@dataclass
class ScanItem:
    """One article prepared for the per-sentence action scans."""

    ids: np.ndarray
    sentence_index_of_token: np.ndarray
    oracle_actions: np.ndarray            # one per sentence
    pp_actions: np.ndarray                # oracle action per position
    article_id: str = ""


@dataclass
class ScanResult:
    ppl_at_rank: np.ndarray               # (K,)
    oracle_ppl: float
    mean_oracle_rank: float
    nearest_rank: int                     # rank whose PPL is nearest oracle's
    per_article_rank1_ppl: dict[str, float] = field(default_factory=dict)
    per_article_oracle_ppl: dict[str, float] = field(default_factory=dict)
    n_sentences: int = 0


def _sentence_scores(logit_fn: LogitFn, items: Sequence[ScanItem],
                     window: int, variants: Callable):
    """Yield (item, sentence index j, mean NLL of sentence j's tokens under
    each variant) for every scoreable sentence, scoring one sentence's rows
    at a time.

    The row ends at the sentence's last token and keeps at most `window`
    positions. `variants(oracle actions of the row, positions predicting
    sentence j)` gives each variant's (actions, noise or None).
    """
    for item in items:
        ids = np.asarray(item.ids)
        sidx = np.asarray(item.sentence_index_of_token)
        for j in range(len(item.oracle_actions)):
            token_pos = np.flatnonzero(sidx == j)
            token_pos = token_pos[token_pos >= 1]  # tokens with a predicting position
            if token_pos.size == 0:
                continue
            wend = int(token_pos.max()) + 1
            wstart = max(0, wend - window)
            token_pos = token_pos[token_pos >= wstart + 1]  # sentence longer than window
            if token_pos.size == 0:
                continue
            predicting = token_pos - 1 - wstart
            rows = [(ids[wstart:wend], actions, noise, predicting,
                     ids[token_pos])
                    for actions, noise in variants(
                        item.pp_actions[wstart:wend], predicting)]
            nll = np.empty(len(rows))
            for r, row_nll in _scored_rows(logit_fn, rows):
                nll[r] = row_nll.mean()
            yield item, j, nll


def oracle_scan(logit_fn: LogitFn, items: Sequence[ScanItem], k: int,
                window: int) -> ScanResult:
    """Score every sentence under each of the K actions.

    For sentence j the conditioning action is replaced at exactly the
    positions predicting its tokens; earlier positions keep oracle actions.
    Rows of the result are sorted ascending, so rank 1 is the per-step best.
    """
    def variants(oracle, predicting):
        actions = np.tile(oracle, (k, 1))
        actions[:, predicting] = np.arange(k)[:, None]
        return [(row, None) for row in actions]

    per_sentence: list[np.ndarray] = []
    oracle_nll: list[float] = []
    ranks: list[int] = []
    by_article: dict[str, list[int]] = {}
    for item, j, nll in _sentence_scores(logit_fn, items, window, variants):
        oracle = nll[int(item.oracle_actions[j])]
        by_article.setdefault(item.article_id, []).append(len(per_sentence))
        per_sentence.append(np.sort(nll))
        oracle_nll.append(float(oracle))
        ranks.append(1 + int((nll < oracle).sum()))
    if not per_sentence:
        raise ValidationError("oracle_scan saw no scoreable sentences")

    stacked = np.stack(per_sentence)          # (S, K) sorted rows
    ppl_at_rank = np.exp(stacked.mean(axis=0))
    oracle_ppl = float(np.exp(np.mean(oracle_nll)))
    result = ScanResult(
        ppl_at_rank=ppl_at_rank, oracle_ppl=oracle_ppl,
        mean_oracle_rank=float(np.mean(ranks)),
        nearest_rank=int(np.abs(ppl_at_rank - oracle_ppl).argmin()) + 1,
        n_sentences=len(oracle_nll))
    for aid, rows in by_article.items():
        result.per_article_rank1_ppl[aid] = float(
            np.exp(stacked[rows, 0].mean()))
        result.per_article_oracle_ppl[aid] = float(
            np.exp(np.mean([oracle_nll[s] for s in rows])))
    return result


def noise_scan(logit_fn: LogitFn, items: Sequence[ScanItem],
               n_variants: int, sigma: float, action_dim: int, window: int,
               seed: int) -> np.ndarray:
    """Perplexity at each rank when every sentence is scored under Gaussian
    perturbations of its oracle action, ranks sorted ascending.

    Each variant draws one noise vector (shared across adapted layers) added
    to the oracle action embedding at the sentence's positions; conditioning
    elsewhere stays oracle.
    """
    rng = np.random.default_rng(seed)

    def variants(oracle, predicting):
        noise = np.zeros((n_variants, len(oracle), action_dim),
                         dtype=np.float32)
        draws = rng.normal(0.0, sigma, (n_variants, action_dim)).astype(
            np.float32)
        noise[:, predicting, :] = draws[:, None, :]
        return [(oracle, row) for row in noise]

    per_sentence = [np.sort(nll) for _, _, nll in _sentence_scores(
        logit_fn, items, window, variants)]
    if not per_sentence:
        raise ValidationError("noise_scan saw no scoreable sentences")
    return np.exp(np.stack(per_sentence).mean(axis=0))
