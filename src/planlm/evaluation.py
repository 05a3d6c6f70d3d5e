"""Quantitative evaluation.

Pure metrics (perplexity aggregation, ROUGE-2, edit distance, HMM critic) plus
model-facing scorers: sliding-window perplexity and the per-step action scans.
The scorers only see a `logit_fn(ids, actions, noise) -> (B, T, V) array`
callable (`actions` and `noise` may be None), so they work with any
conditioning style. All of them score their rows through one length-batched
loop.
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

    @property
    def n_symbols(self) -> int:
        return int(self.emission.shape[1])

    def validate(self) -> None:
        for name, row_matrix in (("transition", self.transition),
                                 ("emission", self.emission)):
            if np.any(row_matrix < 0):
                raise ValidationError(f"{name} has negative entries")
            if not np.allclose(row_matrix.sum(axis=1), 1.0, atol=1e-9):
                raise ValidationError(f"{name} rows do not sum to 1")
        if not math.isclose(float(self.initial.sum()), 1.0, abs_tol=1e-9):
            raise ValidationError("initial distribution does not sum to 1")


def _scaled_forward(critic: HmmCritic,
                    seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rabiner's scaled forward pass over one non-empty sequence.

    Row t of `alpha` is p(state_t | o_0..o_t) and `scale[t]` is
    p(o_t | o_0..o_t-1), so log p(seq) = sum(log(scale)) without underflow.
    """
    alpha = np.empty((len(seq), critic.n_states))
    scale = np.empty(len(seq))
    prior = critic.initial
    for t, symbol in enumerate(seq):
        joint = prior * critic.emission[:, symbol]
        scale[t] = joint.sum()
        if scale[t] == 0.0:
            raise ValidationError(
                f"symbol {symbol} at step {t} has probability zero")
        alpha[t] = joint / scale[t]
        prior = alpha[t] @ critic.transition
    return alpha, scale


def hmm_forward_loglik(critic: HmmCritic, sequence: Sequence[int]) -> float:
    """Log p(sequence) by the scaled forward pass."""
    seq = np.asarray(sequence, dtype=np.int64)
    if seq.size == 0:
        raise ValidationError("cannot score an empty sequence")
    return float(np.log(_scaled_forward(critic, seq)[1]).sum())


def corpus_latent_perplexity(critic: HmmCritic,
                             sequences: Sequence[Sequence[int]]) -> float | None:
    """Length-weighted latent perplexity over sequences; None if all empty."""
    total_ll = 0.0
    total_len = 0
    for seq in sequences:
        if len(seq) == 0:
            continue
        total_ll += hmm_forward_loglik(critic, seq)
        total_len += len(seq)
    if total_len == 0:
        return None
    return float(np.exp(-total_ll / total_len))


def hmm_fit(sequences: Sequence[Sequence[int]], n_states: int, n_symbols: int,
            seed: int, max_iters: int = 100,
            smoothing: float = 1e-6) -> HmmCritic:
    """Baum-Welch EM, scaled forward-backward, from a Dirichlet-uniform
    random init."""
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences if len(s) > 0]
    if not seqs:
        raise ValidationError("hmm_fit needs at least one non-empty sequence")
    for s in seqs:
        if s.min() < 0 or s.max() >= n_symbols:
            raise ValidationError(f"symbol out of range [0, {n_symbols})")
    total_symbols = sum(len(s) for s in seqs)

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

        for seq in seqs:
            alpha, scale = _scaled_forward(critic, seq)
            # beta[t] = p(o_t+1.. | state_t) / p(o_t+1.. | o_0..o_t)
            beta = np.ones_like(alpha)
            for t in range(len(seq) - 2, -1, -1):
                beta[t] = critic.transition @ (
                    critic.emission[:, seq[t + 1]] * beta[t + 1]) / scale[t + 1]
            total_ll += float(np.log(scale).sum())

            gamma = alpha * beta
            pi_stats += gamma[0]
            np.add.at(b_stats.T, seq, gamma)
            # xi summed over t: one product over all transitions t -> t+1
            ahead = critic.emission[:, seq[1:]].T * beta[1:] / scale[1:, None]
            t_stats += critic.transition * (alpha[:-1].T @ ahead)

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
    article_id: str = ""


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
