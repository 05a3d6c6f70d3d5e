"""Quantitative evaluation.

Pure metrics (perplexity aggregation, ROUGE-2, edit distance, HMM critic) plus
model-facing scorers: sliding-window perplexity and the per-step action scans.
The scorers only see a `logit_fn(ids, actions) -> (B, T, V) array` callable, so
they work with any conditioning style.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

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


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def hmm_forward_loglik(critic: HmmCritic, sequence: Sequence[int]) -> float:
    """Log p(sequence) by the forward algorithm, entirely in log space."""
    seq = np.asarray(sequence, dtype=np.int64)
    if seq.size == 0:
        raise ValidationError("cannot score an empty sequence")
    log_pi = _log(critic.initial)
    log_t = _log(critic.transition)
    log_b = _log(critic.emission)
    alpha = log_pi + log_b[:, seq[0]]
    for symbol in seq[1:]:
        alpha = _logsumexp_cols(alpha[:, None] + log_t) + log_b[:, symbol]
    return float(_logsumexp_cols(alpha[:, None])[0])


def _logsumexp_cols(matrix: np.ndarray) -> np.ndarray:
    m = matrix.max(axis=0)
    safe = np.where(np.isfinite(m), m, 0.0)
    return safe + np.log(np.exp(matrix - safe).sum(axis=0))


def latent_perplexity(critic: HmmCritic, sequence: Sequence[int]) -> float:
    """exp(-log p(sequence) / T) under the critic's forward probability."""
    return float(np.exp(-hmm_forward_loglik(critic, sequence) / len(sequence)))


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
            seed: int, max_iters: int = 100, smoothing: float = 1e-6,
            tol_per_symbol: float = 1e-6) -> HmmCritic:
    """Baum-Welch EM in log space from a Dirichlet-uniform random init."""
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences if len(s) > 0]
    if not seqs:
        raise ValidationError("hmm_fit needs at least one non-empty sequence")
    for s in seqs:
        if s.min() < 0 or s.max() >= n_symbols:
            raise ValidationError(f"symbol out of range [0, {n_symbols})")
    total_symbols = sum(len(s) for s in seqs)

    rng = np.random.default_rng(seed)
    initial = rng.dirichlet(np.ones(n_states))
    transition = rng.dirichlet(np.ones(n_states), size=n_states)
    emission = rng.dirichlet(np.ones(n_symbols), size=n_states)

    prev_ll = -np.inf
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        log_pi, log_t, log_b = _log(initial), _log(transition), _log(emission)
        pi_stats = np.zeros(n_states)
        t_stats = np.zeros((n_states, n_states))
        b_stats = np.zeros((n_states, n_symbols))
        total_ll = 0.0

        for seq in seqs:
            t_len = len(seq)
            alpha = np.empty((t_len, n_states))
            alpha[0] = log_pi + log_b[:, seq[0]]
            for t in range(1, t_len):
                alpha[t] = _logsumexp_cols(alpha[t - 1][:, None] + log_t) \
                    + log_b[:, seq[t]]
            beta = np.zeros((t_len, n_states))
            for t in range(t_len - 2, -1, -1):
                inner = log_t + log_b[:, seq[t + 1]][None, :] + beta[t + 1][None, :]
                beta[t] = _logsumexp_cols(inner.T)
            ll = float(_logsumexp_cols(alpha[t_len - 1][None, :].T)[0])
            total_ll += ll

            gamma = np.exp(alpha + beta - ll)
            pi_stats += gamma[0]
            for t in range(t_len):
                b_stats[:, seq[t]] += gamma[t]
            for t in range(t_len - 1):
                xi = np.exp(alpha[t][:, None] + log_t
                            + log_b[:, seq[t + 1]][None, :]
                            + beta[t + 1][None, :] - ll)
                t_stats += xi

        if total_ll < prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise AssertionError(
                f"EM log-likelihood decreased: {prev_ll} -> {total_ll}")
        gain = (total_ll - prev_ll) / total_symbols
        prev_ll = total_ll

        initial = pi_stats / pi_stats.sum()
        transition = t_stats + smoothing
        transition /= transition.sum(axis=1, keepdims=True)
        emission = b_stats + smoothing
        emission /= emission.sum(axis=1, keepdims=True)

        if gain < tol_per_symbol:
            break

    critic = HmmCritic(initial=initial, transition=transition, emission=emission,
                       log_likelihood=prev_ll, iterations_run=iterations)
    critic.validate()
    return critic


# -- sliding-window perplexity ---------------------------------------------------


LogitFn = Callable[[np.ndarray, np.ndarray | None], np.ndarray]


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


def _nll_rows(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-position negative log-likelihood in float64."""
    logits = logits.astype(np.float64)
    m = logits.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return lse - picked


def corpus_nll(logit_fn: LogitFn, items: Sequence[ScoringItem], window: int,
               stride: int | None = None) -> tuple[float, int]:
    """Total NLL and token count, sliding windows with half-window scoring.

    Every scoreable target is counted exactly once: the first window counts
    all its targets, later windows only the fresh tail beyond the previous
    window's coverage.
    """
    if window < 2:
        raise ValidationError("window must be >= 2")
    stride = window // 2 if stride is None else stride
    if not 0 < stride < window:
        raise ValidationError(f"stride {stride} must be in (0, {window})")

    jobs: list[tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]] = []
    for item in items:
        ids = np.asarray(item.ids)
        n = len(ids)
        s = 0
        while True:
            count_from = 1 if s == 0 else s + window - stride
            if count_from > n - 1:
                break
            inputs = ids[s:s + window]
            t_in = len(inputs)
            n_targets = min(t_in, n - 1 - s)
            targets = ids[s + 1:s + 1 + n_targets]
            count_to = s + window - 1
            absolute = np.arange(s + 1, s + 1 + n_targets)
            counted = (absolute >= count_from) & (absolute <= count_to)
            if item.countable is not None:
                counted &= item.countable[absolute]
            acts = item.actions[s:s + t_in] if item.actions is not None else None
            if counted.any():
                jobs.append((inputs, acts, targets, counted))
            if s + window >= n:
                break
            s += stride

    total = np.float64(0.0)
    count = 0
    for chunk in length_batches(jobs, lambda job: len(job[0]), 64):
        ids_b = np.stack([j[0] for j in chunk])
        acts_b = np.stack([j[1] for j in chunk]) \
            if chunk[0][1] is not None else None
        logits = logit_fn(ids_b, acts_b)
        for row, (_, _, targets, counted) in enumerate(chunk):
            nll = _nll_rows(logits[row, :len(targets)], np.asarray(targets))
            total += nll[counted].sum()
            count += int(counted.sum())
    return float(total), count


def corpus_perplexity(logit_fn: LogitFn, items: Sequence[ScoringItem],
                      window: int, stride: int | None = None) -> float:
    total, count = corpus_nll(logit_fn, items, window, stride=stride)
    return perplexity_from_nll(total, count)


# -- per-step action scans ---------------------------------------------------------


NoisyLogitFn = Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]


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
    ppl_at_rank: np.ndarray               # (K,) or (n_variants,)
    oracle_ppl: float
    mean_oracle_rank: float
    nearest_rank: int                     # rank whose PPL is nearest oracle's
    per_article_rank1_ppl: dict[str, float] = field(default_factory=dict)
    per_article_oracle_ppl: dict[str, float] = field(default_factory=dict)
    n_sentences: int = 0


def _sentence_jobs(item: ScanItem, window: int):
    """Yield (window ids, window oracle actions, override mask, token offsets,
    sentence index) for each sentence of the article."""
    ids = np.asarray(item.ids)
    sidx = np.asarray(item.sentence_index_of_token)
    n = len(ids)
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
        win_ids = ids[wstart:wend]
        win_actions = item.pp_actions[wstart:wend].copy()
        # positions whose next token belongs to sentence j
        pred_pos = token_pos - 1
        rel_pred = pred_pos - wstart
        override = np.zeros(len(win_ids), dtype=bool)
        override[rel_pred] = True
        rel_targets = token_pos - wstart  # target token indices inside window
        yield win_ids, win_actions, override, rel_targets, j


def _finalize_scan(per_sentence_nll: list[np.ndarray],
                   oracle_nll: list[float], ranks: list[int],
                   article_of_sentence: list[str]) -> ScanResult:
    stacked = np.stack(per_sentence_nll)          # (S, n_variants) sorted rows
    ppl_at_rank = np.exp(stacked.mean(axis=0))
    oracle_ppl = float(np.exp(np.mean(oracle_nll)))
    nearest = int(np.abs(ppl_at_rank - oracle_ppl).argmin()) + 1
    result = ScanResult(ppl_at_rank=ppl_at_rank, oracle_ppl=oracle_ppl,
                        mean_oracle_rank=float(np.mean(ranks)),
                        nearest_rank=nearest, n_sentences=len(oracle_nll))
    by_article: dict[str, list[int]] = {}
    for s, aid in enumerate(article_of_sentence):
        by_article.setdefault(aid, []).append(s)
    for aid, rows in by_article.items():
        result.per_article_rank1_ppl[aid] = float(
            np.exp(stacked[rows, 0].mean()))
        result.per_article_oracle_ppl[aid] = float(
            np.exp(np.mean([oracle_nll[s] for s in rows])))
    return result


def oracle_scan(logit_fn: NoisyLogitFn, items: Sequence[ScanItem], k: int,
                window: int, batch_size: int = 16) -> ScanResult:
    """Score every sentence under each of the K actions.

    For sentence j the conditioning action is replaced at exactly the
    positions predicting its tokens; earlier positions keep oracle actions.
    Rows of the result are sorted ascending, so rank 1 is the per-step best.
    """
    per_sentence: list[np.ndarray] = []
    oracle_nll: list[float] = []
    ranks: list[int] = []
    owners: list[str] = []
    for item in items:
        for win_ids, win_actions, override, rel_targets, j in \
                _sentence_jobs(item, window):
            variants = np.tile(win_actions, (k, 1))
            variants[:, override] = np.arange(k)[:, None]
            nll = _score_variants(logit_fn, win_ids, variants, None,
                                  rel_targets, batch_size)
            oracle_action = int(item.oracle_actions[j])
            per_sentence.append(np.sort(nll))
            oracle_nll.append(float(nll[oracle_action]))
            ranks.append(1 + int((nll < nll[oracle_action]).sum()))
            owners.append(item.article_id)
    if not per_sentence:
        raise ValidationError("oracle_scan saw no scoreable sentences")
    return _finalize_scan(per_sentence, oracle_nll, ranks, owners)


def noise_scan(logit_fn: NoisyLogitFn, items: Sequence[ScanItem],
               n_variants: int, sigma: float, action_dim: int, window: int,
               seed: int, batch_size: int = 16) -> ScanResult:
    """Score every sentence under Gaussian perturbations of its oracle action.

    Each variant draws one noise vector (shared across adapted layers) added
    to the oracle action embedding at the sentence's positions; conditioning
    elsewhere stays oracle. The oracle reference is the zero-noise variant.
    """
    rng = np.random.default_rng(seed)
    per_sentence: list[np.ndarray] = []
    oracle_nll: list[float] = []
    ranks: list[int] = []
    owners: list[str] = []
    for item in items:
        for win_ids, win_actions, override, rel_targets, _ in \
                _sentence_jobs(item, window):
            variants = np.tile(win_actions, (n_variants, 1))
            noise = np.zeros((n_variants, len(win_ids), action_dim),
                             dtype=np.float32)
            draws = rng.normal(0.0, sigma, (n_variants, action_dim)).astype(
                np.float32)
            noise[:, override, :] = draws[:, None, :]
            nll = _score_variants(logit_fn, win_ids, variants, noise,
                                  rel_targets, batch_size)
            zero_noise = _score_variants(logit_fn, win_ids,
                                         win_actions[None, :], None,
                                         rel_targets, batch_size)
            per_sentence.append(np.sort(nll))
            oracle_nll.append(float(zero_noise[0]))
            ranks.append(1 + int((nll < zero_noise[0]).sum()))
            owners.append(item.article_id)
    if not per_sentence:
        raise ValidationError("noise_scan saw no scoreable sentences")
    return _finalize_scan(per_sentence, oracle_nll, ranks, owners)


def _score_variants(logit_fn: NoisyLogitFn, win_ids: np.ndarray,
                    action_variants: np.ndarray, noise: np.ndarray | None,
                    rel_targets: np.ndarray, batch_size: int) -> np.ndarray:
    """Mean NLL of the sentence tokens for each action/noise variant."""
    n = action_variants.shape[0]
    out = np.empty(n, dtype=np.float64)
    targets = win_ids[rel_targets]
    for i in range(0, n, batch_size):
        acts = action_variants[i:i + batch_size]
        ids_b = np.tile(win_ids, (len(acts), 1))
        noise_b = noise[i:i + batch_size] if noise is not None else None
        logits = logit_fn(ids_b, acts, noise_b)
        nll = _nll_rows(logits[:, rel_targets - 1, :],
                        np.tile(targets, (len(acts), 1)))
        out[i:i + len(acts)] = nll.mean(axis=1)
    return out
