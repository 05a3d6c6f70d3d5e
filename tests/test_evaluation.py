import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm import evaluation
from planlm.errors import ValidationError
from planlm.corpus import TokenStream
from planlm.evaluation import (HmmCritic, ScoringItem,
                               corpus_latent_perplexity, corpus_nll, hmm_fit,
                               levenshtein, noise_scan, normalized_edit,
                               oracle_pass, oracle_scan, perplexity_from_nll,
                               rouge2_f1)
from planlm.lm import (ActionAdapter, AdapterConfig, BaseLM, LmConfig,
                       logit_fn)


# -- levenshtein ---------------------------------------------------------------


@lru_cache(maxsize=None)
def lev_recursive(a: str, b: str) -> int:
    """Textbook recursive definition, memoized; the independent oracle."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(lev_recursive(a[:-1], b) + 1,
               lev_recursive(a, b[:-1]) + 1,
               lev_recursive(a[:-1], b[:-1]) + (a[-1] != b[-1]))


def test_levenshtein_equal_sequences():
    assert levenshtein([1, 2, 3], [1, 2, 3]) == 0


def test_levenshtein_against_empty():
    assert levenshtein([], [5, 6, 7]) == 3
    assert levenshtein("abcd", "") == 4


def test_levenshtein_kitten_sitting():
    assert levenshtein("kitten", "sitting") == 3
    assert lev_recursive("kitten", "sitting") == 3


def test_levenshtein_small_exhaustive_sample():
    # full length-6 exhaustive check runs in the acceptance suite
    alphabet = "abc"
    strings = [""] + ["".join(p) for n in (1, 2, 3)
                      for p in itertools.product(alphabet, repeat=n)]
    for a in strings:
        for b in strings:
            assert levenshtein(a, b) == lev_recursive(a, b)


seqs = st.lists(st.integers(0, 2), max_size=8)


@given(seqs, seqs)
def test_levenshtein_symmetry_and_identity(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)


@settings(max_examples=200)
@given(seqs, seqs, seqs)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# -- rouge-2 ---------------------------------------------------------------------

# expected values computed with an exact-fraction bigram oracle and checked by hand
ROUGE_FIXTURES = [
    ("a b c", "a b c", 1.0),
    ("a b c d", "a b d c", 1 / 3),
    ("a b", "a b", 1.0),
    ("a b", "b a", 0.0),
    ("a b c", "c b a", 0.0),
    ("a b c d e", "a b c", 2 / 3),
    ("a b c", "a b c d e", 2 / 3),
    ("x y", "p q", 0.0),
    ("a", "a", 0.0),
    ("", "", 0.0),
    ("a a a", "a a", 2 / 3),
    ("a a a a", "a a", 1 / 2),
    ("a b a b", "a b", 1 / 2),
    ("a b c d", "b c", 1 / 2),
    ("w x y z", "w x z y", 1 / 3),
    ("a b c a b", "a b", 2 / 5),
    ("m n o p q r", "n o p", 4 / 7),
    ("a b c d e f", "f e d c b a", 0.0),
    ("s t s t s", "t s t", 2 / 3),
    ("a b c d", "a b c e", 2 / 3),
]


@pytest.mark.parametrize("ref,hyp,want", ROUGE_FIXTURES)
def test_rouge2_fixtures(ref, hyp, want):
    assert rouge2_f1(ref.split(), hyp.split()) == pytest.approx(want, abs=1e-12)


@given(st.lists(st.integers(0, 4), max_size=10),
       st.lists(st.integers(0, 4), max_size=10))
def test_rouge2_precision_recall_swap(a, b):
    # precision of (a, b) equals recall of (b, a): check via the F1 symmetry
    assert rouge2_f1(a, b) == pytest.approx(rouge2_f1(b, a))


@given(st.lists(st.integers(0, 4), max_size=10))
def test_rouge2_identical_at_least_two_tokens(a):
    if len(a) >= 2:
        assert rouge2_f1(a, a) == 1.0


# -- normalized edit ----------------------------------------------------------------


def test_normalized_edit_halves_at_double_length():
    a = list(range(12))
    b = [99] * 10 + a[10:12]
    assert levenshtein(a, b) == 10
    assert normalized_edit(a, b, base_len=128, generated_token_len=256) == 5.0


def test_normalized_edit_identity_and_unit_factor():
    assert normalized_edit([1, 2, 3], [1, 2, 3], 128, 512) == 0.0
    a, b = [1, 2, 3], [1, 2, 4]
    assert normalized_edit(a, b, 128, 128) == levenshtein(a, b)


def test_normalized_edit_rejects_zero_length():
    with pytest.raises(ValidationError):
        normalized_edit([1], [1], 128, 0)


# -- perplexity aggregation -----------------------------------------------------------


def test_perplexity_hand_value():
    total = math.log(2.0) + math.log(4.0)
    assert perplexity_from_nll(total, 2) == pytest.approx(2.0 * math.sqrt(2.0))


def test_perplexity_needs_tokens():
    with pytest.raises(ValidationError):
        perplexity_from_nll(0.0, 0)


# -- HMM critic -------------------------------------------------------------------------


def path_probability(critic, path, seq):
    p = critic.initial[path[0]] * critic.emission[path[0], seq[0]]
    for t in range(1, len(seq)):
        p *= critic.transition[path[t - 1], path[t]] \
            * critic.emission[path[t], seq[t]]
    return p


def enumerate_loglik(critic, seq):
    """Brute-force sum over all hidden paths."""
    paths = itertools.product(range(critic.n_states), repeat=len(seq))
    return math.log(sum(path_probability(critic, path, seq) for path in paths))


def random_critic(n, k, seed):
    rng = np.random.default_rng(seed)
    return HmmCritic(initial=rng.dirichlet(np.ones(n)),
                     transition=rng.dirichlet(np.ones(n), size=n),
                     emission=rng.dirichlet(np.ones(k), size=n))


@pytest.mark.parametrize("n,t,seed", [(1, 1, 0), (2, 3, 1), (3, 5, 2), (3, 4, 3)])
def test_forward_matches_path_enumeration(n, t, seed):
    critic = random_critic(n, k=4, seed=seed)
    seq = np.random.default_rng(seed + 100).integers(0, 4, t).tolist()
    # log p = -len * log(ppl) for a single sequence
    loglik = -t * math.log(corpus_latent_perplexity(critic, [seq]))
    assert loglik == pytest.approx(enumerate_loglik(critic, seq), abs=1e-8)


def test_one_em_step_matches_path_enumeration():
    seqs = [[0, 2, 1], [1, 1], [2, 0, 0, 1]]
    n, k, seed, smoothing = 2, 3, 4, 1e-6
    rng = np.random.default_rng(seed)  # hmm_fit's own initialisation
    start = HmmCritic(initial=rng.dirichlet(np.ones(n)),
                      transition=rng.dirichlet(np.ones(n), size=n),
                      emission=rng.dirichlet(np.ones(k), size=n))
    pi_stats, t_stats, b_stats = np.zeros(n), np.zeros((n, n)), np.zeros((n, k))
    for seq in seqs:
        paths = list(itertools.product(range(n), repeat=len(seq)))
        weights = np.array([path_probability(start, path, seq)
                            for path in paths])
        for w, path in zip(weights / weights.sum(), paths):
            pi_stats[path[0]] += w
            for state, symbol in zip(path, seq):
                b_stats[state, symbol] += w
            for a, b in zip(path, path[1:]):
                t_stats[a, b] += w
    fitted = hmm_fit(seqs, n, k, seed=seed, max_iters=1, smoothing=smoothing)
    assert fitted.log_likelihood == pytest.approx(
        sum(enumerate_loglik(start, seq) for seq in seqs), rel=1e-12)
    np.testing.assert_allclose(fitted.initial, pi_stats / pi_stats.sum(),
                               rtol=1e-10)
    for got, stats in ((fitted.transition, t_stats),
                       (fitted.emission, b_stats)):
        want = stats + smoothing
        np.testing.assert_allclose(got, want / want.sum(axis=1, keepdims=True),
                                   rtol=1e-10)


def loop_forward(critic, seq):
    """The scaled forward pass over one sequence, one step at a time."""
    alpha = np.empty((len(seq), critic.n_states))
    scale = np.empty(len(seq))
    prior = critic.initial
    for t, symbol in enumerate(seq):
        joint = prior * critic.emission[:, symbol]
        scale[t] = joint.sum()
        alpha[t] = joint / scale[t]
        prior = alpha[t] @ critic.transition
    return alpha, scale


def loop_hmm_fit(sequences, n_states, n_symbols, seed, max_iters,
                 smoothing=1e-6):
    """Baum-Welch with one forward and one backward pass per sequence."""
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences if len(s) > 0]
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
        for seq in seqs:
            alpha, scale = loop_forward(critic, seq)
            beta = np.ones_like(alpha)
            for t in range(len(seq) - 2, -1, -1):
                beta[t] = critic.transition @ (
                    critic.emission[:, seq[t + 1]] * beta[t + 1]) / scale[t + 1]
            total_ll += float(np.log(scale).sum())
            gamma = alpha * beta
            pi_stats += gamma[0]
            np.add.at(b_stats.T, seq, gamma)
            ahead = critic.emission[:, seq[1:]].T * beta[1:] / scale[1:, None]
            t_stats += critic.transition * (alpha[:-1].T @ ahead)
        objective = total_ll + smoothing * float(
            np.log(critic.transition).sum() + np.log(critic.emission).sum())
        if objective < prev_objective - 1e-8 * max(1.0, abs(prev_objective)):
            raise AssertionError("EM objective decreased")
        gain = (total_ll - prev_ll) / total_symbols
        prev_ll, prev_objective = total_ll, objective
        transition = t_stats + smoothing
        transition /= transition.sum(axis=1, keepdims=True)
        emission = b_stats + smoothing
        emission /= emission.sum(axis=1, keepdims=True)
        critic = HmmCritic(initial=pi_stats / pi_stats.sum(),
                           transition=transition, emission=emission)
        if gain < evaluation.HMM_TOL_PER_SYMBOL:
            break
    critic.log_likelihood = prev_ll
    critic.iterations_run = iterations
    return critic


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_fit_matches_the_per_sequence_loop(data):
    n_states = data.draw(st.integers(1, 4), label="n_states")
    n_symbols = data.draw(st.integers(2, 6), label="n_symbols")
    seqs = data.draw(st.lists(st.lists(st.integers(0, n_symbols - 1),
                                       min_size=1, max_size=12),
                              min_size=1, max_size=20), label="seqs")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    max_iters = data.draw(st.integers(1, 20), label="max_iters")
    try:
        want = loop_hmm_fit(seqs, n_states, n_symbols, seed, max_iters)
    except AssertionError:  # the objective can still fall by rounding
        with pytest.raises(AssertionError, match="EM objective decreased"):
            hmm_fit(seqs, n_states, n_symbols, seed=seed, max_iters=max_iters)
        return
    got = hmm_fit(seqs, n_states, n_symbols, seed=seed, max_iters=max_iters)
    assert got.iterations_run == want.iterations_run
    assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12)
    # Summation order differs from the loop's at the ulp level, and the EM
    # steps can amplify that on entries far below 1: hence the 1e-14 floor.
    for name in ("initial", "transition", "emission"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-12, atol=1e-14)
    log_p = sum(float(np.log(loop_forward(got, np.asarray(seq))[1]).sum())
                for seq in seqs)
    total_len = sum(len(seq) for seq in seqs)
    assert corpus_latent_perplexity(got, seqs) == pytest.approx(
        math.exp(-log_p / total_len), rel=1e-12)


def test_fit_accepts_a_likelihood_the_smoothing_lowers():
    """The pseudo-counts may lower the likelihood of a near-certain sequence;
    only the smoothed objective must not fall."""
    two, three = (hmm_fit([[0, 0, 0]], n_states=2, n_symbols=2, seed=3281,
                          max_iters=n) for n in (2, 3))
    assert three.log_likelihood < two.log_likelihood
    assert three.iterations_run == 3


def test_fit_runs_one_forward_per_length_group_and_iteration(monkeypatch):
    shapes = []
    forward = evaluation._scaled_forward

    def spy(critic, batch, emitted, index):
        shapes.append(batch.shape)
        return forward(critic, batch, emitted, index)

    monkeypatch.setattr(evaluation, "_scaled_forward", spy)
    rng = np.random.default_rng(0)
    seqs = [rng.integers(0, 6, 8).tolist() for _ in range(40)]
    for at in (0, 20, 42):
        seqs.insert(at, rng.integers(0, 6, 5).tolist())
    critic = hmm_fit(seqs, n_states=3, n_symbols=6, seed=0, max_iters=2)
    assert critic.iterations_run == 2
    assert shapes == [(3, 5), (40, 8)] * 2


def test_single_state_fit_recovers_unigram():
    seqs = [[0, 1, 1, 2], [2, 2, 1]]
    critic = hmm_fit(seqs, n_states=1, n_symbols=4, seed=0)
    counts = np.array([1, 3, 3, 0], dtype=float)
    np.testing.assert_allclose(critic.emission[0], counts / counts.sum(),
                               atol=1e-4)


def test_single_state_uniform_emission_latent_ppl():
    critic = HmmCritic(initial=np.array([1.0]),
                       transition=np.array([[1.0]]),
                       emission=np.full((1, 8), 1 / 8))
    assert corpus_latent_perplexity(critic, [[3, 1, 4, 1, 5]]) == \
        pytest.approx(8.0)


def test_near_deterministic_critic_gives_ppl_near_one():
    eps = 1e-6
    emission = np.full((1, 4), eps / 3)
    emission[0, 2] = 1.0 - eps
    critic = HmmCritic(initial=np.array([1.0]),
                       transition=np.array([[1.0]]),
                       emission=emission)
    assert corpus_latent_perplexity(critic, [[2] * 20]) == \
        pytest.approx(1.0, abs=1e-4)


def test_fit_improves_over_random_sequences():
    rng = np.random.default_rng(5)
    # structured data: symbols come in runs
    seqs = []
    for _ in range(30):
        state = rng.integers(0, 3)
        seq = []
        for _ in range(20):
            if rng.random() < 0.1:
                state = rng.integers(0, 3)
            seq.append(int(state * 2 + rng.integers(0, 2)))
        seqs.append(seq)
    critic = hmm_fit(seqs, n_states=3, n_symbols=6, seed=1, max_iters=30)
    held_out = seqs[:10]
    random_seqs = [rng.integers(0, 6, 20).tolist() for _ in range(10)]
    assert corpus_latent_perplexity(critic, held_out) < \
        corpus_latent_perplexity(critic, random_seqs)


def test_fit_handles_long_sequences_without_underflow():
    seq = (np.arange(10_000) % 3).tolist()
    critic = hmm_fit([seq[:200]], n_states=2, n_symbols=3, seed=0, max_iters=5)
    ppl = corpus_latent_perplexity(critic, [seq])
    assert math.isfinite(ppl)
    assert ppl > 1.0  # probability stays <= 1


def test_corpus_latent_ppl_absent_for_empty():
    critic = random_critic(2, 3, 0)
    assert corpus_latent_perplexity(critic, [[]]) is None


def test_forward_refuses_a_sequence_of_probability_zero():
    critic = HmmCritic(initial=np.array([1.0]), transition=np.array([[1.0]]),
                       emission=np.array([[1.0, 0.0]]))
    with pytest.raises(ValidationError, match="step 2"):
        corpus_latent_perplexity(critic, [[0, 0, 1]])


def test_batched_forward_names_the_impossible_sequence():
    critic = HmmCritic(initial=np.array([1.0]), transition=np.array([[1.0]]),
                       emission=np.array([[1.0, 0.0]]))
    assert corpus_latent_perplexity(critic, [[0, 0, 0], [0, 0]]) == 1.0
    with pytest.raises(ValidationError,
                       match="^sequence 1: symbol 1 at step 2 has"):
        corpus_latent_perplexity(critic, [[0, 0, 0], [0, 0, 1]])


def test_latent_perplexity_rejects_bad_symbols():
    critic = HmmCritic(initial=np.array([1.0]), transition=np.array([[1.0]]),
                       emission=np.full((1, 3), 1 / 3))
    for symbol in (-1, 3):
        with pytest.raises(ValidationError, match=rf"^sequence 1: symbol "
                           rf"{symbol} out of range \[0, 3\)"):
            corpus_latent_perplexity(critic, [[0, 2], [1, symbol]])


def test_fit_rejects_bad_symbols():
    with pytest.raises(ValidationError,
                       match=r"^sequence 0: symbol 9 out of range \[0, 3\)"):
        hmm_fit([[0, 9]], n_states=2, n_symbols=3, seed=0)
    with pytest.raises(ValidationError, match="^sequence 2: symbol -1 "):
        hmm_fit([[0, 1], [], [-1, 2], [5]], n_states=2, n_symbols=3, seed=0)
    with pytest.raises(ValidationError):
        hmm_fit([[]], n_states=2, n_symbols=3, seed=0)


# -- per-step action scans ---------------------------------------------------------


SCAN_V, SCAN_K, SCAN_DIM, SCAN_WINDOW = 7, 3, 4, 8


def random_scan_articles(rng, k, sentence_lengths):
    """(stream, oracle actions) of articles a0, a1, ...: <bos>, then
    sentences of the given lengths of random tokens, with random actions."""
    articles = []
    for n, lengths in enumerate(sentence_lengths):
        sidx = np.concatenate([[0], np.repeat(np.arange(len(lengths)),
                                              lengths)])
        oracle = rng.integers(0, k, len(lengths))
        ids = np.concatenate([[1], rng.integers(2, SCAN_V, len(sidx) - 1)])
        articles.append((TokenStream(f"a{n}", ids, sidx), oracle))
    return articles


def with_passes(logit_fn, articles):
    """The scans' articles: each (stream, oracle) with its `oracle_pass`."""
    return [(stream, oracle, oracle_pass(logit_fn, stream, oracle))
            for stream, oracle in articles]


def scan_items():
    """Two articles of sentences of 3-4 tokens."""
    return random_scan_articles(np.random.default_rng(11), SCAN_K,
                                ([4, 3, 4], [3, 4, 3, 3]))


def scan_logit_fn(uses_actions):
    rng = np.random.default_rng(12)
    tok = rng.normal(size=(SCAN_V, SCAN_V))
    emb = rng.normal(size=(SCAN_K, SCAN_DIM))
    proj = rng.normal(size=(SCAN_DIM, SCAN_V))

    def logit_fn(ids, actions, noise, cache=None):
        # each position's logits depend on its own token and action alone,
        # so the cached positions change nothing; the call extends the
        # cache's lengths, as an LM forward does
        if cache is not None:
            cache.slide(SCAN_WINDOW - 1)
            cache.lengths = cache.lengths + ids.shape[1]
        if not uses_actions:
            return tok[ids]
        action_emb = emb[actions] if noise is None else emb[actions] + noise
        return tok[ids] + action_emb @ proj

    return logit_fn


def test_scan_of_an_action_blind_model_is_flat():
    scorer = scan_logit_fn(uses_actions=False)
    result = oracle_scan(scorer, with_passes(scorer, scan_items()), SCAN_K)
    np.testing.assert_allclose(result.ppl_at_rank, result.ppl_at_rank[0],
                               rtol=1e-12)
    assert result.mean_oracle_rank == 1
    assert result.mean_oracle_margin == 0.0
    assert result.n_sentences == 7


def test_scans_score_every_token_of_a_sentence_longer_than_the_window():
    """A sentence of three windows' tokens counts every one of them: with a
    model whose logits depend on the input token alone, its NLL is the mean
    over all its tokens."""
    scorer = scan_logit_fn(uses_actions=False)
    articles = random_scan_articles(np.random.default_rng(22), SCAN_K,
                                    ([2, 3 * SCAN_WINDOW, 3],))
    result = oracle_scan(scorer, with_passes(scorer, articles), SCAN_K)
    stream = articles[0][0]
    ids, sidx = stream.token_ids, stream.sentence_index_of_token
    nll = row_nll(scorer(ids[:-1], None, None), ids[1:])
    want = [nll[sidx[1:] == j].mean() for j in range(3)]
    assert result.n_sentences == 3
    assert result.oracle_ppl == np.exp(np.mean(want))


# -- the batched scorers against one LM call per row ----------------------------

REF_WINDOW, REF_K, REF_DIM = 8, 4, 6


def tiny_lm():
    """The logit_fn of a frozen two-layer LM with a random adapter on both
    layers."""
    cfg = LmConfig(vocab_size=SCAN_V, d_model=16, n_layers=2, n_heads=2,
                   context_window=REF_WINDOW)
    base = BaseLM(cfg, np.random.default_rng(13))
    adapter = ActionAdapter(
        AdapterConfig(n_actions=REF_K, action_dim=REF_DIM, adapted_layers=2,
                      init="random"), cfg, np.random.default_rng(14))
    return logit_fn(base, adapter)


def one_row(logit_fn, ids, actions, noise=None):
    """The (T, V) logits of one row, from a call of batch size 1."""
    return logit_fn(ids[None], actions[None],
                    None if noise is None else noise[None])[0]


def row_nll(logits, targets):
    """Per-position NLL in float64, by log-sum-exp."""
    logits = logits.astype(np.float64)
    m = logits.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=-1))
    return lse - logits[np.arange(len(targets)), targets]


def reference_corpus_nll(logit_fn, items):
    """Each item's countable targets scored on one call of that item alone,
    the items added shortest first, in a stable order: the order the batched
    scorer adds its rows in."""
    rows = []
    for item in items:
        targets = np.flatnonzero(item.countable[1:]) + 1
        logits = one_row(logit_fn, item.ids, item.actions)
        rows.append((len(item.ids),
                     row_nll(logits[targets - 1], item.ids[targets]).sum(),
                     len(targets)))
    total = np.float64(0.0)
    for _, row_total, _ in sorted(rows, key=lambda r: r[0]):
        total += row_total
    return float(total), sum(r[2] for r in rows)


def sentence_spans(stream):
    """(j, first, last) of each sentence j that has a predicting position:
    the first and last positions that predict its tokens."""
    spans = []
    for j in range(stream.sentence_index_of_token[-1] + 1):
        token_pos = np.flatnonzero(stream.sentence_index_of_token == j)
        token_pos = token_pos[token_pos >= 1]
        if token_pos.size:
            spans.append((j, int(token_pos[0]) - 1, int(token_pos[-1]) - 1))
    return spans


def continued_sentence_nll(logit_fn, article, variant):
    """Mean NLL of each sentence's tokens for each variant, one call per
    variant: a one-row cache holds the last min(first, W - 1) positions of
    the article's pass before the sentence's first predicting position (a
    copy of W of its columns from the first of them on, as window-wide as a
    forward's own cache), and the call continues it over the sentence's
    predicting positions. `variant(action, length)` gives each variant's
    (actions, noise or None)."""
    stream, oracle, cache = article
    ids = stream.token_ids
    out = []
    for j, first, last in sentence_spans(stream):
        lo = max(0, first - (REF_WINDOW - 1))
        nll = []
        for actions, noise in variant(int(oracle[j]), last + 1 - first):
            row_cache = evaluation.KVCache(1)
            row_cache.layers = [[a[:, :, lo:lo + REF_WINDOW].copy()
                                 for a in kv] for kv in cache.layers]
            row_cache.lengths[:] = first - lo
            logits = logit_fn(ids[None, first:last + 1], actions[None],
                              None if noise is None else noise[None],
                              cache=row_cache)[0]
            nll.append(row_nll(logits, ids[first + 1:last + 2]).mean())
        out.append((stream.article_id, int(oracle[j]), np.asarray(nll)))
    return out


def reference_items():
    """Articles of up to six windows, one of them with a sentence longer
    than the window (a1's 10 tokens, window 8), and several sentences whose
    first predicting position is past the window's first W - 1 positions."""
    return random_scan_articles(
        np.random.default_rng(15), REF_K,
        ([4, 3, 5, 4], [3, 10, 3], [2, 2, 3], [5, 4, 4, 11, 4, 3, 4, 6, 4]))


def test_corpus_nll_matches_one_call_per_article():
    """Rows batched by length, most of them longer than the window, score
    as one-row calls do, bit for bit."""
    logit_fn = tiny_lm()
    rng = np.random.default_rng(16)
    items = []
    for n in (21, 5, 13, 21, 9, 30, 13, 1):
        countable = rng.random(n) < 0.8
        items.append(ScoringItem(ids=rng.integers(0, SCAN_V, n),
                                 actions=rng.integers(0, REF_K, n),
                                 countable=countable))
    got = corpus_nll(logit_fn, items)
    assert got == reference_corpus_nll(logit_fn, items)
    assert got[1] == sum(int(item.countable[1:].sum()) for item in items)


def test_corpus_nll_scores_each_target_on_its_last_window_tokens():
    """With one layer, the band gives target t exactly the `window` tokens
    before it: its NLL equals that of an uncached forward of those tokens
    alone. The two differ in rounding only, since the whole row's softmax
    and `weights @ v` reduce over masked columns as well, so they agree to
    float32 precision, not bit for bit. (Through L layers target t depends
    on its last L * (window - 1) + 1 tokens.)"""
    cfg = LmConfig(vocab_size=SCAN_V, d_model=16, n_layers=1, n_heads=2,
                   context_window=REF_WINDOW)
    base = BaseLM(cfg, np.random.default_rng(19))
    adapter = ActionAdapter(
        AdapterConfig(n_actions=REF_K, action_dim=REF_DIM, adapted_layers=1,
                      init="random"), cfg, np.random.default_rng(20))
    scorer = logit_fn(base, adapter)
    rng = np.random.default_rng(21)
    ids, actions = rng.integers(0, SCAN_V, 30), rng.integers(0, REF_K, 30)
    for t in range(1, len(ids)):
        only_t = np.arange(len(ids)) == t
        got, count = corpus_nll(scorer, [ScoringItem(ids, actions, only_t)])
        lo = max(0, t - REF_WINDOW)
        logits = one_row(scorer, ids[lo:t], actions[lo:t])
        want = row_nll(logits[-1:], ids[t:t + 1])[0]
        assert count == 1
        assert got == pytest.approx(want, rel=1e-6, abs=0)


def test_oracle_scan_matches_one_call_per_action():
    """The scan scores each variant's row batched with others; the
    reference continues the article's pass on one call per action, from a
    copy of the pass's last W - 1 positions at most. Each row's score
    matches its reference bit for bit. `reference_items` holds a sentence
    longer than the window and sentences whose first predicting position is
    0 (each article's first sentence) or past W - 1."""
    logit_fn = tiny_lm()
    items = with_passes(logit_fn, reference_items())

    def each_action(action, length):
        return [(np.full(length, a), None) for a in range(REF_K)]

    sentences = [s for item in items for s in continued_sentence_nll(
        logit_fn, item, each_action)]
    ranked = np.stack([np.sort(nll) for _, _, nll in sentences])
    oracle_nll = [nll[a] for _, a, nll in sentences]
    ppl_at_rank = np.exp(ranked.mean(axis=0))
    oracle_ppl = float(np.exp(np.mean(oracle_nll)))
    owners = [aid for aid, _, _ in sentences]

    got = oracle_scan(logit_fn, items, REF_K)
    np.testing.assert_array_equal(got.ppl_at_rank, ppl_at_rank)
    assert got.oracle_ppl == oracle_ppl
    assert got.mean_oracle_rank == np.mean(
        [1 + (nll < nll[a]).sum() for _, a, nll in sentences])
    assert got.mean_oracle_margin == np.mean(
        [np.mean(nll - nll[a]) for _, a, nll in sentences])
    assert got.nearest_rank == 1 + np.abs(ppl_at_rank - oracle_ppl).argmin()
    assert got.n_sentences == len(sentences)
    assert got.per_article_rank1_ppl == {
        aid: float(np.exp(ranked[[o == aid for o in owners], 0].mean()))
        for aid in owners}
    assert got.per_article_oracle_ppl == {
        aid: float(np.exp(np.mean([x for o, x in zip(owners, oracle_nll)
                                   if o == aid])))
        for aid in owners}
    # an action-aware scan is not flat
    assert not np.allclose(got.ppl_at_rank, got.ppl_at_rank[0])


def test_noise_scan_matches_one_call_per_draw():
    """As the oracle scan test, for noise variants: the batched rows match
    one continuation of the pass per draw, and the draws come in the same
    order."""
    logit_fn = tiny_lm()
    items = with_passes(logit_fn, reference_items())
    rng = np.random.default_rng(17)

    def each_draw(action, length):
        draws = rng.normal(0.0, 0.3, (5, REF_DIM)).astype(np.float32)
        return [(np.full(length, action), np.tile(draw, (length, 1)))
                for draw in draws]

    ranked = np.stack([np.sort(nll) for item in items
                       for _, _, nll in continued_sentence_nll(
                           logit_fn, item, each_draw)])
    got = noise_scan(logit_fn, items, n_variants=5, sigma=0.3,
                     action_dim=REF_DIM, seed=17)
    np.testing.assert_array_equal(got, np.exp(ranked.mean(axis=0)))


def test_scan_scores_each_sentence_as_the_whole_article_row():
    """Under oracle actions, each sentence's NLL equals that of its tokens
    in one uncached forward of the whole article, which is how `corpus_nll`
    scores it: every token sees the band context, through both layers, also
    in a1's sentence longer than the window. The two differ in rounding
    only, since the whole row's softmax and `weights @ v` reduce over more
    (masked) columns than a scan row's, so they agree to float32 precision,
    not bit for bit."""
    logit_fn = tiny_lm()
    items = with_passes(logit_fn, reference_items())
    _, _, got = evaluation._sentence_scores(
        logit_fn, items, lambda action, length: [(np.full(length, action),
                                                  None)])
    want = []
    for stream, oracle, _ in items:
        ids = stream.token_ids
        logits = one_row(logit_fn, ids[:-1],
                         oracle[stream.target_sentence][:-1])
        want += [row_nll(logits[first:last + 1], ids[first + 1:last + 2])
                 .mean() for _, first, last in sentence_spans(stream)]
    assert got.shape == (len(want), 1) and len(want) == 19
    assert got[:, 0] == pytest.approx(want, rel=1e-6, abs=0)


@pytest.mark.parametrize("scan", ["oracle", "noise"])
def test_scans_prefill_once_per_window_start(scan, monkeypatch):
    """Each article has one window start, its first token: one B=1 pass per
    article over its tokens but the last prefills the oracle prefix, and
    the scan makes no forward of its own from an empty cache, so the oracle
    and noise scans share the pass. Each suffix row holds the positions
    that predict its sentence, so none forwards the sentence's last token,
    after at most W - 1 cached positions, and no call's cache is wider than
    W columns however long the article; at most 64 rows of one length and
    one cached length share a call, so the rows of all sentences whose
    first predicting position is at least W - 1 share their calls."""
    logit_fn = tiny_lm()
    calls = []  # (ids, cache lengths, cache columns) as each forward starts
    forward = BaseLM.forward

    def spy(self, ids, *args, cache=None, **kwargs):
        columns = cache.layers[0][0].shape[2] if cache.layers else None
        calls.append((ids.copy(), cache.lengths.copy(), columns))
        return forward(self, ids, *args, cache=cache, **kwargs)

    monkeypatch.setattr(BaseLM, "forward", spy)
    items = with_passes(logit_fn, reference_items())
    assert len(calls) == len(items)
    for (ids, lengths, columns), (stream, _, _) in zip(calls, items):
        np.testing.assert_array_equal(ids, stream.token_ids[None, :-1])
        assert lengths.tolist() == [0] and columns is None
    del calls[:]
    if scan == "oracle":
        n_variants = REF_K
        oracle_scan(logit_fn, items, REF_K)
    else:
        n_variants = 5
        noise_scan(logit_fn, items, n_variants, sigma=0.3,
                   action_dim=REF_DIM, seed=17)

    rows = Counter()  # (row ids, cached length) -> rows
    sentences = Counter()  # (row length, cached length) -> sentences
    for stream, _, _ in items:
        for _, first, last in sentence_spans(stream):
            cached = min(first, REF_WINDOW - 1)
            rows[tuple(stream.token_ids[first:last + 1]), cached] += \
                n_variants
            sentences[last + 1 - first, cached] += 1
    got = Counter()
    for ids, lengths, columns in calls:
        assert columns is not None and columns <= REF_WINDOW
        got.update(zip(map(tuple, ids), lengths.tolist()))
    assert got == rows

    want_calls = sorted((length, cached, min(64, n - i))
                        for (length, cached), count in sentences.items()
                        for n in [count * n_variants]
                        for i in range(0, n, 64))
    assert sorted((ids.shape[1], int(lengths[0]), len(ids))
                  for ids, lengths, _ in calls) == want_calls
    # the rows of several sentences past the first W - 1 positions share
    # a call
    assert any(cached == REF_WINDOW - 1 and n > n_variants
               for _, cached, n in want_calls)


def test_scan_rows_of_mixed_cached_lengths_score_as_their_own_forwards():
    """Rows of one length after prefixes of different cached lengths, scored
    together, give each row's one-row score bit for bit: a row never attends
    over the masked columns of a row with a longer prefix."""
    logit_fn = tiny_lm()
    rng = np.random.default_rng(18)
    rows = []
    for n in (0, 1, 3, 5, 2, 4, 4, 1):
        ids = rng.integers(0, SCAN_V, n + 3)
        actions = rng.integers(0, REF_K, n + 3)
        prefix = evaluation.KVCache(1)
        if n:
            logit_fn(ids[None, :n], actions[None, :n], None, cache=prefix)
        rows.append(evaluation.Row(ids[n:], actions[n:], None,
                                   np.arange(2), ids[n + 1:], prefix))
    together = dict(evaluation._scored_rows(logit_fn, rows))
    for r, row in enumerate(rows):
        [(_, alone)] = evaluation._scored_rows(logit_fn, [row])
        np.testing.assert_array_equal(together[r], alone)
