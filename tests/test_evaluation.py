import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm.errors import ValidationError
from planlm.evaluation import (HmmCritic, ScanItem, ScoringItem,
                               corpus_latent_perplexity, corpus_nll, hmm_fit,
                               hmm_forward_loglik, levenshtein, noise_scan,
                               normalized_edit, oracle_scan,
                               perplexity_from_nll, rouge2_f1)
from planlm.lm import ActionAdapter, AdapterConfig, BaseLM, LmConfig


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
    assert hmm_forward_loglik(critic, seq) == pytest.approx(
        enumerate_loglik(critic, seq), abs=1e-8)


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
    ll = hmm_forward_loglik(critic, seq)
    assert math.isfinite(ll)
    assert ll < 0.0  # probability stays <= 1


def test_corpus_latent_ppl_absent_for_empty():
    critic = random_critic(2, 3, 0)
    assert corpus_latent_perplexity(critic, [[]]) is None
    with pytest.raises(ValidationError):
        hmm_forward_loglik(critic, [])


def test_forward_refuses_a_sequence_of_probability_zero():
    critic = HmmCritic(initial=np.array([1.0]), transition=np.array([[1.0]]),
                       emission=np.array([[1.0, 0.0]]))
    with pytest.raises(ValidationError, match="step 2"):
        hmm_forward_loglik(critic, [0, 0, 1])


def test_fit_rejects_bad_symbols():
    with pytest.raises(ValidationError):
        hmm_fit([[0, 9]], n_states=2, n_symbols=3, seed=0)
    with pytest.raises(ValidationError):
        hmm_fit([[]], n_states=2, n_symbols=3, seed=0)


# -- per-step action scans ---------------------------------------------------------


SCAN_V, SCAN_K, SCAN_DIM = 7, 3, 4


def scan_items():
    """Two articles: <bos> then sentences of 3-4 tokens, oracle actions set."""
    rng = np.random.default_rng(11)
    items = []
    for n, sentence_lengths in enumerate(([4, 3, 4], [3, 4, 3, 3])):
        sidx = np.repeat(np.arange(len(sentence_lengths)), sentence_lengths)
        sidx = np.concatenate([[0], sidx])
        oracle = rng.integers(0, SCAN_K, len(sentence_lengths))
        items.append(ScanItem(
            ids=np.concatenate([[1], rng.integers(2, SCAN_V, len(sidx) - 1)]),
            sentence_index_of_token=sidx, oracle_actions=oracle,
            pp_actions=oracle[np.concatenate([sidx[1:], sidx[-1:]])],
            article_id=f"a{n}"))
    return items


def scan_logit_fn(uses_actions):
    rng = np.random.default_rng(12)
    tok = rng.normal(size=(SCAN_V, SCAN_V))
    emb = rng.normal(size=(SCAN_K, SCAN_DIM))
    proj = rng.normal(size=(SCAN_DIM, SCAN_V))

    def logit_fn(ids, actions, noise):
        if not uses_actions:
            return tok[ids]
        action_emb = emb[actions] if noise is None else emb[actions] + noise
        return tok[ids] + action_emb @ proj

    return logit_fn


def test_scan_of_an_action_blind_model_is_flat():
    result = oracle_scan(scan_logit_fn(uses_actions=False), scan_items(),
                         SCAN_K, window=8)
    np.testing.assert_allclose(result.ppl_at_rank, result.ppl_at_rank[0],
                               rtol=1e-12)
    assert result.mean_oracle_rank == 1
    assert result.n_sentences == 7


# -- the batched scorers against one LM call per row ----------------------------

REF_WINDOW, REF_K, REF_DIM = 8, 4, 6


def tiny_lm():
    """A frozen two-layer LM with a random adapter on both layers, and its
    logit_fn."""
    cfg = LmConfig(vocab_size=SCAN_V, d_model=16, n_layers=2, n_heads=2,
                   context_window=REF_WINDOW)
    base = BaseLM(cfg, np.random.default_rng(13))
    adapter = ActionAdapter(
        AdapterConfig(n_actions=REF_K, action_dim=REF_DIM, adapted_layers=2,
                      init="random"), cfg, np.random.default_rng(14))

    def logit_fn(ids, actions, noise):
        return base.forward(ids, adapter=adapter, actions=actions,
                            action_noise=noise).values

    return logit_fn


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


def reference_corpus_nll(logit_fn, items, window):
    """Target t is counted in the first half-stride window whose last counted
    target (start + window - 1) reaches it. Windows are added shortest first,
    in a stable order: the order the batched scorer adds them in."""
    stride = window // 2
    windows = []
    for item in items:
        by_start: dict[int, list[int]] = {}
        for t in range(1, len(item.ids)):
            if item.countable is None or item.countable[t]:
                start = stride * max(0, -(-(t - window + 1) // stride))
                by_start.setdefault(start, []).append(t)
        for start, targets in by_start.items():
            logits = one_row(logit_fn, item.ids[start:start + window],
                             item.actions[start:start + window])
            targets = np.asarray(targets)
            nll = row_nll(logits[targets - 1 - start], item.ids[targets])
            windows.append((len(item.ids[start:start + window]), nll.sum(),
                            len(targets)))
    total = np.float64(0.0)
    for _, window_total, _ in sorted(windows, key=lambda w: w[0]):
        total += window_total
    return float(total), sum(w[2] for w in windows)


def reference_sentence_nll(logit_fn, item, window, variant):
    """Mean NLL of each sentence's tokens for each variant, one call per
    variant: `variant(actions, predicting)` edits the window's oracle actions
    and returns (actions, noise or None)."""
    out = []
    for j in range(len(item.oracle_actions)):
        token_pos = np.flatnonzero(item.sentence_index_of_token == j)
        token_pos = token_pos[token_pos >= 1]
        if token_pos.size == 0:
            continue
        end = token_pos.max() + 1
        start = max(0, end - window)
        token_pos = token_pos[token_pos >= start + 1]
        predicting = token_pos - 1 - start
        nll = []
        for actions, noise in variant(item.pp_actions[start:end], predicting):
            logits = one_row(logit_fn, item.ids[start:end], actions, noise)
            nll.append(row_nll(logits[predicting],
                               item.ids[token_pos]).mean())
        out.append((item.article_id, int(item.oracle_actions[j]),
                    np.asarray(nll)))
    return out


def reference_items():
    """Articles longer than the window, with one sentence longer than it."""
    rng = np.random.default_rng(15)
    items = []
    for n, lengths in enumerate(([4, 3, 5, 4], [3, 10, 3], [2, 2, 3])):
        sidx = np.concatenate([[0], np.repeat(np.arange(len(lengths)),
                                              lengths)])
        oracle = rng.integers(0, REF_K, len(lengths))
        items.append(ScanItem(
            ids=np.concatenate([[1], rng.integers(2, SCAN_V, len(sidx) - 1)]),
            sentence_index_of_token=sidx, oracle_actions=oracle,
            pp_actions=oracle[np.concatenate([sidx[1:], sidx[-1:]])],
            article_id=f"a{n}"))
    return items


def test_corpus_nll_matches_one_call_per_window():
    logit_fn = tiny_lm()
    rng = np.random.default_rng(16)
    items = []
    for n in (21, 5, 13, 9, 30):
        countable = rng.random(n) < 0.8
        items.append(ScoringItem(ids=rng.integers(0, SCAN_V, n),
                                 actions=rng.integers(0, REF_K, n),
                                 countable=countable))
    got = corpus_nll(logit_fn, items, REF_WINDOW)
    assert got == reference_corpus_nll(logit_fn, items, REF_WINDOW)
    assert got[1] == sum(int(item.countable[1:].sum()) for item in items)


def test_oracle_scan_matches_one_call_per_action():
    logit_fn = tiny_lm()
    items = reference_items()

    def each_action(actions, predicting):
        for a in range(REF_K):
            edited = actions.copy()
            edited[predicting] = a
            yield edited, None

    sentences = [s for item in items for s in reference_sentence_nll(
        logit_fn, item, REF_WINDOW, each_action)]
    ranked = np.stack([np.sort(nll) for _, _, nll in sentences])
    oracle_nll = [nll[a] for _, a, nll in sentences]
    ppl_at_rank = np.exp(ranked.mean(axis=0))
    oracle_ppl = float(np.exp(np.mean(oracle_nll)))
    owners = [aid for aid, _, _ in sentences]

    got = oracle_scan(logit_fn, items, REF_K, REF_WINDOW)
    np.testing.assert_array_equal(got.ppl_at_rank, ppl_at_rank)
    assert got.oracle_ppl == oracle_ppl
    assert got.mean_oracle_rank == np.mean(
        [1 + (nll < nll[a]).sum() for _, a, nll in sentences])
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
    logit_fn = tiny_lm()
    items = reference_items()
    rng = np.random.default_rng(17)

    def each_draw(actions, predicting):
        draws = rng.normal(0.0, 0.3, (5, REF_DIM)).astype(np.float32)
        for draw in draws:
            noise = np.zeros((len(actions), REF_DIM), dtype=np.float32)
            noise[predicting] = draw
            yield actions, noise

    ranked = np.stack([np.sort(nll) for item in items
                       for _, _, nll in reference_sentence_nll(
                           logit_fn, item, REF_WINDOW, each_draw)])
    got = noise_scan(logit_fn, items, n_variants=5, sigma=0.3,
                     action_dim=REF_DIM, window=REF_WINDOW, seed=17)
    np.testing.assert_array_equal(got, np.exp(ranked.mean(axis=0)))
