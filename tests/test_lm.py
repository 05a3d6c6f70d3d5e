import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm import autodiff as ad
from planlm import evaluation, nn, storage
from planlm.autodiff import Tensor
from planlm.corpus import BOS_ID, TokenStream
from planlm.errors import ValidationError
from planlm.lm import (REGIMES, ActionAdapter, AdapterConfig, BaseLM,
                       LmConfig, Regime,
                       extend_for_insert, insert_style_sequence,
                       lm_from_checkpoint, lm_meta, logit_fn, train_lm,
                       window_examples)

from gradcheck import max_relative_error

V, D, LAYERS = 12, 16, 2
LM_CFG = LmConfig(vocab_size=V, d_model=D, n_layers=LAYERS, n_heads=2,
                  context_window=16)


def make_base(seed=0, cfg=LM_CFG):
    return BaseLM(cfg, np.random.default_rng(seed))


def make_adapter(base, k=4, action_dim=8, L=1, init="random", seed=1,
                 centroids=None, share=False):
    cfg = AdapterConfig(n_actions=k, action_dim=action_dim, adapted_layers=L,
                        init=init, share_tables=share)
    return ActionAdapter(cfg, base.config, np.random.default_rng(seed),
                         centroids=centroids)


def stream(ids, sidx, article_id="a"):
    return TokenStream(article_id, np.asarray(ids, dtype=np.int64),
                       np.asarray(sidx, dtype=np.int32))


# -- action/position alignment ---------------------------------------------------


def select_action_for_position(stream, actions, p):
    """Reference for `TokenStream.target_sentence` at one position: the
    action of the sentence containing token p+1 (the last sentence past the
    end)."""
    n = len(stream)
    if not 0 <= p < n:
        raise ValidationError(f"position {p} out of range [0, {n})")
    sidx = stream.sentence_index_of_token
    j = int(sidx[p + 1]) if p + 1 < n else int(sidx[n - 1])
    return int(actions[j])


def test_select_action_for_position_hand_case():
    s = stream([9, 9, 9, 9, 9], [0, 0, 0, 1, 1])
    oracle = [7, 2]
    assert [select_action_for_position(s, oracle, p) for p in range(4)] == \
        [7, 7, 2, 2]
    assert select_action_for_position(s, oracle, 4) == 2  # past the end


def test_target_sentence_matches_scalar_rule():
    s = stream([9] * 6, [0, 0, 1, 1, 2, 2])
    oracle = np.array([5, 3, 8])
    vec = oracle[s.target_sentence]
    want = [select_action_for_position(s, oracle, p) for p in range(6)]
    assert vec.tolist() == want


def test_single_sentence_article_constant_action():
    s = stream([9, 9, 9], [0, 0, 0])
    assert np.array([4])[s.target_sentence].tolist() == [4, 4, 4]


# -- adapter forward ---------------------------------------------------------------


def random_inputs(rng, b=2, t=8):
    ids = rng.integers(0, V, (b, t))
    actions = rng.integers(0, 4, (b, t))
    return ids, actions


def test_zero_adapter_equals_base_lm():
    rng = np.random.default_rng(3)
    base = make_base()
    adapter = make_adapter(base, L=2)
    for w in adapter.w_a:
        w.values[:] = 0.0
    for _ in range(5):
        ids, actions = random_inputs(rng)
        conditioned = base.forward(ids, adapter=adapter, actions=actions).values
        plain = base.forward(ids).values
        assert np.abs(conditioned - plain).max() <= 1e-6


def lookup_then_project(adapter, slot, actions, noise=None):
    """W_A (E_A(a) + noise), each position's embedding projected on its own."""
    emb = adapter.table(slot).values[actions]
    if noise is not None:
        emb = emb + noise
    return emb @ adapter.w_a[slot].values.T


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (1, 5), (3, 7), (4, 30)])
def test_reps_match_lookup_then_project(shape, noisy, monkeypatch):
    """A call of at least k = 5 positions without noise takes the projected
    table's rows: the same dot products as projecting each looked-up
    embedding, summed in whatever order the matrix products take, so they
    agree within the float32 rounding bound of a d-term dot product,
    d * eps * sum_i |e_i w_i|. A call of fewer positions, or with noise,
    projects each looked-up (noisy) embedding, which is the reference, bit
    for bit. Which table a call looks its rows up in tells the two apart."""
    looked_up, plain = [], ad.embedding

    def embedding(table, ids):
        looked_up.append(table.shape)
        return plain(table, ids)

    monkeypatch.setattr(ad, "embedding", embedding)
    rng = np.random.default_rng(21)
    base = make_base()
    adapter = make_adapter(base, k=5, action_dim=8, L=2, init="random")
    for slot, w in enumerate(adapter.w_a):
        w.values = rng.normal(0, 1, w.shape).astype(np.float32)
        adapter.table(slot).values = rng.normal(
            0, 1, adapter.table(slot).shape).astype(np.float32)
    actions = rng.integers(0, 5, shape)
    noise = rng.normal(0, 0.3, shape + (8,)).astype(np.float32) \
        if noisy else None
    projected_table = not noisy and actions.size >= 5
    for slot in range(2):
        looked_up.clear()
        got = adapter.reps(slot, actions, noise).values
        assert looked_up == [(5, D) if projected_table else (5, 8)]
        want = lookup_then_project(adapter, slot, actions, noise)
        if not projected_table:
            np.testing.assert_array_equal(got, want)
            continue
        eps = np.finfo(np.float32).eps
        bound = 8 * eps * (np.abs(adapter.table(slot).values[actions])
                           @ np.abs(adapter.w_a[slot].values.T))
        assert np.all(np.abs(got - want) <= bound)
        projected = adapter.table(slot).values @ adapter.w_a[slot].values.T
        np.testing.assert_array_equal(got, projected[actions])


@pytest.mark.parametrize("noisy", [False, True])
def test_grad_adapter_reps(noisy):
    """Gradcheck of E_A and W_A through `reps`, with 80 ids into 3 rows, so
    the table's gradient takes the one-reduce-per-row scatter."""
    rng = np.random.default_rng(22)
    base = make_base()
    adapter = make_adapter(base, k=3, action_dim=4, L=1)
    actions = rng.integers(0, 3, (2, 40))
    noise = rng.normal(0, 0.3, (2, 40, 4)) if noisy else None
    weights = Tensor(rng.normal(0, 1, (2, 40, D)))

    def loss(params):
        adapter.e_a[0], adapter.w_a[0] = params
        return (adapter.reps(0, actions, noise) * weights).sum()

    params = [rng.normal(0, 1, (3, 4)).astype(np.float32),
              rng.normal(0, 1, (D, 4)).astype(np.float32)]
    assert max_relative_error(loss, params) <= 1e-3


def test_logit_shape_is_len_by_vocab():
    base = make_base()
    adapter = make_adapter(base)
    ids, actions = random_inputs(np.random.default_rng(0), b=3, t=7)
    assert base.forward(ids, adapter=adapter, actions=actions).shape == (3, 7, V)


def test_changing_action_changes_logits_at_that_position():
    base = make_base(seed=5)
    adapter = make_adapter(base, seed=6)
    ids, actions = random_inputs(np.random.default_rng(1), b=1, t=6)
    base_logits = base.forward(ids, adapter=adapter, actions=actions).values
    changed = actions.copy()
    changed[0, 3] = (changed[0, 3] + 1) % 4
    new_logits = base.forward(ids, adapter=adapter, actions=changed).values
    assert np.abs(new_logits[0, 3] - base_logits[0, 3]).max() > 0.0


def test_causality_future_tokens_and_actions_do_not_leak():
    base = make_base(seed=7)
    adapter = make_adapter(base, seed=8)
    rng = np.random.default_rng(2)
    ids, actions = random_inputs(rng, b=1, t=8)
    ref = base.forward(ids, adapter=adapter, actions=actions).values
    p = 4
    ids2, actions2 = ids.copy(), actions.copy()
    ids2[0, p + 1:] = rng.integers(0, V, ids2[0, p + 1:].shape)
    actions2[0, p + 1:] = rng.integers(0, 4, actions2[0, p + 1:].shape)
    out = base.forward(ids2, adapter=adapter, actions=actions2).values
    np.testing.assert_allclose(out[0, :p + 1], ref[0, :p + 1], atol=1e-6)


def test_adapter_centroid_init_exact_per_layer():
    base = make_base()
    centroids = np.random.default_rng(4).normal(0, 1, (4, 8)).astype(np.float32)
    adapter = make_adapter(base, L=2, init="centroids", centroids=centroids)
    for slot in range(2):
        assert np.abs(adapter.table(slot).values - centroids).max() == 0.0


def test_shared_tables_flag():
    base = make_base()
    adapter = make_adapter(base, L=2, share=True)
    assert adapter.table(0) is adapter.table(1)
    assert "lm.adapter.shared.e_a" in adapter.params_dict()


def test_context_window_enforced():
    base = make_base()
    with pytest.raises(ValidationError):
        base.forward(np.zeros((1, 17), dtype=np.int64))


@pytest.mark.parametrize("with_adapter", [False, True])
def test_cached_forward_matches_one_full_forward(with_adapter):
    base = make_base(seed=9)
    adapter = make_adapter(base, L=2, seed=10) if with_adapter else None
    ids, actions = random_inputs(np.random.default_rng(4), b=2, t=16)
    full = base.forward(ids, adapter=adapter, actions=actions).values
    cache = nn.KVCache(2)
    parts = [base.forward(ids[:, lo:hi], adapter=adapter,
                          actions=actions[:, lo:hi], cache=cache).values
             for lo, hi in [(0, 5)] + [(p, p + 1) for p in range(5, 16)]]
    assert [len(kv) for kv in cache.layers] == [2] * LAYERS
    assert cache.layers[0][0].shape[2] == 16
    assert cache.lengths.tolist() == [16, 16]
    np.testing.assert_allclose(np.concatenate(parts, axis=1), full,
                               rtol=0, atol=1e-6)


@pytest.mark.parametrize("with_adapter", [False, True])
def test_cached_rows_of_different_lengths_match_their_own_forwards(
        with_adapter):
    base = make_base(seed=9)
    adapter = make_adapter(base, L=2, seed=10) if with_adapter else None
    ids, actions = random_inputs(np.random.default_rng(4), b=2, t=16)
    cache = nn.KVCache(2)
    for row, n in enumerate((5, 11)):
        part = nn.KVCache(1)
        base.forward(ids[row:row + 1, :n], adapter=adapter,
                     actions=actions[row:row + 1, :n], cache=part)
        cache.put([row], part)
    assert cache.layers[0][0].shape[2] == LM_CFG.context_window
    step = base.forward(np.stack([ids[0, 5:6], ids[1, 11:12]]),
                        adapter=adapter,
                        actions=np.stack([actions[0, 5:6], actions[1, 11:12]]),
                        cache=cache).values
    assert cache.lengths.tolist() == [6, 12]
    for row, n in enumerate((6, 12)):
        full = base.forward(ids[row:row + 1, :n], adapter=adapter,
                            actions=actions[row:row + 1, :n]).values
        np.testing.assert_allclose(step[row, -1], full[0, -1],
                                   rtol=0, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=4),
       t=st.integers(1, 2), steps=st.integers(1, 2),
       with_adapter=st.booleans(), seed=st.integers(0, 2**16))
def test_rows_of_random_cached_lengths_step_like_their_own_forwards(
        lengths, t, steps, with_adapter, seed):
    """Rows prefilled to random lengths, then stepped together `t` tokens at
    a time, give each row the logits of its own uncached forward."""
    base = make_base(seed=9)
    adapter = make_adapter(base, L=2, seed=10) if with_adapter else None
    ids, actions = random_inputs(np.random.default_rng(seed), b=len(lengths),
                                 t=LM_CFG.context_window)

    def forward(rows, lo, hi, cache=None):
        """The forward of each row's positions lo[r]:hi[r]."""
        def pick(a):
            return np.stack([a[r, lo[i]:hi[i]] for i, r in enumerate(rows)])

        return base.forward(pick(ids), adapter=adapter, cache=cache,
                            actions=pick(actions) if adapter else None).values

    cache = nn.KVCache(len(lengths))
    for row, n in enumerate(lengths):
        part = nn.KVCache(1)
        if n:
            forward([row], [0], [n], cache=part)
        cache.put([row], part)
    rows = range(len(lengths))
    for s in range(steps):
        at = [n + s * t for n in lengths]
        step = forward(rows, at, [p + t for p in at], cache=cache)
        assert cache.lengths.tolist() == [p + t for p in at]
        for row, p in enumerate(at):
            full = forward([row], [0], [p + t])
            np.testing.assert_allclose(step[row], full[0, p:], rtol=0,
                                       atol=1e-6)


@pytest.mark.parametrize("with_adapter", [False, True])
def test_putting_a_caches_first_positions_matches_prefilling_only_those(
        with_adapter):
    """Rows that take the first n positions of one longer cache, then step
    together, give the logits of caches prefilled with only those n."""
    base = make_base(seed=9)
    adapter = make_adapter(base, L=2, seed=10) if with_adapter else None
    ids, actions = random_inputs(np.random.default_rng(5), b=1, t=12)

    def forward(lo, hi, cache):
        return base.forward(ids[:, lo:hi], adapter=adapter, cache=cache,
                            actions=actions[:, lo:hi] if adapter else None)

    longer = nn.KVCache(1)
    forward(0, 9, longer)
    firsts, t = (4, 0, 9), 3
    cache = nn.KVCache(len(firsts))
    for row, n in enumerate(firsts):
        cache.put([row], longer, length=n)
    assert cache.lengths.tolist() == list(firsts)
    step = base.forward(np.concatenate([ids[:, n:n + t] for n in firsts]),
                        adapter=adapter, cache=cache,
                        actions=np.concatenate([actions[:, n:n + t]
                                                for n in firsts])
                        if adapter else None).values
    for row, n in enumerate(firsts):
        only = nn.KVCache(1)
        if n:
            forward(0, n, only)
        np.testing.assert_allclose(step[row], forward(n, n + t, only).values[0],
                                   rtol=0, atol=1e-6)


def test_cached_forward_refuses_positions_past_the_window():
    base = make_base()
    cache = nn.KVCache(1)
    base.forward(np.zeros((1, 10), dtype=np.int64), cache=cache)
    base.forward(np.zeros((1, 6), dtype=np.int64), cache=cache)
    with pytest.raises(ValidationError, match="16 cached"):
        base.forward(np.zeros((1, 1), dtype=np.int64), cache=cache)


def test_cached_forward_refuses_trainable_parameters():
    base = make_base()
    params = base.params_dict()
    nn.set_trainable(params, True)
    try:
        with pytest.raises(ValidationError, match="frozen"):
            base.forward(np.zeros((1, 3), dtype=np.int64),
                         cache=nn.KVCache(1))
    finally:
        nn.set_trainable(params, False)


# -- training ------------------------------------------------------------------------


def toy_streams(n=30, seed=0):
    """Highly regular token streams: a tiny learnable language."""
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(n):
        ids = [1]
        for _ in range(3):
            a = int(rng.integers(2, 6))
            ids.extend([a, a + 4, 2])
        streams.append(np.array(ids, dtype=np.int64))
    return streams


def unigram_nll(train_streams, val_streams, vocab_size):
    counts = np.ones(vocab_size)  # add-one smoothing
    for ids in train_streams:
        for t in ids[1:]:
            counts[t] += 1
    logp = np.log(counts / counts.sum())
    total, n = 0.0, 0
    for ids in val_streams:
        for t in ids[1:]:
            total -= logp[t]
            n += 1
    return total / n


def test_pretrain_learns_and_beats_unigram():
    streams = toy_streams(40)
    train, val = streams[:32], streams[32:]
    base = make_base(seed=9)
    history = train_lm(base, [evaluation.ScoringItem(ids=ids) for ids in train],
                       batch_size=8, lr=3e-3, max_epochs=8, seed=0)
    assert len(history["train_loss"]) == 8
    assert history["train_loss"][0] < math.log(V) + 0.5
    assert history["train_loss"][-1] < history["train_loss"][0]
    items = [evaluation.ScoringItem(ids=ids) for ids in val]
    ppl = evaluation.corpus_perplexity(lambda i, a, _: base.forward(i).values,
                                       items, LM_CFG.context_window)
    assert ppl < math.exp(unigram_nll(train, val, V))


def test_pretrain_same_seed_bit_identical(tmp_path):
    paths = []
    for run in range(2):
        base = make_base(seed=3)
        train_lm(base, [evaluation.ScoringItem(ids=ids)
                        for ids in toy_streams(10)],
                 batch_size=4, lr=1e-3, max_epochs=2, seed=5)
        path = tmp_path / f"lm{run}.plmc"
        storage.write_checkpoint(path, {k: v.values for k, v in
                                        base.params_dict().items()},
                                 lm_meta(base))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def adapter_items(streams, k=2, seed=0):
    """Token streams where the action id reveals the next sentence's letters."""
    rng = np.random.default_rng(seed)
    return [evaluation.ScoringItem(ids=ids, actions=rng.integers(0, k, len(ids)))
            for ids in streams]


def test_finetune_adapter_freezes_base_and_learns():
    streams = toy_streams(16)
    base = make_base(seed=11)
    adapter = make_adapter(base, k=2, L=1, seed=12)
    before = {k: v.values.tobytes() for k, v in base.params_dict().items()}
    items = adapter_items(streams)
    history = train_lm(base, items[:12], items[12:], adapter=adapter,
                       batch_size=8, lr=3e-3, max_epochs=3, patience=3, seed=0)
    after = {k: v.values.tobytes() for k, v in base.params_dict().items()}
    assert before == after, "base LM parameters must stay frozen"
    assert history["train_loss"][-1] <= history["train_loss"][0] + 1e-6
    assert not any(p.requires_grad
                   for p in {**base.params_dict(),
                             **adapter.params_dict()}.values())


def train_with_full_forwards(base, items, val_items, adapter, batch_size,
                             lr, max_epochs, patience, seed):
    """`train_lm`'s adapter training, with every forward from the ids."""
    window = base.config.context_window
    examples = [ex for item in items
                for ex in window_examples(item.ids, window,
                                          pp_actions=item.actions)]

    def batch_loss(batch):
        ids = np.stack([ex.inputs for ex in batch])
        actions = np.stack([ex.actions for ex in batch])
        return ad.cross_entropy(base.forward(ids, adapter=adapter,
                                             actions=actions),
                                np.stack([ex.targets for ex in batch]))

    def val_perplexity():
        return evaluation.corpus_perplexity(logit_fn(base, adapter),
                                            val_items, window)

    return nn.fit(adapter.params_dict(), examples, lambda ex: len(ex.inputs),
                  batch_loss, batch_size, lr, max_epochs, patience, seed,
                  val_metric=val_perplexity)


@pytest.mark.parametrize("adapted", [1, 2])
def test_adapter_training_resumes_from_the_frozen_prefix(adapted):
    """Resuming each step's and each val row's forward from its frozen
    prefix trains exactly as full forwards do. The windows have 1 to 16
    tokens: two 1-token ones (items of 18 tokens), which share a batch in
    both runs, and length groups cut into batches of 4 and a remainder."""
    rng = np.random.default_rng(23)
    lengths = [18, 18, 40, 25, 33, 7, 50, 12, 30, 21, 9, 44]
    items = [evaluation.ScoringItem(ids=rng.integers(0, V, n),
                                    actions=rng.integers(0, 3, n))
             for n in lengths]
    runs = []
    for train in (train_lm, train_with_full_forwards):
        base = make_base(seed=24)
        adapter = make_adapter(base, k=3, L=adapted, seed=25)
        history = train(base, items[:9], items[9:], adapter=adapter,
                        batch_size=4, lr=3e-3, max_epochs=3, patience=3,
                        seed=26)
        runs.append((history, adapter.params_dict()))
    (got_history, got), (want_history, want) = runs
    assert got_history == want_history
    assert len(got_history["val_metric"]) == 3
    for name in want:
        np.testing.assert_array_equal(got[name].values, want[name].values)


def test_val_metric_with_kept_prefixes_equals_the_plain_scorer():
    """Kept prefixes are found by their rows' ids: the 120-token items make
    over 128 rows of 16 tokens, so two 64-row batches share a shape."""
    rng = np.random.default_rng(27)
    base = make_base()
    adapter = make_adapter(base, k=3, L=1)
    items = [evaluation.ScoringItem(ids=rng.integers(0, V, n),
                                    actions=rng.integers(0, 3, n))
             for n in (5, 17, 23) + (120,) * 10]
    want = evaluation.corpus_perplexity(logit_fn(base, adapter), items, 16)
    prefixes = {}
    kept = logit_fn(base, adapter, prefixes)
    assert evaluation.corpus_perplexity(kept, items, 16) == want
    computed = dict(prefixes)
    assert computed
    # a second pass computes nothing and scores the same
    assert evaluation.corpus_perplexity(kept, items, 16) == want
    assert prefixes.keys() == computed.keys()
    assert all(prefixes[key] is computed[key] for key in computed)


# -- insert style -----------------------------------------------------------------------


def test_insert_interleaving_hand_case():
    s = stream([3, 1, 4], [0, 0, 1])
    ext, is_action = insert_style_sequence(s, [1, 0], vocab_size=5)
    assert ext.tolist() == [6, 3, 1, 5, 4]
    assert is_action.tolist() == [True, False, False, True, False]


def test_insert_zero_actions_prefix_v():
    s = stream([3, 2], [0, 1])
    ext, _ = insert_style_sequence(s, [0, 0], vocab_size=5)
    assert ext.tolist() == [5, 3, 5, 2]


def test_insert_keeps_bos_first():
    s = stream([1, 3, 4, 2], [0, 0, 0, 1])  # leading <bos>
    ext, is_action = insert_style_sequence(s, [2, 0], vocab_size=5)
    assert ext.tolist() == [1, 7, 3, 4, 5, 2]
    assert is_action.tolist() == [False, True, False, False, True, False]


def test_insert_round_trip():
    s = stream([1, 3, 4, 2, 2], [0, 0, 0, 1, 2])
    ext, is_action = insert_style_sequence(s, [2, 0, 1], vocab_size=5)
    np.testing.assert_array_equal(ext[~is_action], s.token_ids)


def insert_by_loop(stream, actions, vocab_size):
    """The reference: walk the tokens, emitting a_j + V before the first
    non-<bos> token of each sentence j."""
    out, is_action, emitted = [], [], set()
    for tok, j in zip(stream.token_ids.tolist(),
                      stream.sentence_index_of_token.tolist()):
        if tok != BOS_ID and j not in emitted:
            out.append(vocab_size + int(actions[j]))
            is_action.append(True)
            emitted.add(j)
        out.append(tok)
        is_action.append(False)
    return np.asarray(out, dtype=np.int64), np.asarray(is_action, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(sentences=st.lists(st.lists(st.integers(0, 4), max_size=5),
                          min_size=1, max_size=6),
       leading_bos=st.booleans(), data=st.data())
def test_insert_matches_the_per_token_loop(sentences, leading_bos, data):
    # non-decreasing sentence indices, empty sentences skipped, and BOS_ID
    # (token 1) free to appear inside a sentence or fill one
    ids, sidx = ([BOS_ID], [0]) if leading_bos else ([], [])
    for j, tokens in enumerate(sentences):
        ids += tokens
        sidx += [j] * len(tokens)
    actions = data.draw(st.lists(st.integers(0, 3), min_size=len(sentences),
                                 max_size=len(sentences)))
    s = stream(ids, sidx)
    ext, is_action = insert_style_sequence(s, actions, vocab_size=5)
    want_ext, want_is_action = insert_by_loop(s, actions, vocab_size=5)
    assert ext.dtype == np.int64 and is_action.dtype == bool
    np.testing.assert_array_equal(ext, want_ext)
    np.testing.assert_array_equal(is_action, want_is_action)


def test_extend_for_insert_shapes_and_copied_rows():
    base = make_base(seed=13)
    w = 4
    extended = extend_for_insert(base, w, np.random.default_rng(0))
    assert extended.config.vocab_size == V + w
    assert extended.tok_emb.shape == (V + w, D)
    assert extended.out.w.shape == (D, V + w)
    assert extended.out.b.shape == (V + w,)
    np.testing.assert_array_equal(extended.tok_emb.values[:V],
                                  base.tok_emb.values)
    np.testing.assert_array_equal(extended.out.w.values[:, :V],
                                  base.out.w.values)


def test_external_loss_masks_action_positions():
    base = make_base(seed=14)
    extended = extend_for_insert(base, 3, np.random.default_rng(1))
    nn.set_trainable(extended.params_dict(), True)
    s = stream([1, 3, 4, 2, 2], [0, 0, 0, 1, 1])
    ext, is_action = insert_style_sequence(s, [2, 0], vocab_size=V)
    examples = window_examples(ext, window=8, countable=~is_action)
    ex = examples[0]
    logits = extended.forward(ex.inputs[None, :])
    loss = ad.cross_entropy(logits, ex.targets[None, :], ex.mask[None, :])
    ad.backward(loss)
    grad = logits.grad[0]
    action_targets = np.flatnonzero(ex.mask == 0.0)
    assert action_targets.size > 0
    assert np.abs(grad[action_targets]).max() == 0.0
    text_targets = np.flatnonzero(ex.mask == 1.0)
    assert np.abs(grad[text_targets]).max() > 0.0


def test_finetune_insert_trains_both_loci():
    base = make_base(seed=15)
    items = []
    for ids in toy_streams(8):
        s = stream(ids, np.zeros(len(ids), dtype=np.int32))
        ext, is_action = insert_style_sequence(s, [int(ids[1] % 2)], V)
        items.append(evaluation.ScoringItem(ids=ext, countable=~is_action))
    train_loss = {}
    for locus in ("external", "internal"):
        extended = extend_for_insert(base, 2, np.random.default_rng(2))
        # an internal planner also learns the action tokens: no training mask
        train = items[:6] if locus == "external" else \
            [dataclasses.replace(item, countable=None) for item in items[:6]]
        history = train_lm(extended, train, items[6:], batch_size=4,
                           lr=1e-3, max_epochs=2, patience=3, seed=0)
        assert len(history["train_loss"]) >= 1
        assert math.isfinite(history["best_val_metric"])
        train_loss[locus] = history["train_loss"][0]
    # the action-token targets are scored only for the internal locus
    assert train_loss["external"] != train_loss["internal"]


# -- regimes and persistence ----------------------------------------------------------


# (regime, action source at training time, at eval time)
ACTION_SOURCES = [
    (Regime("none"), "none", "none"),
    (Regime("fixed"), "fixed", "fixed"),
    (Regime("oracle"), "oracle", "oracle"),
    (Regime("predicted_oa"), "oracle", "planner"),
    (Regime("predicted_pa"), "planner", "planner"),
    (Regime("predicted_pa", style="insert", locus="external"), "planner",
     "planner"),
    (Regime("oracle", style="insert", locus="internal"), "oracle", "oracle"),
]


def test_regime_validation():
    for regime, train_source, eval_source in ACTION_SOURCES:
        assert regime.action_source(training=True) == train_source, regime
        assert regime.action_source(training=False) == eval_source, regime
        assert regime.needs_planner is (eval_source == "planner"), regime
    assert sorted(regime.key for regime, _, _ in ACTION_SOURCES) == \
        sorted(REGIMES)
    with pytest.raises(ValidationError):
        Regime("bogus")
    # a key is not an action source
    with pytest.raises(ValidationError):
        Regime("insert_internal_oracle")
    # of the 20 (actions, style, locus) triples only the seven regimes are
    # valid: an internal planner needs insert style, and an insert regime is
    # valid only where its name says what it does
    sources = ("none", "fixed", "oracle", "predicted_oa", "predicted_pa")
    triples = [(a, style, locus) for a in sources
               for style in ("adapter", "insert")
               for locus in ("external", "internal")]
    valid = {dataclasses.astuple(regime) for regime, _, _ in ACTION_SOURCES}
    refused = [t for t in triples if t not in valid]
    assert len(refused) == 13
    for actions, style, locus in refused:
        with pytest.raises(ValidationError,
                           match=f"style='{style}', locus='{locus}'"):
            Regime(actions, style=style, locus=locus)


@pytest.mark.parametrize("key", REGIMES)
def test_regime_key_round_trips(key):
    assert Regime.named(key).key == key
    assert Regime.named(key) in {regime for regime, _, _ in ACTION_SOURCES}


def test_unknown_regime_key_refused():
    for key in ("bogus", "insert_bogus", "insert_external_oracle", ""):
        with pytest.raises(ValidationError, match="choose from"):
            Regime.named(key)


def same_params(got, want):
    assert got.keys() == want.keys()
    for name, tensor in want.items():
        assert got[name].values.tobytes() == tensor.values.tobytes(), name


def test_adapter_checkpoint_regime_round_trip(tmp_path, request):
    base = make_base(seed=16)
    adapter = make_adapter(base, k=4, L=2, seed=17)
    request.getfixturevalue("no_normal_draws")
    regime = Regime("predicted_oa")
    path = tmp_path / "lm.plmc"
    sections = {**{k: v.values for k, v in base.params_dict().items()},
                **{k: v.values for k, v in adapter.params_dict().items()}}
    storage.write_checkpoint(path, sections, lm_meta(base, adapter, regime))
    loaded_sections, meta = storage.read_checkpoint(path)
    base2, adapter2 = lm_from_checkpoint(loaded_sections, meta)
    assert meta["kind"] == "adapter_lm"
    assert Regime(**meta["regime"]) == regime
    assert base2.config == base.config
    assert adapter2.config == adapter.config
    same_params(base2.params_dict(), base.params_dict())
    same_params(adapter2.params_dict(), adapter.params_dict())
    ids, actions = random_inputs(np.random.default_rng(3))
    np.testing.assert_allclose(
        base2.forward(ids, adapter=adapter2, actions=actions).values,
        base.forward(ids, adapter=adapter, actions=actions).values, atol=1e-7)


def test_base_lm_checkpoint_round_trip(tmp_path, request):
    base = make_base(seed=18)
    request.getfixturevalue("no_normal_draws")
    path = tmp_path / "base.plmc"
    storage.write_checkpoint(path, {k: v.values for k, v in
                                    base.params_dict().items()},
                             lm_meta(base))
    sections, meta = storage.read_checkpoint(path)
    base2, adapter2 = lm_from_checkpoint(sections, meta)
    assert meta["kind"] == "base_lm" and "regime" not in meta
    assert adapter2 is None
    assert base2.config == base.config
    same_params(base2.params_dict(), base.params_dict())
    ids = np.random.default_rng(4).integers(0, V, (1, 5))
    np.testing.assert_array_equal(base2.forward(ids).values,
                                  base.forward(ids).values)


def test_insert_lm_checkpoint_round_trip(tmp_path, request):
    base = make_base(seed=19)
    want = extend_for_insert(base, 3, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    request.getfixturevalue("no_normal_draws")
    # only the new rows are drawn, from the caller's generator
    extended = extend_for_insert(base, 3, rng)
    same_params(extended.params_dict(), want.params_dict())
    regime = Regime("oracle", style="insert", locus="internal")
    path = tmp_path / "insert.plmc"
    storage.write_checkpoint(path, {k: v.values for k, v in
                                    extended.params_dict().items()},
                             lm_meta(extended, regime=regime))
    sections, meta = storage.read_checkpoint(path)
    base2, adapter2 = lm_from_checkpoint(sections, meta)
    assert meta["kind"] == "insert_lm"
    assert Regime(**meta["regime"]) == regime
    assert adapter2 is None
    assert base2.config == extended.config
    same_params(base2.params_dict(), extended.params_dict())
    ids = np.random.default_rng(6).integers(0, V + 3, (1, 5))
    np.testing.assert_array_equal(base2.forward(ids).values,
                                  extended.forward(ids).values)
    # a checkpoint written under a now-refused insert regime name still loads
    old_meta = meta | {"regime": {"actions": "fixed", "style": "insert",
                                  "locus": "external"},
                       "n_text_tokens": V, "n_actions": 3, "locus": "external"}
    base3, _ = lm_from_checkpoint(sections, old_meta)
    np.testing.assert_array_equal(base3.forward(ids).values,
                                  extended.forward(ids).values)


# -- sliding-window scoring -------------------------------------------------------------


def test_uniform_model_perplexity_equals_vocab_size():
    base = make_base(seed=20)
    for p in base.params_dict().values():
        p.values[:] = 0.0
    rng = np.random.default_rng(6)
    items = [evaluation.ScoringItem(ids=rng.integers(0, V, 40)) for _ in range(3)]
    ppl = evaluation.corpus_perplexity(lambda i, a, _: base.forward(i).values,
                                       items, window=8)
    assert ppl == pytest.approx(V, rel=1e-5)


def test_sliding_window_counts_every_target_once():
    probs = np.array([1 / 7, 2 / 7, 4 / 7])
    table = np.log(probs)

    def logit_fn(ids, actions, noise):
        return np.tile(table, (*ids.shape, 1)).astype(np.float32)

    for n in (2, 5, 8, 9, 17):
        ids = (np.arange(n) % 3).astype(np.int64)
        items = [evaluation.ScoringItem(ids=ids)]
        total, count = evaluation.corpus_nll(logit_fn, items, window=8)
        assert count == n - 1
        want = -sum(math.log(probs[ids[t]]) for t in range(1, n))
        assert total == pytest.approx(want, rel=1e-5)


def test_countable_mask_limits_scoring():
    def logit_fn(ids, actions, noise):
        return np.zeros((*ids.shape, 4), dtype=np.float32)

    ids = np.arange(8) % 4
    countable = np.array([True, True, False, True, False, True, True, True])
    items = [evaluation.ScoringItem(ids=ids, countable=countable)]
    total, count = evaluation.corpus_nll(logit_fn, items, window=8)
    assert count == int(countable[1:].sum())
    assert total == pytest.approx(count * math.log(4), rel=1e-6)
