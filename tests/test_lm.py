import dataclasses
import math

import numpy as np
import pytest

from planlm import autodiff as ad
from planlm import evaluation, nn, storage
from planlm.corpus import TokenStream
from planlm.errors import ValidationError
from planlm.lm import (REGIMES, ActionAdapter, AdapterConfig, BaseLM,
                       LmConfig, Regime,
                       extend_for_insert, insert_style_sequence,
                       lm_from_checkpoint, lm_meta, per_position_actions,
                       select_action_for_position, train_lm, window_examples)

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
    return TokenStream(article_id, np.asarray(ids, dtype=np.int32),
                       np.asarray(sidx, dtype=np.int32))


# -- action/position alignment ---------------------------------------------------


def test_select_action_for_position_hand_case():
    s = stream([9, 9, 9, 9, 9], [0, 0, 0, 1, 1])
    oracle = [7, 2]
    assert [select_action_for_position(s, oracle, p) for p in range(4)] == \
        [7, 7, 2, 2]
    assert select_action_for_position(s, oracle, 4) == 2  # past the end


def test_per_position_actions_matches_scalar_rule():
    s = stream([9] * 6, [0, 0, 1, 1, 2, 2])
    oracle = [5, 3, 8]
    vec = per_position_actions(s, oracle)
    want = [select_action_for_position(s, oracle, p) for p in range(6)]
    assert vec.tolist() == want


def test_single_sentence_article_constant_action():
    s = stream([9, 9, 9], [0, 0, 0])
    assert per_position_actions(s, [4]).tolist() == [4, 4, 4]


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
    assert cache.layers[0][0].shape[2] == 11
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


def test_adapter_checkpoint_regime_round_trip(tmp_path):
    base = make_base(seed=16)
    adapter = make_adapter(base, k=4, L=2, seed=17)
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
    ids, actions = random_inputs(np.random.default_rng(3))
    np.testing.assert_allclose(
        base2.forward(ids, adapter=adapter2, actions=actions).values,
        base.forward(ids, adapter=adapter, actions=actions).values, atol=1e-7)


def test_base_lm_checkpoint_round_trip(tmp_path):
    base = make_base(seed=18)
    path = tmp_path / "base.plmc"
    storage.write_checkpoint(path, {k: v.values for k, v in
                                    base.params_dict().items()},
                             lm_meta(base))
    sections, meta = storage.read_checkpoint(path)
    base2, adapter2 = lm_from_checkpoint(sections, meta)
    assert meta["kind"] == "base_lm" and "regime" not in meta
    assert adapter2 is None
    assert base2.config == base.config
    ids = np.random.default_rng(4).integers(0, V, (1, 5))
    np.testing.assert_array_equal(base2.forward(ids).values,
                                  base.forward(ids).values)


def test_insert_lm_checkpoint_round_trip(tmp_path):
    base = make_base(seed=19)
    extended = extend_for_insert(base, 3, np.random.default_rng(5))
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
