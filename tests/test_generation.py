import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm import generation, nn
from planlm.actions import assign_action, kmeans_fit
from planlm.corpus import (BOS_ID, TERMINALS, Vocabulary, detokenize,
                           split_sentences, word_tokens)
from planlm.encoder import EncoderConfig, SentenceEncoder
from planlm.errors import ValidationError
from planlm.generation import (GenerationConfig, GenerationRecord, Prefix,
                               _sentence_complete, generate, sample_tokens)
from planlm.lm import (FIXED_ACTION_ID, ActionAdapter, AdapterConfig, BaseLM,
                       LmConfig)
from planlm.planner import PlannerConfig, PlannerModel
from planlm.synthdata import default_grammar, generate_corpus

VOCAB = Vocabulary(["<unk>", "<bos>", "the", "cat", "dog", "ran", "sat",
                    "big", "red", "."])
ENC_CFG = EncoderConfig(dim=16, hash_buckets=512, projection_seed=1)
LM_CFG = LmConfig(vocab_size=VOCAB.size, d_model=16, n_layers=1, n_heads=2,
                  context_window=12)


def tiny_world(k=2, seed=0):
    rng = np.random.default_rng(seed)
    base = BaseLM(LM_CFG, rng)
    enc = SentenceEncoder(ENC_CFG)
    sample = ["The cat ran.", "The dog sat.", "Big red cat.", "The big dog ran."]
    embeddings = np.stack([enc.embed_sentence(t) for t in sample])
    action_set = kmeans_fit(embeddings, k=k, seed=0)
    adapter = ActionAdapter(
        AdapterConfig(n_actions=k, action_dim=ENC_CFG.dim, adapted_layers=1,
                      init="centroids"),
        LM_CFG, rng, centroids=action_set.centroids)
    planner = PlannerModel(
        PlannerConfig(dim=ENC_CFG.dim, n_actions=k, n_layers=1, n_heads=2,
                      context_limit=8, head_init="random"),
        rng)
    return base, adapter, action_set, planner, enc


def decode(regime, config, base, adapter, action_set, planner, enc,
           prefixes):
    """Regime "none" decodes without the adapter, and only "predicted_pa"
    re-plans."""
    return generate(base, adapter if regime != "none" else None, VOCAB, config,
                    enc, action_set, prefixes,
                    planner=planner if regime == "predicted_pa" else None)


def run(regime, config, base, adapter, action_set, planner, enc, seed=0,
        **prefix):
    """The record of one row, from <bos> alone unless the caller gives the
    prefix's ids."""
    prefix.setdefault("ids", np.array([BOS_ID], dtype=np.int64))
    (record,) = decode(regime, config, base, adapter, action_set, planner,
                       enc, [Prefix(seed=seed, **prefix)])
    return record


def test_output_length_capped():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=17)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner, enc)
    assert len(rec.token_ids) <= 17
    assert rec.prefix_len == 1


def test_greedy_generation_is_deterministic():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=12, temperature=0.0)
    a = run("fixed", cfg, base, adapter, action_set, planner, enc, seed=3)
    b = run("fixed", cfg, base, adapter, action_set, planner, enc, seed=3)
    assert a.token_ids == b.token_ids
    assert a.text == b.text


def test_same_seed_sampling_is_deterministic():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=30, temperature=1.0)
    a = run("predicted_pa", cfg, base, adapter, action_set, planner, enc, 9)
    b = run("predicted_pa", cfg, base, adapter, action_set, planner, enc, 9)
    assert a.token_ids == b.token_ids
    assert a.planned_actions == b.planned_actions


def test_single_action_vocabulary_always_follows_plan():
    base, adapter, action_set, planner, enc = tiny_world(k=1)
    cfg = GenerationConfig(max_tokens=60, temperature=1.0)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner, enc, 1)
    assert rec.planned_actions, "expected at least one complete sentence"
    assert rec.plan_following_rate() == 1.0


def test_rate_absent_without_complete_sentences():
    rec = GenerationRecord(article_id="a", prefix_len=1)
    assert rec.plan_following_rate() is None
    assert rec.to_json_dict()["plan_following_rate"] is None


def test_constant_planner_stub_matches_fixed_regime():
    base, adapter, action_set, planner, enc = tiny_world()

    class ConstantPlanner(PlannerModel):
        def predict_next_action(self, context):
            return 0

    stub = ConstantPlanner.__new__(ConstantPlanner)
    stub.config = planner.config
    cfg = GenerationConfig(max_tokens=25, temperature=1.0)
    fixed = run("fixed", cfg, base, adapter, action_set, planner, enc, 7)
    stubbed = run("predicted_pa", cfg, base, adapter, action_set,
                  stub, enc, 7)
    assert stubbed.token_ids == fixed.token_ids


def test_conditioning_action_constant_between_boundaries():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=40, temperature=1.0)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner, enc, 5)
    terminal_id = VOCAB.id_of(".")
    for i in range(1, len(rec.token_ids)):
        if rec.token_actions[i] != rec.token_actions[i - 1]:
            # the action may only switch right after a sentence boundary
            assert rec.token_ids[i - 1] == terminal_id


def test_sliding_window_never_exceeds_context(monkeypatch):
    base, adapter, action_set, planner, enc = tiny_world()
    window = LM_CFG.context_window - 1
    seen = []  # (cached, new) positions of each forward of one row
    held = []  # (row lengths, key columns) of a cache after each change
    forward, put = base.forward, nn.KVCache.put

    def hold(cache):
        held.append((cache.lengths.copy(),
                     {a.shape[2] for kv in cache.layers for a in kv}))

    def spy(ids, cache=None, **kwargs):
        seen.append((int(cache.lengths.max()), ids.shape[1]))
        out = forward(ids, cache=cache, **kwargs)
        hold(cache)
        return out

    def spy_put(cache, rows, part):
        put(cache, rows, part)
        hold(cache)

    base.forward = spy
    monkeypatch.setattr(nn.KVCache, "put", spy_put)
    cfg = GenerationConfig(max_tokens=40, temperature=1.0)
    run("predicted_pa", cfg, base, adapter, action_set, planner, enc, 4)
    assert len(seen) == 40
    assert max(past + new for past, new in seen) == window
    fills = [new for past, new in seen if past == 0]
    assert fills[0] == 1 and fills[1:] == [window // 2] * (len(fills) - 1)
    assert len(fills) > 1, "40 tokens overflow the window, so it refills"

    # rows of different prefix lengths refill at different steps
    held.clear()
    the = VOCAB.id_of("the")
    decode("predicted_pa", cfg, base, adapter, action_set, planner, enc,
           [Prefix(np.array([BOS_ID] + [the] * n), seed=n) for n in (0, 3, 7)])
    assert any(len(set(lengths)) == 3 for lengths, _ in held)
    assert max(lengths.max() for lengths, _ in held) == window
    for lengths, columns in held:
        assert lengths.max() <= window
        assert columns == {lengths.max()}


def sample_token(logits, temperature, top_k, rng):
    """The one-row sampler that `sample_tokens` replaced, as the reference."""
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


def uncached_generate(regime, config, base, adapter, action_set, planner, enc,
                      prefix):
    """The decoder of one row without a cache: it re-runs the last `window`
    tokens for every sampled token, with no prefix actions or embeddings."""
    conditioned, uses_planner = regime != "none", regime == "predicted_pa"
    window = base.config.context_window - 1
    rng = np.random.default_rng(prefix.seed)
    ids = [int(t) for t in prefix.ids]
    act_of_token = [FIXED_ACTION_ID] * len(ids)
    current_action = FIXED_ACTION_ID if conditioned else None
    context = np.zeros((0, ENC_CFG.dim), dtype=np.float32)
    if uses_planner:
        current_action = planner.predict_next_action(context)
    record = GenerationRecord(article_id="", prefix_len=len(ids))
    sentence = []
    for _ in range(config.max_tokens):
        w0 = max(0, len(ids) - window)
        win = np.asarray([ids[w0:]], dtype=np.int64)
        if conditioned:
            pp = np.asarray([act_of_token[w0 + 1:] + [current_action]],
                            dtype=np.int64)
            logits = base.forward(win, adapter=adapter, actions=pp)
        else:
            logits = base.forward(win)
        token = sample_token(logits.values[0, -1], config.temperature,
                             config.top_k, rng)
        ids.append(token)
        record.token_ids.append(token)
        if conditioned:
            act_of_token.append(current_action)
            record.token_actions.append(current_action)
        sentence.append(VOCAB.token_of(token))
        text = detokenize(sentence)
        if sentence[-1] in TERMINALS and _sentence_complete(text):
            z = enc.embed_sentence(text)
            record.realized_actions.append(assign_action(z, action_set))
            record.sentence_ends.append(len(record.token_ids))
            if uses_planner:
                record.planned_actions.append(current_action)
                context = np.vstack([context, z[None, :]])
                current_action = planner.predict_next_action(context)
            sentence = []
    record.text = detokenize([VOCAB.token_of(t) for t in record.token_ids])
    return record


@pytest.mark.parametrize("regime", ["none", "fixed", "predicted_pa"])
def test_cached_decoder_matches_uncached_inside_the_window(regime):
    base, adapter, action_set, planner, enc = tiny_world()
    logits = []  # the last position's logits of every forward
    forward = base.forward

    def spy(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out.values[0, -1])
        return out

    base.forward = spy
    window = LM_CFG.context_window - 1
    world = (base, adapter, action_set, planner, enc)
    prefixes = [Prefix(np.array([BOS_ID] + [VOCAB.id_of("the")] * (seed % 4),
                                dtype=np.int64), seed)
                for seed in range(8)]
    closed = replans = 0
    for prefix in prefixes:
        cfg = GenerationConfig(max_tokens=window - len(prefix.ids),
                               temperature=1.0)
        logits.clear()
        (got,) = decode(regime, cfg, *world, [prefix])
        n = len(logits)
        want = uncached_generate(regime, cfg, *world, prefix)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.token_actions == want.token_actions
        np.testing.assert_allclose(logits[:n], logits[n:], rtol=0, atol=1e-6)
        closed += len(got.sentence_ends)
        replans += len(got.planned_actions)
    if regime != "none":
        assert closed > 0, "no sentence closed, so none was checked"
    if regime == "predicted_pa":
        assert replans > 0, "no re-plan was checked"

    # every row of one batch matches the reference too; none overflows
    cfg = GenerationConfig(max_tokens=window - 4, temperature=1.0)
    batch = decode(regime, cfg, *world, prefixes)
    assert len(batch) == len(prefixes)
    for got, prefix in zip(batch, prefixes):
        want = uncached_generate(regime, cfg, *world, prefix)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.token_actions == want.token_actions


def test_a_rows_decode_does_not_depend_on_its_batch(monkeypatch):
    """context_window=12 makes every row refill, and rows of different
    prefix lengths refill at different steps."""
    base, adapter, action_set, planner, enc = tiny_world()
    the, cat, dog, dot = (VOCAB.id_of(w) for w in ("the", "cat", "dog", "."))
    a = Prefix(np.array([BOS_ID, the, cat]), seed=0)
    b = Prefix(np.array([BOS_ID, the, dog, dot, the, cat]), seed=1)
    c = Prefix(np.array([BOS_ID]), seed=2)
    seen, takes = [], []  # logits of every step; rows of every subset step
    sample, take = generation.sample_tokens, nn.KVCache.take

    def spy(logits, *args):
        seen.append(logits.copy())
        return sample(logits, *args)

    def spy_take(cache, rows):
        takes.append(len(rows))
        return take(cache, rows)

    monkeypatch.setattr(generation, "sample_tokens", spy)
    monkeypatch.setattr(nn.KVCache, "take", spy_take)
    cfg = GenerationConfig(max_tokens=40, temperature=0.0)
    runs = []
    for batch in ([a], [a, b], [b, c, a]):
        seen.clear()
        records = decode("predicted_pa", cfg, base, adapter, action_set,
                         planner, enc, batch)
        row = [p is a for p in batch].index(True)
        runs.append((records[row], np.stack([s[row] for s in seen])))
    assert takes, "no row refilled while the others stepped"
    (want, want_logits), rest = runs[0], runs[1:]
    assert want.sentence_ends, "no sentence closed, so no re-plan was checked"
    for got, logits in rest:
        assert got.token_ids == want.token_ids
        assert got.realized_actions == want.realized_actions
        assert got.sentence_ends == want.sentence_ends
        np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-5)


@pytest.mark.parametrize("regime", ["none", "predicted_pa"])
def test_every_closed_sentence_records_its_action_and_end(regime):
    base, adapter, action_set, planner, enc = tiny_world()
    closed = 0
    for seed in range(4):
        cfg = GenerationConfig(max_tokens=40, temperature=1.0)
        rec = run(regime, cfg, base, adapter, action_set, planner, enc, seed)
        ends = rec.to_json_dict()["sentence_ends"]
        assert len(ends) == len(rec.realized_actions)
        assert all(a < b for a, b in zip(ends, ends[1:]))
        assert all(VOCAB.token_of(rec.token_ids[end - 1]) in TERMINALS
                   for end in ends)
        closed += len(ends)
    assert closed > 0, "no sentence closed, so nothing was checked"


def test_decoder_closing_rule_counts_the_splitters_sentences():
    # the decoder sees lowercased tokens; the splitter sees the original text
    articles, _ = generate_corpus(default_grammar(seed=0), 200, 24)
    for article in articles:
        closed, sentence = 0, []
        for token in word_tokens(article.text):
            sentence.append(token)
            if token in TERMINALS and _sentence_complete(detokenize(sentence)):
                closed, sentence = closed + 1, []
        assert closed == len(split_sentences(article.text)), article.id


def test_conditional_mode_requires_prefix():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=5)
    for prefix in (None, np.zeros(0, dtype=np.int64)):
        with pytest.raises(ValidationError):
            run("fixed", cfg, base, adapter, action_set, planner, enc,
                ids=prefix)


def test_conditional_prefix_threads_through():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=8, temperature=0.0)
    prefix = np.array([1, VOCAB.id_of("the"), VOCAB.id_of("cat"),
                       VOCAB.id_of(".")], dtype=np.int64)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner,
              enc, ids=prefix, token_actions=np.zeros(4, dtype=np.int64),
              sentence_embeddings=enc.embed_sentence("the cat.")[None, :],
              article_id="art7")
    assert rec.prefix_len == 4
    assert rec.article_id == "art7"
    assert len(rec.token_ids) == 8


# -- sampling -------------------------------------------------------------------


def test_sample_token_greedy_ties_take_lowest_id():
    logits = np.array([[1.0, 3.0, 3.0, 0.0]], dtype=np.float32)
    assert sample_tokens(logits, 0.0, 40, [np.random.default_rng(0)]) == [1]


def test_sample_token_top_k_restricts_support():
    logits = np.array([[5.0, 4.0, -1.0, -2.0]], dtype=np.float32)
    rng = np.random.default_rng(0)
    draws = {t for _ in range(50) for t in sample_tokens(logits, 1.0, 2, [rng])}
    assert draws <= {0, 1}


def test_sample_token_temperature_sharpens():
    logits = np.array([[2.0, 0.0]], dtype=np.float32)
    rng = np.random.default_rng(0)
    cold = [t for _ in range(30) for t in sample_tokens(logits, 0.05, 2, [rng])]
    assert set(cold) == {0}


class RecordingRng:
    """A generator that records the probabilities it is asked to draw from."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.probs = []

    def choice(self, n, p):
        self.probs.append(p.tobytes())
        return self.rng.choice(n, p=p)


LOGIT = st.one_of(st.sampled_from([-2.0, 0.0, 0.5, 3.0]),
                  st.floats(-30, 30, width=32))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda v: st.lists(
           st.lists(LOGIT, min_size=v + 2, max_size=v + 2),
           min_size=1, max_size=4)),
       temperature=st.sampled_from([0.0, 0.3, 1.0, 1.7]),
       top_k=st.integers(0, 7))
def test_sample_tokens_match_the_one_row_sampler_bitwise(rows, temperature,
                                                         top_k):
    logits = np.asarray(rows, dtype=np.float32)
    got_rngs = [RecordingRng(i) for i in range(len(rows))]
    want_rngs = [RecordingRng(i) for i in range(len(rows))]
    got = sample_tokens(logits, temperature, top_k, got_rngs)
    want = [sample_token(row, temperature, top_k, rng)
            for row, rng in zip(logits, want_rngs)]
    assert got == want
    for g, w in zip(got_rngs, want_rngs):
        assert g.probs == w.probs
