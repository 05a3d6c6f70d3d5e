import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm import corpus
from planlm.corpus import (Article, Vocabulary, build_vocabulary, detokenize,
                           split_corpus, split_sentences, tokenize, word_tokens)
from planlm.errors import ValidationError


def texts(spans, source):
    return [s.text(source) for s in spans]


def split_and_tokenize(article, vocab):
    return tokenize(article, vocab,
                    texts(split_sentences(article.text), article.text))


def sentence_tokens(stream, j):
    """The token ids of sentence j, without the leading <bos>."""
    return tuple(stream.token_ids[1:][stream.sentence_index_of_token[1:] == j])


# -- sentence splitting --------------------------------------------------------


def test_split_two_plain_sentences():
    t = "Hello world. Bye."
    assert texts(split_sentences(t), t) == ["Hello world.", "Bye."]


def test_split_empty_text():
    assert split_sentences("") == []
    assert split_sentences("   \n ") == []


def test_split_respects_abbreviations():
    t = "Dr. Smith arrived. He left."
    assert texts(split_sentences(t), t) == ["Dr. Smith arrived.", "He left."]


def test_split_all_terminals():
    t = "Wait! Really? Yes."
    assert texts(split_sentences(t), t) == ["Wait!", "Really?", "Yes."]


def test_no_split_before_lowercase():
    t = "He said hi. then left."
    assert texts(split_sentences(t), t) == ["He said hi. then left."]


def test_blank_line_always_splits():
    t = "First header\n\nThen prose."
    assert texts(split_sentences(t), t) == ["First header", "Then prose."]


def test_terminal_at_end_of_text():
    t = "One. Two"
    assert texts(split_sentences(t), t) == ["One.", "Two"]


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(codec="utf-8", categories=(
    "Lu", "Ll", "Nd", "Po", "Zs", "Cc")), max_size=200))
def test_spans_cover_all_non_whitespace(text):
    spans = split_sentences(text)
    covered = np.zeros(len(text), dtype=bool)
    prev_end = -1
    for s in spans:
        assert s.char_start > prev_end
        assert s.char_start <= s.char_end - 1
        assert not text[s.char_start].isspace()
        assert not text[s.char_end - 1].isspace()
        covered[s.char_start:s.char_end] = True
        prev_end = s.char_end - 1
    for i, c in enumerate(text):
        if not c.isspace():
            assert covered[i], f"char {i!r} uncovered"


@given(st.text(max_size=200))
def test_split_is_deterministic(text):
    a = [(s.char_start, s.char_end) for s in split_sentences(text)]
    b = [(s.char_start, s.char_end) for s in split_sentences(text)]
    assert a == b


# -- vocabulary ------------------------------------------------------------------


def art(i, text):
    return Article(f"a{i}", f"t{i}", text)


def test_vocabulary_all_tokens_fit():
    vocab = build_vocabulary([art(0, "a a b")], max_size=4)
    assert vocab.tokens == ["<unk>", "<bos>", "a", "b"]


def test_vocabulary_frequency_then_lexicographic():
    vocab = build_vocabulary([art(0, "a a b c")], max_size=3)
    assert vocab.tokens == ["<unk>", "<bos>", "a"]
    assert vocab.id_of("b") == corpus.UNK_ID
    assert vocab.id_of("c") == corpus.UNK_ID


def test_vocabulary_empty_corpus():
    vocab = build_vocabulary([], max_size=10)
    assert vocab.tokens == ["<unk>", "<bos>"]


def test_vocabulary_max_size_too_small():
    with pytest.raises(ValidationError):
        build_vocabulary([], max_size=2)


def test_vocabulary_round_trip(tmp_path):
    vocab = build_vocabulary([art(0, "x y. z!")], max_size=16)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.id_of("y") == vocab.id_of("y")


def test_word_tokens_rule():
    assert word_tokens("It's 2-in-1.") == ["it", "'", "s", "2", "-", "in", "-",
                                           "1", "."]


# -- tokenize --------------------------------------------------------------------


def test_tokenize_alignment():
    a = Article("a", "", "A b. C.")
    vocab = build_vocabulary([a], max_size=16)
    stream = split_and_tokenize(a, vocab)
    want = [corpus.BOS_ID, vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("."),
            vocab.id_of("c"), vocab.id_of(".")]
    assert stream.token_ids.tolist() == want
    assert stream.token_ids.dtype == np.int64  # the dtype the LM takes
    assert stream.sentence_index_of_token.tolist() == [0, 0, 0, 0, 1, 1]
    assert sentence_tokens(stream, 0) == tuple(want[1:4])


def test_tokenize_oov_sentence_kept():
    a = Article("a", "", "Xx yy. Zz.")
    vocab = Vocabulary(["<unk>", "<bos>", "zz", "."])
    stream = split_and_tokenize(a, vocab)
    assert sentence_tokens(stream, 0) == (corpus.UNK_ID, corpus.UNK_ID,
                                          vocab.id_of("."))


def test_tokenize_maps_the_sentences_it_is_given():
    a = Article("a", "", "A b. C.")
    vocab = build_vocabulary([a], max_size=16)
    stream = tokenize(a, vocab, ["A b. C."])
    assert stream.token_ids.tolist() == \
        split_and_tokenize(a, vocab).token_ids.tolist()
    assert set(stream.sentence_index_of_token.tolist()) == {0}


def test_tokenize_single_sentence_all_zero_indices():
    a = Article("a", "", "just one sentence here")
    vocab = build_vocabulary([a], max_size=16)
    stream = split_and_tokenize(a, vocab)
    assert set(stream.sentence_index_of_token.tolist()) == {0}


@given(st.lists(st.sampled_from(["Aa bb.", "Cc dd!", "Ee ff?"]), min_size=1,
                max_size=6))
def test_sentence_indices_non_decreasing_by_at_most_one(pieces):
    a = Article("a", "", " ".join(pieces))
    vocab = build_vocabulary([a], max_size=64)
    idx = split_and_tokenize(a, vocab).sentence_index_of_token
    assert idx[0] == 0
    diffs = np.diff(idx)
    assert ((diffs == 0) | (diffs == 1)).all()


def test_tokenize_is_deterministic():
    a = Article("a", "", "Some words here. And more there.")
    vocab = build_vocabulary([a], max_size=32)
    s1, s2 = split_and_tokenize(a, vocab), split_and_tokenize(a, vocab)
    assert s1.token_ids.tobytes() == s2.token_ids.tobytes()
    assert s1.sentence_index_of_token.tobytes() == s2.sentence_index_of_token.tobytes()


def test_detokenize_attaches_punctuation():
    assert detokenize(["the", "cat", "sat", ".", "done", "!"]) == "the cat sat. done!"


# -- corpus splits ----------------------------------------------------------------


def corpus10():
    return [art(i, f"text {i}.") for i in range(10)]


def test_split_corpus_sizes():
    train, val, test = split_corpus(corpus10(), seed=1, n_val=1, n_test=1)
    assert (len(train), len(val), len(test)) == (8, 1, 1)
    ids = {a.id for a in train} | {a.id for a in val} | {a.id for a in test}
    assert len(ids) == 10


def test_split_corpus_deterministic():
    a = split_corpus(corpus10(), seed=7, n_val=2, n_test=3)
    b = split_corpus(corpus10(), seed=7, n_val=2, n_test=3)
    assert [[x.id for x in part] for part in a] == [[x.id for x in part] for part in b]


def test_split_corpus_too_small():
    with pytest.raises(ValidationError):
        split_corpus(corpus10(), seed=0, n_val=5, n_test=5)


# -- article io --------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    articles = [art(0, "Alpha beta."), art(1, "Gamma delta.")]
    corpus.save_articles_jsonl(articles, path)
    loaded = corpus.load_articles(path)
    assert loaded == articles


def test_txt_dir_loading(tmp_path):
    (tmp_path / "a1.txt").write_text("Title One\nBody text here.")
    (tmp_path / "a2.txt").write_text("Title Two\nMore body.")
    loaded = corpus.load_articles(tmp_path)
    assert [a.id for a in loaded] == ["a1", "a2"]
    assert loaded[0].title == "Title One"
    assert loaded[0].text.strip() == "Body text here."


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "x", "text": "a."}\n{"id": "x", "text": "b."}\n')
    with pytest.raises(ValidationError):
        corpus.load_articles(path)


def test_empty_article_rejected():
    with pytest.raises(ValidationError):
        Article("a", "", "   ")
