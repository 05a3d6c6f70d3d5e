import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm import storage
from planlm.corpus import Article
from planlm.encoder import (EncoderConfig, SentenceEncoder, embed_corpus,
                            empty_sentence_vector, group_rows_by_article)
from planlm.errors import ValidationError

CFG = EncoderConfig(dim=32, hash_buckets=4096, projection_seed=11)


def embed_sentence(text, config):
    return SentenceEncoder(config).embed_sentence(text)


def cosine(a, b):
    return float(np.dot(a, b))


def test_identical_strings_identical_vectors():
    a = embed_sentence("The cat sat on the mat.", CFG)
    b = embed_sentence("The cat sat on the mat.", CFG)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=100)
@given(st.text(min_size=1, max_size=80))
def test_nonempty_strings_are_unit_norm(text):
    vec = embed_sentence(text, CFG)
    assert vec.shape == (CFG.dim,)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6


def test_near_duplicate_closer_than_unrelated():
    enc = SentenceEncoder(CFG)
    base = enc.embed_sentence("the cat sat")
    near = enc.embed_sentence("the cat sits")
    far = enc.embed_sentence("quarterly earnings report")
    assert cosine(base, near) > cosine(base, far)


def test_empty_text_maps_to_basis_vector():
    assert np.array_equal(embed_sentence("", CFG), empty_sentence_vector(CFG.dim))
    assert np.array_equal(embed_sentence("  \n ", CFG),
                          empty_sentence_vector(CFG.dim))


def test_seed_change_changes_vectors_but_keeps_norm():
    other = EncoderConfig(dim=32, hash_buckets=4096, projection_seed=12)
    a = embed_sentence("some sentence", CFG)
    b = embed_sentence("some sentence", other)
    assert not np.array_equal(a, b)
    assert abs(np.linalg.norm(b) - 1.0) <= 1e-6


def test_config_validation():
    with pytest.raises(ValidationError):
        EncoderConfig(dim=4)
    with pytest.raises(ValidationError):
        EncoderConfig(dim=64, hash_buckets=32)


def test_embed_corpus_shape_and_rows():
    art = Article("a", "", "One here. Two there. Three everywhere.")
    matrix, index = embed_corpus([art], CFG)
    assert matrix.shape == (3, CFG.dim)
    assert index == [("a", 0), ("a", 1), ("a", 2)]
    enc = SentenceEncoder(CFG)
    np.testing.assert_array_equal(matrix[1], enc.embed_sentence("Two there."))


def test_embed_corpus_rerun_bit_identical(tmp_path):
    arts = [Article("a", "", "Alpha one. Beta two."),
            Article("b", "", "Gamma three.")]
    p1, p2 = tmp_path / "m1.plmb", tmp_path / "m2.plmb"
    for p in (p1, p2):
        matrix, _ = embed_corpus(arts, CFG)
        storage.write_matrix(p, matrix)
    assert p1.read_bytes() == p2.read_bytes()


def test_permuting_sentences_permutes_rows():
    a1 = Article("a", "", "First bit. Second bit.")
    a2 = Article("a", "", "Second bit. First bit.")
    m1, _ = embed_corpus([a1], CFG)
    m2, _ = embed_corpus([a2], CFG)
    np.testing.assert_array_equal(m1, m2[[1, 0]])


def test_group_rows_by_article():
    arts = [Article("a", "", "One. Two."), Article("b", "", "Three.")]
    matrix, index = embed_corpus(arts, CFG)
    grouped = group_rows_by_article(matrix, index)
    assert set(grouped) == {"a", "b"}
    assert grouped["a"].shape == (2, CFG.dim)
    np.testing.assert_array_equal(grouped["b"][0], matrix[2])


def test_matrix_round_trip(tmp_path):
    mat = np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32)
    path = tmp_path / "m.plmb"
    storage.write_matrix(path, mat)
    np.testing.assert_array_equal(storage.read_matrix(path), mat)
    assert path.read_bytes()[:4] == b"PLMB"


def test_matrix_index_round_trip(tmp_path):
    idx = [("a", 0), ("a", 1), ("b", 0)]
    path = tmp_path / "m.idx"
    storage.write_matrix_index(path, idx)
    assert storage.read_matrix_index(path) == idx
