import itertools

import numpy as np
import pytest

from planlm.actions import assign_actions, kmeans_fit
from planlm.corpus import split_sentences
from planlm.encoder import EncoderConfig, SentenceEncoder
from planlm.errors import ValidationError
from planlm.synthdata import (TemplateGrammar, SectionSpec, cycle_transition,
                              default_grammar, generate_corpus, load_labels,
                              save_labels)


def test_corpus_counts_and_label_lengths():
    grammar = default_grammar(seed=1)
    articles, labels = generate_corpus(grammar, n_articles=20,
                                       sentences_per_article=6)
    assert len(articles) == 20
    assert all(len(labels[a.id]) == 6 for a in articles)
    assert all(len(split_sentences(a.text)) == 6 for a in articles)


def test_generation_is_deterministic():
    a1, l1 = generate_corpus(default_grammar(seed=7), 5, 4)
    a2, l2 = generate_corpus(default_grammar(seed=7), 5, 4)
    assert [a.text for a in a1] == [a.text for a in a2]
    assert l1 == l2
    a3, _ = generate_corpus(default_grammar(seed=8), 5, 4)
    assert [a.text for a in a1] != [a.text for a in a3]


def test_labels_round_trip(tmp_path):
    _, labels = generate_corpus(default_grammar(seed=2), 4, 3)
    path = tmp_path / "labels.jsonl"
    save_labels(labels, path)
    assert load_labels(path) == labels


def test_empirical_transition_matrix_converges():
    grammar = default_grammar(seed=3)
    s = grammar.n_sections
    # ~1e4 transitions
    _, labels = generate_corpus(grammar, n_articles=300,
                                sentences_per_article=35)
    counts = np.zeros((s, s))
    for seq in labels.values():
        for a, b in zip(seq, seq[1:]):
            counts[a, b] += 1
    empirical = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(empirical - grammar.transition).max() <= 0.05


def test_transition_rows_validated():
    grammar = default_grammar()
    grammar.transition[0, 0] += 0.5
    with pytest.raises(ValidationError):
        grammar.validate()


def test_templates_must_have_three_tokens():
    bad = TemplateGrammar(
        sections=[SectionSpec("x", ["hi ."], {})],
        transition=np.array([[1.0]]), initial=np.array([1.0]))
    with pytest.raises(ValidationError):
        bad.validate()


def test_cycle_transition_probabilities():
    t = cycle_transition(4, p_next=0.9, p_skip=0.05, p_stay=0.05)
    np.testing.assert_allclose(t.sum(axis=1), 1.0)
    assert t[1, 2] == pytest.approx(0.9)
    with pytest.raises(ValidationError):
        cycle_transition(4, p_next=0.9, p_skip=0.3, p_stay=0.3)


def best_matching_agreement(confusion: np.ndarray) -> float:
    s = confusion.shape[0]
    best = 0.0
    for perm in itertools.permutations(range(s)):
        best = max(best, sum(confusion[i, perm[i]] for i in range(s)))
    return best / confusion.sum()


def test_kmeans_recovers_sections_on_near_deterministic_cycle():
    grammar = default_grammar(seed=4, p_next=0.95, p_skip=0.03, p_stay=0.02)
    articles, labels = generate_corpus(grammar, n_articles=80,
                                       sentences_per_article=8)
    enc = SentenceEncoder(EncoderConfig(dim=48, hash_buckets=8192,
                                        projection_seed=0))
    rows = []
    row_labels = []
    for article in articles:
        spans = split_sentences(article.text)
        for span, label in zip(spans, labels[article.id]):
            rows.append(enc.embed_sentence(span.text(article.text)))
            row_labels.append(label)
    matrix = np.stack(rows)
    fitted = kmeans_fit(matrix, k=grammar.n_sections, seed=0)
    assigned = assign_actions(matrix, fitted)
    s = grammar.n_sections
    confusion = np.zeros((s, s))
    for label, cluster in zip(row_labels, assigned):
        confusion[label, int(cluster)] += 1
    assert best_matching_agreement(confusion) >= 0.9
