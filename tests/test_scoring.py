from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from ecsynth.demo import make_demo_corpus, make_domain_corpus
from ecsynth.records import Document, ECExample, ScoredSample
from ecsynth.scoring import (
    HEURISTIC_FLOOR,
    heuristic_weight,
    score_dataset,
    train_ngram,
)


def test_bigram_smoothed_probability_hand_computed():
    scorer = train_ngram([Document(id="d", text="a b")], order=2, delta=0.5)
    # vocab is {a, b, </s>} plus UNK: 4 outcomes
    assert scorer.n_outcomes == 4
    expected = math.log((1 + 0.5) / (1 + 0.5 * 4))
    assert scorer.log_prob(("a",), "b") == pytest.approx(expected, rel=1e-12)
    # unseen continuation from a seen context
    expected_unseen = math.log(0.5 / (1 + 0.5 * 4))
    assert scorer.log_prob(("a",), "zzz") == pytest.approx(expected_unseen, rel=1e-12)


def test_unseen_words_score_finite():
    scorer = train_ngram([Document(id="d", text="a b c")], order=2, delta=0.1)
    s = scorer.score("completely novel words nowhere in training")
    assert np.isfinite(s)
    assert s < 0


def test_training_is_deterministic():
    corpus = [Document(id=f"d{i}", text=t) for i, t in enumerate(["a b c", "b c d", "a d"])]
    s1 = train_ngram(corpus, order=3, delta=0.2)
    s2 = train_ngram(corpus, order=3, delta=0.2)
    assert s1.counts == s2.counts
    assert s1.vocab == s2.vocab
    assert s1.score("a b c d") == s2.score("a b c d")


def test_conditional_distributions_normalize():
    corpus = [
        Document(id=f"d{i}", text=t)
        for i, t in enumerate(["the cat sat", "the dog sat", "a cat ran", "the cat ran far"])
    ]
    scorer = train_ngram(corpus, order=2, delta=0.3)
    outcomes = sorted(scorer.vocab) + ["<unk>"]
    for ctx in list(scorer.counts)[:10]:
        total = sum(math.exp(scorer.log_prob(ctx, w)) for w in outcomes)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_train_ngram_validation():
    with pytest.raises(ValueError):
        train_ngram([], order=2, delta=0.1)
    doc = [Document(id="d", text="a b")]
    with pytest.raises(ValueError):
        train_ngram(doc, order=0, delta=0.1)
    with pytest.raises(ValueError):
        train_ngram(doc, order=6, delta=0.1)
    with pytest.raises(ValueError):
        train_ngram(doc, order=2, delta=0.0)


def test_score_is_average_not_sum():
    corpus = [Document(id=f"d{i}", text="alpha beta gamma delta " * 3) for i in range(4)]
    scorer = train_ngram(corpus, order=2, delta=0.1)
    sentence = "alpha beta gamma delta " * 12
    doubled = sentence + " " + sentence
    assert abs(scorer.score(doubled) - scorer.score(sentence)) < 0.05


def test_score_dataset_identity_when_scorers_equal():
    corpus = [Document(id="d", text="the cat sat on the mat")]
    scorer = train_ngram(corpus, order=2, delta=0.1)
    examples = [ECExample(id=f"e{i}", source="x y", target=f"the cat {i}") for i in range(5)]
    scored = score_dataset(examples, scorer, scorer)
    for s in scored:
        assert s.s_p == s.s_f
    # deterministic
    again = score_dataset(examples, scorer, scorer)
    assert scored == again


def test_score_dataset_uses_targets_not_sources():
    corpus = [Document(id="d", text="clean text here")]
    scorer = train_ngram(corpus, order=1, delta=0.1)
    a = ECExample(id="a", source="garbage qqq zzz", target="clean text here")
    b = ECExample(id="b", source="other junk www", target="clean text here")
    sa, sb = score_dataset([a, b], scorer, scorer)
    assert sa.s_p == sb.s_p


def test_domain_scorer_prefers_domain_style_targets():
    public = train_ngram(make_demo_corpus(400), order=2, delta=0.1)
    domain = train_ngram(make_domain_corpus(400), order=2, delta=0.1)
    chat_targets = [
        ECExample(id=f"c{i}", source="x x", target=d.text)
        for i, d in enumerate(make_domain_corpus(60, seed=999))
    ]
    formal_targets = [
        ECExample(id=f"f{i}", source="x x", target=d.text)
        for i, d in enumerate(make_demo_corpus(60, seed=999))
    ]
    chat_gap = np.mean([s.s_f - s.s_p for s in score_dataset(chat_targets, public, domain)])
    formal_gap = np.mean([s.s_f - s.s_p for s in score_dataset(formal_targets, public, domain)])
    assert chat_gap > formal_gap


def test_heuristic_weight_truth_table():
    assert heuristic_weight(ScoredSample("a", s_p=-5.0, s_f=-4.0)) == 1.0
    assert heuristic_weight(ScoredSample("b", s_p=-7.0, s_f=-6.0)) == 0.0  # fails floor
    assert heuristic_weight(ScoredSample("c", s_p=-3.0, s_f=-3.0)) == 0.0  # strict inequality
    assert HEURISTIC_FLOOR == -5.0
    # floor boundary is strict too
    assert heuristic_weight(ScoredSample("d", s_p=-6.0, s_f=-5.0)) == 0.0


def test_score_includes_end_event_for_whitespace_only_tokens():
    scorer = train_ngram([Document(id="d", text="a b")], order=2, delta=0.5)
    assert np.isfinite(scorer.score("a"))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_score_is_the_mean_of_log_prob_bit_for_bit(order):
    scorer = train_ngram(make_demo_corpus(300, 4), order=order, delta=0.2)
    for sentence in ("the cat sat on the mat", "<s> unseen WORDS </s> here", "one"):
        padded = ["<s>"] * (order - 1) + sentence.lower().split() + ["</s>"]
        total = 0.0
        for i in range(order - 1, len(padded)):
            total += scorer.log_prob(padded[i - order + 1 : i], padded[i])
        assert scorer.score(sentence) == total / (len(padded) - order + 1)


@pytest.fixture(scope="module")
def corpus_20k():
    return make_demo_corpus(20000, 3)


@pytest.mark.parametrize(
    "order, digest",
    [
        (1, "20843401406cc5f5ba6bd6ea033fa3a618bdfa51ddcf635858ad22b622c532f8"),
        (3, "46a83b1dcd515ba9add6e5669e0c0418496e5d622f8afcf82813df0b63c3165d"),
        (5, "58fddf4f2bc66a8bb293b61b13932290a1ec2b7db11458bae4c17697c117fcc5"),
    ],
)
def test_scores_over_a_20k_corpus_are_pinned(corpus_20k, order, digest):
    # the digests were taken from the implementation that counted and scored
    # one position at a time; each half of the corpus trains one model, so
    # every score mixes seen and unseen n-grams
    half = len(corpus_20k) // 2
    public = train_ngram(corpus_20k[:half], order, 0.1)
    domain = train_ngram(corpus_20k[half:], order, 0.5)
    examples = [ECExample(id=d.id, source=d.text, target=d.text) for d in corpus_20k]
    h = hashlib.sha256()
    for s in score_dataset(examples, public, domain):
        h.update(f"{s.sample_id}\t{s.s_p!r}\t{s.s_f!r}\n".encode())
    assert h.hexdigest() == digest
