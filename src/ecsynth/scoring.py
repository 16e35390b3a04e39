"""Dual sentence scorers and the {0,1} heuristic filter baseline.

A Scorer maps a sentence to its average log-likelihood per predicted word
(natural log, includes the end-of-sentence event, so a proper model scores
<= 0). Production uses two small LMs: one trained on public text, one
fine-tuned on in-domain text. Here an additively-smoothed word n-gram model
is the desk-scale stand-in; precomputed score files can be supplied instead
via records.read_scores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence

from .records import Document, ECExample, ScoredSample

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# score floor for the heuristic rule: keep only samples the in-domain model
# both prefers and does not find outright implausible
HEURISTIC_FLOOR = -5.0


class Scorer(Protocol):
    def score(self, sentence: str) -> float: ...


def _tokens(text: str) -> list[str]:
    return text.lower().split()


@dataclass
class NGramScorer:
    """Word n-gram model with additive smoothing over (vocab + UNK).

    For every context, conditional probabilities over the outcome set
    (training vocabulary, the end marker, and UNK) sum to exactly 1.
    """

    order: int
    delta: float
    vocab: frozenset[str] = field(default_factory=frozenset)
    counts: dict[tuple[str, ...], Counter] = field(default_factory=dict)
    context_totals: dict[tuple[str, ...], int] = field(default_factory=dict)

    @property
    def n_outcomes(self) -> int:
        """Size of the smoothed outcome set: vocabulary plus UNK."""
        return len(self.vocab) + 1

    def _map_token(self, tok: str) -> str:
        return tok if tok in self.vocab or tok == BOS else UNK

    def log_prob(self, context: Sequence[str], word: str) -> float:
        ctx = tuple(self._map_token(t) for t in context)
        w = self._map_token(word)
        ctx_counts = self.counts.get(ctx)
        count = ctx_counts[w] if ctx_counts is not None else 0
        total = self.context_totals.get(ctx, 0)
        return math.log((count + self.delta) / (total + self.delta * self.n_outcomes))

    def score(self, sentence: str) -> float:
        """The mean of `log_prob` over the sentence's words and its end marker.

        Each term is the `log` of the quotient `log_prob` takes, and the terms
        are summed in word order, so the score is bitwise the mean of
        `log_prob`; only the lookups are hoisted out of the loop.
        """
        vocab, counts, totals, delta = self.vocab, self.counts, self.context_totals, self.delta
        norm = delta * self.n_outcomes
        toks = [t if t in vocab or t == BOS else UNK for t in _tokens(sentence)]
        padded = [BOS] * (self.order - 1) + toks + [EOS]
        total = 0.0
        for gram in _ngrams(padded, self.order):
            ctx = gram[:-1]
            ctx_counts = counts.get(ctx)
            count = ctx_counts.get(gram[-1], 0) if ctx_counts is not None else 0
            total += math.log((count + delta) / (totals.get(ctx, 0) + norm))
        return total / (len(padded) - self.order + 1)


def _ngrams(padded: list[str], order: int) -> Iterator[tuple[str, ...]]:
    """Each run of `order` consecutive tokens, as a tuple, in order."""
    return zip(*[padded[j:] for j in range(order)])


def check_ngram_args(order: int, delta: float) -> None:
    """The rules of `train_ngram`'s arguments that do not depend on the corpus."""
    if not 1 <= order <= 5:
        raise ValueError(f"train_ngram: order must be in [1, 5], got {order}")
    if not delta > 0:
        raise ValueError(f"train_ngram: delta must be > 0, got {delta}")


def train_ngram(corpus: Sequence[Document], order: int, delta: float) -> NGramScorer:
    """Count n-grams over lowercased whitespace tokens with boundary padding."""
    if not corpus:
        raise ValueError("train_ngram: empty corpus")
    check_ngram_args(order, delta)

    vocab: set[str] = {EOS}
    grams: Counter[tuple[str, ...]] = Counter()
    for doc in corpus:
        toks = _tokens(doc.text)
        vocab.update(toks)
        grams.update(_ngrams([BOS] * (order - 1) + toks + [EOS], order))
    # split the n-gram counts by context; each table keeps first-seen order
    counts: dict[tuple[str, ...], Counter] = {}
    totals: dict[tuple[str, ...], int] = {}
    for gram, n in grams.items():
        ctx = gram[:-1]
        ctx_counts = counts.get(ctx)
        if ctx_counts is None:
            ctx_counts = counts[ctx] = Counter()
        ctx_counts[gram[-1]] = n
        totals[ctx] = totals.get(ctx, 0) + n
    return NGramScorer(
        order=order, delta=delta, vocab=frozenset(vocab), counts=counts, context_totals=totals
    )


def score_dataset(
    examples: Sequence[ECExample], public: Scorer, domain: Scorer
) -> list[ScoredSample]:
    """Score each clean target under both models (sources are never scored)."""
    return [
        ScoredSample(sample_id=ex.id, s_p=public.score(ex.target), s_f=domain.score(ex.target))
        for ex in examples
    ]


def heuristic_weight(s: ScoredSample) -> float:
    """Binary keep/drop baseline: 1 iff s_f > s_p and s_f > the floor, strictly."""
    return 1.0 if (s.s_f > s.s_p and s.s_f > HEURISTIC_FLOOR) else 0.0
