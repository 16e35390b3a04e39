"""Offline evaluation: sequence accuracy, top-k good ratio, reweighted metrics.

A Judge decides whether one candidate correction is acceptable against the
clean target; `verdicts` alone calls it, once per (sample, rank), and every
metric reduces its (N, k) array. Good ratio at k takes the best of the first
k ranked candidates per sample and averages the 0/1 outcomes; the weighted
variants scale each sample's outcome by its reweighting score and normalize
by N through `reweight.offline_metric`, the function the fit itself uses.
"""

from __future__ import annotations

import re
import string
from typing import Mapping, Protocol, Sequence

import numpy as np

from .records import ECExample, ModelOutputs, by_id
from .reweight import offline_metric
from .util import nfc, post_text


class Judge(Protocol):
    def judge(self, candidate: str, target: str) -> int: ...


class ExactJudge:
    """Byte equality after NFC."""

    def judge(self, candidate: str, target: str) -> int:
        return int(nfc(candidate) == nfc(target))


_WS_RE = re.compile(r"\s+")


class NormalizedJudge:
    """Lowercase, collapse whitespace, strip trailing punctuation, then compare."""

    @staticmethod
    def _norm(text: str) -> str:
        text = _WS_RE.sub(" ", nfc(text).lower()).strip()
        return text.rstrip(string.punctuation + " ")

    def judge(self, candidate: str, target: str) -> int:
        return int(self._norm(candidate) == self._norm(target))


def check_prompt_template(prompt_template: str) -> None:
    """A ValueError unless an HTTP judge prompt template formats with both its slots and no other."""
    slots = {"candidate": "\0candidate\0", "target": "\0target\0"}
    try:
        prompt = prompt_template.format(**slots)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"prompt template does not format with {{candidate}} and {{target}}: {e!r}") from e
    if not all(value in prompt for value in slots.values()):
        raise ValueError("prompt template needs {candidate} and {target} placeholders")


class MemoJudge:
    """Asks the judge it wraps once per distinct (candidate, target) pair.

    The one verdict memo: `cli` wraps the judge of a run, or of a stage
    subcommand, in one, and every judged stage of that run shares it.
    """

    def __init__(self, inner: Judge):
        self.inner = inner
        self._verdicts: dict[tuple[str, str], int] = {}

    def judge(self, candidate: str, target: str) -> int:
        key = (candidate, target)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self.inner.judge(candidate, target)
        return verdict


class ExternalJudge:
    """HTTP judge: POST {"prompt": ...} -> {"text": "yes"/"no"}, one POST per call.

    The prompt template must pass `check_prompt_template`, and the reply's
    first word must be yes or no. Requests use `util.post_text`'s timeout and retries. It keeps no verdicts: a run
    memoizes them in the `MemoJudge` that wraps its judge, whatever its kind.
    """

    def __init__(self, endpoint: str, prompt_template: str, token: str = ""):
        check_prompt_template(prompt_template)
        self.endpoint = endpoint
        self.prompt_template = prompt_template
        self.token = token

    def judge(self, candidate: str, target: str) -> int:
        prompt = self.prompt_template.format(candidate=candidate, target=target)
        text = post_text(self.endpoint, prompt, self.token)
        first = text.strip().lower().split()
        if not first or first[0] not in ("yes", "no"):
            raise ValueError(f"judge returned neither yes nor no: {text!r}")
        return int(first[0] == "yes")


def verdicts(
    outputs: ModelOutputs, dataset: Sequence[ECExample], judge: Judge, k: int
) -> np.ndarray:
    """(N, k) bool array: the judge's verdict on sample i's candidate at rank r.

    The judge is called exactly once for each of a sample's first k
    candidates; ranks past its last candidate are False.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = [ex.id for ex in dataset]
    ranked = by_id(ids, outputs.candidates, f"model {outputs.model_id!r}: outputs")
    judge_one = judge.judge
    flat = [judge_one(c, ex.target) for ex, cands in zip(dataset, ranked) for c in cands[:k]]
    # each sample's verdicts fill its row from rank 0, in row-major order
    ranks = np.fromiter((min(len(cands), k) for cands in ranked), np.int64, len(ranked))
    v = np.zeros((len(dataset), k), dtype=bool)
    v[np.arange(k) < ranks[:, None]] = flat
    return v


def _weight_vector(dataset: Sequence[ECExample], weights: Mapping[str, float]) -> np.ndarray:
    return np.array(by_id([ex.id for ex in dataset], weights, "weights"))


def export_chi_row(
    outputs: ModelOutputs, dataset: Sequence[ECExample], judge: Judge, k: int
) -> np.ndarray:
    """Per-sample best-of-k verdicts as a 0/1 vector aligned with the dataset."""
    return verdicts(outputs, dataset, judge, k).any(axis=1).astype(np.float64)


def good_ratio(
    outputs: ModelOutputs, dataset: Sequence[ECExample], judge: Judge, k: int
) -> float:
    """Fraction of samples whose best of the first k candidates is judged good."""
    if not dataset:
        raise ValueError("empty dataset")
    return float(export_chi_row(outputs, dataset, judge, k).mean())


def sequence_accuracy(outputs: ModelOutputs, dataset: Sequence[ECExample]) -> float:
    """Fraction of samples whose top-1 candidate equals the target exactly."""
    return good_ratio(outputs, dataset, ExactJudge(), k=1)


def weighted_metric(
    outputs: ModelOutputs,
    dataset: Sequence[ECExample],
    judge: Judge,
    k: int,
    weights: Mapping[str, float],
) -> float:
    """(1/N) * sum_i w_i * chi_i; weights must cover every sample."""
    w = _weight_vector(dataset, weights)
    return float(offline_metric(export_chi_row(outputs, dataset, judge, k), w))


# -- report: Top-1 / Top-1 (w) / Top-3 / Top-3 (w) grid --


def eval_report(
    groups: Sequence[tuple[str, Sequence[ModelOutputs]]],
    dataset: Sequence[ECExample],
    judge: Judge,
    ks: Sequence[int],
    weights: Mapping[str, float] | None = None,
) -> dict:
    """Metric grid over labeled groups of runs; mean ± std across runs per group.

    Returns the JSON object `eval_report.json` holds: {"columns": [...],
    "rows": [{"label", "cells": [[mean, std], ...]}]}, one cell per column.
    Each run is judged once, at the largest k. Without weights the (w) columns
    repeat the unweighted values with w == 1.
    """
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    if not dataset:
        raise ValueError("empty dataset")
    w = np.ones(len(dataset)) if weights is None else _weight_vector(dataset, weights)
    columns = [c for k in ks for c in (f"Top-{k}", f"Top-{k} (w)")]
    rows = []
    for label, runs in groups:
        if not runs:
            raise ValueError(f"group {label!r} has no runs")
        per_run = []
        for outputs in runs:
            v = verdicts(outputs, dataset, judge, max(ks))
            cells = []
            for k in ks:
                chi = v[:, :k].any(axis=1).astype(np.float64)
                cells += [float(chi.mean()), float(offline_metric(chi, w))]
            per_run.append(cells)
        arr = np.array(per_run)
        stats = zip(arr.mean(axis=0), arr.std(axis=0))
        rows.append({"label": label, "cells": [[float(m), float(s)] for m, s in stats]})
    return {"columns": columns, "rows": rows}

