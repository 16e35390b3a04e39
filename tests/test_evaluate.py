from __future__ import annotations

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from ecsynth.evaluate import (
    ExactJudge,
    ExternalJudge,
    MemoJudge,
    NormalizedJudge,
    eval_report,
    export_chi_row,
    good_ratio,
    sequence_accuracy,
    verdicts,
    weighted_metric,
)
from ecsynth.cli import _eval_report_text
from ecsynth.records import ECExample, ModelOutputs, read_outputs, write_outputs


def _dataset(n=10):
    return [ECExample(id=f"s{i}", source=f"src {i}", target=f"target {i}") for i in range(n)]


def _outputs(dataset, correct_at=None):
    """correct_at: sample index -> rank (0-based) where the right answer sits."""
    correct_at = correct_at or {}
    candidates = {}
    for i, ex in enumerate(dataset):
        cands = [f"wrong {i} a", f"wrong {i} b", f"wrong {i} c"]
        if i in correct_at:
            cands[correct_at[i]] = ex.target
        candidates[ex.id] = tuple(cands)
    return ModelOutputs(model_id="m", candidates=candidates)


class _CountingJudge(ExactJudge):
    def __init__(self):
        self.calls = 0

    def judge(self, candidate, target):
        self.calls += 1
        return super().judge(candidate, target)


def test_sequence_accuracy_counting():
    dataset = _dataset(10)
    outputs = _outputs(dataset, {i: 0 for i in range(7)})
    assert sequence_accuracy(outputs, dataset) == 0.7


def test_sequence_accuracy_identity():
    dataset = _dataset(5)
    outputs = ModelOutputs(model_id="m", candidates={ex.id: (ex.target,) for ex in dataset})
    assert sequence_accuracy(outputs, dataset) == 1.0


def test_empty_candidate_counts_zero():
    dataset = _dataset(1)
    outputs = ModelOutputs(model_id="m", candidates={"s0": ("",)})
    assert sequence_accuracy(outputs, dataset) == 0.0


def test_good_ratio_best_of_k():
    dataset = _dataset(4)
    outputs = _outputs(dataset, {0: 2})  # only the 3rd candidate is right
    assert good_ratio(outputs, dataset, ExactJudge(), k=1) == 0.0
    assert good_ratio(outputs, dataset, ExactJudge(), k=3) == 0.25


def test_good_ratio_k1_exact_equals_sequence_accuracy():
    rng = np.random.default_rng(0)
    for trial in range(20):
        dataset = _dataset(8)
        correct_at = {
            i: int(rng.integers(0, 3)) for i in range(8) if rng.random() < 0.5
        }
        outputs = _outputs(dataset, correct_at)
        assert good_ratio(outputs, dataset, ExactJudge(), k=1) == sequence_accuracy(
            outputs, dataset
        )


def test_good_ratio_monotone_in_k():
    rng = np.random.default_rng(1)
    for trial in range(30):
        dataset = _dataset(6)
        correct_at = {i: int(rng.integers(0, 3)) for i in range(6) if rng.random() < 0.7}
        outputs = _outputs(dataset, correct_at)
        ratios = [good_ratio(outputs, dataset, ExactJudge(), k=k) for k in (1, 2, 3)]
        assert ratios == sorted(ratios)


def test_good_ratio_missing_sample_errors():
    dataset = _dataset(3)
    outputs = ModelOutputs(model_id="m", candidates={"s0": ("x",), "s1": ("y",)})
    with pytest.raises(ValueError, match="s2"):
        good_ratio(outputs, dataset, ExactJudge(), k=1)


def test_weighted_metric_unit_weights_equal_good_ratio():
    rng = np.random.default_rng(2)
    dataset = _dataset(9)
    correct_at = {i: 0 for i in range(5)}
    outputs = _outputs(dataset, correct_at)
    unit = {ex.id: 1.0 for ex in dataset}
    for k in (1, 3):
        assert weighted_metric(outputs, dataset, ExactJudge(), k, unit) == good_ratio(
            outputs, dataset, ExactJudge(), k
        )


def test_weighted_metric_monotone_reweighting():
    dataset = _dataset(10)
    outputs = _outputs(dataset, {i: 0 for i in range(5)})
    judge = ExactJudge()
    chi = export_chi_row(outputs, dataset, judge, 1)
    weights = {ex.id: (2.0 if chi[i] else 0.01) for i, ex in enumerate(dataset)}
    assert weighted_metric(outputs, dataset, judge, 1, weights) > good_ratio(
        outputs, dataset, judge, 1
    )


def test_weighted_metric_matches_brute_force():
    rng = np.random.default_rng(3)
    dataset = _dataset(20)
    correct_at = {i: int(rng.integers(0, 3)) for i in range(20) if rng.random() < 0.6}
    outputs = _outputs(dataset, correct_at)
    weights = {ex.id: float(rng.uniform(0.01, 2.0)) for ex in dataset}
    judge = ExactJudge()
    got = weighted_metric(outputs, dataset, judge, 2, weights)
    brute = sum(
        weights[ex.id] * max(judge.judge(c, ex.target) for c in outputs.candidates[ex.id][:2])
        for ex in dataset
    ) / len(dataset)
    assert abs(got - brute) < 1e-12


def test_weighted_metric_missing_weight_errors():
    dataset = _dataset(3)
    outputs = _outputs(dataset, {0: 0})
    with pytest.raises(ValueError, match="s2"):
        weighted_metric(outputs, dataset, ExactJudge(), 1, {"s0": 1.0, "s1": 1.0})
    with pytest.raises(ValueError, match="s2"):
        eval_report(
            [("m", [outputs])], dataset, ExactJudge(), ks=(1, 3), weights={"s0": 1.0, "s1": 1.0}
        )


def test_export_chi_row_consistency():
    dataset = _dataset(6)
    outputs = _outputs(dataset, {0: 0, 3: 1})
    chi = export_chi_row(outputs, dataset, ExactJudge(), 2)
    assert chi.tolist() == [1, 0, 0, 1, 0, 0]
    assert chi.mean() == good_ratio(outputs, dataset, ExactJudge(), 2)
    all_wrong = _outputs(dataset)
    assert export_chi_row(all_wrong, dataset, ExactJudge(), 3).tolist() == [0] * 6


def test_normalized_judge_rules():
    j = NormalizedJudge()
    assert j.judge("Hello  World.", "hello world") == 1
    assert j.judge("HELLO WORLD!!!", "hello world") == 1
    assert j.judge("hello world extra", "hello world") == 0
    assert j.judge("hello", "hello world") == 0


def test_memo_judge_asks_once_per_distinct_pair():
    asked = []

    class Counting:
        def judge(self, candidate, target):
            asked.append((candidate, target))
            return int(candidate == target)

    judge = MemoJudge(Counting())
    pairs = [("a", "a"), ("a", "b"), ("a", "a"), ("b", "a"), ("a", "b")]
    assert [judge.judge(c, t) for c, t in pairs] == [1, 0, 1, 0, 0]
    assert asked == [("a", "a"), ("a", "b"), ("b", "a")]


def test_exact_judge_nfc():
    j = ExactJudge()
    assert j.judge("café", "café") == 1
    assert j.judge("cafe", "café") == 0


def test_model_outputs_rejects_empty_candidates():
    with pytest.raises(ValueError):
        ModelOutputs(model_id="m", candidates={"s0": ()})


def test_outputs_file_round_trip(tmp_path):
    dataset = _dataset(5)
    outputs = _outputs(dataset, {1: 0})
    path = tmp_path / "model_a.jsonl"
    write_outputs(outputs, path)
    back = read_outputs(path)
    assert back.model_id == "model_a"
    assert back.candidates == outputs.candidates


def test_eval_report_grid():
    dataset = _dataset(8)
    run1 = _outputs(dataset, {i: 0 for i in range(4)})
    run2 = _outputs(dataset, {i: 0 for i in range(6)})
    report = eval_report(
        [("method", [run1, run2])], dataset, ExactJudge(), weights=None, ks=(1, 3)
    )
    # the object eval_report.json holds
    assert list(report) == ["columns", "rows"]
    assert report["columns"] == ["Top-1", "Top-1 (w)", "Top-3", "Top-3 (w)"]
    (row,) = report["rows"]
    assert row["label"] == "method"
    top1_mean, top1_std = row["cells"][0]
    assert top1_mean == pytest.approx((0.5 + 0.75) / 2)
    assert top1_std == pytest.approx(0.125)
    assert all(len(cell) == 2 for cell in row["cells"])
    assert json.loads(json.dumps(report)) == report
    rendered = _eval_report_text(report)
    assert "Top-3 (w)" in rendered and "method" in rendered and "62.50±12.50" in rendered
    for ks in [(0,), (0, 3)]:
        with pytest.raises(ValueError, match="k must be"):
            eval_report([("method", [run1])], dataset, ExactJudge(), ks=ks)


def test_eval_report_judges_each_candidate_once():
    dataset = _dataset(5)
    runs = [_outputs(dataset, {0: 0}), _outputs(dataset, {1: 2}), _outputs(dataset)]
    judge = _CountingJudge()
    eval_report([("a", runs[:2]), ("b", runs[2:])], dataset, judge, ks=(1, 3))
    assert judge.calls == 3 * len(runs) * len(dataset)


def test_verdicts_ranks_past_last_candidate_are_false():
    dataset = _dataset(2)
    outputs = ModelOutputs(model_id="m", candidates={"s0": ("target 0",), "s1": ("x", "target 1")})
    judge = _CountingJudge()
    v = verdicts(outputs, dataset, judge, 3)
    assert v.tolist() == [[True, False, False], [False, True, False]]
    assert judge.calls == 3
    with pytest.raises(ValueError, match="k must be"):
        verdicts(outputs, dataset, judge, 0)


class _JudgeHandler(BaseHTTPRequestHandler):
    calls = 0
    fail_next = 0

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        if cls.fail_next > 0:
            cls.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        verdict = "yes" if "target target" in body["prompt"] else "no"
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps({"text": verdict}).encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture()
def judge_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _JudgeHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _JudgeHandler.calls = 0
    _JudgeHandler.fail_next = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_external_judge_caches(judge_server):
    # a bare ExternalJudge posts once per call; the MemoJudge a run wraps it
    # in posts once per distinct pair
    bare = ExternalJudge(
        endpoint=judge_server,
        prompt_template="is {candidate} acceptable for {target}? answer yes or no",
    )
    assert bare.judge("target target", "anything") == 1
    assert bare.judge("target target", "anything") == 1
    assert _JudgeHandler.calls == 2
    judge = MemoJudge(bare)
    assert judge.judge("target target", "anything") == 1
    assert judge.judge("target target", "anything") == 1
    assert _JudgeHandler.calls == 3
    assert judge.judge("nope", "anything") == 0
    assert _JudgeHandler.calls == 4


def test_external_judge_retries_a_transient_failure(judge_server):
    _JudgeHandler.fail_next = 1
    judge = ExternalJudge(endpoint=judge_server, prompt_template="{candidate} vs {target}")
    assert judge.judge("target target", "anything") == 1
    assert _JudgeHandler.calls == 2


def test_external_judge_raises_when_every_attempt_fails(judge_server):
    _JudgeHandler.fail_next = 100
    judge = ExternalJudge(endpoint=judge_server, prompt_template="{candidate} vs {target}")
    # the shared POST policy: 2 retries after the first attempt, then the last error
    with pytest.raises(urllib.error.HTTPError):
        judge.judge("target target", "anything")
    assert _JudgeHandler.calls == 3


def test_external_judge_template_validation():
    with pytest.raises(ValueError):
        ExternalJudge(endpoint="http://x", prompt_template="no placeholders")


def test_external_judge_deterministic_chi(judge_server):
    judge = MemoJudge(ExternalJudge(endpoint=judge_server, prompt_template="{candidate} vs {target}"))
    dataset = _dataset(4)
    outputs = ModelOutputs(
        model_id="m",
        candidates={ex.id: ("target target", "x") for ex in dataset},
    )
    first = export_chi_row(outputs, dataset, judge, 2)
    calls_after_first = _JudgeHandler.calls
    second = export_chi_row(outputs, dataset, judge, 2)
    np.testing.assert_array_equal(first, second)
    assert _JudgeHandler.calls == calls_after_first  # fully served from cache
