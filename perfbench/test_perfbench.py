"""Smoke test of the benchmark itself, at a tiny scale.

Runs a 300-doc workload through the loopback stub, and one over two seeds
in-process, with tracing off and on; checks that every metric BENCHMARK.json
declares is printed and that the trace wrappers are gone afterwards; checks
that a failed output check and a checkout without sources both fail the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer

TINY_HTTP = bench.Workload(docs=300, k=10, per_cluster=5, http=True)
TINY_TWO_SEEDS = bench.Workload(docs=300, k=10, per_cluster=5, instances=2)


def _traced_attributes() -> dict[tuple[object, str], object]:
    owners = [(m, a) for m, attrs in tracer.SPAN_TARGETS.items() for a in attrs]
    owners += [(c, "judge") for c in tracer.JUDGE_CLASSES]
    owners += [(c, "complete") for c in tracer.CLIENT_CLASSES]
    return {(o, a): vars(o)[a] for o, a in owners}


def _run(monkeypatch, capsys, tmp_path, workload, trace):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", workload)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    code = bench.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [TINY_HTTP, TINY_TWO_SEEDS], ids=["http", "two-seeds"])
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_declared_metric_and_removes_wrappers(
    monkeypatch, capsys, tmp_path, workload, trace
):
    before = _traced_attributes()
    code, lines, result = _run(monkeypatch, capsys, tmp_path, workload, trace)
    assert code == 0, lines
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = bench.declared_metrics(bool(trace))
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
        assert any(line.split()[:1] == [name] for line in lines), name
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["reweight.lbfgs_runs"] > 0
        if workload.http:
            assert values["grammar.http_requests"] == values["grammar.completions"] > 0
            assert values["http.judge_requests"] > 0
    assert _traced_attributes() == before


def test_failed_output_check_fails_the_run(monkeypatch, capsys, tmp_path):
    # golden hashes belong to the bundled demo, so the tiny corpus cannot match them
    wl = bench.Workload(docs=300, k=10, per_cluster=5, golden=True)
    code, lines, result = _run(monkeypatch, capsys, tmp_path, wl, 0)
    assert code == 1
    assert result["correct"] is False
    assert any("CHECK FAILED" in line for line in lines)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
