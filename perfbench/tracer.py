"""Outside-in tracing of ecsynth's layers for the benchmark's traced run.

`Tracer.install` replaces public functions of the pipeline's modules, through
their module (or class) attributes, by wrappers that record spans and
counters; `Tracer.remove` restores the originals. The program's own code is
not changed: stages look these functions up through their modules at call
time, so a wrapper sees every call the pipeline makes.

Spans carry a parent id (per thread), and a layer's self time is its spans'
durations minus the parts their child spans cover. Judge calls and client
completions are hot (hundreds of thousands of judge calls at corpus scale),
so they only bump counters; completions also keep their latency, which is
the request round trip on the HTTP path.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from ecsynth import cluster, evaluate, grammar, mix, records, reweight, scoring, simbench, typo

# module -> functions recorded as spans
SPAN_TARGETS = {
    cluster: ("hash_embed", "kmeans", "quota_sample"),
    records: tuple(
        name for name in dir(records) if name.startswith(("read_", "write_"))
    ),
    grammar: ("inject_corpus", "roundtrip_filter"),
    typo: ("corrupt_dataset",),
    scoring: ("train_ngram", "score_dataset"),
    simbench: ("simulate_deployments",),
    reweight: ("fit", "holdout_cv", "minimize"),
    mix: ("mix_datasets", "filter_by_weight"),
    evaluate: ("eval_report",),
}
JUDGE_CLASSES = (evaluate.ExactJudge, evaluate.NormalizedJudge, evaluate.ExternalJudge)
CLIENT_CLASSES = (grammar.MockInjector, grammar.HttpInjector)

LAYERS = ("cli",) + tuple(m.__name__.rsplit(".", 1)[1] for m in SPAN_TARGETS)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<function>", or "cli.stage.<stage>"
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced pipeline pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.complete_ms: list[float] = []
        self.judge_calls: Counter[str] = Counter()  # stage -> calls
        self.judge_pairs: dict[str, set[tuple[str, str]]] = defaultdict(set)
        self.stage = ""  # cli stage being run; judge calls are charged to it
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        s = Span(next(self._ids), stack[-1].id if stack else None, name, time.perf_counter())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    @contextmanager
    def stage_span(self, stage: str) -> Iterator[Span]:
        """Span of one `run_pipeline(stages=[stage])` call."""
        self.stage = stage
        with self.span(f"cli.stage.{stage}") as s:
            yield s

    # -- patching --

    def _patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        original = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._saved.append((owner, attr, original))

    def _span_wrapper(self, name: str, on_result: Callable | None) -> Callable:
        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                outermost = all(s.name != name for s in self._stack())
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None and outermost:
                    on_result(result, args, kwargs)
                return result

            return wrapper

        return make

    def _judge_wrapper(self, original: Callable) -> Callable:
        def wrapper(judge, candidate, target):
            self.judge_calls[self.stage] += 1
            self.judge_pairs[self.stage].add((candidate, target))
            return original(judge, candidate, target)

        return wrapper

    def _complete_wrapper(self, original: Callable) -> Callable:
        def wrapper(client, prompt):
            t0 = time.perf_counter()
            try:
                return original(client, prompt)
            finally:
                # list.append is atomic; completions run on the stage's pool threads
                self.complete_ms.append((time.perf_counter() - t0) * 1e3)

        return wrapper

    def _on_result(self, name: str) -> Callable | None:
        c = self.counts

        def kmeans(res, args, kwargs):
            c["cluster.kmeans_iters"] += len(res.objective_history)

        def inject(res, args, kwargs):
            c["grammar.injected"] += len(res.pairs)
            c["grammar.failed"] += res.failed
            c["grammar.skipped"] += res.skipped

        def filtered(res, args, kwargs):
            c["grammar.kept"] += len(res.kept)
            c["grammar.dropped"] += res.dropped_count

        def fitted(res, args, kwargs):
            c["reweight.restarts_run"] += res.restarts_run

        def minimized(res, args, kwargs):
            c["reweight.nit"] += int(res.nit)
            c["reweight.nfev"] += int(res.nfev)

        def written(res, args, kwargs):
            path = kwargs["path"] if "path" in kwargs else args[1]
            c["records.bytes_written"] += os.path.getsize(path)

        if name.startswith("records.write_"):
            return written
        return {
            "cluster.kmeans": kmeans,
            "grammar.inject_corpus": inject,
            "grammar.roundtrip_filter": filtered,
            "reweight.fit": fitted,
            "reweight.minimize": minimized,
        }.get(name)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module, attrs in SPAN_TARGETS.items():
                layer = module.__name__.rsplit(".", 1)[1]
                for attr in attrs:
                    name = f"{layer}.{attr}"
                    self._patch(module, attr, self._span_wrapper(name, self._on_result(name)))
            for cls in JUDGE_CLASSES:
                self._patch(cls, "judge", self._judge_wrapper)
            for cls in CLIENT_CLASSES:
                self._patch(cls, "complete", self._complete_wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- derived metrics --

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time per traced function, self time per layer, and counters."""
        by_id = {s.id: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for s in self.spans:
            out[f"{s.layer}.self_s"] += s.duration - child_time[s.id]
        inclusive: dict[str, float] = defaultdict(float)
        for s in self.spans:
            ancestor = by_id.get(s.parent)
            while ancestor is not None and ancestor.name != s.name:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:  # outermost call of this function
                inclusive[s.name] += s.duration
        for module, attrs in SPAN_TARGETS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if layer == "records":  # readers and writers are reported as two groups
                    group = "records.read_s" if attr.startswith("read_") else "records.write_s"
                    out[group] = out.get(group, 0.0) + inclusive[name]
                else:
                    out[f"{name}_s"] = inclusive[name]
        c = self.counts
        out["reweight.lbfgs_runs"] = float(
            sum(1 for s in self.spans if s.name == "reweight.minimize")
        )
        for key in (
            "cluster.kmeans_iters", "grammar.injected", "grammar.kept", "grammar.dropped",
            "grammar.failed", "grammar.skipped", "reweight.restarts_run", "reweight.nit",
            "reweight.nfev", "records.bytes_written",
        ):
            out[key] = float(c[key])
        out["grammar.keep_ratio"] = c["grammar.kept"] / c["grammar.injected"] if c["grammar.injected"] else 0.0
        out["grammar.completions"] = float(len(self.complete_ms))
        out["grammar.request_p50_ms"] = _percentile(self.complete_ms, 50)
        out["grammar.request_p99_ms"] = _percentile(self.complete_ms, 99)
        out["simbench.judge_calls"] = float(self.judge_calls["simbench"])
        out["evaluate.judge_calls"] = float(self.judge_calls["evaluate"])
        out["evaluate.judge_distinct_pairs"] = float(len(self.judge_pairs["evaluate"]))
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end}
            for s in self.spans
        ]


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
