"""Acceptance suite: every criterion pinned at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. All criteria run offline: the mock injector, n-gram scorers, and
the planted benchmark stand in for external services and live deployments.

Criterion 12 compares pipeline artifacts byte-for-byte against frozen golden
hashes; regenerate them after an intentional behavior change with
ECSYNTH_REGEN_GOLDENS=1.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ecsynth.cli import load_config, run_pipeline
from ecsynth.cluster import kmeans, quota_sample
from ecsynth.demo import materialize
from ecsynth.evaluate import ExactJudge, ModelOutputs, good_ratio, sequence_accuracy, weighted_metric
from ecsynth.grammar import MockInjector, inject_corpus, roundtrip_filter
from ecsynth.records import Document, ECExample, Embeddings, EvalMatrix, ScoredSample
from ecsynth.reweight import (
    FitOptions,
    RegressionParams,
    ReweightParams,
    fit,
    holdout_cv,
    objective,
    weight,
    weights_array,
)
from ecsynth.scoring import heuristic_weight
from ecsynth.simbench import PlantedSpec, generate
from ecsynth.typo import QWERTY, TypoConfig, corrupt
from ecsynth.util import file_sha256

GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_hashes.json"


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_weight_bound_invariant():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 100_000
    theta = rng.normal(0.0, 10.0, size=(n, 3))
    s_f = rng.normal(-5.0, 10.0, size=n)
    s_p = rng.normal(-5.0, 10.0, size=n)
    w = np.array(
        [
            weights_array(
                ReweightParams(theta_f=t[0], theta_p=t[1], theta_b=t[2]),
                np.array([f]),
                np.array([p]),
            )[0]
            for t, f, p in zip(theta[:200], s_f[:200], s_p[:200])
        ]
    )
    # vectorized evaluation for the full draw count, same formula and clamp
    from ecsynth.reweight import sigmoid

    z = theta[:, 0] * s_f + theta[:, 1] * s_p + theta[:, 2]
    w_full = 0.01 + (2.0 - 0.01) * sigmoid(z)
    assert (w_full > 0.01).all() and (w_full < 2.0).all()
    assert (w > 0.01).all() and (w < 2.0).all()
    np.testing.assert_array_equal(w, w_full[:200])

    w0 = weight(ReweightParams(), ScoredSample("x", s_p=3.3, s_f=-9.9))
    assert w0 == 0.01 + 1.99 * 0.5
    assert w0 == 1.005
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"{n} draws strictly inside (0.01, 2); center exactly 1.005 ({elapsed:.2f}s)")


def _random_objective_instance(rng):
    n_models = int(rng.integers(2, 9))
    n_samples = int(rng.integers(5, 51))
    n_metrics = int(rng.integers(1, 4))
    chi = (rng.random((n_models, n_samples)) < 0.6).astype(float)
    v = rng.normal(0.0, 1.0, (n_models, n_metrics))
    matrix = EvalMatrix(
        model_ids=tuple(f"m{j}" for j in range(n_models)),
        sample_ids=tuple(f"s{i}" for i in range(n_samples)),
        chi=chi,
        live_metrics=v,
        metric_names=tuple(f"x{m}" for m in range(n_metrics)),
    )
    scores = [
        ScoredSample(f"s{i}", s_p=float(rng.normal(-2, 0.5)), s_f=float(rng.normal(-2, 0.5)))
        for i in range(n_samples)
    ]
    params = ReweightParams(
        theta_f=float(rng.uniform(-1, 1)),
        theta_p=float(rng.uniform(-1, 1)),
        theta_b=float(rng.uniform(-1, 1)),
        lam=float(rng.uniform(0.0, 0.1)),
    )
    alpha = RegressionParams(
        alpha_1=rng.normal(size=n_metrics), alpha_0=rng.normal(size=n_metrics)
    )
    return matrix, scores, params, alpha


def test_criterion_02_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        matrix, scores, params, alpha = _random_objective_instance(rng)
        ev = objective(params, alpha, matrix, scores)
        d = alpha.alpha_1.shape[0]

        def value(theta, a1, a0):
            p = ReweightParams(
                theta_f=theta[0], theta_p=theta[1], theta_b=theta[2], lam=params.lam
            )
            return objective(p, RegressionParams(alpha_1=a1, alpha_0=a0), matrix, scores).value

        theta = params.theta
        grads = [(ev.grad_theta, "theta"), (ev.grad_alpha[0][0], "a1"), (ev.grad_alpha[0][1], "a0")]
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (
                value(theta + e, alpha.alpha_1, alpha.alpha_0)
                - value(theta - e, alpha.alpha_1, alpha.alpha_0)
            ) / (2 * h)
            worst = max(worst, abs(ev.grad_theta[i] - fd) / max(abs(fd), abs(ev.grad_theta[i]), 1.0))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = (
                value(theta, alpha.alpha_1 + e, alpha.alpha_0)
                - value(theta, alpha.alpha_1 - e, alpha.alpha_0)
            ) / (2 * h)
            worst = max(
                worst, abs(ev.grad_alpha[0][0][i] - fd) / max(abs(fd), abs(ev.grad_alpha[0][0][i]), 1.0)
            )
            fd = (
                value(theta, alpha.alpha_1, alpha.alpha_0 + e)
                - value(theta, alpha.alpha_1, alpha.alpha_0 - e)
            ) / (2 * h)
            worst = max(
                worst, abs(ev.grad_alpha[0][1][i] - fd) / max(abs(fd), abs(ev.grad_alpha[0][1][i]), 1.0)
            )
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    _report(2, f"50 instances, max relative gradient error {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_hypothesis_class_containment():
    specs = [
        PlantedSpec(noise_sigma=1e-3, seed=s) for s in range(5)
    ] + [
        PlantedSpec(noise_sigma=0.0, seed=7),
        PlantedSpec(n_samples=120, n_models=4, n_sets=1, noise_sigma=0.01, seed=8),
        PlantedSpec(n_samples=80, n_models=2, n_sets=1, noise_sigma=0.1, seed=9),
        PlantedSpec(target_mean_weight=1.5, noise_sigma=1e-2, seed=10),
    ]
    for spec in specs:
        bench = generate(spec)
        f = fit(bench.matrices, bench.scores, opts=FitOptions(seed=spec.seed))
        assert f.residual_train <= f.baseline_residuals["uniform"] + 1e-9, spec
        assert f.containment_ok
    _report(3, f"fitted residual <= uniform baseline + 1e-9 on {len(specs)} planted benchmarks")


def test_criterion_04_planted_recovery_protocol():
    start = time.perf_counter()
    spec0 = PlantedSpec(n_samples=500, n_models=12, n_metrics=2, noise_sigma=1e-3)
    orderings = []
    for seed in range(5):
        spec = PlantedSpec(
            n_samples=spec0.n_samples,
            n_models=spec0.n_models,
            n_metrics=spec0.n_metrics,
            noise_sigma=spec0.noise_sigma,
            seed=seed,
        )
        bench = generate(spec)
        floor = bench.truth.noise_total
        f = fit(bench.matrices, bench.scores, opts=FitOptions(seed=seed))
        assert f.residual_train <= 2.0 * floor, f"seed {seed}: {f.residual_train} vs floor {floor}"
        cv = holdout_cv(bench.matrices[0], bench.scores, opts=FitOptions(seed=seed))
        assert cv.mean <= 5.0 * bench.truth.noise_per_set[0], f"seed {seed}"
        b = f.baseline_residuals
        orderings.append(f.residual_train <= b["heuristic"] <= b["uniform"])
    assert sum(orderings) >= 4, orderings

    noiseless = generate(
        PlantedSpec(n_samples=500, n_models=12, n_metrics=2, noise_sigma=0.0, seed=0)
    )
    f0 = fit(noiseless.matrices, noiseless.scores, opts=FitOptions(seed=0))
    assert f0.residual_train < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        4,
        f"5 seeds within noise floor, ordering held {sum(orderings)}/5, "
        f"noiseless residual {f0.residual_train:.1e} ({elapsed:.1f}s)",
    )


def test_criterion_05_regularizer_dominance():
    bench = generate(PlantedSpec(target_mean_weight=1.6, noise_sigma=1e-3, seed=21))
    assert bench.truth.mean_weight == pytest.approx(1.6, abs=1e-9)
    f = fit(bench.matrices, bench.scores, init=ReweightParams(lam=1e6), opts=FitOptions(seed=21))
    assert abs(f.mean_weight - 1.0) < 1e-2
    _report(5, f"lambda=1e6 pulls mean weight from 1.6 to {f.mean_weight:.4f}")


def test_criterion_06_heuristic_truth_table():
    cases = [((-4.0, -5.0), 1.0), ((-6.0, -7.0), 0.0), ((-3.0, -3.0), 0.0)]
    for (s_f, s_p), expected in cases:
        got = heuristic_weight(ScoredSample("x", s_p=s_p, s_f=s_f))
        assert got == expected, (s_f, s_p)
    _report(6, "boundary cases (-4,-5)->1, (-6,-7)->0, (-3,-3)->0 exact")


def test_criterion_07_typo_calibration():
    rng = np.random.default_rng(77)
    cfg = TypoConfig(
        p_transpose=0.0, p_omit=0.0, p_repeat=0.0, p_spatial=0.05,
        max_errors_per_example=10**9, seed=0,
    )
    letters = list("abcdefghijklmnopqrstuvwxyz")
    sentences = ["".join(rng.choice(letters) for _ in range(40)) for _ in range(10_000)]
    total_positions = sum(len(s) for s in sentences)
    total_events = 0
    for i, text in enumerate(sentences):
        out, events = corrupt(text, cfg, seed=i)
        total_events += len(events)
        for e in events:
            assert out[e.position].lower() in QWERTY.adjacency[text[e.position]]
    expected = 0.05 * total_positions
    assert abs(total_events - expected) <= 0.10 * expected

    first = [corrupt(s, cfg, seed=i)[0] for i, s in enumerate(sentences[:500])]
    second = [corrupt(s, cfg, seed=i)[0] for i, s in enumerate(sentences[:500])]
    assert "\n".join(first).encode() == "\n".join(second).encode()
    _report(
        7,
        f"{total_events} spatial events vs {expected:.0f} expected "
        f"({abs(total_events / expected - 1) * 100:.1f}% off); all adjacent; reruns byte-identical",
    )


def test_criterion_08_roundtrip_filtration():
    mock = MockInjector(failure_rate=0.4, seed=88)
    docs = [
        Document(id=f"d{i}", text=f"The students have ladder number {i}.")
        for i in range(10_000)
    ]
    run = inject_corpus(docs, mock)
    assert run.failed == 0 and run.skipped == 0
    result = roundtrip_filter(list(run.pairs))
    kept_fraction = len(result.kept) / len(run.pairs)
    assert abs(kept_fraction - 0.60) <= 0.02
    by_id = {d.id: d.text for d in docs}
    for ex in result.kept:
        assert ex.target == by_id[ex.id]
    _report(8, f"kept fraction {kept_fraction:.3f} in 0.60 ± 0.02; all kept targets equal clean")


def test_criterion_09_clustering():
    rng = np.random.default_rng(99)
    for trial in range(20):
        n = int(rng.integers(30, 120))
        d = int(rng.integers(2, 8))
        k = int(rng.integers(2, min(10, n)))
        docs = Embeddings(
            ids=tuple(f"d{i}" for i in range(n)), matrix=np.stack([rng.normal(size=d) for i in range(n)])
        )
        model = kmeans(docs, k=k, seed=trial, max_iters=40)
        assert (np.diff(model.objective_history) <= 1e-9).all()

    docs = Embeddings(
        ids=tuple(f"d{i}" for i in range(25)), matrix=np.stack([rng.normal(size=4) for i in range(25)])
    )
    degenerate = kmeans(docs, k=25, seed=1)
    assert degenerate.objective == 0.0

    sizes = [int(rng.integers(2, 40)) for _ in range(50)]
    assignments = {}
    idx = 0
    for c, size in enumerate(sizes):
        for _ in range(size):
            assignments[f"p{idx:05d}"] = c
            idx += 1
    from ecsynth.cluster import ClusterModel

    synth_model = ClusterModel(
        centroids=np.zeros((50, 2)),
        assignments=assignments,
        sizes=np.array(sizes, dtype=np.int64),
        objective=0.0,
    )
    ids = quota_sample(synth_model, docs_per_cluster=10, seed=5)
    assert len(ids) == sum(min(10, s) for s in sizes)
    _report(9, "objective monotone on 20 instances; k=N objective 0; quota counts exact")


def test_criterion_10_eval_identities():
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 25))
        dataset = [
            ECExample(id=f"s{i}", source=f"src {i}", target=f"target {i}") for i in range(n)
        ]
        candidates = {}
        for i, ex in enumerate(dataset):
            cands = [f"wrong {i} {r}" for r in range(3)]
            if rng.random() < 0.6:
                cands[int(rng.integers(0, 3))] = ex.target
            candidates[ex.id] = tuple(cands)
        outputs = ModelOutputs(model_id="m", candidates=candidates)
        judge = ExactJudge()

        assert good_ratio(outputs, dataset, judge, k=1) == sequence_accuracy(outputs, dataset)
        ratios = [good_ratio(outputs, dataset, judge, k=k) for k in (1, 2, 3)]
        assert ratios == sorted(ratios)
        unit = {ex.id: 1.0 for ex in dataset}
        assert weighted_metric(outputs, dataset, judge, 3, unit) == good_ratio(
            outputs, dataset, judge, 3
        )
        weights = {ex.id: float(rng.uniform(0.01, 2.0)) for ex in dataset}
        got = weighted_metric(outputs, dataset, judge, 2, weights)
        brute = (
            sum(
                weights[ex.id]
                * max(judge.judge(c, ex.target) for c in outputs.candidates[ex.id][:2])
                for ex in dataset
            )
            / n
        )
        worst_gap = max(worst_gap, abs(got - brute))
    assert worst_gap < 1e-12
    _report(10, f"identities held on 100 instances; weighted vs brute force gap {worst_gap:.1e}")


def test_criterion_11_mixing_exactness():
    from ecsynth.mix import MixSpec, filter_by_weight, mix_datasets

    orig = [
        ECExample(id=f"o{i}", source="s", target="t", provenance="original") for i in range(100)
    ]
    synth = [
        ECExample(id=f"y{i}", source="s", target="t", provenance="synthetic")
        for i in range(2000)
    ]
    mixed = mix_datasets(orig, synth, MixSpec(ratio=(1, 4), seed=0))
    assert len(mixed) == 500
    counts = Counter(ex.provenance for ex in mixed)
    assert counts["original"] == 100 and counts["synthetic"] == 400

    weighted = [
        ECExample(id=f"w{i}", source="s", target="t", weight=w, provenance="synthetic")
        for i, w in enumerate([0.2, 0.9999999, 1.0, 1.0000001, 1.8])
    ]
    kept = filter_by_weight(weighted, threshold=1.0)
    assert [ex.weight for ex in kept] == [1.0, 1.0000001, 1.8]
    _report(11, "1:4 mix exactly 100/400; threshold boundary inclusive")


def test_criterion_12_end_to_end_golden_run(tmp_path):
    start = time.perf_counter()
    config_path = materialize(tmp_path)
    config = load_config(config_path)
    workdir = run_pipeline(config, config_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0

    hashes = {
        str(p.relative_to(workdir)): file_sha256(p)
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }
    if os.environ.get("ECSYNTH_REGEN_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        pytest.skip("golden hashes regenerated")
    assert GOLDEN_PATH.exists(), "golden hashes missing; run with ECSYNTH_REGEN_GOLDENS=1"
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert hashes == golden
    _report(12, f"all {len(hashes)} artifacts byte-identical to goldens ({elapsed:.1f}s)")
