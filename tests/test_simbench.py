from __future__ import annotations

import hashlib

import numpy as np
import pytest

from ecsynth.evaluate import NormalizedJudge
from ecsynth.records import ECExample
from ecsynth.reweight import FitOptions, fit
from ecsynth.simbench import (
    DeploymentSimSpec,
    PlantedSpec,
    generate,
    simulate_deployments,
)


def test_generate_deterministic():
    a = generate(PlantedSpec(n_samples=100, n_models=5, seed=4))
    b = generate(PlantedSpec(n_samples=100, n_models=5, seed=4))
    assert a.scores == b.scores
    for ma, mb in zip(a.matrices, b.matrices):
        np.testing.assert_array_equal(ma.chi, mb.chi)
        np.testing.assert_array_equal(ma.live_metrics, mb.live_metrics)
    np.testing.assert_array_equal(a.truth.weights, b.truth.weights)


def test_generate_ranges_and_calibration():
    bench = generate(PlantedSpec(n_samples=300, n_models=6, seed=5))
    for m in bench.matrices:
        assert np.isin(m.chi, (0.0, 1.0)).all()
    assert ((bench.truth.weights > 0.01) & (bench.truth.weights < 2.0)).all()
    assert bench.truth.mean_weight == pytest.approx(1.0, abs=1e-9)


def test_generate_two_scales_by_default():
    bench = generate(PlantedSpec(n_samples=100, n_models=5, seed=6))
    assert len(bench.matrices) == 2
    small = np.abs(bench.matrices[0].live_metrics).mean()
    large = np.abs(bench.matrices[1].live_metrics).mean()
    assert large > 10 * small


def test_generate_noise_floor_zero_when_noiseless():
    bench = generate(PlantedSpec(n_samples=100, n_models=5, noise_sigma=0.0, seed=7))
    assert bench.truth.noise_total == 0.0


def test_generate_validation():
    with pytest.raises(ValueError):
        PlantedSpec(n_models=1)
    with pytest.raises(ValueError):
        PlantedSpec(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        PlantedSpec(target_mean_weight=5.0)
    with pytest.raises(ValueError, match="at least 1 sample"):
        PlantedSpec(n_samples=0)


def test_generate_fixed_bias_when_uncalibrated():
    bench = generate(
        PlantedSpec(n_samples=100, n_models=5, theta_b=0.25, target_mean_weight=None, seed=8)
    )
    assert bench.truth.params.theta_b == 0.25


def _dataset(n=60):
    return [
        ECExample(id=f"s{i}", source=f"corupted sentence {i}", target=f"Corrected sentence {i}.")
        for i in range(n)
    ]


def _scores(dataset, seed=0):
    rng = np.random.default_rng(seed)
    from ecsynth.records import ScoredSample

    return [
        ScoredSample(ex.id, s_p=float(rng.normal(-4, 1)), s_f=float(rng.normal(-3.7, 1)))
        for ex in dataset
    ]


def test_simulate_deployments_deterministic():
    dataset = _dataset()
    scores = _scores(dataset)
    spec = DeploymentSimSpec(n_models=4, seed=9)
    a = simulate_deployments(dataset, scores, spec)
    b = simulate_deployments(dataset, scores, spec)
    assert [o.candidates for o in a.outputs] == [o.candidates for o in b.outputs]
    np.testing.assert_array_equal(a.matrix.chi, b.matrix.chi)
    np.testing.assert_array_equal(a.matrix.live_metrics, b.matrix.live_metrics)


def test_simulate_deployments_chi_matches_judged_outputs():
    dataset = _dataset()
    scores = _scores(dataset)
    sim = simulate_deployments(dataset, scores, DeploymentSimSpec(n_models=3, seed=10))
    judge = NormalizedJudge()
    for j, outputs in enumerate(sim.outputs):
        for i, ex in enumerate(dataset):
            best = max(judge.judge(c, ex.target) for c in outputs.candidates[ex.id][:3])
            assert sim.matrix.chi[j, i] == best


def test_simulate_deployments_metrics_affine_in_weighted_metric():
    dataset = _dataset(100)
    scores = _scores(dataset, seed=11)
    sim = simulate_deployments(
        dataset, scores, DeploymentSimSpec(n_models=5, noise_sigma=0.0, seed=11)
    )
    s = sim.matrix.chi @ sim.weights / len(dataset)
    expected = np.outer(s, sim.alpha[0]) + sim.alpha[1]
    np.testing.assert_allclose(sim.matrix.live_metrics, expected, atol=1e-12)
    assert sim.noise_floor == 0.0


def test_simulate_deployments_fit_recovers():
    dataset = _dataset(150)
    scores = _scores(dataset, seed=12)
    sim = simulate_deployments(
        dataset, scores, DeploymentSimSpec(n_models=8, noise_sigma=0.0, seed=12)
    )
    f = fit(sim.matrix, scores, opts=FitOptions(seed=12))
    assert f.residual_train < 1e-8


def test_simulate_deployments_names_metrics_past_the_second():
    dataset = _dataset(20)
    sim = simulate_deployments(
        dataset, _scores(dataset, seed=2), DeploymentSimSpec(n_models=3, n_metrics=3, seed=2)
    )
    assert sim.matrix.live_metrics.shape == (3, 3)
    assert sim.matrix.metric_names == ("click_through_rate", "accept_rate", "metric_2")


def test_simulate_deployments_requires_scores():
    dataset = _dataset(5)
    with pytest.raises(ValueError, match="missing"):
        simulate_deployments(dataset, [], DeploymentSimSpec(n_models=2, seed=1))


def _digest(bench) -> str:
    """sha256 over every array, id, score and ground-truth number of a planted benchmark."""
    h = hashlib.sha256()
    for m in bench.matrices:
        for names in (m.model_ids, m.sample_ids, m.metric_names):
            h.update("\n".join(names).encode())
        h.update(np.ascontiguousarray(m.chi).tobytes())
        h.update(np.ascontiguousarray(m.live_metrics).tobytes())
    for s in bench.scores:
        h.update(f"{s.sample_id} {s.s_p.hex()} {s.s_f.hex()}\n".encode())
    t = bench.truth
    p = t.params
    h.update(" ".join(x.hex() for x in (p.theta_f, p.theta_p, p.theta_b, p.c_min, p.c_max, p.lam)).encode())
    for a1, a0 in t.alpha_sets:
        h.update(np.asarray(a1, dtype=np.float64).tobytes())
        h.update(np.asarray(a0, dtype=np.float64).tobytes())
    h.update(t.weights.tobytes())
    h.update(" ".join(x.hex() for x in (t.mean_weight, *t.noise_per_set, t.noise_total)).encode())
    return h.hexdigest()


# recorded from `generate`; a change to the planted model or its draw order moves them, and so
# can numpy's float64 exp, whose last bit differs from the C library's on some CPUs
@pytest.mark.parametrize(
    "spec, expected",
    [
        (PlantedSpec(), "c74309f68e017c131188ed939bd6f8e1f919f1640b294f718789260c6f6886d9"),
        (
            PlantedSpec(n_samples=120, n_models=4, n_sets=1, noise_sigma=0.01, seed=8),
            "322e288c643f82d5bf4d8c6e9a3d4bc2856cceea3e962033a697a8f409f14d3c",
        ),
        (
            PlantedSpec(n_samples=100, n_models=5, theta_b=0.25, target_mean_weight=None, seed=8),
            "2c7c19802f797ca13125663186a98cd371a59e702852755f819afd66f5552cfa",
        ),
        (
            PlantedSpec(n_samples=80, n_models=3, n_metrics=3, noise_sigma=0.0, seed=2),
            "d0fe2a6ea97a92287ed645a27495c4bebe9153738ea159ea2567c80c4f7c4833",
        ),
        (
            PlantedSpec(target_mean_weight=1.6, noise_sigma=1e-3, seed=18),
            "2f6a1ddb76a4c05491556b7a0af130a911ee8629005dab55e88e4ee258f315fe",
        ),
    ],
    ids=["default", "n_sets=1", "fixed_bias", "n_metrics=3", "target=1.6"],
)
def test_generate_bytes_pinned(spec, expected):
    assert _digest(generate(spec)) == expected


@pytest.mark.parametrize("n_sets", [0, 3])
def test_generate_rejects_n_sets_outside_1_and_2(n_sets):
    with pytest.raises(ValueError, match="n_sets"):
        PlantedSpec(n_sets=n_sets)
