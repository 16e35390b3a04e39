"""Planted-model benchmark: synthetic scores, measurements, and live metrics.

Live deployment metrics are private in production, so the fitting machinery
is validated on instances generated from known ground truth: draw per-sample
scores, compute planted weights, draw per-model binary measurements whose
rates are correlated with those weights, and emit live metrics that are an
affine function of the planted weighted offline metric plus Gaussian noise.

By default the planted bias term is calibrated so the mean planted weight is
exactly 1 (the regularizer's fixed point), making the noiseless instance
fully realizable by the fitting objective. Two metric sets with deliberately
different scales are generated to exercise the per-set regression protocol.

`generate` and `simulate_deployments` share one planted model: the module
constants below, `reweight`'s weight function, `_planted_rates` and
`_live_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluate import Judge, NormalizedJudge, export_chi_row
from .records import ECExample, EvalMatrix, ModelOutputs, ScoredSample
from .reweight import (
    ReweightParams,
    aligned_scores,
    calibrate_bias,
    check_mean_weight,
    offline_metric,
    sigmoid,
    weights_array,
)

# the planted model of both simulators: (theta_f, theta_p), the range of each
# model's uniform base accuracy, and the std of its skill (how far its rate
# moves with a sample's weight)
_THETA = (8.0, -6.0)
_BASE_ACCURACY = (0.55, 0.9)
_SKILL_STD = 1.5
# `generate` only: s_p ~ N(-4, 1), s_f - s_p ~ N(0.3, 0.8), the live-metric
# scale of each metric set, and the fit's default weight bounds
_S_P = (-4.0, 1.0)
_S_F_SHIFT = (0.3, 0.8)
_SET_SCALES = (1.0, 100.0)
_BOUNDS = ReweightParams()

# names of the deployment simulator's first live metrics; the rest are metric_{m}
_METRIC_NAMES = ("click_through_rate", "accept_rate")
# fraction of correct top-1s the deployment simulator emits as a casing variant
_CASING_SLIP = 0.2


def _check_sizes(n_models: int, n_metrics: int, noise_sigma: float) -> None:
    """The size and noise rules both specs share."""
    if n_models < 2:
        raise ValueError(f"need at least 2 models, got {n_models}")
    if n_metrics < 1:
        raise ValueError(f"need at least 1 metric, got {n_metrics}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")


@dataclass(frozen=True)
class PlantedSpec:
    n_samples: int = 500
    n_models: int = 12
    n_metrics: int = 2
    n_sets: int = 2
    theta_b: float = 0.0
    # when set, theta_b above is ignored and solved so mean weight hits this
    target_mean_weight: float | None = 1.0
    noise_sigma: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError(f"need at least 1 sample, got {self.n_samples}")
        _check_sizes(self.n_models, self.n_metrics, self.noise_sigma)
        if not 1 <= self.n_sets <= len(_SET_SCALES):
            raise ValueError(f"n_sets must be in [1, {len(_SET_SCALES)}], got {self.n_sets}")
        if self.target_mean_weight is not None:
            check_mean_weight(self.target_mean_weight, _BOUNDS.c_min, _BOUNDS.c_max)


@dataclass(frozen=True)
class GroundTruth:
    params: ReweightParams                       # planted theta and constants
    alpha_sets: tuple[tuple[np.ndarray, np.ndarray], ...]  # per set (alpha_1, alpha_0)
    weights: np.ndarray                          # (N,) planted weights
    mean_weight: float
    noise_per_set: tuple[float, ...]             # realized sum ||eps_j||^2 per set
    noise_total: float


@dataclass(frozen=True)
class PlantedBenchmark:
    matrices: tuple[EvalMatrix, ...]
    scores: list[ScoredSample]
    truth: GroundTruth


def _default_alphas(n_sets: int, d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    out = []
    for scale in _SET_SCALES[:n_sets]:
        alpha_1 = scale * (1.0 + 0.5 * np.arange(d))
        alpha_0 = scale * 0.1 * (np.arange(d) + 1.0)
        out.append((alpha_1, alpha_0))
    return tuple(out)


def _planted_weights(
    s_f: np.ndarray, s_p: np.ndarray, c_min: float, c_max: float, target: float | None,
    theta_b: float = 0.0,
) -> tuple[ReweightParams, np.ndarray]:
    """Planted reweighting model and its weights; a target mean weight overrides `theta_b`."""
    if target is not None:
        theta_b = calibrate_bias(*_THETA, s_f, s_p, c_min, c_max, target=target)
    params = ReweightParams(*_THETA, theta_b=theta_b, c_min=c_min, c_max=c_max)
    return params, weights_array(params, s_f, s_p)


def _planted_rates(rng: np.random.Generator, n_models: int, w: np.ndarray) -> np.ndarray:
    """Per-(model, sample) success rates correlated with the planted weights.

    Each model draws a base accuracy and a skill; its rate on a sample moves
    in logit space with the sample's centered weight, clipped to [0.02, 0.98].
    """
    base = rng.uniform(*_BASE_ACCURACY, size=n_models)
    skill = rng.normal(0.0, _SKILL_STD, size=n_models)
    centered = w - w.mean()
    logit = np.log(base / (1.0 - base))
    return np.clip(sigmoid(logit[:, None] + skill[:, None] * centered[None, :]), 0.02, 0.98)


def _live_metrics(
    rng: np.random.Generator, chi: np.ndarray, w: np.ndarray, alpha: tuple[np.ndarray, np.ndarray],
    noise_sigma: float,
) -> tuple[np.ndarray, float]:
    """Live metrics affine in the weighted offline metric plus noise; and the noise's sum of squares."""
    eps = rng.normal(0.0, noise_sigma, size=(chi.shape[0], len(alpha[0])))
    return np.outer(offline_metric(chi, w), alpha[0]) + alpha[1] + eps, float((eps * eps).sum())


def generate(spec: PlantedSpec) -> PlantedBenchmark:
    """Deterministic benchmark instance for the given spec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    s_p = rng.normal(*_S_P, size=n)
    s_f = s_p + rng.normal(*_S_F_SHIFT, size=n)

    params, w = _planted_weights(
        s_f, s_p, _BOUNDS.c_min, _BOUNDS.c_max, spec.target_mean_weight, spec.theta_b
    )

    sample_ids = tuple(f"ps-{i:06d}" for i in range(n))
    scores = [
        ScoredSample(sample_id=sid, s_p=float(p), s_f=float(f))
        for sid, p, f in zip(sample_ids, s_p, s_f)
    ]

    alphas = _default_alphas(spec.n_sets, spec.n_metrics)
    matrices = []
    noise_per_set = []
    for s in range(spec.n_sets):
        p = _planted_rates(rng, spec.n_models, w)
        chi = (rng.random(p.shape) < p).astype(np.float64)
        v, noise = _live_metrics(rng, chi, w, alphas[s], spec.noise_sigma)
        noise_per_set.append(noise)
        matrices.append(
            EvalMatrix(
                model_ids=tuple(f"set{s}-model{j:02d}" for j in range(spec.n_models)),
                sample_ids=sample_ids,
                chi=chi,
                live_metrics=v,
                metric_names=tuple(f"metric_{m}" for m in range(spec.n_metrics)),
            )
        )

    truth = GroundTruth(
        params=params,
        alpha_sets=alphas,
        weights=w,
        mean_weight=float(w.mean()),
        noise_per_set=tuple(noise_per_set),
        noise_total=float(sum(noise_per_set)),
    )
    return PlantedBenchmark(matrices=tuple(matrices), scores=scores, truth=truth)


# -- deployment simulator: planted metrics over actual candidate strings --


@dataclass(frozen=True)
class DeploymentSimSpec:
    """Synthesize ranked model outputs plus live metrics for a real dataset.

    Per-model top-1 correctness rates are modulated by the planted sample
    weights exactly as in the raw benchmark, with the bias calibrated to mean
    weight 1 over the dataset's scores; a rescue probability plants the
    correct answer at rank 2 or 3 so top-3 strictly dominates top-1.
    """

    n_models: int = 8
    n_metrics: int = 2
    c_min: float = ReweightParams.c_min
    c_max: float = ReweightParams.c_max
    top3_rescue: float = 0.15
    noise_sigma: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_sizes(self.n_models, self.n_metrics, self.noise_sigma)
        if not 0 <= self.top3_rescue <= 1:
            raise ValueError(f"top3_rescue must be in [0, 1], got {self.top3_rescue}")


@dataclass(frozen=True)
class DeploymentSim:
    outputs: tuple[ModelOutputs, ...]
    matrix: EvalMatrix
    params: ReweightParams     # planted reweighting model
    weights: np.ndarray        # planted per-sample weights
    alpha: tuple[np.ndarray, np.ndarray]
    noise_floor: float


def _near_miss(target: str) -> str:
    # equal under the normalized judge, different bytes
    return target.lower().rstrip(".!?")


def simulate_deployments(
    dataset: Sequence[ECExample],
    scores: Sequence[ScoredSample],
    spec: DeploymentSimSpec,
    judge: Judge = NormalizedJudge(),  # stateless, so one shared default is safe
) -> DeploymentSim:
    """Planted stand-in for live A/B testing over an actual EC dataset.

    The measurement matrix is produced by judging the synthesized candidate
    strings (top 3) with the same judge the evaluation stage uses, and
    live metrics are an affine function of the planted weighted offline
    metric plus Gaussian noise.
    """
    s_f, s_p = aligned_scores([ex.id for ex in dataset], scores)

    params, w = _planted_weights(s_f, s_p, spec.c_min, spec.c_max, target=1.0)

    rng = np.random.default_rng(spec.seed)
    p1 = _planted_rates(rng, spec.n_models, w)

    # each sample's two wrong candidates, the same for every model
    wrongs = [
        (ex.source if ex.source != ex.target else "uh " + ex.target, "uh " + ex.source)
        for ex in dataset
    ]
    outputs = []
    for j, rates in enumerate(p1.tolist()):
        candidates: dict[str, tuple[str, ...]] = {}
        for ex, (wrong_a, wrong_b), p in zip(dataset, wrongs, rates):
            u = rng.random()
            if u < p:
                top = ex.target
                if rng.random() < _CASING_SLIP:
                    top = _near_miss(ex.target)
                cands = (top, wrong_a, wrong_b)
            elif u < p + spec.top3_rescue:
                if rng.random() < 0.5:
                    cands = (wrong_a, ex.target, wrong_b)
                else:
                    cands = (wrong_a, wrong_b, ex.target)
            else:
                cands = (wrong_a, wrong_b, wrong_a + " uh")
            candidates[ex.id] = cands
        outputs.append(ModelOutputs(model_id=f"model{j:02d}", candidates=candidates))

    # cycled past two metrics
    alpha = (np.resize([1.5, 0.8], spec.n_metrics), np.resize([0.05, 0.2], spec.n_metrics))
    chi = np.stack([export_chi_row(o, dataset, judge, 3) for o in outputs])
    v, noise_floor = _live_metrics(rng, chi, w, alpha, spec.noise_sigma)
    names = _METRIC_NAMES + tuple(f"metric_{m}" for m in range(len(_METRIC_NAMES), spec.n_metrics))
    matrix = EvalMatrix(
        model_ids=tuple(o.model_id for o in outputs),
        sample_ids=tuple(ex.id for ex in dataset),
        chi=chi,
        live_metrics=v,
        metric_names=names[: spec.n_metrics],
    )
    return DeploymentSim(
        outputs=tuple(outputs),
        matrix=matrix,
        params=params,
        weights=w,
        alpha=alpha,
        noise_floor=noise_floor,
    )
