from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ecsynth import reweight
from ecsynth.records import EvalMatrix, ScoredSample
from ecsynth.reweight import (
    FitOptions,
    RegressionParams,
    ReweightParams,
    _closed_form_alpha,
    aligned_scores,
    baseline_residuals,
    calibrate_bias,
    fit,
    holdout_cv,
    objective,
    offline_metric,
    weights_array,
    weights_for,
)
from ecsynth.simbench import PlantedSpec, generate


def _random_instance(rng, n_models=5, n_samples=20, n_metrics=2):
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
    return matrix, scores


def _regression_only(fixed, matrices, scores):
    """Closed-form regression per metric set at fixed params; (alphas, residual)."""
    alphas, residual = [], 0.0
    for m in (matrices,) if isinstance(matrices, EvalMatrix) else matrices:
        w = weights_array(fixed, *aligned_scores(m.sample_ids, scores))
        s = offline_metric(m.chi, w)
        a = _closed_form_alpha(s, m.live_metrics)
        resid = np.outer(s, a.alpha_1) + a.alpha_0 - m.live_metrics
        residual += float((resid * resid).sum())
        alphas.append(a)
    return tuple(alphas), residual


def _first_models(matrix, n):
    """The matrix restricted to its first n model rows."""
    return EvalMatrix(
        model_ids=matrix.model_ids[:n],
        sample_ids=matrix.sample_ids,
        chi=matrix.chi[:n],
        live_metrics=matrix.live_metrics[:n],
        metric_names=matrix.metric_names,
    )


def test_weight_at_zero_theta_is_exact_center():
    params = ReweightParams()
    w = float(weights_array(params, s_f=-567.8, s_p=123.4))
    assert w == 0.01 + 1.99 * 0.5
    assert w == 1.005


def test_weight_matches_reported_fitted_model_form():
    params = ReweightParams(theta_f=40.64, theta_p=-30.44, theta_b=-1.59)
    w = float(weights_array(params, s_f=0.0, s_p=0.0))
    assert w == pytest.approx(0.01 + 1.99 * expit(-1.59), rel=1e-12)


def test_weight_saturates_toward_c_max_but_stays_inside():
    params = ReweightParams(theta_f=1e6)
    w = float(weights_array(params, s_f=5.0, s_p=0.0))
    assert w < 2.0
    assert w == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.floats(-100, 100) for _ in range(3)]),
    st.floats(-50, 50),
    st.floats(-50, 50),
)
def test_weight_strictly_inside_bounds(theta, s_f, s_p):
    params = ReweightParams(theta_f=theta[0], theta_p=theta[1], theta_b=theta[2])
    w = float(weights_array(params, s_f=s_f, s_p=s_p))
    assert 0.01 < w < 2.0


def test_weight_monotone_in_scores():
    params = ReweightParams(theta_f=2.0, theta_p=1.0, theta_b=0.0)
    grid = np.linspace(-5, 5, 50)
    w_f = weights_array(params, grid, np.zeros_like(grid))
    w_p = weights_array(params, np.zeros_like(grid), grid)
    assert (np.diff(w_f) > 0).all()
    assert (np.diff(w_p) > 0).all()


def test_objective_reduces_to_total_variance_at_zero_slope():
    rng = np.random.default_rng(0)
    matrix, scores = _random_instance(rng)
    v = matrix.live_metrics
    params = ReweightParams(lam=0.0)
    alpha = RegressionParams(alpha_1=np.zeros(2), alpha_0=v.mean(axis=0))
    ev = objective(params, alpha, matrix, scores)
    total_var = float(((v - v.mean(axis=0)) ** 2).sum())
    assert ev.value == pytest.approx(total_var, rel=1e-12)
    np.testing.assert_allclose(ev.grad_alpha[0][1], 0.0, atol=1e-10)


def test_objective_regularizer_vanishes_at_uniform_weights():
    rng = np.random.default_rng(1)
    matrix, scores = _random_instance(rng)
    tf, tp, tb = ReweightParams.uniform_theta(ReweightParams.c_min, ReweightParams.c_max)
    params = ReweightParams(theta_f=tf, theta_p=tp, theta_b=tb, lam=5.0)
    alpha = RegressionParams(alpha_1=np.zeros(2), alpha_0=np.zeros(2))
    with_reg = objective(params, alpha, matrix, scores).value
    no_reg = objective(
        ReweightParams(theta_f=tf, theta_p=tp, theta_b=tb, lam=0.0), alpha, matrix, scores
    ).value
    assert with_reg == pytest.approx(no_reg, rel=1e-12)


def test_objective_misaligned_scores_error():
    rng = np.random.default_rng(2)
    matrix, scores = _random_instance(rng)
    alpha = RegressionParams(alpha_1=np.zeros(2), alpha_0=np.zeros(2))
    with pytest.raises(ValueError, match="missing"):
        objective(ReweightParams(), alpha, matrix, scores[:-1])


def test_objective_permutation_invariant():
    rng = np.random.default_rng(3)
    matrix, scores = _random_instance(rng)
    params = ReweightParams(theta_f=0.7, theta_p=-0.3, theta_b=0.2)
    alpha = RegressionParams(alpha_1=rng.normal(size=2), alpha_0=rng.normal(size=2))
    base = objective(params, alpha, matrix, scores).value

    sample_perm = rng.permutation(matrix.n_samples)
    model_perm = rng.permutation(matrix.n_models)
    shuffled = EvalMatrix(
        model_ids=tuple(matrix.model_ids[j] for j in model_perm),
        sample_ids=tuple(matrix.sample_ids[i] for i in sample_perm),
        chi=matrix.chi[np.ix_(model_perm, sample_perm)],
        live_metrics=matrix.live_metrics[model_perm],
        metric_names=matrix.metric_names,
    )
    shuffled_scores = [scores[i] for i in rng.permutation(len(scores))]
    assert objective(params, alpha, shuffled, shuffled_scores).value == pytest.approx(
        base, rel=1e-12
    )


def _finite_diff_check(rng, h=1e-5) -> float:
    n_models = int(rng.integers(2, 9))
    n_samples = int(rng.integers(5, 51))
    n_metrics = int(rng.integers(1, 4))
    matrix, scores = _random_instance(rng, n_models, n_samples, n_metrics)
    params = ReweightParams(
        theta_f=float(rng.uniform(-1, 1)),
        theta_p=float(rng.uniform(-1, 1)),
        theta_b=float(rng.uniform(-1, 1)),
        lam=float(rng.uniform(0.0, 0.1)),
    )
    alpha = RegressionParams(alpha_1=rng.normal(size=n_metrics), alpha_0=rng.normal(size=n_metrics))
    ev = objective(params, alpha, matrix, scores)

    def value(theta, a1, a0):
        p = ReweightParams(theta_f=theta[0], theta_p=theta[1], theta_b=theta[2], lam=params.lam)
        return objective(p, RegressionParams(alpha_1=a1, alpha_0=a0), matrix, scores).value

    theta = params.theta
    worst = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (value(theta + e, alpha.alpha_1, alpha.alpha_0) - value(theta - e, alpha.alpha_1, alpha.alpha_0)) / (2 * h)
        worst = max(worst, abs(ev.grad_theta[i] - fd) / max(abs(fd), abs(ev.grad_theta[i]), 1.0))
    for i in range(n_metrics):
        e = np.zeros(n_metrics)
        e[i] = h
        fd = (value(theta, alpha.alpha_1 + e, alpha.alpha_0) - value(theta, alpha.alpha_1 - e, alpha.alpha_0)) / (2 * h)
        worst = max(worst, abs(ev.grad_alpha[0][0][i] - fd) / max(abs(fd), abs(ev.grad_alpha[0][0][i]), 1.0))
        fd = (value(theta, alpha.alpha_1, alpha.alpha_0 + e) - value(theta, alpha.alpha_1, alpha.alpha_0 - e)) / (2 * h)
        worst = max(worst, abs(ev.grad_alpha[0][1][i] - fd) / max(abs(fd), abs(ev.grad_alpha[0][1][i]), 1.0))
    return worst


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = max(_finite_diff_check(rng) for _ in range(10))
    assert worst < 1e-5


def test_closed_form_alpha_exact_line():
    s = np.array([1.0, 2.0, 3.0])
    v = np.array([[2.0], [4.0], [6.0]])
    a = _closed_form_alpha(s, v)
    assert a.alpha_1[0] == pytest.approx(2.0, rel=1e-12)
    assert a.alpha_0[0] == pytest.approx(0.0, abs=1e-12)
    assert not a.degenerate


def test_closed_form_alpha_degenerate_flags():
    s = np.array([0.5, 0.5, 0.5])
    v = np.array([[1.0], [2.0], [3.0]])
    a = _closed_form_alpha(s, v)
    assert a.degenerate
    assert a.alpha_1[0] == 0.0
    assert a.alpha_0[0] == pytest.approx(2.0)


def test_refit_regression_only_exact_line():
    # w == 1 via the uniform theta, so s_j is the plain chi row mean
    chi = np.array([[1, 1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]], dtype=float)
    s = chi.mean(axis=1)
    v = (3.0 * s + 1.0)[:, None]
    matrix = EvalMatrix(
        model_ids=("m0", "m1", "m2"),
        sample_ids=tuple(f"s{i}" for i in range(6)),
        chi=chi,
        live_metrics=v,
        metric_names=("x",),
    )
    scores = [ScoredSample(f"s{i}", s_p=-1.0, s_f=-1.0) for i in range(6)]
    tf, tp, tb = ReweightParams.uniform_theta(ReweightParams.c_min, ReweightParams.c_max)
    alphas, residual = _regression_only(
        ReweightParams(theta_f=tf, theta_p=tp, theta_b=tb), matrix, scores
    )
    assert residual == pytest.approx(0.0, abs=1e-18)
    assert alphas[0].alpha_1[0] == pytest.approx(3.0, rel=1e-9)
    assert alphas[0].alpha_0[0] == pytest.approx(1.0, rel=1e-9)


def test_refit_regression_only_planted_truth():
    bench = generate(PlantedSpec(n_samples=200, n_models=8, noise_sigma=1e-4, seed=5))
    _, residual = _regression_only(bench.truth.params, bench.matrices, bench.scores)
    assert residual <= bench.truth.noise_total + 1e-12


def test_fit_agrees_with_regression_only_refit_at_fitted_params():
    bench = generate(PlantedSpec(n_samples=150, n_models=6, noise_sigma=1e-3, seed=7))
    f = fit(bench.matrices, bench.scores, opts=FitOptions(seed=7, restarts=3))
    alphas, residual = _regression_only(f.params, bench.matrices, bench.scores)
    assert residual == f.residual_train
    assert len(alphas) == len(f.regression)
    for a, b in zip(alphas, f.regression):
        assert np.array_equal(a.alpha_1, b.alpha_1)
        assert np.array_equal(a.alpha_0, b.alpha_0)
        assert a.degenerate == b.degenerate


def _spy_minimize(monkeypatch) -> list:
    """Records each `reweight.minimize` call as (fun, x0, problem, result)."""
    calls = []
    real = reweight.minimize

    def spy(fun, x0, problem, **kwargs):
        res = real(fun, x0, problem, **kwargs)
        calls.append((fun, x0, problem, res))
        return res

    monkeypatch.setattr(reweight, "minimize", spy)
    return calls


def _assert_batched_equals_objective(value, grad, expected):
    # the batched path sums in another order, so equality holds to rounding only
    assert value == pytest.approx(expected.value, rel=1e-12, abs=1e-300)
    scale = max(float(np.abs(expected.grad_theta).max()), 1e-300)
    np.testing.assert_allclose(grad, expected.grad_theta, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("n_sets", [1, 2])
def test_projected_objective_equals_objective_at_closed_form_alpha(monkeypatch, n_sets):
    bench = generate(PlantedSpec(n_samples=120, n_models=6, n_sets=n_sets, seed=5))
    params = ReweightParams()
    calls = _spy_minimize(monkeypatch)
    fit(bench.matrices, bench.scores, init=params, opts=FitOptions(restarts=2, max_iters=3))
    ((fun, _, problem, _),) = calls  # one batched solve; rows 0 and 1 are the fit's restarts
    assert problem.tolist() == [0, 0]
    thetas = np.random.default_rng(11).normal(0.0, 3.0, size=(100, 3))
    for theta in thetas:
        (value,), (grad,) = fun(theta[None, :], np.array([0]))
        at = params.with_theta(theta)
        alphas, _ = _regression_only(at, bench.matrices, bench.scores)
        expected = objective(at, alphas, bench.matrices, bench.scores)
        _assert_batched_equals_objective(value, grad, expected)
    # a batch of rows evaluates each row as it does alone
    both = fun(thetas[:2], np.array([0, 1]))
    for r in range(2):
        alone = fun(thetas[r : r + 1], np.array([r]))
        assert both[0][r] == pytest.approx(alone[0][0], rel=1e-14)


def test_cv_rows_mask_their_held_out_model(monkeypatch):
    bench = generate(PlantedSpec(n_samples=120, n_models=5, n_sets=1, seed=9))
    (matrix,) = bench.matrices
    params = ReweightParams()
    calls = _spy_minimize(monkeypatch)
    fit(matrix, bench.scores, init=params, opts=FitOptions(restarts=2, max_iters=3), with_cv=True)
    ((fun, _, problem, _),) = calls  # the fit and its 5 folds in one solve
    assert problem.tolist() == [p for p in range(6) for _ in range(2)]
    theta = np.array([[6.0, -4.0, 20.0]])
    for j in range(matrix.n_models):
        keep = [i for i in range(matrix.n_models) if i != j]
        fold = EvalMatrix(
            model_ids=tuple(matrix.model_ids[i] for i in keep),
            sample_ids=matrix.sample_ids,
            chi=matrix.chi[keep],
            live_metrics=matrix.live_metrics[keep],
            metric_names=matrix.metric_names,
        )
        (value,), (grad,) = fun(theta, np.array([2 * (j + 1) + 1]))
        at = params.with_theta(theta[0])
        alphas, _ = _regression_only(at, fold, bench.scores)
        _assert_batched_equals_objective(value, grad, objective(at, alphas, fold, bench.scores))


def _quadratic_batch(centers, scales):
    """fun for minimize: row r minimizes sum(scales[r] * (x - centers[r])**2) + r."""

    def fun(x, rows):
        d = x - centers[rows]
        return (scales[rows] * d * d).sum(axis=1) + rows, 2.0 * scales[rows] * d

    return fun


def test_minimize_converges_each_row_and_polishes_the_best():
    centers = np.array([[1.0, -2.0, 3.0], [0.5, 0.5, 0.5], [-4.0, 2.0, 1.0]])
    scales = np.array([[1.0, 10.0, 0.1], [1.0, 1.0, 1.0], [3.0, 1e-2, 5.0]])
    x0 = np.zeros((3, 3))
    res = reweight.minimize(_quadratic_batch(centers, scales), x0, np.array([0, 1, 2]), grad_tol=1e-6)
    np.testing.assert_allclose(res.x, centers, atol=1e-6)
    assert res.converged.all()
    assert (res.iterations > 0).all() and res.nit == res.iterations.max()
    assert res.nfev >= res.nit + 1
    # each row leads its own problem, so it is polished past grad_tol
    np.testing.assert_allclose(res.fun, [0.0, 1.0, 2.0], atol=1e-15)


def test_minimize_stops_rows_that_lag_their_problems_leader():
    # one problem: row 0 starts at the minimum's doorstep, row 1 far up an
    # ill-conditioned valley that takes many iterations to descend
    centers = np.zeros((2, 3))
    scales = np.array([[1.0, 1.0, 1.0], [1.0, 1e-7, 1.0]])

    def fun(x, rows):
        d = x - centers[rows]
        return (scales[rows] * d * d).sum(axis=1), 2.0 * scales[rows] * d

    x0 = np.array([[1e-3, 0.0, 0.0], [1.0, 1e4, 1.0]])
    res = reweight.minimize(fun, x0, np.array([0, 0]), grad_tol=1e-9)
    assert res.converged.tolist() == [True, False]
    assert res.fun[1] > res.fun[0]
    assert res.iterations[1] <= 2 * max(res.iterations[0], 1)


def test_minimize_retries_a_non_finite_start_from_half_of_it_then_abandons_it():
    quad = _quadratic_batch(np.zeros((3, 3)), np.ones((3, 3)))

    def fun(x, rows):
        f, g = quad(x, rows)
        # row 1 is finite only where max |x| <= 1.5, row 2 nowhere
        infinite = (rows == 2) | ((rows == 1) & (np.abs(x).max(axis=1) > 1.5))
        return np.where(infinite, np.inf, f), g

    res = reweight.minimize(fun, np.full((3, 3), 2.0), np.array([0, 1, 2]))
    assert res.fun[:2] == pytest.approx([0.0, 1.0], abs=1e-15) and res.converged[:2].all()
    assert res.fun[2] == math.inf and res.iterations[2] == 0 and not res.converged[2]


def test_fit_reports_every_restart():
    b = generate(PlantedSpec(seed=3))
    f = fit(b.matrices, b.scores, opts=FitOptions(seed=3))
    kinds = [r.kind for r in f.restarts]
    assert kinds == ["caller", "uniform", "sign+-", "sign-+", "sign++", "sign--", "random", "random"]
    assert f.restarts_run == 8
    assert min(r.objective for r in f.restarts) == f.objective_train
    best = min(f.restarts, key=lambda r: r.objective)
    assert best.theta == (f.params.theta_f, f.params.theta_p, f.params.theta_b)
    assert all(r.iterations >= 0 for r in f.restarts)
    assert [r.kind for r in fit(b.matrices, b.scores, opts=FitOptions(restarts=1)).restarts] == [
        "caller", "uniform"
    ]


@pytest.mark.parametrize("seed", [7, 11])
def test_objective_train_is_objective_at_reported_params(seed):
    b = generate(PlantedSpec(seed=seed))
    f = fit(b.matrices, b.scores, opts=FitOptions(seed=seed))
    assert f.objective_train == objective(f.params, f.regression, b.matrices, b.scores).value


def test_baseline_residuals_heuristic_equals_uniform_when_all_pass():
    rng = np.random.default_rng(4)
    matrix, _ = _random_instance(rng)
    # all samples pass the heuristic: s_f > s_p and s_f > -5
    scores = [
        ScoredSample(f"s{i}", s_p=-3.0, s_f=-2.0 + 0.001 * i) for i in range(matrix.n_samples)
    ]
    b = baseline_residuals(matrix, scores)
    assert b["heuristic"] == pytest.approx(b["uniform"], rel=1e-9)


def test_baseline_residuals_all_filtered_degenerates_gracefully():
    rng = np.random.default_rng(5)
    matrix, _ = _random_instance(rng)
    scores = [ScoredSample(f"s{i}", s_p=-3.0, s_f=-7.0) for i in range(matrix.n_samples)]
    b = baseline_residuals(matrix, scores)
    v = matrix.live_metrics
    assert b["heuristic"] == pytest.approx(float(((v - v.mean(axis=0)) ** 2).sum()), rel=1e-9)


def test_baseline_residuals_minimum_two_models():
    rng = np.random.default_rng(6)
    matrix, scores = _random_instance(rng, n_models=2)
    b = baseline_residuals(matrix, scores)
    assert np.isfinite(b["uniform"]) and np.isfinite(b["heuristic"])


def test_fit_noiseless_planted_is_realizable():
    bench = generate(PlantedSpec(n_samples=200, n_models=8, noise_sigma=0.0, seed=11))
    f = fit(bench.matrices, bench.scores, opts=FitOptions(seed=11))
    assert f.residual_train < 1e-8
    assert f.containment_ok


def test_fit_noisy_planted_reaches_noise_floor():
    bench = generate(PlantedSpec(n_samples=300, n_models=10, noise_sigma=1e-3, seed=12))
    f = fit(bench.matrices, bench.scores, opts=FitOptions(seed=12))
    assert f.residual_train <= 2.0 * bench.truth.noise_total
    assert f.residual_train <= f.baseline_residuals["uniform"] + 1e-9


def test_fit_single_matrix_and_validation_split():
    bench = generate(
        PlantedSpec(n_samples=200, n_models=10, n_sets=1, noise_sigma=1e-4, seed=13)
    )
    train = _first_models(bench.matrices[0], 9)
    holdout = bench.matrices[0]
    f = fit(train, bench.scores, opts=FitOptions(seed=13), val_data=holdout)
    assert f.residual_val is not None
    assert len(f.residual_val.per_holdout) == holdout.n_models
    assert f.residual_val.mean >= 0


def test_fit_requires_two_models():
    bench = generate(PlantedSpec(n_samples=50, n_models=2, n_sets=1, seed=14))
    solo = _first_models(bench.matrices[0], 1)
    with pytest.raises(ValueError):
        fit(solo, bench.scores)


def test_holdout_cv_k3_counting():
    bench = generate(PlantedSpec(n_samples=150, n_models=3, n_sets=1, noise_sigma=0.0, seed=15))
    cv = holdout_cv(bench.matrices[0], bench.scores, opts=FitOptions(seed=15))
    assert len(cv.per_holdout) == 3


def test_holdout_cv_noiseless_floor():
    # enough models that each leave-one-out fit still pins down theta
    bench = generate(PlantedSpec(n_samples=150, n_models=8, n_sets=1, noise_sigma=0.0, seed=15))
    cv = holdout_cv(bench.matrices[0], bench.scores, opts=FitOptions(seed=15))
    assert len(cv.per_holdout) == 8
    assert all(r < 1e-6 for r in cv.per_holdout)


def test_holdout_cv_requires_three_models():
    bench = generate(PlantedSpec(n_samples=50, n_models=2, n_sets=1, seed=16))
    with pytest.raises(ValueError):
        holdout_cv(bench.matrices[0], bench.scores)


def test_cv_and_validation_summaries_agree_bit_for_bit_at_one_theta():
    # With every fold's best theta the same, a CV fold and a validation
    # holdout make the same refit, so they must give the same bits. A metric
    # from a model's own row, or from the kept rows only, can differ from the
    # whole matrix's in the last bit; on these inputs it does.
    matrix, scores = _random_instance(np.random.default_rng(31), n_models=6, n_samples=2000, n_metrics=3)
    (st,) = reweight._problem(matrix, scores)
    theta = np.array([0.8, -0.5, 0.3])
    # row 1 has the lower objective, so it is each fold's best
    fold = reweight._Solution(
        x=np.array([theta + 1.0, theta]), fun=np.array([2.0, 1.0]), nit=1, nfev=1,
        iterations=np.ones(2, dtype=np.int64), converged=np.ones(2, dtype=bool),
    )
    params = ReweightParams()
    cv = reweight._cv_summary(st, [fold] * matrix.n_models, params)
    val = reweight._validation_residuals(params.with_theta(theta), matrix, scores)
    assert np.array(cv.per_holdout).tobytes() == np.array(val.per_holdout).tobytes()
    assert (cv.mean, cv.std) == (val.mean, val.std)


def test_holdout_cv_constant_metrics_zero_residual():
    rng = np.random.default_rng(17)
    chi = (rng.random((4, 30)) < 0.5).astype(float)
    matrix = EvalMatrix(
        model_ids=tuple(f"m{j}" for j in range(4)),
        sample_ids=tuple(f"s{i}" for i in range(30)),
        chi=chi,
        live_metrics=np.full((4, 1), 0.7),
        metric_names=("x",),
    )
    scores = [
        ScoredSample(f"s{i}", s_p=float(rng.normal(-3, 1)), s_f=float(rng.normal(-3, 1)))
        for i in range(30)
    ]
    cv = holdout_cv(matrix, scores, opts=FitOptions(seed=17, restarts=2))
    assert cv.mean == pytest.approx(0.0, abs=1e-12)


def test_regularizer_dominance_pulls_mean_weight_to_one():
    bench = generate(PlantedSpec(target_mean_weight=1.6, noise_sigma=1e-3, seed=18))
    assert bench.truth.mean_weight == pytest.approx(1.6, abs=1e-9)
    f = fit(bench.matrices, bench.scores, init=ReweightParams(lam=1e6), opts=FitOptions(seed=18))
    assert abs(f.mean_weight - 1.0) < 1e-2


def test_calibrate_bias_hits_target():
    rng = np.random.default_rng(19)
    s_f = rng.normal(-3, 1, 400)
    s_p = rng.normal(-3.5, 1, 400)
    b = calibrate_bias(5.0, -4.0, s_f, s_p, 0.01, 2.0, target=1.3)
    w = weights_array(ReweightParams(theta_f=5.0, theta_p=-4.0, theta_b=b), s_f, s_p)
    assert float(w.mean()) == pytest.approx(1.3, abs=1e-10)


def test_calibrate_bias_rejects_empty_scores():
    with pytest.raises(ValueError, match="empty"):
        calibrate_bias(5.0, -4.0, np.array([]), np.array([]), 0.01, 2.0)


def test_weights_for_mapping():
    params = ReweightParams()
    scores = [ScoredSample("a", -1.0, -1.0), ScoredSample("b", -2.0, -2.0)]
    w = weights_for(params, scores)
    assert set(w) == {"a", "b"}
    assert w["a"] == 1.005


# -- the batched solve against scipy, the reference it replaced --


def _lbfgsb_best(sets, params, options, inits) -> float:
    """Best objective of scipy's L-BFGS-B from each init, with the options the fit used to pass it."""
    lbfgsb = pytest.importorskip("scipy.optimize").minimize
    return min(
        lbfgsb(
            lambda theta: reweight._eval_sets(theta, None, sets, params)[:2], theta0, jac=True,
            method="L-BFGS-B",
            options={"maxiter": options.max_iters, "maxcor": 10, "gtol": options.grad_tol, "ftol": 1e-18},
        ).fun
        for theta0 in inits
    )


@pytest.mark.parametrize("seed", range(5))
def test_fit_reaches_lbfgsb_best_on_planted_benchmarks(seed):
    b = generate(PlantedSpec(seed=seed))
    params, options = ReweightParams(), FitOptions(seed=seed)
    f = fit(b.matrices, b.scores, init=params, opts=options)
    sets = reweight._problem(b.matrices, b.scores)
    inits = [theta for _, theta in reweight._theta_inits(params, options, sets[0])]
    assert f.objective_train <= _lbfgsb_best(sets, params, options, inits) * (1 + 1e-9)


def test_fit_and_folds_reach_lbfgsb_best_on_the_demo(tmp_path):
    from ecsynth import records
    from ecsynth.cli import STAGE_ORDER, load_config, run_pipeline
    from ecsynth.demo import materialize
    from ecsynth.util import derive_seed

    config = load_config(materialize(tmp_path))
    workdir = run_pipeline(config, tmp_path, stages=STAGE_ORDER[: STAGE_ORDER.index("simbench") + 1])
    matrix = records.read_eval_matrix(workdir / "eval_matrix.jsonl")
    scores = records.read_scores(workdir / "scores.jsonl")
    params = config.reweight.params()
    options = config.reweight.options(derive_seed(config.seed, "fit-reweight"))
    (st,) = reweight._problem(matrix, scores)
    inits = [theta for _, theta in reweight._theta_inits(params, options, st)]
    folds = reweight._folds(st)
    solved = reweight._solve([st], [{0: np.ones(matrix.n_models)}] + folds, params, options, inits)
    for problem, sol in zip([None] + folds, solved):
        keep = slice(None) if problem is None else problem[0] > 0
        sets = [reweight._SetData(chi=st.chi[keep], v=st.v[keep], s_f=st.s_f, s_p=st.s_p)]
        ours = reweight._eval_sets(reweight._best(sol), None, sets, params)[0]
        assert ours <= _lbfgsb_best(sets, params, options, inits) * (1 + 1e-9)


def test_brentq_port_equals_scipy_bitwise(monkeypatch):
    brentq = pytest.importorskip("scipy.optimize").brentq
    port = reweight._brentq
    pairs = []

    def both(f, xa, xb, xtol):
        root = port(f, xa, xb, xtol)
        pairs.append((root, brentq(f, xa, xb, xtol=xtol)))
        return root

    monkeypatch.setattr(reweight, "_brentq", both)
    rng = np.random.default_rng(2025)
    for _ in range(300):
        n = int(rng.integers(1, 300))
        s_f, s_p = rng.normal(-4.0, 1.5, n), rng.normal(-4.0, 1.5, n)
        c_min = float(rng.uniform(0.001, 0.9))
        c_max = float(rng.uniform(1.1, 4.0))
        target = float(rng.uniform(c_min, c_max))
        theta_f, theta_p = rng.normal(0.0, 8.0, 2)
        calibrate_bias(theta_f, theta_p, s_f, s_p, c_min, c_max, target=target)
    assert len(pairs) == 300
    assert [a.hex() for a, _ in pairs] == [b.hex() for _, b in pairs]
    # and on roots where interpolation, extrapolation and bisection all take turns
    functions = [
        (lambda x: x**3 - 2.0, 0.0, 3.0),
        (lambda x: math.cos(x) - x, -2.0, 2.0),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
        (lambda x: math.atan(50.0 * (x - 0.3)), -1.0, 1.0),
        (lambda x: x, 0.0, 1.0),
    ]
    for f, xa, xb in functions:
        for xtol in (1e-13, 1e-6):
            assert port(f, xa, xb, xtol).hex() == brentq(f, xa, xb, xtol=xtol).hex()


def test_brentq_port_rejects_what_scipy_rejects():
    with pytest.raises(ValueError, match="different signs"):
        reweight._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-13)
    with pytest.raises(ValueError, match="NaN"):
        reweight._brentq(lambda x: math.nan, -1.0, 1.0, 1e-13)
