"""Bounded sigmoid sample reweighting fit against live deployment metrics.

The weight of a sample with scores (s_f, s_p) is

    w = c_min + (c_max - c_min) * sigmoid(theta_f * s_f + theta_p * s_p + theta_b)

and (theta, alpha) are learnt by minimizing, summed over metric sets,

    sum_j || alpha_1 * s_j + alpha_0 - v_j ||^2  +  lambda * (mean_i w_i - 1)^2

where s_j = (1/N) sum_i w_i * chi_{j,i} is model j's weighted offline metric
and v_j its observed live-metric vector. Gradients are analytic (chain rule
through the sigmoid); minimization is quasi-Newton from multiple seeded
restarts over theta, with each alpha solved in closed form at every step
(variable projection). Each metric set gets its own regression parameters
because live metric scales differ across deployments; theta is shared.

Uniform weights (w == 1) are reachable inside the hypothesis class, and one
restart always starts there, so the fitted training residual can never land
above the uniform baseline.

One weight function, `_weights`, serves the fit, the bias calibration and
both planted simulators in `simbench`; the weighted offline metric
(`offline_metric`), the residual, the objective sum and the held-out error
are likewise each defined once.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import expit

from .records import EvalMatrix, ScoredSample, by_id
from .scoring import heuristic_weight

# keeps weights strictly inside (c_min, c_max) in float64 even when the
# sigmoid saturates; 1 - 1e-12 survives the multiply by (c_max - c_min)
_SIG_EPS = 1e-12

# standard deviation of the random restart inits of theta, and the magnitude
# of the sign-pattern inits
_THETA_SCALE = 5.0


@dataclass(frozen=True)
class ReweightParams:
    theta_f: float = 0.0
    theta_p: float = 0.0
    theta_b: float = 0.0
    c_min: float = 0.01
    c_max: float = 2.0
    lam: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.c_min < self.c_max:
            raise ValueError(f"need 0 < c_min < c_max, got ({self.c_min}, {self.c_max})")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")

    @property
    def theta(self) -> np.ndarray:
        return np.array([self.theta_f, self.theta_p, self.theta_b])

    def with_theta(self, theta: Sequence[float]) -> ReweightParams:
        tf, tp, tb = (float(t) for t in theta)
        return replace(self, theta_f=tf, theta_p=tp, theta_b=tb)

    @staticmethod
    def uniform_theta(c_min: float, c_max: float) -> tuple[float, float, float]:
        """theta at which every weight equals exactly 1."""
        sig = (1.0 - c_min) / (c_max - c_min)
        return (0.0, 0.0, math.log(sig / (1.0 - sig)))


@dataclass(frozen=True)
class RegressionParams:
    """Per-metric-set affine map from the weighted offline metric to live metrics."""

    alpha_1: np.ndarray  # (d,)
    alpha_0: np.ndarray  # (d,)
    degenerate: bool = False

    def __post_init__(self) -> None:
        a1 = np.asarray(self.alpha_1, dtype=np.float64).copy()
        a0 = np.asarray(self.alpha_0, dtype=np.float64).copy()
        if a1.shape != a0.shape or a1.ndim != 1:
            raise ValueError("alpha_1 and alpha_0 must be 1-D and same shape")
        a1.setflags(write=False)
        a0.setflags(write=False)
        object.__setattr__(self, "alpha_1", a1)
        object.__setattr__(self, "alpha_0", a0)


@dataclass(frozen=True)
class ResidualSummary:
    per_holdout: tuple[float, ...]
    mean: float
    std: float


@dataclass(frozen=True)
class ReweightFit:
    params: ReweightParams
    regression: tuple[RegressionParams, ...]
    objective_train: float   # residual + regularizer at params and regression
    residual_train: float    # regression residual only
    mean_weight: float
    baseline_residuals: dict[str, float]
    containment_ok: bool     # residual_train <= uniform baseline + 1e-9
    restarts_run: int
    residual_cv: ResidualSummary | None = None
    residual_val: ResidualSummary | None = None


@dataclass(frozen=True)
class FitOptions:
    max_iters: int = 500
    grad_tol: float = 1e-8
    restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")


@dataclass(frozen=True)
class ObjectiveEval:
    value: float
    grad_theta: np.ndarray                                   # (3,)
    grad_alpha: tuple[tuple[np.ndarray, np.ndarray], ...]    # per set: (d_alpha1, d_alpha0)


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return np.clip(expit(z), _SIG_EPS, 1.0 - _SIG_EPS)


def _weights(
    theta: Sequence[float], c_min: float, c_max: float, s_f: np.ndarray, s_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The bounded sigmoid weights, and the clipped sigmoid the gradient needs."""
    sig = sigmoid(theta[0] * s_f + theta[1] * s_p + theta[2])
    return c_min + (c_max - c_min) * sig, sig


def weight(params: ReweightParams, s: ScoredSample) -> float:
    """Bounded sigmoid weight of one sample, strictly inside (c_min, c_max)."""
    return float(weights_array(params, s.s_f, s.s_p))


def weights_array(params: ReweightParams, s_f: np.ndarray, s_p: np.ndarray) -> np.ndarray:
    return _weights(params.theta, params.c_min, params.c_max, s_f, s_p)[0]


def weights_for(params: ReweightParams, scores: Sequence[ScoredSample]) -> dict[str, float]:
    w = weights_array(params, np.array([s.s_f for s in scores]), np.array([s.s_p for s in scores]))
    return {s.sample_id: float(x) for s, x in zip(scores, w)}


# -- internal problem representation --


@dataclass(frozen=True)
class _SetData:
    chi: np.ndarray  # (K, N)
    v: np.ndarray    # (K, d)
    s_f: np.ndarray  # (N,)
    s_p: np.ndarray  # (N,)


def _as_matrices(data: EvalMatrix | Sequence[EvalMatrix]) -> tuple[EvalMatrix, ...]:
    if isinstance(data, EvalMatrix):
        return (data,)
    matrices = tuple(data)
    if not matrices:
        raise ValueError("no eval matrices given")
    return matrices


def aligned_scores(
    ids: Sequence[str], scores: Sequence[ScoredSample]
) -> tuple[np.ndarray, np.ndarray]:
    """(s_f, s_p) of each id in order; a ValueError names the ids without a score."""
    rows = by_id(ids, {s.sample_id: s for s in scores}, "scores")
    return np.array([r.s_f for r in rows]), np.array([r.s_p for r in rows])


def _problem(
    data: EvalMatrix | Sequence[EvalMatrix], scores: Sequence[ScoredSample]
) -> list[_SetData]:
    sets = []
    for m in _as_matrices(data):
        if m.n_models < 2:
            raise ValueError(f"need at least 2 models per metric set, got {m.n_models}")
        s_f, s_p = aligned_scores(m.sample_ids, scores)
        sets.append(_SetData(chi=m.chi, v=m.live_metrics, s_f=s_f, s_p=s_p))
    return sets


def offline_metric(chi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """s_j = (1/N) sum_i w_i chi_{j,i}: per model for chi (K, N), or one model's for a row (N,)."""
    return chi @ w / chi.shape[-1]


def _resid(s: np.ndarray, alpha_1: np.ndarray, alpha_0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(K, d) regression residual of per-model offline metrics s (K,) against live metrics v."""
    return np.outer(s, alpha_1) + alpha_0 - v


# one set's regression as plain arrays: (alpha_1, alpha_0), each (d,)
_Alpha = tuple[np.ndarray, np.ndarray]


def _eval_sets(
    theta: np.ndarray,
    alphas: Sequence[_Alpha] | None,
    sets: Sequence[_SetData],
    params: ReweightParams,
) -> tuple[float, np.ndarray, list[_Alpha], list[_Alpha]]:
    """Value and gradients of the objective summed over sets; `params` gives c_min, c_max, lambda.

    `alphas` gives each set's regression; None solves it in closed form from
    the same weighted metrics (variable projection). Returns the value, the
    theta gradient, per set the alpha gradient (none for a solved alpha, where
    it vanishes) and per set the alpha used.
    """
    c_min, c_max, lam = params.c_min, params.c_max, params.lam
    value = 0.0
    grad_theta = np.zeros(3)
    grad_alpha = []
    used = []
    for i, st in enumerate(sets):
        n = st.chi.shape[1]
        w, sig = _weights(theta, c_min, c_max, st.s_f, st.s_p)
        s = offline_metric(st.chi, w)                    # (K,)
        alpha_1, alpha_0 = _closed_form(s, st.v)[:2] if alphas is None else alphas[i]
        resid = _resid(s, alpha_1, alpha_0, st.v)        # (K, d)
        wbar = float(w.mean())
        value += float((resid * resid).sum() + lam * (wbar - 1.0) ** 2)

        d_resid_ds = 2.0 * (resid @ alpha_1)             # (K,)
        g_w = (st.chi.T @ d_resid_ds) / n + 2.0 * lam * (wbar - 1.0) / n
        g_z = g_w * (c_max - c_min) * sig * (1.0 - sig)
        grad_theta += np.array([g_z @ st.s_f, g_z @ st.s_p, g_z.sum()])
        if alphas is not None:
            grad_alpha.append((2.0 * (resid * s[:, None]).sum(axis=0), 2.0 * resid.sum(axis=0)))
        used.append((alpha_1, alpha_0))
    return value, grad_theta, grad_alpha, used


class _NonFiniteObjective(RuntimeError):
    pass


def _finite_eval(
    theta: np.ndarray, sets: Sequence[_SetData], params: ReweightParams
) -> tuple[float, np.ndarray]:
    """Value and theta gradient of the objective with each alpha in closed form."""
    value, grad_theta, _, _ = _eval_sets(theta, None, sets, params)
    if not np.isfinite(value):
        raise _NonFiniteObjective
    return value, grad_theta


def objective(
    params: ReweightParams,
    alphas: RegressionParams | Sequence[RegressionParams],
    data: EvalMatrix | Sequence[EvalMatrix],
    scores: Sequence[ScoredSample],
) -> ObjectiveEval:
    """Value and analytic gradients of the joint objective (summed over sets)."""
    alpha_list = [alphas] if isinstance(alphas, RegressionParams) else list(alphas)
    sets = _problem(data, scores)
    if len(alpha_list) != len(sets):
        raise ValueError(f"got {len(alpha_list)} regressions for {len(sets)} metric sets")
    if any(a.alpha_1.shape[0] != st.v.shape[1] for st, a in zip(sets, alpha_list)):
        raise ValueError("regression dimension does not match metric dimension")
    value, grad_theta, grad_alpha, _ = _eval_sets(
        params.theta, [(a.alpha_1, a.alpha_0) for a in alpha_list], sets, params
    )
    return ObjectiveEval(value=value, grad_theta=grad_theta, grad_alpha=tuple(grad_alpha))


def _closed_form(s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Least-squares (alpha_1, alpha_0, degenerate) for fixed per-model offline metrics s (K,) vs v (K, d).

    All-equal s is degenerate: the slope is set to 0 and the intercept to the
    metric mean, and the result is flagged.
    """
    s_mean = float(s.mean())
    v_mean = v.mean(axis=0)
    var = float(((s - s_mean) ** 2).sum())
    if var < 1e-300 or not np.isfinite(var):
        return np.zeros(v.shape[1]), v_mean, True
    cov = (s - s_mean) @ (v - v_mean)  # (d,)
    alpha_1 = cov / var
    return alpha_1, v_mean - alpha_1 * s_mean, False


def _closed_form_alpha(s: np.ndarray, v: np.ndarray) -> RegressionParams:
    return RegressionParams(*_closed_form(s, v))


def _residual_with_weights(w_by_set: list[np.ndarray], sets: list[_SetData]) -> tuple[float, list[RegressionParams]]:
    total = 0.0
    alphas = []
    for w, st in zip(w_by_set, sets):
        s = offline_metric(st.chi, w)
        a = _closed_form_alpha(s, st.v)
        resid = _resid(s, a.alpha_1, a.alpha_0, st.v)
        total += float((resid * resid).sum())
        alphas.append(a)
    return total, alphas


def baseline_residuals(
    data: EvalMatrix | Sequence[EvalMatrix],
    scores: Sequence[ScoredSample],
) -> dict[str, float]:
    """Regression residuals for the two fixed-weight baselines.

    "uniform" is w == 1 for every sample; "heuristic" is the binary filter
    rule. If the heuristic zeroes out every sample the regression degenerates
    to the metric mean (flagged inside _closed_form).
    """
    sets = _problem(data, scores)
    uniform, _ = _residual_with_weights([np.ones(st.chi.shape[1]) for st in sets], sets)
    heuristic_w = [
        np.array([heuristic_weight(ScoredSample("", s_p=p, s_f=f)) for p, f in zip(st.s_p, st.s_f)])
        for st in sets
    ]
    heuristic, _ = _residual_with_weights(heuristic_w, sets)
    return {"uniform": uniform, "heuristic": heuristic}


def check_mean_weight(target: float, c_min: float, c_max: float) -> None:
    """Weights lie in (c_min, c_max), so only a mean weight inside that range is reachable."""
    if not c_min < target < c_max:
        raise ValueError(f"target mean weight {target} must lie inside ({c_min}, {c_max})")


def calibrate_bias(
    theta_f: float,
    theta_p: float,
    s_f: np.ndarray,
    s_p: np.ndarray,
    c_min: float,
    c_max: float,
    target: float = 1.0,
) -> float:
    """Bias term at which the mean weight over the given scores equals target.

    The mean weight is monotone increasing in the bias, so this is a plain
    root find on a widening bracket.
    """
    check_mean_weight(target, c_min, c_max)
    if np.size(s_f) == 0 or np.size(s_p) == 0:
        raise ValueError("calibrate_bias: scores are empty; no mean weight to calibrate")

    def gap(b: float) -> float:
        return float(_weights((theta_f, theta_p, b), c_min, c_max, s_f, s_p)[0].mean()) - target

    lo, hi = -80.0, 80.0
    while gap(lo) > 0 and lo > -1e6:
        lo *= 2.0
    while gap(hi) < 0 and hi < 1e6:
        hi *= 2.0
    return float(brentq(gap, lo, hi, xtol=1e-13))


def _theta_inits(params: ReweightParams, options: FitOptions, st: _SetData) -> list[np.ndarray]:
    """Restart inits: the caller's theta, the exact uniform-weight theta, four
    sign-pattern directions with the bias calibrated to mean weight 1 over
    st's scores, and N(0, _THETA_SCALE^2) draws."""
    c_min, c_max = params.c_min, params.c_max
    rng = np.random.default_rng(options.seed)
    scale = _THETA_SCALE
    theta_inits = [params.theta, np.array(ReweightParams.uniform_theta(c_min, c_max))]
    for tf, tp in ((scale, -scale), (-scale, scale), (scale, scale), (-scale, -scale)):
        try:
            b = calibrate_bias(tf, tp, st.s_f, st.s_p, c_min, c_max)
        except ValueError:
            b = 0.0
        theta_inits.append(np.array([tf, tp, b]))
    theta_inits = theta_inits[: max(options.restarts, 2)]
    while len(theta_inits) < max(options.restarts, 2):
        theta_inits.append(rng.normal(0.0, scale, size=3))
    return theta_inits


@functools.cache
def _openblas_setters() -> tuple[Callable[[int], int], ...]:
    """`openblas_set_num_threads_local` of each OpenBLAS the process has loaded.

    The loaded libraries are read from /proc/self/maps, so this finds nothing
    off Linux, and RTLD_NOLOAD opens only a library already in memory. A build
    older than OpenBLAS 0.3.27 lacks the symbol and is skipped. Each setter
    sets the thread count and returns the count it replaced.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        try:
            set_local = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_local.argtypes, set_local.restype = [ctypes.c_int], ctypes.c_int
        setters.append(set_local)
    return tuple(setters)


_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved: list[int] = []


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold every loaded OpenBLAS to one thread for the block, then restore each count.

    scipy's L-BFGS-B calls its bundled OpenBLAS on arrays as small as this
    fit's, where a second thread adds no speed but spins a second core,
    doubling the fit's CPU time. The thread count changes no result. In pthreads builds the
    "local" setter sets the process-wide count, so overlapping holders share
    one pin: the first saves the counts and the last restores them.
    """
    global _blas_holders, _blas_saved
    setters = _openblas_setters()
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = [set_local(1) for set_local in setters]
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for set_local, n in zip(setters, _blas_saved):
                    set_local(n)


def _fit_theta(
    sets: list[_SetData],
    params: ReweightParams,
    options: FitOptions,
    theta_inits: Sequence[np.ndarray],
) -> tuple[np.ndarray, int]:
    """Best-of-restarts projected quasi-Newton on theta; (theta, restarts run).

    The envelope theorem makes the projected gradient exact: d/dtheta of
    min_alpha f equals the partial in theta at the solved alpha.
    """
    lbfgs_options = {
        "maxiter": options.max_iters,
        "maxcor": 10,
        "gtol": options.grad_tol,
        "ftol": 1e-18,
    }

    best_theta: np.ndarray | None = None
    best_val = np.inf
    failures = 0
    with _one_blas_thread():
        for theta0 in theta_inits:
            shrink = 1.0
            for _attempt in range(3):
                try:
                    res = minimize(
                        _finite_eval,
                        theta0 * shrink,
                        args=(sets, params),
                        jac=True,
                        method="L-BFGS-B",
                        options=lbfgs_options,
                    )
                except _NonFiniteObjective:
                    shrink *= 0.5  # retry this init with a halved step
                    continue
                if np.isfinite(res.fun) and res.fun < best_val:
                    best_val, best_theta = float(res.fun), res.x.copy()
                break
            else:
                failures += 1
    if best_theta is None:
        raise RuntimeError(f"fit failed: all {len(theta_inits)} restarts diverged")
    return best_theta, len(theta_inits) - failures


def fit(
    data: EvalMatrix | Sequence[EvalMatrix],
    scores: Sequence[ScoredSample],
    init: ReweightParams | None = None,
    opts: FitOptions | None = None,
    val_data: EvalMatrix | Sequence[EvalMatrix] | None = None,
    with_cv: bool = False,
) -> ReweightFit:
    """Minimization over (theta, alpha), best of seeded restarts.

    Each restart runs quasi-Newton on theta alone with the regression solved
    in closed form at every step (variable projection: the regression
    subproblem is exactly separable, so this minimizes over alpha too).
    `_theta_inits` lists the restart inits. The reported regression and
    `objective_train` are the closed-form alpha and the objective at the
    best restart's theta.

    The uniform-weight init guarantees the fitted training residual never
    lands above the uniform baseline.

    val_data, when given, is scored by held-one-out regression-only refits at
    the fitted theta. with_cv runs full held-one-out cross validation on the
    first metric set.
    """
    params = init if init is not None else ReweightParams()
    options = opts if opts is not None else FitOptions()
    matrices = _as_matrices(data)
    sets = _problem(matrices, scores)
    theta_inits = _theta_inits(params, options, sets[0])
    theta_hat, restarts_run = _fit_theta(sets, params, options, theta_inits)
    fitted = params.with_theta(theta_hat)
    w_by_set = [weights_array(fitted, st.s_f, st.s_p) for st in sets]
    residual_train, alpha_hat = _residual_with_weights(w_by_set, sets)
    objective_train = _finite_eval(theta_hat, sets, params)[0]
    baselines = baseline_residuals(matrices, scores)
    containment = residual_train <= baselines["uniform"] + 1e-9

    cv = holdout_cv(matrices[0], scores, init=params, opts=options) if with_cv else None
    val_summary = None
    if val_data is not None:
        val_summary = _validation_residuals(fitted, val_data, scores)

    return ReweightFit(
        params=fitted,
        regression=tuple(alpha_hat),
        objective_train=objective_train,
        residual_train=residual_train,
        mean_weight=float(np.concatenate(w_by_set).mean()),
        baseline_residuals=baselines,
        containment_ok=bool(containment),
        restarts_run=restarts_run,
        residual_cv=cv,
        residual_val=val_summary,
    )


def holdout_cv(
    data: EvalMatrix,
    scores: Sequence[ScoredSample],
    init: ReweightParams | None = None,
    opts: FitOptions | None = None,
) -> ResidualSummary:
    """Held-one-out CV over models: fit on K-1, report the squared residual on the held-out one.

    Each fold is `fit`'s theta search on the matrix without one model row.
    The folds share the scores, so they share the restart inits too.
    """
    matrix = data
    if not isinstance(matrix, EvalMatrix):
        raise TypeError("holdout_cv operates on a single eval matrix")
    if matrix.n_models < 3:
        raise ValueError(f"holdout_cv needs at least 3 models, got {matrix.n_models}")
    params = init if init is not None else ReweightParams()
    options = opts if opts is not None else FitOptions()
    (st,) = _problem(matrix, scores)
    theta_inits = _theta_inits(params, options, st)
    residuals = []
    for j in range(matrix.n_models):
        keep = [i for i in range(matrix.n_models) if i != j]
        fold = _SetData(chi=st.chi[keep], v=st.v[keep], s_f=st.s_f, s_p=st.s_p)
        theta, _ = _fit_theta([fold], params, options, theta_inits)
        w = weights_array(params.with_theta(theta), st.s_f, st.s_p)
        s_j = float(offline_metric(st.chi[j], w))
        a = _closed_form_alpha(offline_metric(fold.chi, w), fold.v)
        residuals.append(_holdout_error(a, s_j, matrix.live_metrics[j]))
    return _summary(residuals)


def _validation_residuals(
    fitted: ReweightParams,
    val_data: EvalMatrix | Sequence[EvalMatrix],
    scores: Sequence[ScoredSample],
) -> ResidualSummary:
    """Held-one-out on a validation set, refitting only regression at fixed theta."""
    residuals: list[float] = []
    for matrix in _as_matrices(val_data):
        w = weights_array(fitted, *aligned_scores(matrix.sample_ids, scores))
        s_all = offline_metric(matrix.chi, w)
        for j in range(matrix.n_models):
            keep = [i for i in range(matrix.n_models) if i != j]
            a = _closed_form_alpha(s_all[keep], matrix.live_metrics[keep])
            residuals.append(_holdout_error(a, s_all[j], matrix.live_metrics[j]))
    return _summary(residuals)


def _holdout_error(a: RegressionParams, s_j: float, v_j: np.ndarray) -> float:
    """Squared error of the regression's prediction for a held-out model."""
    err = a.alpha_1 * s_j + a.alpha_0 - v_j
    return float(err @ err)


def _summary(residuals: list[float]) -> ResidualSummary:
    arr = np.array(residuals)
    return ResidualSummary(
        per_holdout=tuple(residuals), mean=float(arr.mean()), std=float(arr.std())
    )
