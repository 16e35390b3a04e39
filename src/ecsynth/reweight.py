"""Bounded sigmoid sample reweighting fit against live deployment metrics.

The weight of a sample with scores (s_f, s_p) is

    w = c_min + (c_max - c_min) * sigmoid(theta_f * s_f + theta_p * s_p + theta_b)

and (theta, alpha) are learnt by minimizing, summed over metric sets,

    sum_j || alpha_1 * s_j + alpha_0 - v_j ||^2  +  lambda * (mean_i w_i - 1)^2

where s_j = (1/N) sum_i w_i * chi_{j,i} is model j's weighted offline metric
and v_j its observed live-metric vector. Gradients are analytic (chain rule
through the sigmoid); minimization is quasi-Newton over theta from multiple
seeded restarts, with each alpha solved in closed form at every step
(variable projection). Every restart of the fit and of each held-out CV fold
is one row of a single batched BFGS solve (`minimize`). Each metric set gets
its own regression parameters because live metric scales differ across
deployments; theta is shared.

Uniform weights (w == 1) are reachable inside the hypothesis class, and one
restart always starts there, so the fitted training residual can never land
above the uniform baseline.

One weight function, `_weights`, serves the fit, the bias calibration and
both planted simulators in `simbench`; the weighted offline metric
(`offline_metric`, which the eval report's weighted columns use too), the
residual, the objective sum and the held-out error (`_holdout_residual`) are
likewise each defined once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

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
class RestartOutcome:
    """How one restart of the main fit ended."""

    kind: str                # "caller", "uniform", "sign+-" (and -+, ++, --) or "random"
    theta: tuple[float, float, float]
    objective: float         # at theta; inf for a start that never evaluated finite
    iterations: int
    converged: bool          # met max |gradient| <= grad_tol on the way


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
    restarts: tuple[RestartOutcome, ...] = ()


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
    # exp overflows to inf for z below about -709, where 1 / (1 + inf) is the exact limit 0
    with np.errstate(over="ignore"):
        return np.clip(1.0 / (1.0 + np.exp(-z)), _SIG_EPS, 1.0 - _SIG_EPS)


def _weights(
    theta: Sequence[float], c_min: float, c_max: float, s_f: np.ndarray, s_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The bounded sigmoid weights, and the clipped sigmoid the gradient needs."""
    sig = sigmoid(theta[0] * s_f + theta[1] * s_p + theta[2])
    return c_min + (c_max - c_min) * sig, sig


def weights_array(params: ReweightParams, s_f: np.ndarray, s_p: np.ndarray) -> np.ndarray:
    """Bounded sigmoid weight of each sample, strictly inside (c_min, c_max)."""
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
) -> tuple[float, np.ndarray, list[_Alpha]]:
    """Value and gradients of the objective summed over sets; `params` gives c_min, c_max, lambda.

    `alphas` gives each set's regression; None solves it in closed form from
    the same weighted metrics (variable projection). Returns the value, the
    theta gradient and per set the alpha gradient (none for a solved alpha,
    where it vanishes).
    """
    c_min, c_max, lam = params.c_min, params.c_max, params.lam
    value = 0.0
    grad_theta = np.zeros(3)
    grad_alpha = []
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
    return value, grad_theta, grad_alpha


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
    value, grad_theta, grad_alpha = _eval_sets(
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


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """Root of f between xa and xb, bitwise equal to `scipy.optimize.brentq(f, xa, xb, xtol)`.

    A line-for-line port of scipy's C brentq (Brent, "Algorithms for
    Minimization Without Derivatives", 1973, ch. 4) with scipy's defaults:
    rtol = 4 eps and at most 100 iterations. As in scipy, a NaN value or
    a bracket without a sign change is a ValueError.
    """
    rtol = 4 * np.finfo(float).eps

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq failed to converge after 100 iterations, value is {xcur}")


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
    return _brentq(gap, lo, hi, xtol=1e-13)


def _theta_inits(
    params: ReweightParams, options: FitOptions, st: _SetData
) -> list[tuple[str, np.ndarray]]:
    """(kind, theta) of each restart: the caller's theta, the exact uniform-weight
    theta, four sign-pattern directions with the bias calibrated to mean weight 1
    over st's scores, and N(0, _THETA_SCALE^2) draws."""
    c_min, c_max = params.c_min, params.c_max
    n = max(options.restarts, 2)
    rng = np.random.default_rng(options.seed)
    scale = _THETA_SCALE
    inits = [("caller", params.theta), ("uniform", np.array(ReweightParams.uniform_theta(c_min, c_max)))]
    for tf, tp in ((scale, -scale), (-scale, scale), (scale, scale), (-scale, -scale))[: n - 2]:
        try:
            b = calibrate_bias(tf, tp, st.s_f, st.s_p, c_min, c_max)
        except ValueError:
            b = 0.0
        signs = "".join("+" if t > 0 else "-" for t in (tf, tp))
        inits.append((f"sign{signs}", np.array([tf, tp, b])))
    while len(inits) < n:
        inits.append(("random", rng.normal(0.0, scale, size=3)))
    return inits


# -- the batched solve --

# one problem of a batched solve: for each metric set it sums over, the (K,)
# mask of the model rows its regression uses (0.0 masks a held-out model)
_Problem = dict[int, np.ndarray]


@dataclass(frozen=True)
class _Group:
    """The rows of a batched solve that evaluate one metric set, each with its model mask."""

    st: _SetData
    x: np.ndarray     # (3, N): s_f, s_p and ones, so that z = theta @ x
    rows: np.ndarray  # (M,)
    mask: np.ndarray  # (M, K)


def _groups(sets: Sequence[_SetData], problems: Sequence[_Problem], n_inits: int) -> list[_Group]:
    """Row p * n_inits + k is restart k of problem p; one group per metric set in use."""
    groups = []
    for i, st in enumerate(sets):
        owners = [p for p, problem in enumerate(problems) if i in problem]
        if owners:
            rows = np.concatenate([np.arange(p * n_inits, (p + 1) * n_inits) for p in owners])
            mask = np.repeat(np.array([problems[p][i] for p in owners]), n_inits, axis=0)
            x = np.stack([st.s_f, st.s_p, np.ones_like(st.s_f)])
            groups.append(_Group(st=st, x=x, rows=rows, mask=mask))
    return groups


# a batched evaluation takes a group's rows in blocks of about this many
# (row, sample) entries, so that its (rows, N) temporaries stay in cache
_BLOCK = 1 << 16


def _batch_eval(
    theta: np.ndarray, rows: np.ndarray, groups: Sequence[_Group], n_rows: int, params: ReweightParams
) -> tuple[np.ndarray, np.ndarray]:
    """Objective (M,) and theta gradient (M, 3) of rows (M,) of n_rows at theta (M, 3).

    The batched `_eval_sets` with alpha in closed form: each row sums over its
    problem's sets, with alpha over the model rows its mask keeps. Values agree
    with `_eval_sets` to rounding, not bitwise.
    """
    at = np.full(n_rows, -1)
    at[rows] = np.arange(len(rows))
    value = np.zeros(len(rows))
    grad = np.zeros((len(rows), 3))
    for gr in groups:
        i = at[gr.rows]
        mask = gr.mask[i >= 0]
        i = i[i >= 0]
        step = max(1, _BLOCK // gr.st.chi.shape[1])
        for lo in range(0, i.size, step):
            block = i[lo : lo + step]
            v, g = _block_eval(theta[block], mask[lo : lo + step], gr, params)
            value[block] += v
            grad[block] += g
    return value, grad


def _block_eval(
    theta: np.ndarray, mask: np.ndarray, gr: _Group, params: ReweightParams
) -> tuple[np.ndarray, np.ndarray]:
    """`_batch_eval` of one block of a group's rows: theta (M, 3), mask (M, K)."""
    c_min, span, lam = params.c_min, params.c_max - params.c_min, params.lam
    chi, v = gr.st.chi, gr.st.v
    n = chi.shape[1]
    sig = sigmoid(theta @ gr.x)                              # (M, N); w = c_min + span * sig
    s = (c_min * chi.sum(axis=1) + span * (sig @ chi.T)) / n  # (M, K)
    count = mask.sum(axis=1)
    s_mean = (s * mask).sum(axis=1) / count
    ds = (s - s_mean[:, None]) * mask
    var = (ds * ds).sum(axis=1)
    v_mean = mask @ v / count[:, None]                       # (M, d)
    cov = np.einsum("mk,mkd->md", ds, v - v_mean[:, None, :])
    solved = (var >= 1e-300) & np.isfinite(var)              # else degenerate, as in _closed_form
    alpha_1 = np.where(solved[:, None], cov / np.where(solved, var, 1.0)[:, None], 0.0)
    alpha_0 = v_mean - alpha_1 * s_mean[:, None]
    resid = (s[:, :, None] * alpha_1[:, None, :] + alpha_0[:, None, :] - v) * mask[:, :, None]
    wbar = c_min + span * sig.mean(axis=1)
    value = (resid * resid).sum(axis=(1, 2)) + lam * (wbar - 1.0) ** 2
    # n * dvalue/dw, then times dw/dz = span * sig * (1 - sig), in place
    g = 2.0 * np.einsum("mkd,md->mk", resid, alpha_1) @ chi
    g += (2.0 * lam * (wbar - 1.0))[:, None]
    g *= sig
    g *= np.subtract(1.0, sig, out=sig)
    return value, g @ gr.x.T * (span / n)


@dataclass(frozen=True)
class _Solution:
    x: np.ndarray           # (R, 3) last iterate of each row
    fun: np.ndarray         # (R,) objective there; inf for an abandoned start
    nit: int                # batched iterations
    nfev: int               # batched evaluations
    iterations: np.ndarray  # (R,) iterations each row ran
    converged: np.ndarray   # (R,) whether the row met grad_tol


# Armijo sufficient-decrease constant, and the backtracking steps a line search may take
_ARMIJO = 1e-4
_LINE_SEARCH_STEPS = 40
# L-BFGS-B's ftol test: a row stalls once f_k - f_k+1 <= _FTOL * max(|f_k|, |f_k+1|, 1)
_FTOL = 1e-18
# a row above its problem's leader runs at most this many times the leader's iterations
_LAGGARD_BUDGET = 2


def minimize(
    fun: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    problem: np.ndarray,
    max_iters: int = FitOptions.max_iters,
    grad_tol: float = FitOptions.grad_tol,
) -> _Solution:
    """Batched BFGS from each row of x0 (R, 3); row r is a restart of problem[r].

    fun(x, rows) returns the objective (M,) and gradient (M, 3) of rows (M,)
    at x (M, 3), and is asked only for the rows still running. Each row keeps
    a dense 3x3 inverse-Hessian approximation. Its first step has unit length,
    as in L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995), and every step
    backtracks by quadratic interpolation until the Armijo condition holds.
    A row stops when
      - its max |gradient| is at most grad_tol (it converged), unless it is its
        problem's leader: the lowest row that converged after descending. The
        leader goes on until it stalls, so each problem's best is polished
        past grad_tol;
      - it stalls: no step decreases it, or by no more than L-BFGS-B's ftol test;
      - it stands above its leader after _LAGGARD_BUDGET times the iterations
        the leader took to converge;
      - its gradient is exactly zero, or it has run max_iters iterations.
    A start whose objective is not finite is retried from half of it, twice,
    and then abandoned.
    """
    x = np.array(x0, dtype=np.float64)
    n_rows = len(x)
    n_problems = int(problem.max()) + 1
    f, g = fun(x, np.arange(n_rows))
    nfev = 1
    for _ in range(2):
        bad = np.flatnonzero(~np.isfinite(f))
        if bad.size:
            x[bad] *= 0.5
            f[bad], g[bad] = fun(x[bad], bad)
            nfev += 1
    running = np.isfinite(f)
    f[~running] = np.inf
    inv_hess = np.tile(np.eye(3), (n_rows, 1, 1))
    scaled = np.zeros(n_rows, dtype=bool)  # inv_hess was scaled by a first curvature pair
    iterations = np.zeros(n_rows, dtype=np.int64)
    converged_at = np.full(n_rows, -1)     # iterations run when the row first met grad_tol

    def apply_stop_rules() -> None:
        met = running & (converged_at < 0) & (np.abs(g).max(axis=1) <= grad_tol)
        converged_at[met] = iterations[met]
        descended = converged_at > 0
        lead_f = np.full(n_problems, np.inf)
        np.minimum.at(lead_f, problem[descended], f[descended])
        leader = descended & (f == lead_f[problem])
        lead_iters = np.zeros(n_problems, dtype=np.int64)
        lead_iters[problem[leader]] = converged_at[leader]
        running[((converged_at >= 0) & ~leader) | ~g.any(axis=1)] = False
        lagging = (f > lead_f[problem]) & (iterations >= _LAGGARD_BUDGET * lead_iters[problem])
        running[lagging & np.isfinite(lead_f[problem])] = False

    apply_stop_rules()
    nit = 0
    while nit < max_iters and running.any():
        nit += 1
        act = np.flatnonzero(running)
        x_a, f_a, g_a = x[act], f[act], g[act]
        d = -np.einsum("rij,rj->ri", inv_hess[act], g_a)
        slope = (g_a * d).sum(axis=1)
        uphill = ~(slope < 0)
        if uphill.any():  # restart the approximation along steepest descent
            inv_hess[act[uphill]] = np.eye(3)
            scaled[act[uphill]] = False
            d[uphill] = -g_a[uphill]
            slope[uphill] = -(g_a[uphill] ** 2).sum(axis=1)
        step = np.where(scaled[act], 1.0, 1.0 / np.sqrt((d * d).sum(axis=1)))
        x_n, f_n, g_n = x_a.copy(), f_a.copy(), g_a.copy()
        accepted = np.zeros(len(act), dtype=bool)
        trying = np.arange(len(act))
        for _ in range(_LINE_SEARCH_STEPS):
            x_t = x_a[trying] + step[trying, None] * d[trying]
            f_t, g_t = fun(x_t, act[trying])
            nfev += 1
            ok = f_t <= f_a[trying] + _ARMIJO * step[trying] * slope[trying]
            done = trying[ok]
            accepted[done] = True
            x_n[done], f_n[done], g_n[done] = x_t[ok], f_t[ok], g_t[ok]
            trying, f_t = trying[~ok], f_t[~ok]
            if trying.size == 0:
                break
            # minimizer of the quadratic through f(0), f'(0) and f(t), kept in [t/10, t/2]
            t = step[trying]
            curv = f_t - f_a[trying] - slope[trying] * t
            with np.errstate(divide="ignore", invalid="ignore"):
                quad = np.where(curv > 0, -slope[trying] * t * t / (2.0 * curv), 0.5 * t)
            step[trying] = np.clip(quad, 0.1 * t, 0.5 * t)

        s, y = x_n - x_a, g_n - g_a
        sy = (s * y).sum(axis=1)
        update = accepted & (sy > 1e-10 * np.sqrt((s * s).sum(axis=1) * (y * y).sum(axis=1)))
        u = act[update]
        if u.size:
            s, y, sy = s[update], y[update], sy[update]
            first = ~scaled[u]
            inv_hess[u[first]] = (sy[first] / (y[first] ** 2).sum(axis=1))[:, None, None] * np.eye(3)
            scaled[u] = True
            rho = (1.0 / sy)[:, None, None]
            v = np.eye(3) - rho * s[:, :, None] * y[:, None, :]  # I - rho s y^T
            inv_hess[u] = (
                np.einsum("rij,rjk,rlk->ril", v, inv_hess[u], v) + rho * s[:, :, None] * s[:, None, :]
            )
        x[act], f[act], g[act] = x_n, f_n, g_n
        iterations[act[accepted]] += 1
        floor = _FTOL * np.maximum(np.maximum(np.abs(f_a), np.abs(f_n)), 1.0)
        running[act[~accepted | (f_a - f_n <= floor)]] = False
        apply_stop_rules()
    return _Solution(
        x=x, fun=f, nit=nit, nfev=nfev, iterations=iterations, converged=converged_at >= 0
    )


def _folds(st: _SetData) -> list[_Problem]:
    """The held-one-out CV problems on st (metric set 0): fold j masks model row j."""
    k = st.chi.shape[0]
    return [{0: (np.arange(k) != j).astype(np.float64)} for j in range(k)]


def _solve(
    sets: Sequence[_SetData],
    problems: Sequence[_Problem],
    params: ReweightParams,
    options: FitOptions,
    inits: Sequence[np.ndarray],
) -> list[_Solution]:
    """Every restart of every problem in one `minimize` call; one `_Solution` per problem.

    The envelope theorem makes the projected gradient exact: d/dtheta of
    min_alpha f equals the partial in theta at the solved alpha.
    """
    n = len(inits)
    n_rows = len(problems) * n
    groups = _groups(sets, problems, n)
    res = minimize(
        lambda theta, rows: _batch_eval(theta, rows, groups, n_rows, params),
        np.tile(np.array(inits, dtype=np.float64), (len(problems), 1)),
        np.repeat(np.arange(len(problems)), n),
        max_iters=options.max_iters,
        grad_tol=options.grad_tol,
    )
    out = []
    for p in range(len(problems)):
        rows = slice(p * n, (p + 1) * n)
        if not np.isfinite(res.fun[rows]).any():
            raise RuntimeError(f"fit failed: all {n} restarts diverged")
        out.append(replace(
            res, x=res.x[rows], fun=res.fun[rows], iterations=res.iterations[rows],
            converged=res.converged[rows],
        ))
    return out


def _best(sol: _Solution) -> np.ndarray:
    return sol.x[int(np.argmin(sol.fun))]


def _check_cv(matrix: EvalMatrix) -> None:
    if not isinstance(matrix, EvalMatrix):
        raise TypeError("holdout_cv operates on a single eval matrix")
    if matrix.n_models < 3:
        raise ValueError(f"holdout_cv needs at least 3 models, got {matrix.n_models}")


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
    first metric set, as `holdout_cv` does, with its folds in the fit's own
    batched solve.
    """
    params = init if init is not None else ReweightParams()
    options = opts if opts is not None else FitOptions()
    matrices = _as_matrices(data)
    sets = _problem(matrices, scores)
    inits = _theta_inits(params, options, sets[0])
    problems = [{i: np.ones(st.chi.shape[0]) for i, st in enumerate(sets)}]
    if with_cv:
        _check_cv(matrices[0])
        problems += _folds(sets[0])
    main, *folds = _solve(sets, problems, params, options, [theta for _, theta in inits])
    # each restart's objective on the unbatched float path, inf where it is not finite;
    # the best of these is objective_train
    objectives = [
        _eval_sets(theta, None, sets, params)[0] if np.isfinite(value) else math.inf
        for theta, value in zip(main.x, main.fun)
    ]
    objectives = [f if math.isfinite(f) else math.inf for f in objectives]
    best = int(np.argmin(objectives))
    fitted = params.with_theta(main.x[best])
    w_by_set = [weights_array(fitted, st.s_f, st.s_p) for st in sets]
    residual_train, alpha_hat = _residual_with_weights(w_by_set, sets)
    baselines = baseline_residuals(matrices, scores)
    containment = residual_train <= baselines["uniform"] + 1e-9
    restarts = tuple(
        RestartOutcome(
            kind=kind, theta=tuple(float(t) for t in theta), objective=value,
            iterations=int(its), converged=bool(conv),
        )
        for (kind, _), theta, value, its, conv in zip(
            inits, main.x, objectives, main.iterations, main.converged
        )
    )

    val_summary = None
    if val_data is not None:
        val_summary = _validation_residuals(fitted, val_data, scores)

    return ReweightFit(
        params=fitted,
        regression=tuple(alpha_hat),
        objective_train=objectives[best],
        residual_train=residual_train,
        mean_weight=float(np.concatenate(w_by_set).mean()),
        baseline_residuals=baselines,
        containment_ok=bool(containment),
        restarts_run=int(np.isfinite(main.fun).sum()),
        residual_cv=_cv_summary(sets[0], folds, params) if with_cv else None,
        residual_val=val_summary,
        restarts=restarts,
    )


def holdout_cv(
    data: EvalMatrix,
    scores: Sequence[ScoredSample],
    init: ReweightParams | None = None,
    opts: FitOptions | None = None,
) -> ResidualSummary:
    """Held-one-out CV over models: fit on K-1, report the squared residual on the held-out one.

    Each fold is `fit`'s theta search with one model row masked out of the
    regression; all folds are solved in one batch. The folds share the
    scores, so they share the restart inits too.
    """
    _check_cv(data)
    params = init if init is not None else ReweightParams()
    options = opts if opts is not None else FitOptions()
    (st,) = _problem(data, scores)
    inits = _theta_inits(params, options, st)
    folds = _solve([st], _folds(st), params, options, [theta for _, theta in inits])
    return _cv_summary(st, folds, params)


def _cv_summary(st: _SetData, folds: Sequence[_Solution], params: ReweightParams) -> ResidualSummary:
    """Each fold's held-out squared error at its best theta, with alpha refit on the kept models."""
    residuals = []
    for j, sol in enumerate(folds):
        w = weights_array(params.with_theta(_best(sol)), st.s_f, st.s_p)
        residuals.append(_holdout_residual(offline_metric(st.chi, w), st.v, j))
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
        s = offline_metric(matrix.chi, w)
        residuals += [_holdout_residual(s, matrix.live_metrics, j) for j in range(matrix.n_models)]
    return _summary(residuals)


def _holdout_residual(s: np.ndarray, v: np.ndarray, j: int) -> float:
    """Squared error of the prediction for held-out model j, with the regression refit on the others.

    s (K,) is every model's `offline_metric(chi, w)` and v (K, d) their live
    metrics. The CV folds and the validation set both score through here.
    """
    keep = np.arange(len(s)) != j
    alpha_1, alpha_0, _ = _closed_form(s[keep], v[keep])
    err = alpha_1 * s[j] + alpha_0 - v[j]
    return float(err @ err)


def _summary(residuals: list[float]) -> ResidualSummary:
    arr = np.array(residuals)
    return ResidualSummary(
        per_holdout=tuple(residuals), mean=float(arr.mean()), std=float(arr.std())
    )
