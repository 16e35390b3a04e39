"""Diversity-preserving corpus subsampling: k-means over embeddings + per-cluster quotas.

Embeddings are an external input in production; hash_embed provides a
deterministic stand-in so the stage can run self-contained. Distances are
squared Euclidean on L2-normalized vectors, which orders the same as cosine.

kmeans computes every number the clusters file holds; `records.write_clusters`
only formats the model. Every assignment follows one rule (`_assign`): a row
goes to the centroid with the smallest direct-form distance, the einsum of
its difference from the centroid with itself, and the lowest index wins on
equality. A GEMM only proposes candidates; the rows whose runner-up lies
within a stated bound of the GEMM's rounding error are settled by the direct
form. So the labels, and the distances the file holds, do not depend on the
GEMM's bits: not on the BLAS kernel the CPU picks, its thread count or the
row blocks. The objective is the distances' sum.

Lloyd's passes after the first are pruned exactly: a row whose centroid did
not move can only go to a centroid that moved, so it meets those alone, and
only clusters whose rows changed add up their sums again. Seeding is
k-means‖ (`_kmeans_par_init`): a few rounds of candidates, each one
assignment call, then a weighted k-means++ over the candidates. Every
distance a draw depends on is the rule's.

The stage works on one `records.Embeddings` matrix throughout: hash_embed
fills it one block of documents at a time and kmeans reads it in row blocks.
Every other array the stage builds is a row block or one value per row, so
its memory is about one N x D matrix plus blocks.

kmeans holds OpenBLAS to one thread (`util.one_blas_thread`) and gives its
row blocks to one thread per core instead, each with a buffer allocated by
the calling thread. Every sum that fixes a float order runs serially in the
calling thread: the seeding totals and the objective over the whole array,
and the centroid sums (`_centroid_sums`) one row block after another, each
cell in row order. So the result does not depend on the core count either.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import util
from .records import ClusterModel, Document, Embeddings


@dataclass(frozen=True)
class ClusterStats:
    mean_size: float
    std_size: float
    histogram: tuple[tuple[float, float, int], ...]  # (lo, hi, count) buckets


# Byte budget of one row block's temporaries: an `_assign` block's buffer (see
# `_assign_width`), the (rows x D) squares in `_sq_norms` and the hashed counts
# in `hash_embed`. No number the stage computes depends on it. A smaller
# budget lowers the heap the stage leaves behind, on which the later stages'
# peaks sit; at 2 MB the per-block overhead starts to show at `corpus50k`.
_BLOCK_BYTES = 3 << 20

# k-means‖ seeding: its rounds, and the candidates each round draws in
# expectation, as a share of k
_SEED_ROUNDS = 5
_SEED_OVERSAMPLING = 0.5


def _block_rows(width: int) -> int:
    """Rows in one `_BLOCK_BYTES` block of float64 (rows x width) temporaries."""
    return max(1, _BLOCK_BYTES // (8 * max(1, width)))


def _blockwise(
    n: int, rows: int, width: int, work: Callable[[slice, np.ndarray], None],
    pool: ThreadPoolExecutor | None, parts: int,
) -> None:
    """work(block, buf) for each `rows`-row block of range(n); buf is a (block rows x width) buffer.

    The blocks are dealt round-robin into min(parts, blocks) hands, one pool
    task each; without a pool one hand takes them all here, in order. Each
    hand's buffer is allocated here, so no pool thread keeps a malloc arena of
    large buffers. work must write only its own block's rows.
    """
    starts = range(0, n, rows)
    hands = min(parts, len(starts)) if pool is not None else 1
    bufs = [np.empty((min(rows, n), width)) for _ in range(hands)]

    def hand(j: int) -> None:
        for lo in starts[j::hands]:
            work(slice(lo, lo + rows), bufs[j][: min(rows, n - lo)])

    if pool is None:
        hand(0)
        return
    for f in [pool.submit(hand, j) for j in range(hands)]:
        f.result()


def _margin_scale(dim: int) -> float:
    """`_assign`'s near-tie margin for D-dimensional rows, per unit of ‖x‖² + max ‖c‖² + 1.

    A computed dot product of D terms errs by at most γ_D Σ|a_i b_i|, with
    γ_D ≈ D·u and u = 2⁻⁵³, in any summation order and with or without fused
    multiply-adds (Higham, "Accuracy and Stability of Numerical Algorithms",
    §3.1). So the kernel's ‖c‖² − 2x·c errs by at most 2(D + 1)u(‖x‖² + ‖c‖²),
    a direct-form distance by at most 2(D + 2)u(‖x‖² + ‖c‖²), and a baseline's
    distance minus ‖x‖² by at most 3(D + 2)u(‖x‖² + ‖c‖²). A centroid whose
    direct form beats or ties the one the kernel ranks first is then within
    10(D + 2)u(‖x‖² + max ‖c‖²) of it in the kernel. The margin, 128(D + 2)u,
    is 12 times that; the + 1 covers values near underflow.
    """
    return (dim + 2) * 2.0**-46


def _assign_width(m: int, dim: int, gather: bool) -> int:
    """Columns of float64 in an `_assign` block buffer, for m candidate centroids.

    The gathered rows (when the rows are a subset); the kernel values and
    then the differences; the tied rows' values and then the rows that take
    a new centroid; the near-tie mask at one byte a value; and ten values per
    row.
    """
    return (dim if gather else 0) + 2 * max(m, dim) + -(-m // 8) + 10


def _assign(
    x: np.ndarray, xx: np.ndarray, centroids: np.ndarray, labels: np.ndarray, dist: np.ndarray,
    pool: ThreadPoolExecutor | None = None, parts: int = 1,
    cols: np.ndarray | None = None, rows: np.ndarray | None = None,
) -> int:
    """Move each of `rows` to the nearest of the centroids `cols` that beats its baseline, in place.

    The assignment rule: a row goes to the centroid with the smallest
    direct-form squared distance, the einsum of x − c with itself, and the
    lowest index wins on equality. On entry labels[r] and dist[r] are row r's
    baseline, a centroid outside `cols` and its direct-form distance (inf for
    none); on return they are the rule's winner among the baseline and `cols`.
    rows and cols hold ascending indices; None means all of them. xx holds the
    squared row norms (`_sq_norms`). Returns the (row, centroid) pairs the
    candidate kernel evaluated, len(rows) x len(cols).

    The kernel, x @ (−2C)ᵀ + ‖c‖², only proposes. A row whose second-best
    column and baseline both lie beyond `_margin_scale`'s bound of the best
    takes that best one, and the direct form gives its distance. The near ties
    are settled after the pass, each row among all its near candidates by the
    direct form (`_settle`). So neither the GEMM's bits, nor the BLAS kernel,
    its thread count or the block rows, can change a label or a distance.

    Row blocks go to `parts` threads of `pool`, or run here when it is None,
    each in a buffer `_blockwise` allocates.
    """
    n_rows = len(x) if rows is None else len(rows)
    col_ids = np.arange(len(centroids)) if cols is None else cols
    m, dim = len(col_ids), x.shape[1]
    if n_rows == 0 or m == 0:
        return 0
    neg2 = centroids[col_ids]
    neg2 *= -2.0
    cc = np.einsum("ij,ij->i", neg2, neg2)
    cc *= 0.25  # ‖c‖², as (−2c)² / 4 is exact
    top = float(np.einsum("ij,ij->i", centroids, centroids).max()) + 1.0
    scale = _margin_scale(dim)
    gather = rows is not None
    width = _assign_width(m, dim, gather)
    step = _block_rows(width)
    offsets = np.arange(min(step, n_rows)) * m  # each block row's first flat index in its values
    ties: list[tuple[np.ndarray, np.ndarray] | None] = [None] * -(-n_rows // step)

    def work(block: slice, buf: np.ndarray) -> None:
        r, flat = buf.shape[0], buf.ravel()
        span = r * max(m, dim)
        o = r * dim if gather else 0
        g = flat[o : o + r * m].reshape(r, m)
        diff = flat[o : o + r * dim].reshape(r, dim)  # g's space, once g is read
        o += span
        spare = flat[o : o + r * m].reshape(r, m)
        picked = flat[o : o + r * dim].reshape(r, dim)  # spare's space, once the ties are out
        o += span
        mask = flat[o : o + -(-r * m // 8)].view(np.bool_)[: r * m].reshape(r, m)
        o += -(-r * m // 8)
        vec = flat[o : o + 10 * r].reshape(10, r)
        at, pos, second = vec[0].view(np.int64), vec[1].view(np.int64), vec[2].view(np.int64)
        lo, hi, eb, thr, best = vec[3], vec[4], vec[5], vec[6], vec[7]
        if gather:
            ids = rows[block]
            xb = flat[: r * dim].reshape(r, dim)
            np.take(x, ids, axis=0, out=xb, mode="clip")
            xr = np.take(xx, ids, out=vec[8], mode="clip")
            base = np.take(dist, ids, out=vec[9], mode="clip")
        else:
            xb, xr, base = x[block], xx[block], dist[block]
        np.matmul(xb, neg2.T, out=g)
        g += cc
        # the least value and the second least, each by argmin: a row-wise min takes longer
        values = g.reshape(-1)
        np.argmin(g, axis=1, out=at)
        np.add(offsets[:r], at, out=pos)
        np.take(values, pos, out=lo)
        values[pos] = np.inf
        np.argmin(g, axis=1, out=second)
        second += offsets[:r]
        np.take(values, second, out=hi)
        values[pos] = lo
        np.subtract(base, xr, out=eb)  # the baseline's kernel value: inf without one
        np.minimum(lo, eb, out=best)
        np.add(xr, top, out=thr)
        thr *= scale
        thr += best  # the near-tie threshold
        near_base = eb <= thr
        tied = (hi <= thr) | (near_base & (lo <= thr))
        if tied.any():
            some = np.flatnonzero(tied)
            f = len(some)
            np.compress(tied, g, axis=0, out=spare[:f])
            near = np.less_equal(spare[:f], thr[some, None], out=mask[:f])
            i, pc = np.nonzero(near)
            tied_rows = ids[some[i]] if gather else some[i] + block.start
            ties[block.start // step] = (tied_rows, col_ids[pc])
        # the direct-form distance of each row that takes its least value outright
        taken = np.flatnonzero(~(tied | near_base))
        f = len(taken)
        if f:
            src = xb if f == r else np.take(xb, taken, axis=0, out=picked[:f], mode="clip")
            winners = col_ids[at[taken]]
            d = diff[:f]
            np.take(centroids, winners, axis=0, out=d, mode="clip")
            np.subtract(src, d, out=d)
            np.einsum("ij,ij->i", d, d, out=lo[:f])
            target = ids[taken] if gather else taken + block.start
            labels[target], dist[target] = winners, lo[:f]

    _blockwise(n_rows, step, width, work, pool, parts)
    found = [t for t in ties if t is not None]
    if found:
        pr, pc = (np.concatenate(side) for side in zip(*found))
        _settle(x, centroids, labels, dist, pr, pc)
    return n_rows * m


def _settle(
    x: np.ndarray, centroids: np.ndarray, labels: np.ndarray, dist: np.ndarray,
    pr: np.ndarray, pc: np.ndarray,
) -> None:
    """Settle near ties by the rule: each row of pr takes the least (direct-form distance, index).

    The candidates are the row's pairs' centroids pc and its baseline.
    """
    d = _pair_distances(x, centroids, pr, pc)
    # the pairs come sorted by row, then centroid: each row's least distance, first in order
    starts = np.flatnonzero(np.concatenate(([True], pr[1:] != pr[:-1])))
    least = np.minimum.reduceat(d, starts)
    hits = np.flatnonzero(d == np.repeat(least, np.diff(np.append(starts, len(d)))))
    first = hits[np.concatenate(([True], pr[hits[1:]] != pr[hits[:-1]]))]
    pr, pc, d = pr[first], pc[first], d[first]
    base = dist[pr]
    wins = (d < base) | ((d == base) & (pc < labels[pr]))
    labels[pr[wins]], dist[pr[wins]] = pc[wins], d[wins]


def _pair_distances(
    x: np.ndarray, centroids: np.ndarray, pr: np.ndarray, pc: np.ndarray
) -> np.ndarray:
    """The direct-form squared distance of each row pr[i] to centroid pc[i], in blocks of pairs."""
    dim = x.shape[1]
    out = np.empty(len(pr))
    step = _block_rows(2 * dim)
    rows_buf = np.empty((min(step, len(pr)), dim))
    cents_buf = np.empty_like(rows_buf)
    for lo in range(0, len(pr), step):
        part = slice(lo, lo + step)
        a, b = rows_buf[: len(pr[part])], cents_buf[: len(pr[part])]
        np.take(x, pr[part], axis=0, out=a, mode="clip")
        np.take(centroids, pc[part], axis=0, out=b, mode="clip")
        np.subtract(a, b, out=a)
        np.einsum("ij,ij->i", a, a, out=out[part])
    return out


def _nearest(
    x: np.ndarray, xx: np.ndarray, centroids: np.ndarray,
    pool: ThreadPoolExecutor | None = None, parts: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(each row's centroid by the assignment rule, its direct-form distance), from no baseline.

    One `_assign` pass of every row against every centroid, with BLAS held to
    one thread.
    """
    labels, dist = np.zeros(len(x), dtype=np.int64), np.full(len(x), np.inf)
    with util.one_blas_thread():
        _assign(x, xx, centroids, labels, dist, pool, parts)
    return labels, dist


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of x, in O(block x D) memory.

    Bitwise equal to `np.sum(x * x, axis=1)`: each row's sum is the same in
    any block.
    """
    n = x.shape[0]
    rows = _block_rows(x.shape[1])
    out = np.empty(n)
    for lo in range(0, n, rows):
        block = x[lo : lo + rows]
        np.sum(block * block, axis=1, out=out[lo : lo + rows])
    return out


def _weighted_draw(
    weights: np.ndarray, total: float, rng: np.random.Generator, out: np.ndarray,
) -> int:
    """`rng.choice(len(weights), p=weights / total)` without `choice`'s checks of p.

    It takes the steps `Generator.choice` takes, so it draws the same index
    and leaves `rng` in the same state. The caller guarantees weights >= 0
    and a finite total > 0. `out` (the shape of weights) holds the cdf, so a
    caller drawing many times allocates it once.
    """
    cdf = np.divide(weights, total, out=out)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def _seeding_total(values: np.ndarray) -> float:
    """The sum of seeding weights, which must be finite; the entries are >= 0."""
    total = float(values.sum())
    if not np.isfinite(total):
        raise ValueError(f"kmeans: seeding distances sum to {total}; the vectors are too large")
    return total


def _kmeans_par_init(
    x: np.ndarray, xx: np.ndarray, k: int, rng: np.random.Generator,
    pool: ThreadPoolExecutor | None = None, parts: int = 1,
) -> tuple[np.ndarray, int]:
    """k-means‖ seeds and the number of candidates they were picked from.

    k-means‖ is Bahmani et al., "Scalable K-Means++" (VLDB 2012). The first
    candidate is a uniform draw. Each round then draws every row with
    probability min(1, ℓ·d / Σd), where ℓ = k · `_SEED_OVERSAMPLING` and d is
    the row's distance to its nearest candidate, and one `_assign` call over
    the new candidates, with each row's (nearest candidate, distance) as its
    baseline, brings those up to date. After `_SEED_ROUNDS` rounds, and more
    while fewer than k candidates own a row and some row lies off all of them,
    each candidate weighs the rows it owns. A weighted k-means++ over the
    candidates, on direct-form distances, then picks the k seeds. When every
    candidate coincides with a seed before k are picked, as on inputs with
    fewer than k distinct points, each further seed is a uniform draw among
    the rows not yet picked.

    Every distance a draw or a weight depends on is the assignment rule's, so
    no BLAS kernel can change a seed. The sums run here, over whole arrays.
    """
    n, dim = x.shape
    owner, closest = np.zeros(n, dtype=np.int64), np.full(n, np.inf)
    picked = [int(rng.integers(n))]  # the candidates' rows of x
    ell = _SEED_OVERSAMPLING * k
    row_bytes = np.dtype((np.void, x.itemsize * dim))  # a row of x as one value
    assigned = rounds = 0
    while True:
        cols = np.arange(assigned, len(picked))
        _assign(x, xx, x[picked], owner, closest, pool, parts, cols=cols)
        assigned = len(picked)
        total = _seeding_total(closest)
        owning = np.count_nonzero(np.bincount(owner, minlength=assigned))
        if total <= 0.0 or (rounds >= _SEED_ROUNDS and owning >= k):
            break
        rounds += 1
        drawn = np.flatnonzero(rng.random(n) * total < ell * closest)
        # a copy of a row drawn before it would lose every tie to it and own no row
        _, first = np.unique(x[drawn].view(row_bytes).ravel(), return_index=True)
        picked.extend(drawn[np.sort(first)].tolist())

    m = len(picked)
    points, rows = x[picked], np.array(picked)
    weights = np.bincount(owner, minlength=m).astype(np.float64)
    near = np.full(m, np.inf)  # each candidate's distance to its nearest seed
    diff, d, cdf = np.empty((m, dim)), np.empty(m), np.empty(m)
    weighted = weights.copy()  # the first draw weighs the candidates alone
    seeds = np.empty(k, dtype=np.int64)
    for c in range(k):
        total = _seeding_total(weighted)
        if total <= 0.0:
            # every candidate duplicates a seed; fall back to uniform
            seeds[c] = rng.choice(np.setdiff1d(np.arange(n), seeds[:c]))
        else:
            seeds[c] = rows[_weighted_draw(weighted, total, rng, out=cdf)]
        np.subtract(points, x[seeds[c]], out=diff)
        np.einsum("ij,ij->i", diff, diff, out=d)
        np.minimum(near, d, out=near)
        np.multiply(weights, near, out=weighted)
    return x[seeds].copy(), m


def check_kmeans_args(k: int, max_iters: int, tol: float) -> None:
    """The rules of `kmeans`'s arguments that do not depend on the data."""
    if k < 1:
        raise ValueError("kmeans: k must be positive")
    if max_iters < 1:
        raise ValueError("kmeans: max_iters must be positive")
    if tol < 0:
        raise ValueError("kmeans: tol must be >= 0")


def check_embed_dim(dim: int) -> None:
    if dim < 8:
        raise ValueError("hash_embed: dim must be >= 8")


def check_quota(docs_per_cluster: int) -> None:
    if docs_per_cluster < 1:
        raise ValueError("quota_sample: docs_per_cluster must be positive")


def kmeans(
    embeddings: Embeddings,
    k: int,
    seed: int,
    max_iters: int,
    tol: float,
) -> ClusterModel:
    """Lloyd's k-means with k-means‖ seeding, deterministic given the seed.

    Every assignment follows the rule of `_assign`. The objective (sum of
    squared distances to assigned centroids) is checked to be non-increasing
    on every iteration. Empty clusters are repaired by reseeding their
    centroid to the point farthest from its assigned centroid. A cluster can
    still end empty when the input has fewer distinct points than k: its
    reseeded centroid duplicates another and loses every tie.

    The model's `fit_counts` tell how the fit went: `iterations` (assignment
    passes), `converged` (whether the last pass improved the objective by
    less than tol), `repairs` (empty clusters reseeded), `seed_candidates`
    and `candidate_pairs` (the (row, centroid) pairs the Lloyd passes' kernel
    evaluated).
    """
    x = embeddings.matrix
    n, dim = x.shape
    if n == 0:
        raise ValueError("kmeans: empty input")
    check_kmeans_args(k, max_iters, tol)
    if k > n:
        raise ValueError(f"kmeans: k={k} exceeds number of docs ({n})")

    with util.one_blas_thread() as pinned:
        parts = _worker_count(n, _assign_width(k, dim, False)) if pinned else 1
        with ThreadPoolExecutor(parts) if parts > 1 else nullcontext() as pool:
            centroids, labels, distances, history, fit_counts = _lloyd(
                x, k, seed, max_iters, tol, pool, parts
            )
    return ClusterModel(
        centroids=centroids,
        ids=embeddings.ids,
        labels=labels,
        distances=distances,
        objective=history[-1],
        objective_history=tuple(history),
        fit_counts=fit_counts,
    )


def _worker_count(n: int, width: int) -> int:
    """kmeans' threads: one per core it may run on, and at most one per full `_assign` block.

    width is that block's buffer width.
    """
    return min(len(os.sched_getaffinity(0)), -(-n // _block_rows(width)))


def _lloyd(
    x: np.ndarray, k: int, seed: int, max_iters: int, tol: float,
    pool: ThreadPoolExecutor | None, parts: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float], dict]:
    """Seeding and Lloyd iterations: (centroids, labels, distances, objective history, fit counts).

    The labels and distances are the last pass's, and the objective is the
    distances' sum. After the first pass, a pass revisits only what the moved
    centroids can change (`_reassign`), and an update adds up again only the
    clusters whose rows changed, the same rows in the same order. Both are
    exact: the result equals that of full passes and full sums bit for bit.

    Row blocks go to `parts` threads of `pool`, or run here when it is None.
    """
    n, dim = x.shape
    xx = _sq_norms(x)
    if not np.isfinite(xx).all():
        raise ValueError("kmeans: a squared row norm overflows; the vectors are too large")
    centroids, candidates = _kmeans_par_init(x, xx, k, np.random.default_rng(seed), pool, parts)
    labels, dist = np.zeros(n, dtype=np.int64), np.full(n, np.inf)
    pairs = _assign(x, xx, centroids, labels, dist, pool, parts)
    sums = np.zeros((k, dim))
    changed = np.ones(k, dtype=bool)  # clusters whose rows changed since `sums` added them
    repairs = 0
    prev_obj = np.inf
    history: list[float] = []
    for it in range(max_iters):
        obj = float(dist.sum())
        if obj > prev_obj + 1e-9 * max(1.0, prev_obj if np.isfinite(prev_obj) else 1.0):
            raise AssertionError(f"kmeans objective increased: {prev_obj} -> {obj} at iter {it}")
        history.append(obj)
        converged = prev_obj - obj < tol
        if converged or it == max_iters - 1:
            break
        prev_obj = obj

        counts = np.bincount(labels, minlength=k)
        if changed.any():
            sums[changed] = _centroid_sums(x, labels, k, np.flatnonzero(changed[labels]))[changed]
        new_centroids = np.empty_like(centroids)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty][:, None]
        if not nonempty.all():
            # reseed each empty cluster to the currently worst-fit point
            repair_d2 = dist.copy()
            for c in np.flatnonzero(~nonempty):
                far = int(np.argmax(repair_d2))
                new_centroids[c] = x[far]
                repair_d2[far] = -1.0
                repairs += 1
        moved = (new_centroids.view(np.int64) != centroids.view(np.int64)).any(axis=1)
        centroids, before = new_centroids, labels.copy()
        pairs += _reassign(x, xx, centroids, labels, dist, moved, pool, parts)
        switched = labels != before
        changed[:] = False
        changed[labels[switched]] = changed[before[switched]] = True
    fit_counts = {
        "iterations": len(history),
        "converged": bool(converged),
        "repairs": repairs,
        "seed_candidates": candidates,
        "candidate_pairs": pairs,
    }
    return centroids, labels, dist, history, fit_counts


def _reassign(
    x: np.ndarray, xx: np.ndarray, centroids: np.ndarray, labels: np.ndarray, dist: np.ndarray,
    moved: np.ndarray, pool: ThreadPoolExecutor | None, parts: int,
) -> int:
    """Bring (labels, dist) up to date after the centroids where `moved` is true moved.

    A row whose centroid stayed put keeps its distance to it, and every other
    centroid that stayed put is as far as it was when that one won. So only a
    moved centroid can take the row: it meets those alone, with its label and
    distance as its baseline. A row whose centroid moved has no baseline: it
    meets the moved centroids in the same pass, then the others with the
    result as its baseline. When most centroids moved, every row meets every
    centroid in one pass. Returns the (row, centroid) pairs evaluated.
    """
    k = len(centroids)
    moved_ids = np.flatnonzero(moved)
    if 2 * len(moved_ids) > k:
        dist.fill(np.inf)
        return _assign(x, xx, centroids, labels, dist, pool, parts)
    orphans = np.flatnonzero(moved[labels])
    dist[orphans] = np.inf
    pairs = _assign(x, xx, centroids, labels, dist, pool, parts, cols=moved_ids)
    return pairs + _assign(
        x, xx, centroids, labels, dist, pool, parts, cols=np.flatnonzero(~moved), rows=orphans
    )


def _centroid_sums(
    x: np.ndarray, assign: np.ndarray, k: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """Each cluster's sum of its rows of x among `rows` (None: all), shape (k, D), in O(block x D) memory.

    Bitwise equal to `np.add.at(sums, assign[rows], x[rows])` on zeros:
    `np.add.at` on the flattened sums, one index per cell, adds each cell's
    rows in row order as the 2-D call does, but takes numpy's fast path for
    a 1-D index. So when `rows` holds every row of some clusters in
    ascending order, their sums equal those of all rows.
    """
    dim = x.shape[1]
    sums = np.zeros((k, dim))
    # a block's cells, and its rows of x when they are gathered
    flat, cols, step = sums.ravel(), np.arange(dim), _block_rows(2 * dim)
    count = len(x) if rows is None else len(rows)
    for lo in range(0, count, step):
        part = slice(lo, lo + step) if rows is None else rows[lo : lo + step]
        cells = assign[part, None] * dim + cols
        np.add.at(flat, cells.ravel(), x[part].ravel())
    return sums


def quota_sample(model: ClusterModel, docs_per_cluster: int, seed: int) -> list[str]:
    """min(quota, size) doc ids per cluster, uniform without replacement.

    Ids are sorted within each cluster before drawing, so the result depends
    only on (model, quota, seed) and not on the order of the model's ids.
    """
    check_quota(docs_per_cluster)
    members = np.split(np.argsort(model.labels, kind="stable"), np.cumsum(model.sizes)[:-1])
    rng = np.random.default_rng(seed)
    out: list[str] = []
    for rows in members:  # one array of row indices per cluster, in cluster order
        ids = sorted(model.ids[i] for i in rows.tolist())
        if len(ids) <= docs_per_cluster:
            out.extend(ids)
        else:
            picks = rng.choice(len(ids), size=docs_per_cluster, replace=False)
            out.extend(ids[i] for i in sorted(picks))
    return out


def cluster_stats(model: ClusterModel) -> ClusterStats:
    """Mean (exactly N/k), population std, and a 10-bucket size histogram."""
    sizes = model.sizes.astype(np.float64)
    mean = float(sizes.sum() / model.k)
    std = float(np.sqrt(np.mean((sizes - mean) ** 2)))
    lo, hi = float(sizes.min()), float(sizes.max())
    if hi == lo:
        hist = ((lo, hi, int(model.k)),)
    else:
        counts, edges = np.histogram(sizes, bins=10, range=(lo, hi))
        hist = tuple(
            (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
        )
    return ClusterStats(mean_size=mean, std_size=std, histogram=hist)


def verify_nearest_assignment(model: ClusterModel, embeddings: Embeddings) -> bool:
    """Fixed-point check: reassigning every point by the assignment rule changes no label."""
    x = embeddings.matrix
    assign, _ = _nearest(x, _sq_norms(x), model.centroids)
    labels = dict(zip(model.ids, model.labels.tolist()))
    return all(labels[i] == c for i, c in zip(embeddings.ids, assign.tolist()))


class _GramCodes(dict):
    """gram -> its code in `hash_embed`: 2 * slot, plus 1 when its sign is +1.

    A gram's code is hashed at its first lookup and kept.
    """

    def __init__(self, key: bytes, dim: int):
        super().__init__()
        self.key, self.dim = key, dim

    def __missing__(self, gram: str) -> int:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=self.key).digest()
        h = int.from_bytes(digest, "big")
        code = self[gram] = 2 * ((h >> 1) % self.dim) + (h & 1)
        return code


def hash_embed(docs: Sequence[Document], dim: int, seed: int) -> Embeddings:
    """Deterministic signed feature hashing of word uni+bigrams, L2-normalized.

    Test stand-in for an external embedding model: same text always maps to
    the same unit vector, disjoint vocabularies land near-orthogonal. A text
    without words embeds as the zero vector.

    Documents are hashed one block at a time into their rows of one matrix,
    which `Embeddings` adopts without a copy.
    """
    check_embed_dim(dim)
    key = str(seed).encode("utf-8")
    n = len(docs)
    matrix = np.empty((n, dim))
    rows = _block_rows(dim)
    code_of = _GramCodes(key, dim).__getitem__
    for lo in range(0, n, rows):
        block = docs[lo : lo + rows]
        codes: list[int] = []
        counts = np.empty(len(block), dtype=np.int64)  # grams per document
        for row, doc in enumerate(block):
            words = doc.text.lower().split()
            grams = words + [f"{a} {b}" for a, b in zip(words, words[1:])]
            codes.extend(map(code_of, grams))
            counts[row] = len(grams)
        code = np.array(codes, dtype=np.int64)
        cells = np.repeat(np.arange(len(block), dtype=np.int64) * dim, counts) + (code >> 1)
        signs = np.where(code & 1, 1.0, -1.0)
        # entries are sums of +-1.0 and squared norms sums of squared integers: exact in any order
        out = matrix[lo : lo + len(block)]
        out[...] = np.bincount(cells, weights=signs, minlength=out.size).reshape(out.shape)
        norms = np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
        np.divide(out, norms, out=out, where=norms > 0.0)
    matrix.setflags(write=False)
    return Embeddings(ids=tuple(doc.id for doc in docs), matrix=matrix)
