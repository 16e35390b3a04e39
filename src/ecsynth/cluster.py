"""Diversity-preserving corpus subsampling: k-means over embeddings + per-cluster quotas.

Embeddings are an external input in production; hash_embed provides a
deterministic stand-in so the stage can run self-contained. Distances are
squared Euclidean on L2-normalized vectors, which orders the same as cosine.

kmeans computes every number the clusters file holds; `records.write_clusters`
only formats the model. Each assignment pass (`_nearest`) gives every row
its nearest centroid and its squared distance to it, taken by direct
subtraction. The file's distances are the last pass's, and its objective is
their sum.

The stage works on one `records.Embeddings` matrix throughout: hash_embed
fills it one block of documents at a time and kmeans reads it in row blocks.
Every other array the stage builds is a row block or one value per row, so
its memory is about one N x D matrix plus blocks.

kmeans holds OpenBLAS to one thread (`util.one_blas_thread`) and gives its
row blocks to one thread per core instead. Each BLAS call is then the same
one-thread call whichever thread makes it, and every sum that fixes a float
order runs serially in the calling thread: the seeding total and the
objective over the whole array, and the centroid sums (`_centroid_sums`)
one row block after another, each cell in row order. So the result does
not depend on the core count or on OPENBLAS_NUM_THREADS.
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


# Byte budget of one row block's temporaries: the (rows x k) distance matrix
# and then the (rows x D) differences in `_nearest`, which share one buffer of
# max(k, D) columns, the (rows x D) squares in `_sq_norms` and hashed counts
# in `hash_embed`. The demo's 2,000 x max(50, 64) assignment fits in one
# block, so its artifacts equal an unblocked run's: a blocked GEMM can differ
# from a whole one by 1 ULP.
_BLOCK_BYTES = 4 << 20


def _distances(
    x: np.ndarray, xx: np.ndarray, centroids: np.ndarray, cc: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances of the rows of x to the centroids, shape (rows, k).

    xx and cc are the squared row norms of x and of the centroids. Canonical
    distance for the whole module: fitting and any fixed-point verification
    must use the same float path so ties break identically. It evaluates
    max(xx - 2 * (x @ C.T) + cc, 0) in that order, in place in `out` (a new
    array when None), so a caller can reuse one buffer across calls.
    """
    if out is None:
        out = np.empty((x.shape[0], centroids.shape[0]))
    np.matmul(x, centroids.T, out=out)
    out *= 2.0
    np.subtract(xx[:, None], out, out=out)
    out += cc
    return np.maximum(out, 0.0, out=out)


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


def _nearest(
    x: np.ndarray, xx: np.ndarray, centroids: np.ndarray,
    pool: ThreadPoolExecutor | None = None, parts: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(index of each row's nearest centroid, its squared distance to it), in one pass of row blocks.

    The argmin is over the expanded form `_distances`, and breaks ties toward
    the lowest index. The distance is by direct subtraction, an einsum of the
    row's difference with itself: exact zero for coincident points, and the
    same in any block. BLAS runs on one thread, so a block's GEMM gives the
    same bits on any thread and under any OPENBLAS_NUM_THREADS. Memory is
    O(block x max(k, D)) per hand rather than O(N x k).
    """
    (n, dim), k = x.shape, centroids.shape[0]
    cc = np.sum(centroids * centroids, axis=1)
    assign = np.empty(n, dtype=np.int64)
    d2 = np.empty(n)

    def work(block: slice, buf: np.ndarray) -> None:
        flat, rows = buf.ravel(), buf.shape[0]
        d = _distances(x[block], xx[block], centroids, cc, out=flat[: rows * k].reshape(rows, k))
        np.argmin(d, axis=1, out=assign[block])
        diff = flat[: rows * dim].reshape(rows, dim)
        # "clip" takes no temporary, which "raise" does; argmin's indices are in range
        np.take(centroids, assign[block], axis=0, out=diff, mode="clip")
        np.subtract(x[block], diff, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=d2[block])

    width = max(k, dim)
    with util.one_blas_thread():
        _blockwise(n, _block_rows(width), width, work, pool, parts)
    return assign, d2


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of x, in O(block x D) memory.

    Bitwise equal to `np.sum(x * x, axis=1)`: each row's sum is the same in
    any block. The one definition of the row norms `_distances` takes.
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


def _kmeans_pp_init(
    x: np.ndarray, xx: np.ndarray, k: int, rng: np.random.Generator,
    pool: ThreadPoolExecutor | None = None, parts: int = 1,
) -> np.ndarray:
    """k-means++ seeds. Each pick's distances and minimum run in `_block_rows(D)`-row blocks.

    A GEMV gives each row the same bits in any block, so the blocks change no
    distance; the sum and the draw run here, over the whole array.
    """
    n, dim = x.shape
    cdf = np.empty(n)
    # min(inf, d) is d bit for bit, NaN included, so the first pick needs no case of its own
    closest = np.full(n, np.inf)

    def take_point(i: int) -> None:
        """Lower `closest` to the distances to point i."""
        c = x[i][None, :]
        cc = np.sum(c * c, axis=1)

        def work(block: slice, col: np.ndarray) -> None:
            d = _distances(x[block], xx[block], c, cc, out=col)[:, 0]
            np.minimum(closest[block], d, out=closest[block])

        _blockwise(n, _block_rows(dim), 1, work, pool, parts)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    take_point(chosen[0])
    for c in range(1, k):
        total = closest.sum()  # entries are >= 0: `_distances` clamps them
        if not np.isfinite(total):
            raise ValueError(f"kmeans: seeding distances sum to {total}; the vectors are too large")
        if total <= 0.0:
            # remaining points duplicate chosen centroids; fall back to uniform
            candidates = np.setdiff1d(np.arange(n), chosen[:c])
            chosen[c] = rng.choice(candidates)
        else:
            chosen[c] = _weighted_draw(closest, total, rng, out=cdf)
        take_point(chosen[c])
    return x[chosen].copy()


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
    """Lloyd's k-means with k-means++ seeding, deterministic given the seed.

    The objective (sum of squared distances to assigned centroids) is checked
    to be non-increasing on every iteration. Empty clusters are repaired by
    reseeding their centroid to the point farthest from its assigned centroid.
    A cluster can still end empty when the input has fewer distinct points
    than k: its reseeded centroid duplicates another and loses every tie.
    """
    x = embeddings.matrix
    n = x.shape[0]
    if n == 0:
        raise ValueError("kmeans: empty input")
    check_kmeans_args(k, max_iters, tol)
    if k > n:
        raise ValueError(f"kmeans: k={k} exceeds number of docs ({n})")

    with util.one_blas_thread() as pinned:
        parts = _worker_count(n, max(k, x.shape[1])) if pinned else 1
        with ThreadPoolExecutor(parts) if parts > 1 else nullcontext() as pool:
            centroids, labels, distances, objective, history = _lloyd(
                x, k, seed, max_iters, tol, pool, parts
            )
    return ClusterModel(
        centroids=centroids,
        ids=embeddings.ids,
        labels=labels,
        distances=distances,
        objective=objective,
        objective_history=tuple(history),
    )


def _worker_count(n: int, width: int) -> int:
    """kmeans' threads: one per core it may run on, and at most one per `_nearest` block.

    width is that block's buffer width, max(k, D).
    """
    return min(len(os.sched_getaffinity(0)), -(-n // _block_rows(width)))


def _lloyd(
    x: np.ndarray, k: int, seed: int, max_iters: int, tol: float,
    pool: ThreadPoolExecutor | None, parts: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, list[float]]:
    """Seeding and Lloyd iterations: (centroids, assignment, distances, objective, objective history).

    The assignment and distances are the last pass's, and the objective is
    the distances' sum.

    Row blocks go to `parts` threads of `pool`, or run here when it is None.
    """
    xx = _sq_norms(x)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, xx, k, rng, pool, parts)

    prev_obj = np.inf
    history: list[float] = []
    for it in range(max_iters):  # max_iters >= 1, so the loop sets assign and point_d2
        assign, point_d2 = _nearest(x, xx, centroids, pool, parts)
        obj = float(point_d2.sum())
        if obj > prev_obj + 1e-9 * max(1.0, prev_obj if np.isfinite(prev_obj) else 1.0):
            raise AssertionError(f"kmeans objective increased: {prev_obj} -> {obj} at iter {it}")
        history.append(obj)
        if prev_obj - obj < tol or it == max_iters - 1:
            prev_obj = obj
            break
        prev_obj = obj

        new_centroids = np.empty_like(centroids)
        counts = np.bincount(assign, minlength=k)
        sums = _centroid_sums(x, assign, k)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty][:, None]
        if not nonempty.all():
            # reseed each empty cluster to the currently worst-fit point
            repair_d2 = point_d2.copy()
            for c in np.flatnonzero(~nonempty):
                far = int(np.argmax(repair_d2))
                new_centroids[c] = x[far]
                repair_d2[far] = -1.0
        centroids = new_centroids
    return centroids, assign, point_d2, prev_obj, history


def _centroid_sums(x: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """The sum of each cluster's rows of x, shape (k, D), in O(block x D) memory.

    Bitwise equal to `np.add.at(sums, assign, x)` on zeros: `np.add.at` on
    the flattened sums, one index per cell, adds each cell's rows in row
    order as the 2-D call does, but takes numpy's fast path for a 1-D index.
    """
    n, dim = x.shape
    sums = np.zeros((k, dim))
    flat, cols, rows = sums.ravel(), np.arange(dim), _block_rows(dim)
    for lo in range(0, n, rows):
        cells = assign[lo : lo + rows, None] * dim + cols
        np.add.at(flat, cells.ravel(), x[lo : lo + rows].ravel())
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
    """Fixed-point check: reassigning every point to its nearest centroid changes nothing.

    `_nearest` holds BLAS to one thread here as in kmeans, so the check sees the fit's bits.
    """
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
