"""Diversity-preserving corpus subsampling: k-means over embeddings + per-cluster quotas.

Embeddings are an external input in production; hash_embed provides a
deterministic stand-in so the stage can run self-contained. Distances are
squared Euclidean on L2-normalized vectors, which orders the same as cosine.

The stage works on one `records.Embeddings` matrix throughout: hash_embed
builds it with one bincount, kmeans reads it in row blocks, and
`records.write_clusters` takes it for the per-document distances.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .records import ClusterModel, Document, Embeddings


@dataclass(frozen=True)
class ClusterStats:
    mean_size: float
    std_size: float
    histogram: tuple[tuple[float, float, int], ...]  # (lo, hi, count) buckets


# Byte budget of one row block's temporaries: the (rows x k) distance matrix
# in `_nearest` and the (rows x D) differences in `_point_d2`. The demo's
# 2,000 x 50 assignment fits in one block, so its artifacts equal an
# unblocked run's: a blocked GEMM can differ from a whole one by 1 ULP.
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


def _nearest(x: np.ndarray, xx: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid, in O(block x k) memory rather than O(N x k).

    argmin breaks ties toward the lowest index.
    """
    n, k = x.shape[0], centroids.shape[0]
    cc = np.sum(centroids * centroids, axis=1)
    rows = max(1, _BLOCK_BYTES // (8 * k))
    buf = np.empty((min(rows, n), k))
    assign = np.empty(n, dtype=np.int64)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        d = _distances(x[block], xx[block], centroids, cc, out=buf[: min(rows, n - lo)])
        assign[block] = np.argmin(d, axis=1)
    return assign


def _point_d2(x: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Squared distance of each row to its assigned centroid, in O(block x D) memory.

    By direct subtraction: exact zero for coincident points, unlike the
    expanded form `_distances` uses for the argmin. Each row's sum is the
    same in any block, so the result does not depend on the block size.
    """
    n = x.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * max(1, x.shape[1])))
    out = np.empty(n)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        diff = x[block] - centroids[assign[block]]
        out[block] = np.einsum("ij,ij->i", diff, diff)
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


def _kmeans_pp_init(x: np.ndarray, xx: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    col = np.empty((n, 1))
    cdf = np.empty(n)

    def to_point(i: int) -> np.ndarray:
        """Distances to point i, in `col`: valid until the next call."""
        c = x[i][None, :]
        return _distances(x, xx, c, np.sum(c * c, axis=1), out=col)[:, 0]

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    closest = to_point(chosen[0]).copy()
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
        np.minimum(closest, to_point(chosen[c]), out=closest)
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
    max_iters: int = 100,
    tol: float = 1e-8,
) -> ClusterModel:
    """Lloyd's k-means with k-means++ seeding, deterministic given the seed.

    The objective (sum of squared distances to assigned centroids) is checked
    to be non-increasing on every iteration. Empty clusters are repaired by
    reseeding their centroid to the point farthest from its assigned centroid.
    """
    x = embeddings.matrix
    n = x.shape[0]
    if n == 0:
        raise ValueError("kmeans: empty input")
    check_kmeans_args(k, max_iters, tol)
    if k > n:
        raise ValueError(f"kmeans: k={k} exceeds number of docs ({n})")

    xx = np.sum(x * x, axis=1)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, xx, k, rng)

    prev_obj = np.inf
    history: list[float] = []
    assign = np.zeros(n, dtype=np.int64)
    for it in range(max_iters):
        assign = _nearest(x, xx, centroids)
        point_d2 = _point_d2(x, centroids, assign)
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
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, x)
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

    sizes = np.bincount(assign, minlength=k).astype(np.int64)
    assignments = dict(zip(embeddings.ids, assign.tolist()))
    return ClusterModel(
        centroids=centroids,
        assignments=assignments,
        sizes=sizes,
        objective=prev_obj,
        objective_history=tuple(history),
    )


def quota_sample(model: ClusterModel, docs_per_cluster: int, seed: int) -> list[str]:
    """min(quota, size) doc ids per cluster, uniform without replacement.

    Ids are sorted within each cluster before drawing, so the result depends
    only on (model, quota, seed) and not on assignment insertion order.
    """
    check_quota(docs_per_cluster)
    by_cluster: dict[int, list[str]] = {}
    for doc_id, c in model.assignments.items():
        by_cluster.setdefault(c, []).append(doc_id)
    rng = np.random.default_rng(seed)
    out: list[str] = []
    for c in range(model.k):
        ids = sorted(by_cluster.get(c, ()))
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
    """Fixed-point check: reassigning every point to its nearest centroid changes nothing."""
    x = embeddings.matrix
    assign = _nearest(x, np.sum(x * x, axis=1), model.centroids)
    return all(model.assignments[i] == c for i, c in zip(embeddings.ids, assign.tolist()))


def hash_embed(docs: Sequence[Document], dim: int, seed: int) -> Embeddings:
    """Deterministic signed feature hashing of word uni+bigrams, L2-normalized.

    Test stand-in for an external embedding model: same text always maps to
    the same unit vector, disjoint vocabularies land near-orthogonal. A text
    without words embeds as the zero vector.
    """
    check_embed_dim(dim)
    key = str(seed).encode("utf-8")
    # gram -> its code: 2 * slot, plus 1 when its sign is +1
    memo: dict[str, int] = {}
    codes: list[int] = []
    counts = np.empty(len(docs), dtype=np.int64)  # grams per document
    for row, doc in enumerate(docs):
        words = doc.text.lower().split()
        grams = words + [f"{a} {b}" for a, b in zip(words, words[1:])]
        for gram in grams:
            if gram not in memo:
                digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
                h = int.from_bytes(digest, "big")
                memo[gram] = 2 * ((h >> 1) % dim) + (h & 1)
        codes.extend(map(memo.__getitem__, grams))
        counts[row] = len(grams)
    code = np.array(codes, dtype=np.int64)
    cells = np.repeat(np.arange(len(docs), dtype=np.int64) * dim, counts) + (code >> 1)
    signs = np.where(code & 1, 1.0, -1.0)
    # entries are sums of +-1.0 and squared norms sums of squared integers: exact in any order
    matrix = np.bincount(cells, weights=signs, minlength=len(docs) * dim).reshape(len(docs), dim)
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))[:, None]
    np.divide(matrix, norms, out=matrix, where=norms > 0.0)
    return Embeddings(ids=tuple(doc.id for doc in docs), matrix=matrix)
