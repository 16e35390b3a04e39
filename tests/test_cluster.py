from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ecsynth
from ecsynth import cluster, util
from ecsynth.cluster import cluster_stats, hash_embed, kmeans, quota_sample, verify_nearest_assignment
from ecsynth.demo import make_demo_corpus
from ecsynth.records import (
    ClusterModel,
    Document,
    Embeddings,
    RecordError,
    read_clusters,
    read_embeddings,
    write_clusters,
    write_embeddings,
)


def _docs(x: np.ndarray) -> Embeddings:
    return Embeddings(ids=tuple(f"d{i:04d}" for i in range(len(x))), matrix=x)


def test_kmeans_one_point_per_cluster():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 4))
    model = kmeans(_docs(x), k=12, seed=0, max_iters=100, tol=1e-8)
    assert model.objective == 0.0
    assert sorted(model.labels.tolist()) == list(range(12))


def test_kmeans_two_blobs():
    rng = np.random.default_rng(1)
    blob_a = rng.normal(loc=(-5.0, 0.0), scale=0.3, size=(40, 2))
    blob_b = rng.normal(loc=(5.0, 0.0), scale=0.3, size=(40, 2))
    docs = _docs(np.vstack([blob_a, blob_b]))
    model = kmeans(docs, k=2, seed=3, max_iters=100, tol=1e-8)
    labels = dict(zip(model.ids, model.labels.tolist()))
    labels = [labels[i] for i in docs.ids]
    assert len(set(labels[:40])) == 1
    assert len(set(labels[40:])) == 1
    assert labels[0] != labels[40]
    # brute-force nearest-centroid oracle
    for doc_id, vector in zip(docs.ids, docs.matrix):
        dists = [float(np.sum((vector - c) ** 2)) for c in model.centroids]
        assert model.labels[model.ids.index(doc_id)] == int(np.argmin(dists))


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    docs = _docs(rng.normal(size=(60, 5)))
    a = kmeans(docs, k=7, seed=42, max_iters=100, tol=1e-8)
    b = kmeans(docs, k=7, seed=42, max_iters=100, tol=1e-8)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.ids == b.ids
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.objective == b.objective
    assert a.objective_history == b.objective_history


def test_kmeans_objective_monotone_and_fixed_point():
    rng = np.random.default_rng(3)
    for trial in range(5):
        docs = _docs(rng.normal(size=(80, 3)))
        model = kmeans(docs, k=6, seed=trial, max_iters=50, tol=1e-8)
        diffs = np.diff(model.objective_history)
        assert (diffs <= 1e-9).all()
        assert verify_nearest_assignment(model, docs)
        assert int(model.sizes.sum()) == 80


def test_kmeans_repairs_seeding_and_empty_clusters_on_duplicate_points(monkeypatch):
    # 10 distinct points, 5 copies each, k=12: the k-means‖ candidates cover the
    # 10 points, so after 10 seeds every candidate is one and the last 2 seeds
    # are uniform draws, whose duplicate centroids lose every tie and come out
    # of the first assignment empty
    docs = _docs(np.repeat(np.eye(10), 5, axis=0))
    weighted = []
    draw = cluster._weighted_draw
    monkeypatch.setattr(cluster, "_weighted_draw", lambda *a, **kw: weighted.append(1) or draw(*a, **kw))
    model = kmeans(docs, k=12, seed=0, max_iters=50, tol=1e-8)
    assert len(weighted) == 10  # 12 seeds, 2 of them uniform
    assert model.objective == 0.0
    assert model.sizes.tolist() == [5] * 10 + [0, 0]
    assert model.fit_counts["repairs"] > 0
    # the reseed moved each empty centroid onto an input point
    for c in (10, 11):
        assert any(np.array_equal(model.centroids[c], row) for row in docs.matrix)
    assert (np.diff(model.objective_history) <= 0).all()
    assert verify_nearest_assignment(model, docs)
    again = kmeans(docs, k=12, seed=0, max_iters=50, tol=1e-8)
    np.testing.assert_array_equal(again.centroids, model.centroids)
    assert again.ids == model.ids
    np.testing.assert_array_equal(again.labels, model.labels)
    assert again.objective_history == model.objective_history


def test_kmeans_blocked_assignment_matches_one_block(monkeypatch):
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=10.0, size=(5, 8))
    x = np.vstack([rng.normal(loc=c, scale=0.5, size=(200, 8)) for c in centers])
    docs = _docs(x)
    whole = kmeans(docs, k=5, seed=1, max_iters=20, tol=1e-8)
    # 300-row blocks: 1,000 points span three full blocks and a partial one
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * cluster._assign_width(5, 8, False) * 300)
    blocked = kmeans(docs, k=5, seed=1, max_iters=20, tol=1e-8)
    assert blocked.ids == whole.ids
    np.testing.assert_array_equal(blocked.labels, whole.labels)
    np.testing.assert_array_equal(blocked.sizes, whole.sizes)
    assert blocked.objective_history == whole.objective_history
    assert verify_nearest_assignment(blocked, docs)


def _brute_force_rule(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The assignment rule by its definition: the least direct-form distance, lowest index on ties."""
    d = np.empty((len(x), len(c)))
    for j in range(len(c)):
        diff = x - c[j]
        d[:, j] = np.einsum("ij,ij->i", diff, diff)
    labels = np.argmin(d, axis=1)
    return labels, d[np.arange(len(x)), labels]


def _rule_cases(name: str) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(31)
    if name == "random":
        return rng.normal(size=(1500, 16)), rng.normal(size=(40, 16))
    if name == "duplicate points":
        x = np.repeat(np.eye(10), 5, axis=0)
        return x, x[::4][:12]  # rows 0, 4, 8, ...: two copies of several points
    if name == "exact ties":
        # each row is orthogonal to every centroid, and all have norm 1
        x = np.zeros((60, 8))
        x[:, 0] = rng.choice([-1.0, 1.0], 60)
        c = np.zeros((7, 8))
        c[np.arange(7), np.arange(1, 8)] = 1.0
        return x, c
    if name == "1-ulp near ties":
        # five copies of one centroid, two of them moved by one ulp in one coordinate
        c = np.repeat(rng.normal(size=(1, 8)), 5, axis=0)
        c[1, 0] = np.nextafter(c[1, 0], np.inf)
        c[3, 2] = np.nextafter(c[3, 2], -np.inf)
        return c[0] + 1e-3 * rng.normal(size=(300, 8)), c
    x = hash_embed(make_demo_corpus(3000, 3), dim=64, seed=1).matrix  # "hashed embeddings"
    return x, x[rng.choice(len(x), 200, replace=False)]


@pytest.mark.parametrize(
    "case", ["random", "duplicate points", "exact ties", "1-ulp near ties", "hashed embeddings"]
)
def test_assignment_is_the_direct_form_rule_bit_for_bit(monkeypatch, case):
    x, c = _rule_cases(case)
    want_labels, want_d = _brute_force_rule(x, c)
    # the default blocks, and blocks of 7 rows, whose last block is partial
    for budget in (cluster._BLOCK_BYTES, 8 * 7 * cluster._assign_width(len(c), x.shape[1], False)):
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", budget)
        labels, d = cluster._nearest(x, cluster._sq_norms(x), c)
        assert labels.tolist() == want_labels.tolist()
        assert d.tobytes() == want_d.tobytes()


def test_assignment_from_a_baseline_and_on_a_subset_is_the_rule(monkeypatch):
    # rows of a subset meet a subset of the centroids, each from its baseline
    # among the others: the winner over both is the rule's over all centroids
    x, c = _rule_cases("hashed embeddings")
    want_labels, want_d = _brute_force_rule(x, c)
    rng = np.random.default_rng(4)
    cols = np.sort(rng.choice(len(c), 60, replace=False))
    rows = np.sort(rng.choice(len(x), 1000, replace=False))
    others = np.setdiff1d(np.arange(len(c)), cols)
    labels, d = _brute_force_rule(x, c[others])
    labels = others[labels]
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * 64 * 300)
    pairs = cluster._assign(x, cluster._sq_norms(x), c, labels, d, cols=cols, rows=rows)
    assert pairs == len(rows) * len(cols)
    assert labels[rows].tolist() == want_labels[rows].tolist()
    assert d[rows].tobytes() == want_d[rows].tobytes()
    rest = np.setdiff1d(np.arange(len(x)), rows)
    assert (labels[rest] == others[_brute_force_rule(x[rest], c[others])[0]]).all()


def _reference_kmeans(x: np.ndarray, k: int, seed: int, max_iters: int, tol: float):
    """Unpruned Lloyd from `kmeans`' seeds: a full pass and full `np.add.at` sums every iteration."""
    xx = cluster._sq_norms(x)
    centroids, _ = cluster._kmeans_par_init(x, xx, k, np.random.default_rng(seed))
    prev, history = np.inf, []
    for it in range(max_iters):
        labels, d = cluster._nearest(x, xx, centroids)
        history.append(float(d.sum()))
        if prev - history[-1] < tol or it == max_iters - 1:
            return centroids, labels, d, history
        prev = history[-1]
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros((k, x.shape[1]))
        np.add.at(sums, labels, x)
        new = np.empty_like(centroids)
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty][:, None]
        worst = d.copy()
        for c in np.flatnonzero(~nonempty):
            far = int(np.argmax(worst))
            new[c], worst[far] = x[far], -1.0
        centroids = new


@pytest.mark.parametrize(
    "n, k, seed, docs_seed", [(2000, 50, 1, 1), (3000, 120, 2, 4), (50, 12, 0, None)]
)
def test_pruned_lloyd_equals_full_passes_bit_for_bit(n, k, seed, docs_seed):
    if docs_seed is None:  # duplicate points: empty clusters and their repairs
        x = np.repeat(np.eye(10), 5, axis=0)
    else:
        x = hash_embed(make_demo_corpus(n, docs_seed), dim=64, seed=docs_seed).matrix
    model = kmeans(_docs(x), k=k, seed=seed, max_iters=40, tol=1e-8)
    centroids, labels, d, history = _reference_kmeans(x, k, seed, 40, 1e-8)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.labels.tolist() == labels.tolist()
    assert model.distances.tobytes() == d.tobytes()
    assert model.objective_history == tuple(history)
    counts = model.fit_counts
    assert counts["iterations"] == len(history)
    assert len(x) * k <= counts["candidate_pairs"] <= len(history) * len(x) * k
    if docs_seed is not None:
        # more candidates than seeds, and a pruned pass meets fewer centroids than a full one
        assert counts["seed_candidates"] > k
        assert counts["candidate_pairs"] < len(history) * len(x) * k


def test_kmeans_clusters_do_not_depend_on_the_block_size(monkeypatch, tmp_path):
    emb = hash_embed(make_demo_corpus(3000, 9), dim=32, seed=9)
    got = []
    # the default, 101 rows a full block (an odd last block), and 1,024 rows
    for rows in (None, 101, 1024):
        if rows is not None:
            monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * rows * cluster._assign_width(60, 32, False))
        path = tmp_path / f"clusters-{rows}.jsonl"
        write_clusters(kmeans(emb, k=60, seed=9, max_iters=15, tol=1e-8), path)
        got.append(path.read_bytes())
    assert 3000 % 101 != 0
    assert got[1] == got[0] and got[2] == got[0]


def test_kmeans_memory_stays_below_n_by_k():
    n, k = 20_000, 1_000
    rng = np.random.default_rng(9)
    x = rng.normal(size=(n, 16))
    docs = _docs(x / np.linalg.norm(x, axis=1, keepdims=True))
    tracemalloc.start()
    try:
        kmeans(docs, k=k, seed=0, max_iters=2, tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one N x k float64 matrix is 160 MB; the blocked assignment never builds one
    assert peak < n * k * 8 / 4


def test_kmeans_memory_stays_below_few_n_by_d():
    n, dim = 40_000, 64
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, dim))
    docs = _docs(x / np.linalg.norm(x, axis=1, keepdims=True))
    tracemalloc.start()
    try:
        model = kmeans(docs, k=8, seed=0, max_iters=2, tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert verify_nearest_assignment(model, docs)
        _, verify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one N x D float64 matrix is 20.5 MB; kmeans reads the embeddings' matrix
    # in place, and the row norms, the assignment and the objective are all
    # blocked, so neither call builds a second one (an `x * x` would)
    assert peak < 1.0 * n * dim * 8
    assert verify_peak < 0.5 * n * dim * 8


@pytest.mark.parametrize("n", [1, 7, 8_193])
def test_sq_norms_blocks_equal_the_expression(n):
    # at D = 64 a default block holds 6,144 rows, so 8,193 rows take two
    x = np.random.default_rng(n).normal(size=(n, 64))
    assert cluster._sq_norms(x).tobytes() == np.sum(x * x, axis=1).tobytes()


@pytest.mark.parametrize(
    "n, k, dim, block_rows", [(7, 3, 4, 2), (1000, 50, 64, 300), (257, 1, 16, 257)]
)
def test_nearest_distances_in_blocks_equal_the_expression(monkeypatch, n, k, dim, block_rows):
    # k <= dim in each case, so a block holds block_rows rows
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, dim))
    c = rng.normal(size=(k, dim))
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * dim * block_rows)
    assign, d2 = cluster._nearest(x, cluster._sq_norms(x), c)
    diff = x - c[assign]
    expected = np.einsum("ij,ij->i", diff, diff)
    assert d2.tobytes() == expected.tobytes()


def test_kmeans_input_validation(tmp_path):
    rng = np.random.default_rng(4)
    docs = _docs(rng.normal(size=(5, 2)))
    with pytest.raises(ValueError):
        kmeans(docs, k=6, seed=0, max_iters=100, tol=1e-8)
    with pytest.raises(ValueError):
        kmeans(Embeddings(ids=(), matrix=np.empty((0, 2))), k=1, seed=0, max_iters=100, tol=1e-8)
    # vectors of mixed dimensions cannot form one matrix: the reader names the line
    mixed = tmp_path / "mixed.jsonl"
    write_embeddings(docs, mixed)
    with open(mixed, "a", encoding="utf-8") as f:
        f.write('{"doc_id": "odd", "vector": [0.0, 0.0, 0.0]}\n')
    with pytest.raises(RecordError, match="mixed.jsonl.*line 6"):
        read_embeddings(mixed)


def test_embeddings_reject_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="'x'"):
            Embeddings(ids=("w", "x"), matrix=np.array([[1.0, 0.0], [1.0, bad]]))


@pytest.mark.parametrize(
    "ids, matrix",
    [(("a",), np.ones(3)), (("a",), np.ones((1, 0))), (("a", "b"), np.ones((1, 3)))],
)
def test_embeddings_reject_bad_shapes(ids, matrix):
    with pytest.raises(ValueError):
        Embeddings(ids=ids, matrix=matrix)


def test_embeddings_matrix_is_a_read_only_copy():
    x = np.ones((2, 3))
    emb = Embeddings(ids=("a", "b"), matrix=x)
    x[0, 0] = 5.0
    assert emb.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        emb.matrix[0, 0] = 5.0


def test_embeddings_adopt_only_a_frozen_owned_float64_array():
    frozen = np.ones((2, 3))
    frozen.setflags(write=False)
    assert np.shares_memory(Embeddings(ids=("a", "b"), matrix=frozen).matrix, frozen)
    owner = np.ones((4, 3))
    view = owner[:2]
    view.setflags(write=False)
    single = np.ones((2, 3), dtype=np.float32)
    single.setflags(write=False)
    for other in (np.ones((2, 3)), view, single):
        matrix = Embeddings(ids=("a", "b"), matrix=other).matrix
        assert not np.shares_memory(matrix, other)
        assert matrix.dtype == np.float64 and not matrix.flags.writeable


def _draw_cases(count: int):
    """Seeded weight vectors: sizes 1 to 5,000, dense, mostly zero, and one nonzero entry."""
    rng = np.random.default_rng(2024)
    for case in range(count):
        n = int(rng.integers(1, 5001)) if case % 10 else int(rng.integers(1, 4))
        w = rng.random(n) ** 2
        kind = case % 3
        if kind == 1:
            w[rng.random(n) < 0.95] = 0.0
        elif kind == 2:
            w = np.zeros(n)
        w[rng.integers(n)] = float(rng.random()) + 1e-3
        yield case, w


def test_weighted_draw_equals_generator_choice():
    # A numpy release that changes Generator.choice fails this test instead of
    # letting the k-means++ seeding, and every artifact after it, drift.
    for case, w in _draw_cases(1200):
        total = w.sum()
        mine, theirs = np.random.default_rng(case), np.random.default_rng(case)
        cdf = np.empty(len(w))
        for _ in range(3):
            assert cluster._weighted_draw(w, total, mine, cdf) == theirs.choice(len(w), p=w / total)
        assert mine.bit_generator.state == theirs.bit_generator.state


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_kmeans_rejects_distances_that_overflow():
    x = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(ValueError, match="too large"):
        kmeans(_docs(x), k=2, seed=0, max_iters=100, tol=1e-8)


def test_cluster_artifact_over_many_blocks_is_pinned(tmp_path):
    # 6,000 docs at k=500 assign in several row blocks, by the assignment rule
    # from k-means‖ seeds
    docs = make_demo_corpus(6000, 5)
    embeddings = hash_embed(docs, dim=64, seed=5)
    model = kmeans(embeddings, k=500, seed=5, max_iters=3, tol=1e-8)
    path = tmp_path / "clusters.jsonl"
    write_clusters(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "10f8e592c53abeafba6ad83d62896f93f1a23da21f121fd27b9c59a24c7f0976"


def test_blocked_centroid_sums_are_np_add_at_bit_for_bit():
    # two full row blocks and part of a third; cluster 6 gets no row
    rows = cluster._block_rows(2 * 64)
    n = 2 * rows + 3617
    rng = np.random.default_rng(8)
    x = rng.standard_normal((n, 64)) * rng.uniform(1e-3, 1e3, (n, 1))
    assign = rng.integers(0, 6, n)
    want = np.zeros((7, 64))
    np.add.at(want, assign, x)
    got = cluster._centroid_sums(x, assign, 7)
    assert n > rows and n % rows != 0
    assert got.tobytes() == want.tobytes()
    # the rows of clusters 1 and 4 alone, in row order, give those clusters' sums
    some = np.flatnonzero((assign == 1) | (assign == 4))
    part = cluster._centroid_sums(x, assign, 7, some)
    assert part[[1, 4]].tobytes() == want[[1, 4]].tobytes()
    assert not part[[0, 2, 3, 5, 6]].any()


def test_kmeans_distances_are_each_rows_einsum_sum_to_the_objective_and_read_back(tmp_path):
    emb = hash_embed(make_demo_corpus(300, 2), dim=16, seed=2)
    model = kmeans(emb, k=7, seed=2, max_iters=10, tol=1e-8)
    assert model.ids is emb.ids
    for row, c, d in zip(emb.matrix, model.labels, model.distances):
        diff = (row - model.centroids[c])[None, :]
        assert d == np.einsum("ij,ij->i", diff, diff)[0]
    assert model.objective == float(model.distances.sum())
    path = tmp_path / "clusters.jsonl"
    write_clusters(model, path)
    back = read_clusters(path)
    assert back.ids == model.ids and back.objective == model.objective
    for name in ("centroids", "labels", "distances", "sizes"):
        got, want = getattr(back, name), getattr(model, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def _synthetic_model(sizes: list[int]) -> ClusterModel:
    k = len(sizes)
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)
    return ClusterModel(
        centroids=np.zeros((k, 2)),
        ids=tuple(f"d{i:05d}" for i in range(len(labels))),
        labels=labels,
        distances=np.zeros(len(labels)),
        objective=0.0,
    )


def test_quota_sample_exact_counts():
    rng = np.random.default_rng(5)
    sizes = [int(rng.integers(3, 30)) for _ in range(50)]
    model = _synthetic_model(sizes)
    ids = quota_sample(model, docs_per_cluster=10, seed=1)
    assert len(ids) == sum(min(10, s) for s in sizes)
    assert len(set(ids)) == len(ids)


def test_quota_sample_20k_clusters_yields_200k_ids():
    rng = np.random.default_rng(8)
    sizes = [int(rng.integers(10, 14)) for _ in range(20_000)]
    model = _synthetic_model(sizes)
    ids = quota_sample(model, docs_per_cluster=10, seed=2)
    assert len(ids) == 200_000
    assert len(set(ids)) == 200_000


def test_quota_sample_small_cluster_all_returned():
    model = _synthetic_model([3, 20])
    ids = quota_sample(model, docs_per_cluster=10, seed=0)
    labels = dict(zip(model.ids, model.labels.tolist()))
    cluster0 = [i for i in ids if labels[i] == 0]
    assert sorted(cluster0) == ["d00000", "d00001", "d00002"]


def test_quota_sample_one_per_cluster_distinct():
    model = _synthetic_model([5, 5, 5])
    ids = quota_sample(model, docs_per_cluster=1, seed=9)
    assert len(ids) == 3
    labels = dict(zip(model.ids, model.labels.tolist()))
    assert len({labels[i] for i in ids}) == 3


def test_quota_sample_deterministic():
    model = _synthetic_model([15, 25, 8])
    assert quota_sample(model, 10, seed=7) == quota_sample(model, 10, seed=7)


def test_cluster_stats_equal_sizes():
    model = _synthetic_model([6, 6, 6, 6])
    s = cluster_stats(model)
    assert s.mean_size == 6.0
    assert s.std_size == 0.0
    assert s.histogram == ((6.0, 6.0, 4),)


def test_cluster_stats_hand_computed():
    model = _synthetic_model([2, 4])
    s = cluster_stats(model)
    assert s.mean_size == 3.0
    assert s.std_size == 1.0  # population std of {2, 4}


def test_cluster_stats_mean_is_n_over_k():
    model = _synthetic_model([1, 2, 3, 4, 5])
    assert cluster_stats(model).mean_size == 15 / 5


def test_hash_embed_deterministic_and_normalized():
    docs = [
        Document(id="a", text="the cat sat on the mat"),
        Document(id="b", text="the cat sat on the mat"),
        Document(id="c", text="completely different words here"),
    ]
    embedded = hash_embed(docs, dim=64, seed=11).matrix
    np.testing.assert_array_equal(embedded[0], embedded[1])
    for vector in embedded:
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-9
    assert not np.array_equal(embedded[0], embedded[2])


def _hash_embed_reference(docs: list[Document], dim: int, seed: int) -> np.ndarray:
    """One blake2b per gram occurrence, no memo."""
    key = str(seed).encode("utf-8")
    rows = []
    for doc in docs:
        words = doc.text.lower().split()
        vec = np.zeros(dim)
        for gram in words + [f"{a} {b}" for a, b in zip(words, words[1:])]:
            h = int.from_bytes(
                hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest(), "big"
            )
            vec[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
        norm = float(np.linalg.norm(vec))
        rows.append(vec / norm if norm > 0.0 else vec)
    return np.stack(rows)


@pytest.mark.parametrize(
    "seed, block_docs", [(0, None), (11, None), (0, 2), (11, 2)],
    ids=["0", "11", "0-blocks-of-2", "11-blocks-of-2"],
)
def test_hash_embed_memo_matches_per_occurrence_hashing(monkeypatch, seed, block_docs):
    texts = [
        "the cat sat on the mat the cat sat",
        "the cat sat on the mat the cat sat",
        "Über straße naïve café über STRASSE 東京 東京",
        "a a a a a a a a a a",
        "the mat sat on the cat",
    ]
    docs = [Document(id=f"t{i}", text=t) for i, t in enumerate(texts)]
    # Document refuses an empty text; hash_embed reads only id and text
    docs.insert(3, SimpleNamespace(id="empty", text=""))
    if block_docs is not None:
        # two documents a block: the empty text closes the second of three
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * 16 * block_docs)
    got = hash_embed(docs, dim=16, seed=seed).matrix
    want = _hash_embed_reference(docs, dim=16, seed=seed)
    assert got.tobytes() == want.tobytes()


def test_hash_embed_memory_stays_near_one_n_by_d():
    n, dim = 40_000, 64
    docs = make_demo_corpus(n, 3)
    tracemalloc.start()
    try:
        hash_embed(docs, dim=dim, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the matrix itself is one N x D (20.5 MB); the hashed counts are built a
    # block of documents at a time, and `Embeddings` adopts the matrix uncopied
    assert peak < 1.5 * n * dim * 8


def test_hash_embed_dim_floor():
    with pytest.raises(ValueError):
        hash_embed([Document(id="a", text="hi there")], dim=4, seed=0)


def test_hash_embed_disjoint_vocabulary_near_orthogonal():
    # signed hashing puts sigma(cos) at 1/sqrt(dim) ~ 0.0625, so the check is
    # on the distribution over 1k pairs, not the single worst draw
    rng = np.random.default_rng(12)
    vocab_a = [f"left{i}" for i in range(500)]
    vocab_b = [f"right{i}" for i in range(500)]
    cosines = []
    for trial in range(1000):
        words_a = rng.choice(vocab_a, size=8)
        words_b = rng.choice(vocab_b, size=8)
        docs = [
            Document(id="a", text=" ".join(words_a)),
            Document(id="b", text=" ".join(words_b)),
        ]
        ea, eb = hash_embed(docs, dim=256, seed=13).matrix
        cosines.append(abs(float(ea @ eb)))
    assert float(np.mean(cosines)) <= 0.1
    assert float(np.quantile(cosines, 0.99)) <= 0.2


def test_embeddings_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    docs = _docs(rng.normal(size=(10, 8)))
    path = tmp_path / "emb.jsonl"
    write_embeddings(docs, path)
    back = read_embeddings(path)
    assert back.ids == docs.ids
    np.testing.assert_array_equal(back.matrix, docs.matrix)


# Prints the OpenBLAS thread count before `_nearest`, the count each of its
# kernel calls ran under, and its assignment of 20,000 demo documents to 500 of them.
_THREADS_CHILD = """
import json, sys
import numpy as np
from ecsynth import cluster, util
from ecsynth.demo import make_demo_corpus

setters = util._openblas_setters()

def active():
    counts = [set_local(1) for set_local in setters]
    for set_local, n in zip(setters, counts):
        set_local(n)
    return counts

during = []
assign = cluster._assign

def spy(*args, **kwargs):
    during.append(active())
    return assign(*args, **kwargs)

cluster._assign = spy
x = cluster.hash_embed(make_demo_corpus(20_000, 3), dim=64, seed=1).matrix
centroids = x[np.random.default_rng(0).choice(len(x), 500, replace=False)]
before = active()
assign, _ = cluster._nearest(x, cluster._sq_norms(x), centroids)
json.dump({"before": before, "during": during, "assign": assign.tolist()}, sys.stdout)
"""


def test_assignment_does_not_depend_on_openblas_threads():
    # Under 2 OpenBLAS threads an unpinned GEMM put 2 of these 20,000 rows in
    # another cluster than under 1, when the GEMM decided. OpenBLAS reads
    # OPENBLAS_NUM_THREADS when it loads, so each count runs in a fresh interpreter.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts at most one thread per core")
    src = str(Path(ecsynth.__file__).resolve().parents[1])
    got = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_CHILD],
            env=env, check=True, capture_output=True, text=True,
        )
        got[threads] = json.loads(proc.stdout)
        libraries = len(got[threads]["before"])
        if not libraries:
            pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
        assert got[threads]["before"] == [threads] * libraries
        assert got[threads]["during"] and all(c == [1] * libraries for c in got[threads]["during"])
    assert got[1]["assign"] == got[2]["assign"]


# Writes the clusters file of kmeans on the demo at the cluster seeds of runs
# 1234 and 101, and on 6,000 documents at k=500; prints each file's sha256 and
# the OpenBLAS core in use, as the loaded library names it.
_KERNEL_CHILD = """
import ctypes, hashlib, json, os, sys, tempfile
import numpy as np
from ecsynth import cluster, records
from ecsynth.demo import DATA_DIR, make_demo_corpus
from ecsynth.util import derive_seed

def corename():
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in ("openblas_get_corename", "openblas_get_corename64_",
                     "scipy_openblas_get_corename", "scipy_openblas_get_corename64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return ""

demo = records.read_corpus(DATA_DIR / "demo_corpus.jsonl")
runs = [(demo, 50, 50, derive_seed(run, "cluster")) for run in (1234, 101)]
runs.append((make_demo_corpus(6000, 5), 500, 3, 5))
digests = []
with tempfile.TemporaryDirectory() as tmp:
    for docs, k, iters, seed in runs:
        model = cluster.kmeans(cluster.hash_embed(docs, 64, seed), k, seed, iters, 1e-8)
        path = os.path.join(tmp, "clusters.jsonl")
        records.write_clusters(model, path)
        digests.append(hashlib.sha256(open(path, "rb").read()).hexdigest())
json.dump({"core": corename(), "digests": digests}, sys.stdout)
"""


def test_clusters_do_not_depend_on_the_openblas_kernels():
    # Before the assignment rule, the Sandybridge kernels moved the demo's
    # clusters at seed 1234 and the Haswell kernels the 6,000-document case.
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so each runs in a fresh interpreter.
    src = str(Path(ecsynth.__file__).resolve().parents[1])
    got = {}
    for core in ("", "Haswell", "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if core:
            env["OPENBLAS_CORETYPE"] = core
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _KERNEL_CHILD], env=env, check=True, capture_output=True, text=True,
        )
        got[core] = json.loads(proc.stdout)
        if core and got[core]["core"].lower() != core.lower():
            pytest.skip(f"OPENBLAS_CORETYPE={core} is not honoured here (core {got[core]['core']!r})")
    assert got["Haswell"]["digests"] == got[""]["digests"]
    assert got["Sandybridge"]["digests"] == got[""]["digests"]


def _three_block_input(monkeypatch) -> Embeddings:
    """3,000 docs, k=40, D=16, with blocks small enough that each per-core path has at least 3."""
    # a full `_assign` pass takes 6 blocks of 500 rows, and each seeding round at least 3
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * cluster._assign_width(40, 16, False) * 500)
    return hash_embed(make_demo_corpus(3000, 5), dim=16, seed=5)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_per_core_paths_equal_the_serial_path(monkeypatch, workers):
    x = _three_block_input(monkeypatch).matrix
    xx = cluster._sq_norms(x)
    interval = sys.getswitchinterval()
    # workers write disjoint rows of shared arrays; frequent thread switches
    # would expose a row written twice or not at all
    sys.setswitchinterval(1e-6)
    try:
        with util.one_blas_thread(), ThreadPoolExecutor(workers) as pool:
            serial_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
            seeds, candidates = cluster._kmeans_par_init(x, xx, 40, serial_rng)
            got, got_candidates = cluster._kmeans_par_init(x, xx, 40, rng, pool, workers)
            assert got.tobytes() == seeds.tobytes() and got_candidates == candidates
            assert rng.bit_generator.state == serial_rng.bit_generator.state
            assign, d2 = cluster._nearest(x, xx, seeds)
            got_assign, got_d2 = cluster._nearest(x, xx, seeds, pool, workers)
            assert got_assign.tobytes() == assign.tobytes()
            assert got_d2.tobytes() == d2.tobytes()
    finally:
        sys.setswitchinterval(interval)


class _CountingPool(ThreadPoolExecutor):
    """ThreadPoolExecutor that records the thread count of each instance."""

    made: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.made.append(max_workers)
        super().__init__(max_workers)


def _kmeans_on_cores(
    monkeypatch, emb: Embeddings, cores: int, tmp_path: Path
) -> tuple[ClusterModel, bytes]:
    """kmeans as on a machine with `cores` cores: its model and its clusters file's bytes.

    `_CountingPool.made` then holds the thread count of the pool it made, if any.
    """
    monkeypatch.setattr(cluster.os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(cluster, "ThreadPoolExecutor", _CountingPool)
    _CountingPool.made = []
    model = kmeans(emb, k=40, seed=5, max_iters=5, tol=1e-8)
    path = tmp_path / f"clusters-{cores}.jsonl"
    write_clusters(model, path)
    return model, path.read_bytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_kmeans_artifact_does_not_depend_on_the_core_count(monkeypatch, tmp_path, workers):
    if not util._openblas_setters():
        pytest.skip("without an OpenBLAS thread pin kmeans runs serially")
    emb = _three_block_input(monkeypatch)
    serial, serial_bytes = _kmeans_on_cores(monkeypatch, emb, 1, tmp_path)
    assert _CountingPool.made == []
    model, got = _kmeans_on_cores(monkeypatch, emb, workers, tmp_path)
    assert _CountingPool.made == [workers]
    assert got == serial_bytes
    assert model.objective_history == serial.objective_history
    assert verify_nearest_assignment(model, emb)


def test_kmeans_without_a_blas_pin_runs_serially(monkeypatch, tmp_path):
    emb = _three_block_input(monkeypatch)
    pinned, pinned_bytes = _kmeans_on_cores(monkeypatch, emb, 3, tmp_path)
    monkeypatch.setattr(util, "_openblas_setters", lambda: ())
    model, got = _kmeans_on_cores(monkeypatch, emb, 3, tmp_path)
    assert _CountingPool.made == []
    assert got == pinned_bytes
    assert model.objective_history == pinned.objective_history
