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
    # 10 distinct points, 5 copies each, k=12: after 10 seeds every distance is 0,
    # so k-means++ falls back to uniform draws, whose duplicate centroids lose
    # every tie and come out of the first assignment empty
    docs = _docs(np.repeat(np.eye(10), 5, axis=0))
    weighted = []
    draw = cluster._weighted_draw
    monkeypatch.setattr(cluster, "_weighted_draw", lambda *a, **kw: weighted.append(1) or draw(*a, **kw))
    model = kmeans(docs, k=12, seed=0, max_iters=50, tol=1e-8)
    assert len(weighted) == 9  # 11 draws after the first seed, 2 of them uniform
    assert model.objective == 0.0
    assert model.sizes.tolist() == [5] * 10 + [0, 0]
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
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * 5 * 300)
    blocked = kmeans(docs, k=5, seed=1, max_iters=20, tol=1e-8)
    assert blocked.ids == whole.ids
    np.testing.assert_array_equal(blocked.labels, whole.labels)
    np.testing.assert_array_equal(blocked.sizes, whole.sizes)
    assert blocked.objective_history == whole.objective_history
    assert verify_nearest_assignment(blocked, docs)


@pytest.mark.parametrize("n, k, dim", [(7, 3, 4), (1000, 50, 64), (257, 1, 16)])
def test_distances_in_place_equal_the_expression(n, k, dim):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, dim))
    c = rng.normal(size=(k, dim))
    xx = np.sum(x * x, axis=1)
    cc = np.sum(c * c, axis=1)
    expected = np.maximum(xx[:, None] - 2.0 * (x @ c.T) + cc[None, :], 0.0)
    assert cluster._distances(x, xx, c, cc).tobytes() == expected.tobytes()
    # a reused buffer, and a leading slice of a larger one as for a last partial block
    for buf in (np.full((n, k), np.nan), np.full((n + 5, k), np.nan)[:n]):
        got = cluster._distances(x, xx, c, cc, out=buf)
        assert got is buf
        assert got.tobytes() == expected.tobytes()


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
    # at D = 64 a default block holds 8,192 rows, so 8,193 rows take two
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
    # 6,000 docs at k=500 assign in six row blocks. The labels and centroids
    # are those of the per-document implementation (one vector object per
    # document, rng.choice seeding); the distances are each row's einsum
    docs = make_demo_corpus(6000, 5)
    embeddings = hash_embed(docs, dim=64, seed=5)
    model = kmeans(embeddings, k=500, seed=5, max_iters=3, tol=1e-8)
    path = tmp_path / "clusters.jsonl"
    write_clusters(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "629c8c5236a81ce89c6f7ea0afb449a3c5e8753365f99a8ebc05ad8987d71143"


def test_blocked_centroid_sums_are_np_add_at_bit_for_bit():
    # two full row blocks of 64 columns and part of a third; cluster 6 gets no row
    n = 2 * cluster._block_rows(64) + 3617
    rng = np.random.default_rng(8)
    x = rng.standard_normal((n, 64)) * rng.uniform(1e-3, 1e3, (n, 1))
    assign = rng.integers(0, 6, n)
    want = np.zeros((7, 64))
    np.add.at(want, assign, x)
    got = cluster._centroid_sums(x, assign, 7)
    assert n > 8192 and n % cluster._block_rows(64) != 0
    assert got.tobytes() == want.tobytes()


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
# GEMMs ran under, and its assignment of 20,000 demo documents to 500 of them.
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
distances = cluster._distances

def spy(*args, **kwargs):
    during.append(active())
    return distances(*args, **kwargs)

cluster._distances = spy
x = cluster.hash_embed(make_demo_corpus(20_000, 3), dim=64, seed=1).matrix
centroids = x[np.random.default_rng(0).choice(len(x), 500, replace=False)]
before = active()
assign, _ = cluster._nearest(x, cluster._sq_norms(x), centroids)
json.dump({"before": before, "during": during, "assign": assign.tolist()}, sys.stdout)
"""


def test_assignment_does_not_depend_on_openblas_threads():
    # Under 2 OpenBLAS threads an unpinned GEMM puts 2 of these 20,000 rows
    # in another cluster than under 1. OpenBLAS reads OPENBLAS_NUM_THREADS when
    # it loads, so each count runs in a fresh interpreter.
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


@pytest.mark.parametrize("n", [2_000, 50_000])
def test_seeding_gemv_blocks_equal_one_call(n):
    # seeding takes each pick's GEMV in `_block_rows(D)`-row blocks; every row
    # must get the bits of one whole-array call, as before blocking
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 64))
    c = rng.normal(size=(1, 64))
    with util.one_blas_thread():
        whole = (x @ c.T).tobytes()
        for rows in (64, 1_000, cluster._block_rows(64)):
            assert np.concatenate([x[lo : lo + rows] @ c.T for lo in range(0, n, rows)]).tobytes() == whole


def _three_block_input(monkeypatch) -> Embeddings:
    """3,000 docs, k=40, D=16, with blocks small enough that each per-core path has at least 3."""
    # `_nearest` takes 6 blocks of 500 rows, and seeding 3 of at most 1,250
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * 40 * 500)
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
            seeds = cluster._kmeans_pp_init(x, xx, 40, serial_rng)
            got = cluster._kmeans_pp_init(x, xx, 40, rng, pool, workers)
            assert got.tobytes() == seeds.tobytes()
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
