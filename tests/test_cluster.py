from __future__ import annotations

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ecsynth import cluster
from ecsynth.cluster import cluster_stats, hash_embed, kmeans, quota_sample, verify_nearest_assignment
from ecsynth.demo import make_demo_corpus
from ecsynth.records import (
    ClusterModel,
    Document,
    Embeddings,
    RecordError,
    read_embeddings,
    write_clusters,
    write_embeddings,
)


def _docs(x: np.ndarray) -> Embeddings:
    return Embeddings(ids=tuple(f"d{i:04d}" for i in range(len(x))), matrix=x)


def test_kmeans_one_point_per_cluster():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 4))
    model = kmeans(_docs(x), k=12, seed=0)
    assert model.objective == 0.0
    assert sorted(model.assignments.values()) == list(range(12))


def test_kmeans_two_blobs():
    rng = np.random.default_rng(1)
    blob_a = rng.normal(loc=(-5.0, 0.0), scale=0.3, size=(40, 2))
    blob_b = rng.normal(loc=(5.0, 0.0), scale=0.3, size=(40, 2))
    docs = _docs(np.vstack([blob_a, blob_b]))
    model = kmeans(docs, k=2, seed=3)
    labels = [model.assignments[i] for i in docs.ids]
    assert len(set(labels[:40])) == 1
    assert len(set(labels[40:])) == 1
    assert labels[0] != labels[40]
    # brute-force nearest-centroid oracle
    for doc_id, vector in zip(docs.ids, docs.matrix):
        dists = [float(np.sum((vector - c) ** 2)) for c in model.centroids]
        assert model.assignments[doc_id] == int(np.argmin(dists))


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    docs = _docs(rng.normal(size=(60, 5)))
    a = kmeans(docs, k=7, seed=42)
    b = kmeans(docs, k=7, seed=42)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.assignments == b.assignments
    assert a.objective == b.objective
    assert a.objective_history == b.objective_history


def test_kmeans_objective_monotone_and_fixed_point():
    rng = np.random.default_rng(3)
    for trial in range(5):
        docs = _docs(rng.normal(size=(80, 3)))
        model = kmeans(docs, k=6, seed=trial, max_iters=50)
        diffs = np.diff(model.objective_history)
        assert (diffs <= 1e-9).all()
        assert verify_nearest_assignment(model, docs)
        assert int(model.sizes.sum()) == 80


def test_kmeans_blocked_assignment_matches_one_block(monkeypatch):
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=10.0, size=(5, 8))
    x = np.vstack([rng.normal(loc=c, scale=0.5, size=(200, 8)) for c in centers])
    docs = _docs(x)
    whole = kmeans(docs, k=5, seed=1, max_iters=20)
    # 300-row blocks: 1,000 points span three full blocks and a partial one
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * 5 * 300)
    blocked = kmeans(docs, k=5, seed=1, max_iters=20)
    assert blocked.assignments == whole.assignments
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
        kmeans(docs, k=k, seed=0, max_iters=2)
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
        kmeans(docs, k=8, seed=0, max_iters=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one N x D float64 matrix is 19.5 MB; kmeans reads the embeddings' matrix
    # in place, and the blocked objective builds no second or third
    assert peak < 2.5 * n * dim * 8


@pytest.mark.parametrize(
    "n, k, dim, block_rows", [(7, 3, 4, 2), (1000, 50, 64, 300), (257, 1, 16, 257)]
)
def test_point_d2_blocks_equal_the_expression(monkeypatch, n, k, dim, block_rows):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, dim))
    c = rng.normal(size=(k, dim))
    assign = rng.integers(k, size=n)
    diff = x - c[assign]
    expected = np.einsum("ij,ij->i", diff, diff)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 8 * dim * block_rows)
    assert cluster._point_d2(x, c, assign).tobytes() == expected.tobytes()


def test_kmeans_input_validation(tmp_path):
    rng = np.random.default_rng(4)
    docs = _docs(rng.normal(size=(5, 2)))
    with pytest.raises(ValueError):
        kmeans(docs, k=6, seed=0)
    with pytest.raises(ValueError):
        kmeans(Embeddings(ids=(), matrix=np.empty((0, 2))), k=1, seed=0)
    # vectors of mixed dimensions cannot form one matrix: the reader names the line
    mixed = tmp_path / "mixed.jsonl"
    write_embeddings(docs, mixed)
    with open(mixed, "a", encoding="utf-8") as f:
        f.write('{"doc_id": "odd", "vector": [0.0, 0.0, 0.0]}\n')
    with pytest.raises(RecordError, match="mixed.jsonl.*line 6"):
        read_embeddings(mixed)


def test_embeddings_reject_nonfinite():
    with pytest.raises(ValueError, match="'x'"):
        Embeddings(ids=("w", "x"), matrix=np.array([[1.0, 0.0], [1.0, np.nan]]))


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
        kmeans(_docs(x), k=2, seed=0)


def test_cluster_artifact_over_many_blocks_is_pinned(tmp_path):
    # 6,000 docs at k=500 assign in six row blocks; the hash was taken from
    # the per-document implementation (one vector object per document,
    # rng.choice seeding, a per-row d @ d distance)
    docs = make_demo_corpus(6000, 5)
    embeddings = hash_embed(docs, dim=64, seed=5)
    model = kmeans(embeddings, k=500, seed=5, max_iters=3)
    path = tmp_path / "clusters.jsonl"
    write_clusters(model, path, embeddings)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "59e2e8cc6392e4555f6d1825ec36bb5d1319cd352df2cbf8607d4c8eddd95d7f"


def _synthetic_model(sizes: list[int]) -> ClusterModel:
    k = len(sizes)
    assignments = {}
    i = 0
    for c, size in enumerate(sizes):
        for _ in range(size):
            assignments[f"d{i:05d}"] = c
            i += 1
    return ClusterModel(
        centroids=np.zeros((k, 2)),
        assignments=assignments,
        sizes=np.array(sizes, dtype=np.int64),
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
    cluster0 = [i for i in ids if model.assignments[i] == 0]
    assert sorted(cluster0) == ["d00000", "d00001", "d00002"]


def test_quota_sample_one_per_cluster_distinct():
    model = _synthetic_model([5, 5, 5])
    ids = quota_sample(model, docs_per_cluster=1, seed=9)
    assert len(ids) == 3
    assert len({model.assignments[i] for i in ids}) == 3


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


@pytest.mark.parametrize("seed", [0, 11])
def test_hash_embed_memo_matches_per_occurrence_hashing(seed):
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
    got = hash_embed(docs, dim=16, seed=seed).matrix
    want = _hash_embed_reference(docs, dim=16, seed=seed)
    assert got.tobytes() == want.tobytes()


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
