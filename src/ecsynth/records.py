"""Every record type, and every reader and writer of the pipeline's files.

Corpora, error-correction datasets, per-sample scores, weights, embeddings,
keyboard layouts and one model's ranked outputs are stored as one JSON
object per line. An eval-matrix file is one JSON header line (model_ids,
sample_ids, metric_names) followed by one 0/1 measurement row per model and
then one live-metric row per model. A clusters file is one JSON header line
(k, objective, sizes, centroids) followed by one {doc_id, cluster, distance}
line per document; its reader checks the header's sizes against those lines.
Reports, manifests and run logs are one JSON document or plain text. No
other module knows a record format.

Embeddings are read and passed on as one `Embeddings`: a tuple of ids and
one read-only N x D matrix, never one object per document.

Text fields are NFC-normalized when a record is constructed, so downstream
equality checks are plain byte comparisons and read(write(x)) == x holds for
every constructible record. Records are immutable and safe to share across
threads.

Every writer replaces its file atomically: it writes a sibling temp file and
renames it over the path, so a write that fails leaves the old file (or no
file) and no temp file behind.

Inside `record_cache()`, which `cli.run_pipeline` opens for one run, a reader
parses each file at most once: an entry is keyed by (reader, resolved path,
sha256 of the file's bytes), so a file changed on disk is parsed again, and a
writer stores the records it wrote, so the next stage parses nothing. Readers
return fresh lists and dicts of the shared immutable records. The cache lasts
until the block exits; outside it every read parses its file.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .util import file_sha256, nfc

PROVENANCES = frozenset({"original", "synthetic", "synthetic_filtered"})

ERROR_CATEGORIES = frozenset(
    {
        "verb",
        "missing_word",
        "plural",
        "capitalization",
        "word_order",
        "article",
        "preposition",
        "spelling",
        "other",
    }
)


class RecordError(ValueError):
    """Malformed record, duplicate id, or invalid field value."""


@dataclass(frozen=True)
class Document:
    """One unit of clean text: a sentence or a short user utterance."""

    id: str
    text: str
    source_tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", nfc(self.text))
        if not self.id:
            raise RecordError("document id must be non-empty")
        if not self.text.strip():
            raise RecordError(f"document {self.id!r}: text is empty")


@dataclass(frozen=True)
class ErrorAnnotation:
    """One injected grammar error: its category and a free-text description."""

    category: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.category not in ERROR_CATEGORIES:
            raise RecordError(f"unknown error category {self.category!r}")
        object.__setattr__(self, "description", nfc(self.description))


@dataclass(frozen=True)
class ECExample:
    """A (corrupted source, clean target) pair with optional sample weight."""

    id: str
    source: str
    target: str
    provenance: str = "synthetic"
    weight: float | None = None
    error_annotations: tuple[ErrorAnnotation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", nfc(self.source))
        object.__setattr__(self, "target", nfc(self.target))
        object.__setattr__(self, "error_annotations", tuple(self.error_annotations))
        if not self.id:
            raise RecordError("example id must be non-empty")
        if not self.source:
            raise RecordError(f"example {self.id!r}: source is empty")
        if not self.target:
            raise RecordError(f"example {self.id!r}: target is empty")
        if self.provenance not in PROVENANCES:
            raise RecordError(f"example {self.id!r}: unknown provenance {self.provenance!r}")
        if self.weight is not None and not (self.weight > 0):
            raise RecordError(f"example {self.id!r}: weight must be > 0, got {self.weight}")

    def with_weight(self, weight: float) -> ECExample:
        return replace(self, weight=float(weight))


@dataclass(frozen=True)
class ScoredSample:
    """Average log-likelihood scores of one target sentence under two scorers."""

    sample_id: str
    s_p: float
    s_f: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.s_p) or not np.isfinite(self.s_f):
            raise RecordError(f"sample {self.sample_id!r}: scores must be finite")


@dataclass(frozen=True)
class EvalMatrix:
    """Per-(model, sample) binary measurements plus per-model live metrics.

    chi has shape (K, N) with entries in {0, 1}; live_metrics has shape (K, d).
    Arrays are copied and frozen at construction.
    """

    model_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    chi: np.ndarray
    live_metrics: np.ndarray
    metric_names: tuple[str, ...]

    def __post_init__(self) -> None:
        model_ids = tuple(self.model_ids)
        sample_ids = tuple(self.sample_ids)
        metric_names = tuple(self.metric_names)
        chi = np.asarray(self.chi, dtype=np.float64).copy()
        live = np.asarray(self.live_metrics, dtype=np.float64).copy()
        if len(set(model_ids)) != len(model_ids):
            raise RecordError("duplicate model ids")
        if len(set(sample_ids)) != len(sample_ids):
            raise RecordError("duplicate sample ids")
        if len(metric_names) < 1:
            raise RecordError("at least one metric is required")
        if chi.shape != (len(model_ids), len(sample_ids)):
            raise RecordError(f"chi shape {chi.shape} does not match ids")
        if live.shape != (len(model_ids), len(metric_names)):
            raise RecordError(f"live_metrics shape {live.shape} does not match ids")
        if not np.isin(chi, (0.0, 1.0)).all():
            bad = chi[~np.isin(chi, (0.0, 1.0))][0]
            raise RecordError(f"chi entries must be 0 or 1, found {bad}")
        if not np.isfinite(live).all():
            raise RecordError("live metrics must be finite")
        chi.setflags(write=False)
        live.setflags(write=False)
        object.__setattr__(self, "model_ids", model_ids)
        object.__setattr__(self, "sample_ids", sample_ids)
        object.__setattr__(self, "metric_names", metric_names)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "live_metrics", live)

    @property
    def n_models(self) -> int:
        return len(self.model_ids)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def n_metrics(self) -> int:
        return len(self.metric_names)

    def without_model(self, index: int) -> EvalMatrix:
        """Copy of the matrix with one model row removed (for held-one-out CV)."""
        keep = [j for j in range(self.n_models) if j != index]
        return EvalMatrix(
            model_ids=tuple(self.model_ids[j] for j in keep),
            sample_ids=self.sample_ids,
            chi=self.chi[keep],
            live_metrics=self.live_metrics[keep],
            metric_names=self.metric_names,
        )


@dataclass(frozen=True)
class Embeddings:
    """One vector per document: row i of `matrix` embeds document `ids[i]`.

    The matrix is a read-only float64 copy of shape (N, D) with D >= 1 and
    only finite entries.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        matrix = np.array(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"embeddings: need an N x D matrix with D >= 1, got shape {matrix.shape}")
        if len(ids) != matrix.shape[0]:
            raise ValueError(f"embeddings: {len(ids)} ids for {matrix.shape[0]} vectors")
        if not np.isfinite(matrix).all():
            row = int(np.argmin(np.isfinite(matrix).all(axis=1)))
            raise ValueError(f"embeddings: vector of doc {ids[row]!r} has NaN/Inf entries")
        matrix.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ClusterModel:
    """Fitted k-means state: every doc is assigned to its nearest centroid."""

    centroids: np.ndarray          # (k, D)
    assignments: dict[str, int]    # doc_id -> cluster index
    sizes: np.ndarray              # (k,) int64
    objective: float               # sum of squared distances
    objective_history: tuple[float, ...] = ()  # objective after each assignment pass

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class ModelOutputs:
    """Ranked candidate corrections per sample for one model."""

    model_id: str
    candidates: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        normalized = {}
        for sid, cands in self.candidates.items():
            cands = tuple(nfc(c) for c in cands)
            if not cands:
                raise ValueError(f"model {self.model_id!r}: empty candidate list for {sid!r}")
            normalized[sid] = cands
        object.__setattr__(self, "candidates", normalized)


T = TypeVar("T")


def by_id(ids: Sequence[str], table: Mapping[str, T], what: str) -> list[T]:
    """`table[i]` for each id in order; a ValueError names up to five ids the table lacks."""
    missing = [i for i in ids if i not in table]
    if missing:
        raise ValueError(f"{what} missing for ids: {missing[:5]}")
    return [table[i] for i in ids]


# -- line-delimited I/O --


def _read_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise RecordError(f"{path}: malformed record on line {lineno}: {e}") from e
            if not isinstance(obj, dict):
                raise RecordError(f"{path}: malformed record on line {lineno}: not an object")
            yield lineno, obj


def _parse_records(
    path: str | Path, what: str, build: Callable[[dict], T],
    key: Callable[[T], str] | None = None,
) -> tuple[T, ...]:
    """One record per line, in file order.

    A line `build` rejects, or (when `key` is given) a repeated key, is a
    RecordError naming the file and the line.
    """
    out: list[T] = []
    seen: set[str] = set()
    for lineno, obj in _read_lines(path):
        try:
            rec = build(obj)
        except (KeyError, TypeError, ValueError) as e:
            raise RecordError(f"{path}: invalid {what} on line {lineno}: {e}") from e
        if key is not None:
            k = key(rec)
            if k in seen:
                raise RecordError(f"{path}: duplicate {what} id {k!r} on line {lineno}")
            seen.add(k)
        out.append(rec)
    return tuple(out)


def _read_records(
    reader: str, path: str | Path, what: str, build: Callable[[dict], T],
    key: Callable[[T], str] | None = None,
) -> list[T]:
    """`_parse_records` through the run cache: a fresh list of the cached records."""
    return list(_cached(reader, path, lambda: _parse_records(path, what, build, key)))


def _write(path: str | Path, chunks: Iterable[str]) -> None:
    """The one file writer: `path` holds all of `chunks` or keeps what it held.

    The chunks go to the sibling `.<name>.tmp`, created as any file is (its
    mode follows the umask), which is then renamed over `path`. On any error
    the temp file is removed and the error raised.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_dump = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _write_records(path: str | Path, objs: Iterable[dict]) -> None:
    _write(path, (_dump(obj) + "\n" for obj in objs))


def write_json(obj: object, path: str | Path) -> None:
    """One JSON document: indented, keys sorted, ending in a newline."""
    _write(path, (json.dumps(obj, indent=2, sort_keys=True), "\n"))


def write_text(text: str, path: str | Path) -> None:
    _write(path, (text,))


# -- run-scoped record cache --

# (reader, resolved path, sha256 of the file) -> what the reader builds from that
# file; None outside `record_cache()`. A context variable, so runs in two threads
# keep two caches.
_cache: contextvars.ContextVar[dict[tuple[str, Path, str], object] | None] = (
    contextvars.ContextVar("record_cache", default=None)
)


@contextlib.contextmanager
def record_cache() -> Iterator[None]:
    """Within the block, each reader parses a given file content at most once.

    A nested block shares the cache that is already open.
    """
    if _cache.get() is not None:
        yield
        return
    token = _cache.set({})
    try:
        yield
    finally:
        _cache.reset(token)


def _cached(reader: str, path: str | Path, parse: Callable[[], T]) -> T:
    """parse(), or the value stored for the reader and the file's current content.

    `reader` is the name of the public reader, so two readers of one file
    keep separate entries.
    """
    cache = _cache.get()
    if cache is None:
        return parse()
    key = (reader, Path(path).resolve(), file_sha256(path))
    if key not in cache:
        cache[key] = parse()
    return cache[key]  # type: ignore[return-value]


def _store(reader: str, path: str | Path, value: object) -> None:
    """Write-through: `value` is what `reader` builds from the file just written."""
    cache = _cache.get()
    if cache is not None:
        cache[(reader, Path(path).resolve(), file_sha256(path))] = value


# What a writer checks before it stores its records: a reader rejects a
# repeated id, and it reads a number back as a builtin type, so a float
# subclass such as numpy.float64 would not equal a fresh parse in type.


def _unique(ids: Iterable[str]) -> bool:
    ids = list(ids)
    return len(set(ids)) == len(ids)


def _floats(values: Iterable[object]) -> bool:
    return all(type(v) is float for v in values)


def read_corpus(path: str | Path) -> list[Document]:
    """Read a corpus file; ids are verified unique, file order is preserved."""
    return _read_records(
        "read_corpus",
        path,
        "document",
        lambda obj: Document(id=obj["id"], text=obj["text"], source_tag=obj.get("source_tag", "")),
        key=lambda doc: doc.id,
    )


def write_corpus(docs: Sequence[Document], path: str | Path) -> None:
    _write_records(path, ({"id": d.id, "text": d.text, "source_tag": d.source_tag} for d in docs))
    if _cache.get() is not None and _unique(d.id for d in docs):
        _store("read_corpus", path, tuple(docs))


def _example_to_obj(ex: ECExample) -> dict:
    obj: dict = {"id": ex.id, "source": ex.source, "target": ex.target}
    if ex.weight is not None:
        obj["weight"] = ex.weight
    obj["provenance"] = ex.provenance
    obj["error_annotations"] = [
        {"category": a.category, "description": a.description} for a in ex.error_annotations
    ]
    return obj


def _example_from_obj(obj: dict) -> ECExample:
    return ECExample(
        id=obj["id"],
        source=obj["source"],
        target=obj["target"],
        provenance=obj.get("provenance", "synthetic"),
        weight=obj.get("weight"),
        error_annotations=tuple(
            ErrorAnnotation(category=a["category"], description=a.get("description", ""))
            for a in obj.get("error_annotations", ())
        ),
    )


def read_ec_dataset(path: str | Path) -> list[ECExample]:
    """Read an EC dataset. Repeated ids are allowed: mixed datasets oversample."""
    return _read_records("read_ec_dataset", path, "example", _example_from_obj)


def write_ec_dataset(examples: Sequence[ECExample], path: str | Path) -> None:
    _write_records(path, map(_example_to_obj, examples))
    if _cache.get() is not None and all(
        ex.weight is None or type(ex.weight) in (bool, int, float) for ex in examples
    ):
        _store("read_ec_dataset", path, tuple(examples))


def read_scores(path: str | Path) -> list[ScoredSample]:
    return _read_records(
        "read_scores",
        path,
        "sample",
        lambda obj: ScoredSample(obj["sample_id"], s_p=float(obj["s_p"]), s_f=float(obj["s_f"])),
        key=lambda s: s.sample_id,
    )


def write_scores(scores: Sequence[ScoredSample], path: str | Path) -> None:
    _write_records(path, ({"sample_id": s.sample_id, "s_p": s.s_p, "s_f": s.s_f} for s in scores))
    if (
        _cache.get() is not None
        and _unique(s.sample_id for s in scores)
        and _floats(v for s in scores for v in (s.s_p, s.s_f))
    ):
        _store("read_scores", path, tuple(scores))


def read_weights(path: str | Path) -> dict[str, float]:
    return dict(
        _read_records(
            "read_weights",
            path,
            "sample",
            lambda obj: (obj["sample_id"], float(obj["weight"])),
            key=lambda r: r[0],
        )
    )


def write_weights(weights: dict[str, float], path: str | Path) -> None:
    _write_records(path, ({"sample_id": sid, "weight": w} for sid, w in weights.items()))
    if _cache.get() is not None and _floats(weights.values()):
        _store("read_weights", path, tuple(weights.items()))


def read_eval_matrix(path: str | Path) -> EvalMatrix:
    """Read header + K chi rows + K live-metric rows; rejects chi entries outside {0,1}."""
    return _cached("read_eval_matrix", path, lambda: _parse_eval_matrix(path))


def _parse_eval_matrix(path: str | Path) -> EvalMatrix:
    rows = list(_read_lines(path))
    if not rows:
        raise RecordError(f"{path}: empty eval-matrix file")
    _, header = rows[0]
    try:
        model_ids = tuple(header["model_ids"])
        sample_ids = tuple(header["sample_ids"])
        metric_names = tuple(header["metric_names"])
    except (KeyError, TypeError) as e:
        raise RecordError(f"{path}: invalid header: {e}") from e
    k = len(model_ids)
    if len(rows) != 1 + 2 * k:
        raise RecordError(f"{path}: expected {1 + 2 * k} lines for {k} models, got {len(rows)}")
    chi_rows, live_rows = [], []
    for j in range(k):
        lineno, obj = rows[1 + j]
        if obj.get("model_id") != model_ids[j] or "chi" not in obj:
            raise RecordError(f"{path}: line {lineno}: expected chi row for {model_ids[j]!r}")
        chi_rows.append(obj["chi"])
    for j in range(k):
        lineno, obj = rows[1 + k + j]
        if obj.get("model_id") != model_ids[j] or "live" not in obj:
            raise RecordError(f"{path}: line {lineno}: expected live-metric row for {model_ids[j]!r}")
        live_rows.append(obj["live"])
    try:
        return EvalMatrix(
            model_ids=model_ids,
            sample_ids=sample_ids,
            chi=np.array(chi_rows, dtype=np.float64),
            live_metrics=np.array(live_rows, dtype=np.float64),
            metric_names=metric_names,
        )
    except (ValueError, RecordError) as e:
        raise RecordError(f"{path}: {e}") from e


def write_eval_matrix(matrix: EvalMatrix, path: str | Path) -> None:
    header = {
        "model_ids": list(matrix.model_ids),
        "sample_ids": list(matrix.sample_ids),
        "metric_names": list(matrix.metric_names),
    }
    ids = matrix.model_ids
    chi = ({"model_id": m, "chi": [int(x) for x in row]} for m, row in zip(ids, matrix.chi))
    live = (
        {"model_id": m, "live": [float(x) for x in row]} for m, row in zip(ids, matrix.live_metrics)
    )
    _write_records(path, itertools.chain([header], chi, live))
    _store("read_eval_matrix", path, matrix)


def read_clusters(path: str | Path) -> ClusterModel:
    """Read a clusters file: header line, then one assignment line per document."""
    return _fresh_clusters(_cached("read_clusters", path, lambda: _parse_clusters(path)))


def _fresh_clusters(model: ClusterModel) -> ClusterModel:
    """The model as `read_clusters` builds it from the model's file.

    New arrays and a new dict, the file's number types, no objective history.
    """
    return ClusterModel(
        centroids=np.array(model.centroids, dtype=np.float64),
        assignments={doc_id: int(c) for doc_id, c in model.assignments.items()},
        sizes=np.array(model.sizes, dtype=np.int64),
        objective=float(model.objective),
    )


def _parse_clusters(path: str | Path) -> ClusterModel:
    rows = _read_lines(path)
    header_line, header = next(rows, (1, {}))  # an empty file fails as a header without keys
    try:
        centroids = np.array(header["centroids"], dtype=np.float64)
        k = len(centroids)
        sizes = np.array(header["sizes"], dtype=np.int64)
        objective = float(header["objective"])
        if sizes.shape != (k,):
            raise ValueError(f"{sizes.size} sizes for {k} centroids")
    except (KeyError, TypeError, ValueError) as e:
        raise RecordError(f"{path}: invalid clusters header on line {header_line}: {e}") from e
    assignments: dict[str, int] = {}
    counts = [0] * k
    for lineno, obj in rows:
        try:
            doc_id, cluster = obj["doc_id"], int(obj["cluster"])
            if not 0 <= cluster < k:
                raise ValueError(f"cluster {cluster} is outside [0, {k})")
            if doc_id in assignments:
                raise ValueError(f"duplicate doc id {doc_id!r}")
        except (KeyError, TypeError, ValueError) as e:
            raise RecordError(f"{path}: invalid assignment on line {lineno}: {e}") from e
        assignments[doc_id] = cluster
        counts[cluster] += 1
    if counts != sizes.tolist():
        raise RecordError(
            f"{path}: clusters header on line {header_line} gives sizes {sizes.tolist()}, "
            f"but the assignment lines count {counts}"
        )
    return ClusterModel(centroids=centroids, assignments=assignments, sizes=sizes, objective=objective)


# Byte budget of one row block of differences in `write_clusters`.
_DIFF_BLOCK_BYTES = 4 << 20


def write_clusters(model: ClusterModel, path: str | Path, embeddings: Embeddings) -> None:
    """Write the clusters file: the header, then one line per embedded document in order.

    Each line carries the document's squared distance to its centroid. The
    model must assign exactly the embedded documents.
    """
    ids, x = embeddings.ids, embeddings.matrix
    if len(model.assignments) != len(ids):
        raise ValueError(f"write_clusters: {len(model.assignments)} assignments for {len(ids)} documents")
    assign = np.array(by_id(ids, model.assignments, "cluster assignments"), dtype=np.int64)
    header = {
        "k": model.k,
        "objective": model.objective,
        "sizes": [int(s) for s in model.sizes],
        "centroids": [[float(v) for v in c] for c in model.centroids],
    }
    # Each distance is one row's dot product (a stacked 1 x D by D x 1 matmul):
    # bitwise equal to float(d @ d) in any block size, which einsum is not.
    dist = np.empty(len(ids))
    rows = max(1, _DIFF_BLOCK_BYTES // (8 * x.shape[1]))
    for lo in range(0, len(ids), rows):
        block = slice(lo, lo + rows)
        diff = x[block] - model.centroids[assign[block]]
        dist[block] = np.matmul(diff[:, None, :], diff[:, :, None]).ravel()
    lines = (
        {"doc_id": i, "cluster": c, "distance": d}
        for i, c, d in zip(ids, assign.tolist(), dist.tolist())
    )
    _write_records(path, itertools.chain([header], lines))
    if _cache.get() is not None:
        _store("read_clusters", path, _fresh_clusters(model))


def read_embeddings(path: str | Path) -> Embeddings:
    """Read an embeddings file, one {doc_id, vector} line per document, as one matrix.

    Ids must be unique and every vector must have the first one's length.
    """
    return _cached("read_embeddings", path, lambda: _parse_embeddings(path))


def _parse_embeddings(path: str | Path) -> Embeddings:
    width: list[int] = []  # the first vector's length

    def build(obj: dict) -> tuple[str, np.ndarray]:
        vector = np.array(obj["vector"], dtype=np.float64)
        if vector.ndim != 1 or vector.size < 1:
            raise ValueError("vector must be 1-D and non-empty")
        if not width:
            width.append(vector.size)
        elif vector.size != width[0]:
            raise ValueError(f"vector has {vector.size} entries, the first has {width[0]}")
        return obj["doc_id"], vector

    docs = _parse_records(path, "doc", build, key=lambda doc: doc[0])
    if not docs:
        raise RecordError(f"{path}: no embeddings")
    try:
        return Embeddings(ids=tuple(i for i, _ in docs), matrix=[v for _, v in docs])
    except ValueError as e:
        raise RecordError(f"{path}: {e}") from e


def write_embeddings(embeddings: Embeddings, path: str | Path) -> None:
    rows = zip(embeddings.ids, embeddings.matrix.tolist())
    _write_records(path, ({"doc_id": i, "vector": v} for i, v in rows))


def read_outputs(path: str | Path) -> ModelOutputs:
    """One model's outputs ({sample_id, candidates[]} per line); the model id is the file stem."""
    rows = _read_records(
        "read_outputs",
        path,
        "sample",
        lambda obj: (obj["sample_id"], tuple(obj["candidates"])),
        key=lambda r: r[0],
    )
    return ModelOutputs(model_id=Path(path).stem, candidates=dict(rows))


def write_outputs(outputs: ModelOutputs, path: str | Path) -> None:
    rows = outputs.candidates.items()
    _write_records(path, ({"sample_id": sid, "candidates": list(c)} for sid, c in rows))
    _store("read_outputs", path, tuple(rows))


def read_layout(path: str | Path) -> dict[str, frozenset[str]]:
    """Keyboard layout file: one JSON record {char, neighbors[]} per line."""
    return dict(
        _read_records(
            "read_layout",
            path,
            "layout entry",
            lambda obj: (obj["char"], frozenset(obj["neighbors"])),
            key=lambda entry: entry[0],
        )
    )
