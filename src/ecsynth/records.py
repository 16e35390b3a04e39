"""Every record type, and every reader and writer of the pipeline's files.

Corpora, error-correction datasets, per-sample scores, weights, embeddings,
keyboard layouts and one model's ranked outputs are stored as one JSON
object per line. An eval-matrix file is one JSON header line (model_ids,
sample_ids, metric_names) followed by one 0/1 measurement row per model and
then one live-metric row per model. A clusters file is one JSON header line
(k, objective, sizes, centroids) followed by one {doc_id, cluster, distance}
line per document; its reader checks the header's k and sizes against the
centroids and those lines.
Reports, manifests and run logs are one JSON document or plain text. No
other module knows a record format.

Embeddings are read and passed on as one `Embeddings`: a tuple of ids and
one read-only N x D matrix, never one object per document. A `ClusterModel`
is columns too: ids, labels and distances. A keyboard layout is read as one
`KeyboardModel`, named by its path, whose constructor holds the rules of the
whole file: the adjacency is symmetric and no key neighbors itself.

A reader rejects a malformed line with a RecordError that names the file and
the line. A number in a file is a JSON int or float, not a bool, that is
finite as a float64. `_number` and `_numbers` hold that rule, and no reader
lets numpy convert a parsed value, which would read "1" and true as 1.0.

A record's constructor applies its reader's rules and NFC-normalizes its text
fields, and `write_corpus` and `write_scores` refuse the repeated id their
readers reject. So read(write(x)) == x holds for every record a writer takes,
and equality checks are plain byte comparisons. Records are immutable and
safe to share across threads.

Every writer takes (value, path) and only formats the value. It replaces its
file atomically: it writes a sibling temp file and renames it over the path,
so a write that fails leaves the old file (or no file) and no temp file behind.

A reader parses its file on every call. Only `cli`'s stage runner reads and
writes stage files; within one pipeline run it reads each file once and
hands the records on from stage to stage.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .util import nfc

_MATRIX_NAMES = ("model_ids", "sample_ids", "metric_names")  # an eval-matrix header's keys, in order

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
        if not isinstance(self.id, str) or not self.id:
            raise RecordError(f"document id must be a non-empty string, got {self.id!r}")
        object.__setattr__(self, "text", nfc(self.text))
        if not self.text.strip():
            raise RecordError(f"document {self.id!r}: text is empty")
        if not isinstance(self.source_tag, str):
            raise RecordError(f"source_tag must be a str, got {self.source_tag!r}")


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
        if not isinstance(self.id, str) or not self.id:
            raise RecordError(f"example id must be a non-empty string, got {self.id!r}")
        object.__setattr__(self, "source", nfc(self.source))
        object.__setattr__(self, "target", nfc(self.target))
        object.__setattr__(self, "error_annotations", tuple(self.error_annotations))
        if not self.source:
            raise RecordError(f"example {self.id!r}: source is empty")
        if not self.target:
            raise RecordError(f"example {self.id!r}: target is empty")
        if self.provenance not in PROVENANCES:
            raise RecordError(f"example {self.id!r}: unknown provenance {self.provenance!r}")
        if self.weight is not None:
            _weight(self.weight, f"example {self.id!r}: weight")

    def with_weight(self, weight: float) -> ECExample:
        return replace(self, weight=float(weight))


@dataclass(frozen=True)
class ScoredSample:
    """Average log-likelihood scores of one target sentence under two scorers."""

    sample_id: str
    s_p: float
    s_f: float

    def __post_init__(self) -> None:
        if not isinstance(self.sample_id, str):
            raise RecordError(f"sample id must be a string, got {self.sample_id!r}")
        object.__setattr__(self, "s_p", _number(self.s_p, "s_p"))
        object.__setattr__(self, "s_f", _number(self.s_f, "s_f"))


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
        if not all(isinstance(v, str) for v in model_ids + sample_ids + metric_names):
            raise RecordError("model ids, sample ids and metric names must be strings")
        _matrix_names(model_ids, sample_ids, metric_names)
        if chi.shape != (len(model_ids), len(sample_ids)):
            raise RecordError(f"chi shape {chi.shape} does not match ids")
        if live.shape != (len(model_ids), len(metric_names)):
            raise RecordError(f"live_metrics shape {live.shape} does not match ids")
        _binary(chi)
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


@dataclass(frozen=True)
class Embeddings:
    """One vector per document: row i of `matrix` embeds document `ids[i]`.

    The matrix is read-only float64 of shape (N, D) with D >= 1 and only
    finite entries. A read-only float64 ndarray that owns its data (its
    `base` is None) is adopted without a copy: its maker hands it over and
    keeps no writeable view of it. Anything else, a writeable array or a
    view included, is copied.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        matrix = self.matrix
        adopt = (
            type(matrix) is np.ndarray and matrix.dtype == np.float64
            and matrix.base is None and not matrix.flags.writeable
        )
        if not adopt:
            matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"embeddings: need an N x D matrix with D >= 1, got shape {matrix.shape}")
        if len(ids) != matrix.shape[0]:
            raise ValueError(f"embeddings: {len(ids)} ids for {matrix.shape[0]} vectors")
        # NaN propagates through min and max, and an infinity is one of them:
        # a finiteness check that builds no N x D mask
        if matrix.size and not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
            row = int(np.argmin(np.isfinite(matrix).all(axis=1)))
            raise ValueError(f"embeddings: vector of doc {ids[row]!r} has NaN/Inf entries")
        matrix.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ClusterModel:
    """Fitted k-means state as columns: doc `ids[i]` is nearest centroid `labels[i]`, at `distances[i]`."""

    centroids: np.ndarray          # (k, D)
    ids: tuple[str, ...]           # (N,) document ids, in the embeddings' order
    labels: np.ndarray             # (N,) int64 cluster index of each document
    distances: np.ndarray          # (N,) float64 squared distance to its centroid, as written
    objective: float               # sum of squared distances
    objective_history: tuple[float, ...] = ()  # objective after each assignment pass
    fit_counts: dict[str, int | bool] = field(default_factory=dict)  # `cluster.kmeans`'s; not in the file

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def sizes(self) -> np.ndarray:  # (k,) documents per cluster
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class ModelOutputs:
    """Ranked candidate corrections per sample for one model."""

    model_id: str
    candidates: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if not isinstance(self.model_id, str) or not all(isinstance(sid, str) for sid in self.candidates):
            raise RecordError(f"model {self.model_id!r}: model and sample ids must be strings")
        normalized = {}
        for sid, cands in self.candidates.items():
            cands = tuple(map(nfc, cands))
            if not cands:
                raise ValueError(f"model {self.model_id!r}: empty candidate list for {sid!r}")
            normalized[sid] = cands
        object.__setattr__(self, "candidates", normalized)


@dataclass(frozen=True)
class KeyboardModel:
    """Symmetric key adjacency for one layout; no key neighbors itself."""

    layout_name: str
    adjacency: dict[str, frozenset[str]]

    def __post_init__(self) -> None:
        for ch, near in self.adjacency.items():
            if ch in near:
                raise RecordError(f"layout {self.layout_name!r}: {ch!r} adjacent to itself")
            for other in near:
                if ch not in self.adjacency.get(other, frozenset()):
                    raise RecordError(
                        f"layout {self.layout_name!r}: adjacency not symmetric for {ch!r}/{other!r}"
                    )

    def neighbors(self, ch: str) -> tuple[str, ...]:
        """Sorted neighbors of the lowercased key; empty if the key is unknown."""
        return tuple(sorted(self.adjacency.get(ch.lower(), frozenset())))


T = TypeVar("T")


def by_id(ids: Sequence[str], table: Mapping[str, T], what: str) -> list[T]:
    """`table[i]` for each id in order; a ValueError names up to five ids the table lacks."""
    missing = [i for i in ids if i not in table]
    if missing:
        raise ValueError(f"{what} missing for ids: {missing[:5]}")
    return [table[i] for i in ids]


# -- line-delimited I/O --


def _read_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:  # strict UTF-8, line by line, so an invalid byte names its line
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
            except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
                raise RecordError(f"{path}: malformed record on line {lineno}: {e}") from e
            if not isinstance(obj, dict):
                raise RecordError(f"{path}: malformed record on line {lineno}: not an object")
            yield lineno, obj


def _why(e: Exception) -> str:
    """What a reader says of a line it rejects: a KeyError's text is only the key."""
    return f"missing key {e.args[0]!r}" if isinstance(e, KeyError) else str(e)


def _read_records(
    path: str | Path, what: str, build: Callable[[dict], T],
    key: Callable[[T], str] | None = None, rows: Iterator[tuple[int, dict]] | None = None,
) -> list[T]:
    """One record per line of the file, in order; `rows` are its lines after a header, if given.

    A line `build` rejects, or (when `key` is given) a key that is not a
    string or repeats, is a RecordError naming the file and the line.
    """
    out: list[T] = []
    seen: set[str] = set()
    for lineno, obj in _read_lines(path) if rows is None else rows:
        try:
            rec = build(obj)
            k = None if key is None else key(rec)
            if key is not None and not isinstance(k, str):
                raise RecordError(f"id must be a string, got {k!r}")
            duplicate = key is not None and k in seen
        except (KeyError, TypeError, ValueError) as e:
            raise RecordError(f"{path}: invalid {what} on line {lineno}: {_why(e)}") from e
        if duplicate:
            raise RecordError(f"{path}: duplicate {what} id {k!r} on line {lineno}")
        if key is not None:
            seen.add(k)
        out.append(rec)
    return out


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


# The one C encoder of `json.dumps(obj, ensure_ascii=False, separators=(",", ":"))`.
# `JSONEncoder.encode` makes one such encoder per call; this one is made once.
# It keeps no state between calls: without a circular-reference check, it has
# no markers to share.
_encoder = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring,
    None, ":", ",", False, False, True,
)


def _dump(obj: dict) -> str:
    """One record's line, without its newline: `json.dumps` with no spaces and no escaped non-ASCII."""
    return "".join(_encoder(obj, 0))


def _write_records(path: str | Path, objs: Iterable[dict]) -> None:
    _write(path, (_dump(obj) + "\n" for obj in objs))


def write_json(obj: object, path: str | Path) -> None:
    """One JSON document: indented, keys sorted, ending in a newline."""
    _write(path, (json.dumps(obj, indent=2, sort_keys=True), "\n"))


def write_text(text: str, path: str | Path) -> None:
    _write(path, (text,))


def _distinct(ids: Iterable[str], what: str) -> None:
    """A RecordError on the first id that repeats."""
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise RecordError(f"duplicate {what} id {i!r}")
        seen.add(i)


def _matrix_names(model_ids: Sequence[str], sample_ids: Sequence[str], metric_names: Sequence[str]) -> None:
    """An eval matrix's rules on its names: distinct model and sample ids, and a metric."""
    _distinct(model_ids, "model")
    _distinct(sample_ids, "sample")
    if not metric_names:
        raise RecordError("at least one metric is required")


def _binary(chi: np.ndarray) -> np.ndarray:
    """`chi`, if its entries are all 0 or 1."""
    if ((chi != 0) & (chi != 1)).any():
        raise RecordError(f"chi entries must be 0 or 1, found {chi[(chi != 0) & (chi != 1)][0]}")
    return chi


def _strings(value: object, what: str) -> tuple[str, ...]:
    """`value` as a tuple, if it is a list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise RecordError(f"{what} must be a list of strings, got {value!r:.80}")
    return tuple(value)


def _number(value: object, what: str) -> float:
    """`value` as a float, if it is a finite float64 number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise RecordError(f"{what} must be a finite number, got {value!r:.80}")
    return float(value)


def _numbers(value: object, what: str, width: int) -> np.ndarray:
    """`value` as float64, if it is a list of `width` numbers that `_number` accepts."""
    if not isinstance(value, list) or len(value) != width:
        raise RecordError(f"{what} must be a list of {width} numbers, got {value!r:.80}")
    if set(map(type, value)) <= {int, float}:  # the common case, without a call per entry
        with contextlib.suppress(OverflowError):  # an int beyond float64: `_number` names it
            if math.isfinite(sum(value)):  # then so is each entry; a sum that overflows goes on
                return np.fromiter(value, np.float64, width)
    return np.fromiter((_number(v, f"{what}[{i}]") for i, v in enumerate(value)), np.float64, width)


def _weight(value: object, what: str = "weight") -> float:
    """The one rule for a sample weight, wherever one is read: a finite number > 0."""
    if _number(value, what) <= 0:
        raise RecordError(f"{what} must be > 0, got {value!r}")
    return float(value)


def _optional(obj: dict, key: str, default: T) -> T:
    """obj[key], or `default` when the key is missing; a RecordError if it is not of the default's type."""
    value = obj.get(key, default)
    if type(value) is not type(default):
        raise RecordError(f"{key} must be a {type(default).__name__}, got {value!r}")
    return value


def read_corpus(path: str | Path) -> list[Document]:
    """Read a corpus file; ids are verified unique, file order is preserved."""
    return _read_records(
        path,
        "document",
        lambda obj: Document(id=obj["id"], text=obj["text"], source_tag=obj.get("source_tag", "")),
        key=lambda doc: doc.id,
    )


def write_corpus(docs: Sequence[Document], path: str | Path) -> None:
    _distinct((d.id for d in docs), "document")
    _write_records(path, ({"id": d.id, "text": d.text, "source_tag": d.source_tag} for d in docs))


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
        weight=_weight(obj["weight"]) if "weight" in obj else None,
        error_annotations=tuple(
            ErrorAnnotation(category=a["category"], description=a.get("description", ""))
            for a in _optional(obj, "error_annotations", [])
        ),
    )


def read_ec_dataset(path: str | Path) -> list[ECExample]:
    """Read an EC dataset. Repeated ids are allowed: mixed datasets oversample."""
    return _read_records(path, "example", _example_from_obj)


def write_ec_dataset(examples: Sequence[ECExample], path: str | Path) -> None:
    _write_records(path, map(_example_to_obj, examples))


def read_scores(path: str | Path) -> list[ScoredSample]:
    return _read_records(
        path,
        "sample",
        lambda obj: ScoredSample(obj["sample_id"], obj["s_p"], obj["s_f"]),
        key=lambda s: s.sample_id,
    )


def write_scores(scores: Sequence[ScoredSample], path: str | Path) -> None:
    _distinct((s.sample_id for s in scores), "sample")
    _write_records(path, ({"sample_id": s.sample_id, "s_p": s.s_p, "s_f": s.s_f} for s in scores))


def read_weights(path: str | Path) -> dict[str, float]:
    def row(obj: dict) -> tuple[str, float]:
        return obj["sample_id"], _weight(obj["weight"])

    return dict(_read_records(path, "sample", row, key=lambda r: r[0]))


def write_weights(weights: dict[str, float], path: str | Path) -> None:
    _write_records(path, ({"sample_id": sid, "weight": w} for sid, w in weights.items()))


def read_eval_matrix(path: str | Path) -> EvalMatrix:
    """Read header + K chi rows + K live-metric rows, each row its model's in header order."""
    lines = _read_lines(path)
    header_line, header = next(lines, (1, {}))  # an empty file fails as a header without keys
    try:
        model_ids, sample_ids, metric_names = (_strings(header[key], key) for key in _MATRIX_NAMES)
        _matrix_names(model_ids, sample_ids, metric_names)
    except (KeyError, RecordError) as e:
        raise RecordError(f"{path}: invalid eval-matrix header on line {header_line}: {_why(e)}") from e
    k, widths = len(model_ids), {"chi": len(sample_ids), "live": len(metric_names)}
    expected = zip(model_ids * 2, ["chi"] * k + ["live"] * k)  # (model id, key) of each row

    def row(obj: dict) -> np.ndarray:
        model_id, key = next(expected, (None, None))
        if key is None:
            raise RecordError(f"the header's {k} models take {2 * k} rows; this line is one more")
        if obj["model_id"] != model_id:
            raise RecordError(f"expected the {key} row of {model_id!r}")
        values = _numbers(obj[key], key, widths[key])
        return _binary(values) if key == "chi" else values

    rows = _read_records(path, "eval-matrix row", row, rows=lines)
    if len(rows) != 2 * k:
        msg = f"names {k} models, which take {1 + 2 * k} lines; the file has {1 + len(rows)}"
        raise RecordError(f"{path}: the header on line {header_line} {msg}")
    chi, live = np.reshape(rows[:k], (k, widths["chi"])), np.reshape(rows[k:], (k, widths["live"]))
    return EvalMatrix(model_ids, sample_ids, chi, live, metric_names)


def write_eval_matrix(matrix: EvalMatrix, path: str | Path) -> None:
    header = {key: list(getattr(matrix, key)) for key in _MATRIX_NAMES}
    ids = matrix.model_ids
    chi = ({"model_id": m, "chi": [int(x) for x in row]} for m, row in zip(ids, matrix.chi))
    live = (
        {"model_id": m, "live": [float(x) for x in row]} for m, row in zip(ids, matrix.live_metrics)
    )
    _write_records(path, itertools.chain([header], chi, live))


def read_clusters(path: str | Path) -> ClusterModel:
    """Read a clusters file: header line, then one assignment line per document."""
    rows = _read_lines(path)
    header_line, header = next(rows, (1, {}))  # an empty file fails as a header without keys
    try:
        k, centroids = header["k"], header["centroids"]
        if type(k) is not int or k < 1 or not isinstance(centroids, list) or len(centroids) != k:
            raise ValueError(f"k is {k!r} for the centroids {centroids!r:.80}")
        width = len(centroids[0]) if isinstance(centroids[0], list) else 0  # the first one's
        if width < 1:
            raise ValueError(f"a centroid must be a list of at least 1 number, got {centroids[0]!r:.80}")
        centroids = np.reshape([_numbers(c, "centroid", width) for c in centroids], (k, width))
        sizes = _numbers(header["sizes"], "sizes", k)
        objective = _number(header["objective"], "objective")
    except (KeyError, TypeError, ValueError) as e:
        raise RecordError(f"{path}: invalid clusters header on line {header_line}: {_why(e)}") from e

    def assignment(obj: dict) -> tuple[str, int, float]:
        cluster, distance = obj["cluster"], _number(obj["distance"], "distance")
        if type(cluster) is not int or not 0 <= cluster < k:
            raise ValueError(f"cluster must be an integer in [0, {k}), got {cluster!r}")
        if distance < 0:
            raise ValueError(f"distance must be >= 0, got {distance!r}")
        return obj["doc_id"], cluster, distance

    lines = _read_records(path, "assignment", assignment, key=lambda line: line[0], rows=rows)
    ids, labels, distances = zip(*lines) if lines else ((), (), ())
    labels, distances = np.fromiter(labels, np.int64), np.fromiter(distances, np.float64)
    model = ClusterModel(centroids, ids, labels, distances, objective)
    if model.sizes.tolist() != sizes.tolist():
        raise RecordError(
            f"{path}: clusters header on line {header_line} gives sizes {header['sizes']}, "
            f"but the assignment lines count {model.sizes.tolist()}"
        )
    return model


def write_clusters(model: ClusterModel, path: str | Path) -> None:
    """Write the clusters file: the header, then one {doc_id, cluster, distance} line per document."""
    header = {
        "k": model.k,
        "objective": model.objective,
        "sizes": [int(s) for s in model.sizes],
        "centroids": [[float(v) for v in c] for c in model.centroids],
    }
    lines = (
        {"doc_id": i, "cluster": c, "distance": d}
        for i, c, d in zip(model.ids, model.labels.tolist(), model.distances.tolist())
    )
    _write_records(path, itertools.chain([header], lines))


def read_embeddings(path: str | Path) -> Embeddings:
    """Read an embeddings file, one {doc_id, vector} line per document, as one matrix.

    Ids must be unique and every vector must have the first one's length, at least 1.
    """
    width: list[int] = []  # the first vector's length

    def build(obj: dict) -> tuple[str, np.ndarray]:
        vector = obj["vector"]
        if not width:
            width.append(len(vector) if isinstance(vector, list) and vector else 1)
        return obj["doc_id"], _numbers(vector, "vector", width[0])

    docs = _read_records(path, "doc", build, key=lambda doc: doc[0])
    if not docs:
        raise RecordError(f"{path}: no embeddings: no record from line 1 on")
    return Embeddings(ids=tuple(i for i, _ in docs), matrix=[v for _, v in docs])


def write_embeddings(embeddings: Embeddings, path: str | Path) -> None:
    rows = zip(embeddings.ids, embeddings.matrix.tolist())
    _write_records(path, ({"doc_id": i, "vector": v} for i, v in rows))


def read_outputs(path: str | Path) -> ModelOutputs:
    """One model's outputs ({sample_id, candidates[]} per line); the model id is the file stem."""
    def row(obj: dict) -> tuple[str, tuple[str, ...]]:
        cands = _strings(obj["candidates"], "candidates")
        if not cands:
            raise RecordError("candidates must not be empty")
        return obj["sample_id"], cands

    rows = _read_records(path, "sample", row, key=lambda r: r[0])
    return ModelOutputs(model_id=Path(path).stem, candidates=dict(rows))


def write_outputs(outputs: ModelOutputs, path: str | Path) -> None:
    rows = outputs.candidates.items()
    _write_records(path, ({"sample_id": sid, "candidates": list(c)} for sid, c in rows))


def read_layout(path: str | Path) -> KeyboardModel:
    """Keyboard layout file: one JSON record {char, neighbors[]} per line.

    `char` and each neighbor are one-character strings, and no char repeats.
    The model is named by the path, so `KeyboardModel`'s rules name the file.
    """

    def entry(obj: dict) -> tuple[str, frozenset[str]]:
        char, neighbors = obj["char"], obj["neighbors"]
        if not (isinstance(char, str) and len(char) == 1):
            raise RecordError(f"char must be a one-character string, got {char!r}")
        if not all(len(n) == 1 for n in _strings(neighbors, "neighbors")):
            raise RecordError(f"neighbors must be one-character strings, got {neighbors!r}")
        return char, frozenset(neighbors)

    entries = _read_records(path, "layout entry", entry, key=lambda e: e[0])
    return KeyboardModel(layout_name=str(path), adjacency=dict(entries))
