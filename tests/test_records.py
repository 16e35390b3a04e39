from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsynth import records
from ecsynth.records import (
    Document,
    ECExample,
    ErrorAnnotation,
    EvalMatrix,
    RecordError,
    ScoredSample,
    read_clusters,
    read_corpus,
    read_ec_dataset,
    read_embeddings,
    read_eval_matrix,
    read_layout,
    read_outputs,
    read_scores,
    read_weights,
    write_corpus,
    write_ec_dataset,
    write_eval_matrix,
    write_scores,
    write_weights,
)


def test_read_corpus_preserves_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(
        [
            Document(id="a", text="first", source_tag="web"),
            Document(id="b", text="second"),
            Document(id="c", text="third"),
        ],
        path,
    )
    docs = read_corpus(path)
    assert [d.id for d in docs] == ["a", "b", "c"]
    assert docs[0].source_tag == "web"


def test_read_corpus_duplicate_id_names_the_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "text": "one"}\n{"id": "a", "text": "two"}\n', encoding="utf-8"
    )
    with pytest.raises(RecordError, match="'a'"):
        read_corpus(path)


def test_read_corpus_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    assert read_corpus(path) == []


def test_read_corpus_malformed_line_cites_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(RecordError, match="line 2"):
        read_corpus(path)


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    write_corpus([Document(id="a", text="first"), Document(id="b", text="second")], path)
    before = path.read_bytes()
    dump = records._dump

    def fail_on_the_second_record(obj: dict) -> str:
        if obj["id"] == "b":
            raise TypeError("cannot encode")
        return dump(obj)

    monkeypatch.setattr(records, "_dump", fail_on_the_second_record)
    with pytest.raises(TypeError):
        write_corpus([Document(id="a", text="new"), Document(id="b", text="second")], path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_records_are_written_as_json_dumps_writes_them(tmp_path):
    objs = [
        {"id": "naïve café 中文 😀", "text": "a **bold** claim *\\* here", "quoted": 'say "hi" \\ back'},
        {"controls": "\x00\x01\t\n\r\x1f\x7f \u2028\u2029", "empty": "", "nested": {"a": [{"b": "ü"}]}},
        {"floats": [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, -2.5e-308]},
        {"ints": [2**64 + 1, -(2**70), 0, -1], "flags": [True, False, None], "none": [], "obj": {}},
    ]
    path = tmp_path / "records.jsonl"
    records._write_records(path, objs)
    want = "".join(json.dumps(o, ensure_ascii=False, separators=(",", ":")) + "\n" for o in objs)
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize(
    "build",
    [lambda: Document("a", "t", source_tag=5), lambda: ScoredSample("a", True, 1.0)],
    ids=["a source_tag that is not a str", "a bool score"],
)
def test_constructor_rejects_what_its_reader_rejects(build):
    with pytest.raises(RecordError):
        build()
    # a numpy float is a float, as a score
    assert ScoredSample("a", np.float64(-1.5), -2.0).s_p == -1.5


def test_document_rejects_blank_text():
    with pytest.raises(RecordError):
        Document(id="x", text="   ")


def test_ec_dataset_round_trip(tmp_path):
    examples = [
        ECExample(
            id=f"e{i}",
            source=f"corrupted {i}",
            target=f"clean {i}",
            provenance="synthetic",
            error_annotations=(ErrorAnnotation(category="verb", description="swap"),),
        )
        for i in range(100)
    ]
    path = tmp_path / "ec.jsonl"
    write_ec_dataset(examples, path)
    assert read_ec_dataset(path) == examples


def test_weight_round_trips_full_precision(tmp_path):
    ex = ECExample(id="e", source="src", target="tgt", weight=1.005)
    path = tmp_path / "ec.jsonl"
    write_ec_dataset([ex], path)
    assert read_ec_dataset(path)[0].weight == 1.005


def test_multiline_target_round_trips(tmp_path):
    ex = ECExample(id="e", source="a\nb", target="line one\nline two\tend")
    path = tmp_path / "ec.jsonl"
    write_ec_dataset([ex], path)
    back = read_ec_dataset(path)[0]
    assert back == ex
    # still one record per line on disk
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_ec_dataset_allows_repeated_ids(tmp_path):
    ex = ECExample(id="dup", source="s", target="t")
    path = tmp_path / "ec.jsonl"
    write_ec_dataset([ex, ex], path)
    assert len(read_ec_dataset(path)) == 2


def test_ec_example_validation():
    with pytest.raises(RecordError):
        ECExample(id="e", source="", target="t")
    with pytest.raises(RecordError):
        ECExample(id="e", source="s", target="t", weight=0.0)
    with pytest.raises(RecordError):
        ECExample(id="e", source="s", target="t", provenance="unknown")
    with pytest.raises(RecordError):
        ErrorAnnotation(category="nonsense")


_text = st.text(min_size=1, max_size=40).filter(lambda s: s.strip())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.uuids().map(str), _text, st.sampled_from(["", "web", "synthetic"])),
        min_size=0,
        max_size=8,
        unique_by=lambda t: t[0],
    )
)
def test_corpus_round_trip_property(tmp_path_factory, rows):
    docs = [Document(id=i, text=t, source_tag=s) for i, t, s in rows]
    path = tmp_path_factory.mktemp("prop") / "corpus.jsonl"
    write_corpus(docs, path)
    assert read_corpus(path) == docs


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.uuids().map(str),
            _text,
            _text,
            st.one_of(st.none(), st.floats(min_value=0.01, max_value=2.0)),
            st.sampled_from(["original", "synthetic", "synthetic_filtered"]),
        ),
        min_size=0,
        max_size=6,
    )
)
def test_ec_round_trip_property(tmp_path_factory, rows):
    examples = [
        ECExample(id=i, source=src, target=tgt, weight=w, provenance=p)
        for i, src, tgt, w, p in rows
    ]
    path = tmp_path_factory.mktemp("prop") / "ec.jsonl"
    write_ec_dataset(examples, path)
    assert read_ec_dataset(path) == examples


def _matrix() -> EvalMatrix:
    return EvalMatrix(
        model_ids=("m0", "m1"),
        sample_ids=("s0", "s1", "s2"),
        chi=np.array([[1, 0, 1], [0, 0, 1]]),
        live_metrics=np.array([[0.5, 0.1], [0.4, 0.2]]),
        metric_names=("ctr", "accept"),
    )


def test_eval_matrix_round_trip(tmp_path):
    m = _matrix()
    path = tmp_path / "matrix.jsonl"
    write_eval_matrix(m, path)
    back = read_eval_matrix(path)
    assert back.model_ids == m.model_ids
    assert back.sample_ids == m.sample_ids
    assert back.metric_names == m.metric_names
    np.testing.assert_array_equal(back.chi, m.chi)
    np.testing.assert_array_equal(back.live_metrics, m.live_metrics)


def test_eval_matrix_rejects_nonbinary_chi(tmp_path):
    with pytest.raises(RecordError, match="0 or 1"):
        EvalMatrix(
            model_ids=("m0",),
            sample_ids=("s0", "s1"),
            chi=np.array([[1, 0.5]]),
            live_metrics=np.array([[0.1]]),
            metric_names=("ctr",),
        )
    # and through the loader
    m = _matrix()
    path = tmp_path / "matrix.jsonl"
    write_eval_matrix(m, path)
    text = path.read_text(encoding="utf-8").replace('"chi":[1,0,1]', '"chi":[1,2,1]')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RecordError):
        read_eval_matrix(path)


# replacements of one line of `_matrix()`'s file: (line number, its new text)
@pytest.mark.parametrize(
    "line, text",
    [
        (1, '{"model_ids": "ab", "sample_ids": ["s0", "s1", "s2"], "metric_names": ["ctr", "accept"]}'),
        (1, '{"model_ids": ["m0", "m1"], "sample_ids": [1], "metric_names": ["ctr", "accept"]}'),
        (1, '{"sample_ids": ["s0", "s1", "s2"], "metric_names": ["ctr", "accept"]}'),
        (2, '{"model_id": "m0", "chi": [1, "x", 1]}'),
        (3, '{"model_id": "m1", "chi": [0, 1]}'),
        (4, '{"model_id": "m0", "live": null}'),
        (5, '{"model_id": "m1", "live": [0.4, "x"]}'),
        (5, '{"model_id": "m0", "live": [0.4, 0.2]}'),
        # entries that are not numbers, not finite, or for chi not 0 or 1
        (2, '{"model_id": "m0", "chi": [0, 2, 1]}'),
        (2, '{"model_id": "m0", "chi": ["1", 0, 1]}'),
        (4, '{"model_id": "m0", "live": [true, 0.1]}'),
        (5, '{"model_id": "m1", "live": [NaN, 0.2]}'),
        pytest.param(5, '{"model_id": "m1", "live": [1' + "0" * 400 + ', 0.2]}', id="5-live 10**400"),
        # a header with a repeated model id, or without a metric
        (1, '{"model_ids": ["m0", "m0"], "sample_ids": ["s0", "s1", "s2"], "metric_names": ["ctr", "accept"]}'),
        (1, '{"model_ids": ["m0", "m1"], "sample_ids": ["s0", "s1", "s2"], "metric_names": []}'),
    ],
)
def test_read_eval_matrix_malformed_names_file_and_line(tmp_path, line, text):
    path = tmp_path / "matrix.jsonl"
    write_eval_matrix(_matrix(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match=f"matrix.jsonl.*line {line}"):
        read_eval_matrix(path)


def test_eval_matrix_shape_checks():
    with pytest.raises(RecordError):
        EvalMatrix(
            model_ids=("m0", "m1"),
            sample_ids=("s0",),
            chi=np.array([[1]]),
            live_metrics=np.array([[0.1], [0.2]]),
            metric_names=("ctr",),
        )
    with pytest.raises(RecordError):
        EvalMatrix(
            model_ids=("m0",),
            sample_ids=("s0",),
            chi=np.array([[1]]),
            live_metrics=np.array([[0.1]]),
            metric_names=(),
        )


def test_eval_matrix_arrays_frozen():
    m = _matrix()
    with pytest.raises(ValueError):
        m.chi[0, 0] = 0


def test_scores_round_trip_and_duplicates(tmp_path):
    scores = [ScoredSample("a", s_p=-3.5, s_f=-2.25), ScoredSample("b", s_p=-1.0, s_f=-4.125)]
    path = tmp_path / "scores.jsonl"
    write_scores(scores, path)
    assert read_scores(path) == scores
    path.write_text(
        '{"sample_id": "a", "s_p": -1, "s_f": -1}\n{"sample_id": "a", "s_p": -2, "s_f": -2}\n',
        encoding="utf-8",
    )
    with pytest.raises(RecordError, match="'a'"):
        read_scores(path)


@pytest.mark.parametrize(
    "write, records_",
    [
        (write_corpus, [Document(id="a", text="one"), Document(id="a", text="two")]),
        (write_scores, [ScoredSample("a", s_p=-1.0, s_f=-1.0)] * 2),
    ],
)
def test_writer_refuses_a_repeated_id_its_reader_rejects(tmp_path, write, records_):
    path = tmp_path / "out.jsonl"
    with pytest.raises(RecordError, match="duplicate .* id 'a'"):
        write(records_, path)
    assert list(tmp_path.iterdir()) == []


def test_scored_sample_rejects_nonfinite():
    with pytest.raises(RecordError):
        ScoredSample("a", s_p=float("nan"), s_f=0.0)


@pytest.mark.parametrize("reader", [read_corpus, read_ec_dataset, read_scores, read_clusters, read_eval_matrix])
@pytest.mark.parametrize("raw", [b"\xff\xfe", b"\xed\xa0\x80"])  # invalid bytes; an encoded lone surrogate
def test_invalid_utf8_names_file_and_line(tmp_path, reader, raw):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'\n{"id": "' + raw + b'", "text": "second"}\n')
    with pytest.raises(RecordError, match=r"records\.jsonl: malformed record on line 2: 'utf-8' codec can't decode"):
        reader(path)


@pytest.mark.parametrize(
    "weight",
    ["NaN", "Infinity", "-Infinity", "-1", "-3", "0", "true", "null", '"1.5"',
     pytest.param("1" + "0" * 400, id="10**400")],
)
def test_read_weights_rejects_a_weight_that_is_not_a_finite_number_above_0(tmp_path, weight):
    path = tmp_path / "weights.jsonl"
    path.write_text(f'{{"sample_id": "a", "weight": 1.0}}\n{{"sample_id": "b", "weight": {weight}}}\n')
    with pytest.raises(RecordError, match=r"weights\.jsonl.*line 2"):
        read_weights(path)
    ec = tmp_path / "ec.jsonl"
    ec.write_text(f'{{"id": "b", "source": "s", "target": "t", "weight": {weight}}}\n')
    with pytest.raises(RecordError, match=r"ec\.jsonl.*line 1"):
        read_ec_dataset(ec)


@pytest.mark.parametrize("weight", [float("inf"), float("nan"), True, -1.0, "1.5"])
def test_ec_example_rejects_a_weight_that_is_not_a_finite_number_above_0(weight):
    with pytest.raises(RecordError, match="weight"):
        ECExample(id="e", source="s", target="t", weight=weight)


def test_weights_round_trip(tmp_path):
    weights = {"a": 1.005, "b": 0.25}
    path = tmp_path / "weights.jsonl"
    write_weights(weights, path)
    assert read_weights(path) == weights


_K1 = '{"k": 1, "objective": 0.0, "sizes": [1], "centroids": [[1.0]]}\n'
_K2 = '{"k": 2, "objective": 0.0, "sizes": [1, 1], "centroids": [[1.0], [0.0]]}\n'


def _assign(doc_id: object, cluster: object, distance: object = 0.0) -> str:
    return json.dumps({"doc_id": doc_id, "cluster": cluster, "distance": distance}) + "\n"


_A0 = _assign("a", 0)


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"k": 1}\n', 1),
        (_K1 + '{"doc_id": "a", "distance": 0.0}\n', 2),
        (_K1 + '{"cluster": 0, "distance": 0.0}\n', 2),
        (_K2 + _assign("a", 7), 2),
        (_K2 + _assign("a", 0) + _assign("b", -1), 3),
        # a repeated doc id
        (_K2 + _assign("a", 0) + _assign("a", 1), 3),
        # header sizes that disagree with the assignment lines: too few, and wrong counts
        (
            '{"k": 2, "objective": 0.0, "sizes": [2], "centroids": [[1.0], [0.0]]}\n'
            + _assign("a", 0) + _assign("b", 0),
            1,
        ),
        (_K2 + _assign("a", 0) + _assign("b", 0), 1),
        # a doc id that is not a string, and a cluster that is not an integer
        (_K1 + _assign(None, 0), 2),
        (_K1 + _assign(5, 0), 2),
        (_K1 + _assign("a", 0.7), 2),
        (_K1 + _assign("a", "0"), 2),
        (_K1 + _assign("a", True), 2),
        # a header k that is not the number of centroids
        ('{"k": "x", "objective": 0.0, "sizes": [1], "centroids": [[1.0]]}\n' + _A0, 1),
        ('{"k": 7, "objective": 0.0, "sizes": [1], "centroids": [[1.0]]}\n' + _A0, 1),
        ('{"objective": 0.0, "sizes": [1], "centroids": [[1.0]]}\n' + _A0, 1),
        # no cluster, and centroids without a coordinate
        ('{"k": 0, "objective": 0.0, "sizes": [], "centroids": []}\n', 1),
        ('{"k": 1, "objective": 0.0, "sizes": [1], "centroids": [[]]}\n' + _A0, 1),
        # a distance that is missing, not a number, negative or not finite
        (_K1 + '{"doc_id": "a", "cluster": 0}\n', 2),
        (_K1 + _assign("a", 0, "0.5"), 2),
        (_K1 + _assign("a", 0, True), 2),
        (_K1 + _assign("a", 0, None), 2),
        (_K1 + _assign("a", 0, -0.5), 2),
        (_K1 + _assign("a", 0, float("nan")), 2),
        (_K1 + _assign("a", 0, float("inf")), 2),
        # centroids and sizes that are not finite numbers, or a size that is not a count
        ('{"k": 1, "objective": 0.0, "sizes": [1], "centroids": [[NaN, 1.0]]}\n' + _A0, 1),
        ('{"k": 1, "objective": 0.0, "sizes": [1], "centroids": [["1.0", 1.0]]}\n' + _A0, 1),
        ('{"k": 1, "objective": 0.0, "sizes": [1.7], "centroids": [[1.0]]}\n' + _A0, 1),
    ],
)
def test_read_clusters_malformed_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "clusters.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RecordError, match=f"clusters.jsonl.*line {line}"):
        read_clusters(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_corpus, '{"id": ["a"], "text": "hi"}\n'),  # an unhashable id
        (read_corpus, '{"id": 5, "text": "hi"}\n'),
        (read_ec_dataset, '{"id": 5, "source": "teh cat", "target": "the cat"}\n'),
        (read_outputs, '{"sample_id": "a", "candidates": "abc"}\n'),
        (read_outputs, '{"sample_id": "a", "candidates": ["abc", 1]}\n'),
        (read_outputs, '{"sample_id": ["a"], "candidates": ["abc"]}\n'),
        (read_outputs, '{"sample_id": "a", "candidates": []}\n'),
        (read_scores, '{"sample_id": null, "s_p": -1, "s_f": -1}\n'),
        (read_scores, '{"sample_id": 3, "s_p": -1, "s_f": -1}\n'),
        (read_weights, '{"sample_id": null, "weight": 1.0}\n'),
        (read_weights, '{"sample_id": 3, "weight": 1.0}\n'),
        (read_embeddings, '{"doc_id": 3, "vector": [1.0]}\n'),
        (read_embeddings, '{"doc_id": "a", "vector": ["1", true]}\n'),
        (read_embeddings, '{"doc_id": "a", "vector": [NaN, 1.0]}\n'),
        (read_layout, '{"char": 3, "neighbors": []}\n'),
    ],
)
def test_read_rejects_mistyped_ids_and_candidates(tmp_path, reader, text):
    path = tmp_path / "records.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RecordError, match="records.jsonl.*line 1"):
        reader(path)
