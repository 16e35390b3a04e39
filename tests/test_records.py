from __future__ import annotations

from pathlib import Path

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
    ModelOutputs,
    RecordError,
    ScoredSample,
    read_clusters,
    read_corpus,
    read_ec_dataset,
    read_eval_matrix,
    read_outputs,
    read_scores,
    read_weights,
    record_cache,
    write_corpus,
    write_ec_dataset,
    write_eval_matrix,
    write_outputs,
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


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus([Document(id="a", text="first"), Document(id="b", text="second")], path)
    before = path.read_bytes()
    unserializable = Document(id="b", text="second", source_tag=object())
    with pytest.raises(TypeError):
        write_corpus([Document(id="a", text="new"), unserializable], path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


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


def test_eval_matrix_without_model():
    sub = _matrix().without_model(0)
    assert sub.model_ids == ("m1",)
    np.testing.assert_array_equal(sub.chi, [[0, 0, 1]])


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


def test_scored_sample_rejects_nonfinite():
    with pytest.raises(RecordError):
        ScoredSample("a", s_p=float("nan"), s_f=0.0)


def test_weights_round_trip(tmp_path):
    weights = {"a": 1.005, "b": 0.25}
    path = tmp_path / "weights.jsonl"
    write_weights(weights, path)
    assert read_weights(path) == weights


_K2 = '{"k": 2, "objective": 0.0, "sizes": [1, 1], "centroids": [[1.0], [0.0]]}\n'


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"k": 1}\n', 1),
        ('{"k": 1, "objective": 0.0, "sizes": [1], "centroids": [[1.0]]}\n{"doc_id": "a"}\n', 2),
        ('{"k": 1, "objective": 0.0, "sizes": [1], "centroids": [[1.0]]}\n{"cluster": 0}\n', 2),
        (_K2 + '{"doc_id": "a", "cluster": 7}\n', 2),
        (_K2 + '{"doc_id": "a", "cluster": 0}\n{"doc_id": "b", "cluster": -1}\n', 3),
        # a repeated doc id
        (_K2 + '{"doc_id": "a", "cluster": 0}\n{"doc_id": "a", "cluster": 1}\n', 3),
        # header sizes that disagree with the assignment lines: too few, and wrong counts
        (
            '{"k": 2, "objective": 0.0, "sizes": [2], "centroids": [[1.0], [0.0]]}\n'
            '{"doc_id": "a", "cluster": 0}\n{"doc_id": "b", "cluster": 0}\n',
            1,
        ),
        (_K2 + '{"doc_id": "a", "cluster": 0}\n{"doc_id": "b", "cluster": 0}\n', 1),
    ],
)
def test_read_clusters_malformed_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "clusters.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RecordError, match=f"clusters.jsonl.*line {line}"):
        read_clusters(path)


# -- run-scoped record cache --


@pytest.fixture
def parsed(monkeypatch) -> list[str]:
    """The name of each file `_read_lines` parses, in call order."""
    names: list[str] = []
    original = records._read_lines

    def counting(path):
        names.append(Path(path).name)
        return original(path)

    monkeypatch.setattr(records, "_read_lines", counting)
    return names


def test_record_cache_parses_each_file_content_once(tmp_path, parsed):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "one"}\n', encoding="utf-8")
    with record_cache():
        first = read_corpus(path)
        first.append(Document(id="b", text="added by the caller"))
        assert read_corpus(path) == [Document(id="a", text="one")]  # a fresh list
        assert parsed == ["corpus.jsonl"]
        # changed on disk, not through a writer: parsed again
        path.write_text('{"id": "a", "text": "two"}\n', encoding="utf-8")
        assert read_corpus(path) == [Document(id="a", text="two")]
        assert parsed == ["corpus.jsonl"] * 2
    # outside the block every read parses
    read_corpus(path)
    read_corpus(path)
    assert parsed == ["corpus.jsonl"] * 4


def test_record_cache_serves_a_written_file_without_parsing(tmp_path, parsed):
    scores = [ScoredSample("a", s_p=-3.5, s_f=-2.25)]
    weights = {"a": 0.5}
    with record_cache():
        write_scores(scores, tmp_path / "scores.jsonl")
        write_weights(weights, tmp_path / "weights.jsonl")
        got = read_weights(tmp_path / "weights.jsonl")
        got["b"] = 1.0
        assert read_scores(tmp_path / "scores.jsonl") == scores
        assert read_weights(tmp_path / "weights.jsonl") == weights  # a fresh dict
    assert parsed == []


def test_record_cache_writers_store_only_what_reads_back_equal_in_type(tmp_path, parsed):
    with record_cache():
        # a repeated id: read_corpus must still reject the file
        write_corpus([Document(id="a", text="x"), Document(id="a", text="y")], tmp_path / "c.jsonl")
        with pytest.raises(RecordError, match="'a'"):
            read_corpus(tmp_path / "c.jsonl")
        # numpy floats are written as numbers and read back as floats
        write_scores([ScoredSample("a", s_p=np.float64(-1.5), s_f=-2.0)], tmp_path / "s.jsonl")
        write_weights({"a": np.float64(0.5)}, tmp_path / "w.jsonl")
        example = ECExample(id="e", source="s", target="t", weight=np.float64(0.5))
        write_ec_dataset([example], tmp_path / "e.jsonl")
        assert type(read_scores(tmp_path / "s.jsonl")[0].s_p) is float
        assert type(read_weights(tmp_path / "w.jsonl")["a"]) is float
        assert type(read_ec_dataset(tmp_path / "e.jsonl")[0].weight) is float
    assert parsed == ["c.jsonl", "s.jsonl", "w.jsonl", "e.jsonl"]


def test_record_cache_keys_by_path(tmp_path):
    outputs = ModelOutputs(model_id="m1", candidates={"s1": ("a", "b")})
    with record_cache():
        write_outputs(outputs, tmp_path / "m1.jsonl")
        (tmp_path / "m2.jsonl").write_bytes((tmp_path / "m1.jsonl").read_bytes())
        # the same bytes under another name: the model id is the file stem
        assert read_outputs(tmp_path / "m1.jsonl").model_id == "m1"
        assert read_outputs(tmp_path / "m2.jsonl").model_id == "m2"
