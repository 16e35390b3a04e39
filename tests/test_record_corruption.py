"""A generated corruption test for every record reader.

Each public `records.read_*` reader gets a file of its kind from one demo
run and damaged copies of it: the last line cut in half, the first or the
last line repeated, the file emptied, each key of the first and the last
line dropped or retyped, and a line of invalid UTF-8 added. A damaged file
must raise a RecordError that names the file and a line, or be accepted as
README's "File formats" documents; any other outcome fails. The error for a
dropped key must also say that the key is missing.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Iterator

import pytest

from ecsynth import records
from ecsynth.cli import load_config, run_pipeline
from ecsynth.cluster import hash_embed
from ecsynth.demo import materialize
from ecsynth.typo import QWERTY

READERS = {name: getattr(records, name) for name in dir(records) if name.startswith("read_")}

# The artifact each reader gets from a demo run. A run writes no embeddings
# or keyboard layout, so those two are written from its sampled corpus and
# the built-in QWERTY layout.
SOURCES = {
    "read_corpus": "sampled.jsonl",
    "read_ec_dataset": "ec_weighted.jsonl",
    "read_scores": "scores.jsonl",
    "read_weights": "weights.jsonl",
    "read_eval_matrix": "eval_matrix.jsonl",
    "read_clusters": "clusters.jsonl",
    "read_outputs": "outputs/model00.jsonl",
    "read_embeddings": "embeddings.jsonl",
    "read_layout": "layout.jsonl",
}

# What README documents as accepted: an empty file of these kinds reads as no
# records, these keys may be left out, and an EC dataset may repeat a line.
EMPTY_OK = {"read_corpus", "read_ec_dataset", "read_scores", "read_weights", "read_outputs", "read_layout"}
OPTIONAL_KEYS = {
    "read_corpus": {"source_tag"},
    "read_ec_dataset": {"weight", "provenance", "error_annotations"},
}
REPEAT_OK = {"read_ec_dataset"}
# an empty file of these kinds is a header without its first key
EMPTY_HEADER_KEY = {"read_eval_matrix": "model_ids", "read_clusters": "k"}

# one value of each JSON type a key can be retyped to
_RETYPED = {"null": None, "bool": True, "number": 1, "string": "1", "list": [], "object": {}}


def _kind(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return {int: "number", float: "number", str: "string", list: "list", dict: "object"}[type(value)]


def _retypes(value: object) -> dict[str, object]:
    """Values of every JSON type but `value`'s; where a number belongs, also NaN, Infinity and 10**400."""
    out = {kind: v for kind, v in _RETYPED.items() if kind != _kind(value)}
    if _kind(value) == "number":
        out.update({"NaN": math.nan, "Infinity": math.inf, "an int beyond float64": 10**400})
    return out


def _number_entries(value: object, at: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], object]]:
    """(index path, entry) of the first and the last entry of each list of numbers in `value`.

    In a list of lists (the clusters centroids) these are the entries of its first and last list.
    """
    if isinstance(value, list) and value:
        ends = sorted({0, len(value) - 1})
        if all(_kind(v) == "number" for v in value):
            yield from ((at + (i,), value[i]) for i in ends)
        else:
            for i in ends:
                yield from _number_entries(value[i], at + (i,))


def _entry_retypes(entry: object) -> dict[str, object]:
    """What an entry of a list of numbers is retyped to: no number, no finite one, or 1.5 for an integer."""
    out = {"string": "1", "bool": True, "null": None, "NaN": math.nan, "Infinity": math.inf}
    if type(entry) is int:
        out["1.5"] = 1.5
    return out


def _replaced(value: object, at: tuple[int, ...], new: object) -> object:
    """A copy of `value` with the entry at index path `at` replaced by `new`."""
    if not at:
        return new
    return [_replaced(v, at[1:], new) if i == at[0] else v for i, v in enumerate(value)]


def _line(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8")


def _mutations(reader: str, text: bytes) -> Iterator[tuple[str, bytes, bool, str]]:
    """(case, damaged file, whether README documents it as accepted, what its error must say)."""
    lines = text.splitlines(keepends=True)
    last = lines[-1]
    yield "the last line cut in half", b"".join(lines[:-1]) + last[: len(last) // 2], False, ""
    yield "the first line repeated", lines[0] + text, reader in REPEAT_OK, ""
    yield "the last line repeated", text + last, reader in REPEAT_OK, ""
    first = EMPTY_HEADER_KEY.get(reader)
    yield "the file emptied", b"", reader in EMPTY_OK, f"missing key {first!r}" if first else ""
    yield "a line of invalid UTF-8", lines[0] + b'{"id": "\xff\xfe"}\n' + b"".join(lines[1:]), False, ""
    for where, i in (("first", 0), ("last", len(lines) - 1)):
        obj = json.loads(lines[i])
        for key, value in obj.items():
            def damaged(new: dict) -> bytes:
                return b"".join(lines[:i]) + _line(new) + b"".join(lines[i + 1 :])

            dropped = {k: v for k, v in obj.items() if k != key}
            accepted = key in OPTIONAL_KEYS.get(reader, ())
            yield f"the {where} line without {key}", damaged(dropped), accepted, f"missing key {key!r}"
            for kind, new in _retypes(value).items():
                yield f"the {where} line's {key} as {kind}", damaged({**obj, key: new}), False, ""
            for at, entry in _number_entries(value):
                name = key + "".join(f"[{i}]" for i in at)
                for kind, new in _entry_retypes(entry).items():
                    retyped = {**obj, key: _replaced(value, at, new)}
                    yield f"the {where} line's {name} as {kind}", damaged(retyped), False, ""


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("demo")
    workdir = run_pipeline(load_config(materialize(out)), config_dir=out)
    sampled = records.read_corpus(workdir / "sampled.jsonl")
    records.write_embeddings(hash_embed(sampled, dim=8, seed=0), workdir / "embeddings.jsonl")
    layout = (
        {"char": c, "neighbors": sorted(n)} for c, n in sorted(QWERTY.adjacency.items())
    )
    (workdir / "layout.jsonl").write_bytes(b"".join(map(_line, layout)))
    return workdir


def test_every_reader_has_a_source():
    assert set(SOURCES) == set(READERS)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_damaged_file_is_a_record_error_naming_file_and_line(demo_run, tmp_path, reader):
    source = demo_run / SOURCES[reader]
    read = READERS[reader]
    read(source)
    path = tmp_path / source.name
    failures = []
    for case, damaged, accepted, said in _mutations(reader, source.read_bytes()):
        path.write_bytes(damaged)
        try:
            read(path)
        except records.RecordError as e:
            if accepted:
                failures.append(f"{case}: rejected, but README accepts it: {e}")
            elif not re.search(rf"{re.escape(str(path))}.*line \d+", str(e)):
                failures.append(f"{case}: the error does not name the file and a line: {e}")
            elif said not in str(e):
                failures.append(f"{case}: the error does not say {said!r}: {e}")
        except Exception as e:  # noqa: BLE001 - any other exception is the defect this test looks for
            failures.append(f"{case}: {type(e).__name__}: {e}")
        else:
            if not accepted:
                failures.append(f"{case}: accepted")
    assert not failures, "\n".join(failures)
