from __future__ import annotations

import numpy as np
import pytest

from ecsynth.records import ECExample, RecordError
from ecsynth.typo import (
    QWERTY,
    KeyboardModel,
    TypoConfig,
    corrupt,
    corrupt_dataset,
    load_keyboard,
)


def test_zero_rates_identity():
    cfg = TypoConfig(p_transpose=0, p_omit=0, p_repeat=0, p_spatial=0, seed=1)
    out, events = corrupt("Nothing should change here.", cfg)
    assert out == "Nothing should change here."
    assert events == []


def test_forced_transpose_definition():
    cfg = TypoConfig(p_transpose=1.0, p_omit=0, p_repeat=0, p_spatial=0,
                     max_errors_per_example=1, seed=0)
    out, events = corrupt("the", cfg)
    assert out == "hte"
    assert len(events) == 1
    assert events[0].position == 0 and events[0].kind == "transpose"


def test_transpose_skipped_at_final_character():
    cfg = TypoConfig(p_transpose=1.0, p_omit=0, p_repeat=0, p_spatial=0,
                     max_errors_per_example=10, seed=0)
    out, events = corrupt("abc", cfg)
    # positions 0-1 swap; the final char has no next to swap with
    assert out == "bac"
    assert all(e.position != 2 for e in events)


def test_forced_omit_and_repeat():
    cfg = TypoConfig(p_transpose=0, p_omit=1.0, p_repeat=0, p_spatial=0,
                     max_errors_per_example=1, seed=0)
    out, events = corrupt("abc", cfg)
    assert out == "bc"
    cfg = TypoConfig(p_transpose=0, p_omit=0, p_repeat=1.0, p_spatial=0,
                     max_errors_per_example=1, seed=0)
    out, events = corrupt("abc", cfg)
    assert out == "aabc"


def test_length_deltas_match_event_log():
    rng = np.random.default_rng(7)
    cfg = TypoConfig(p_transpose=0.05, p_omit=0.05, p_repeat=0.05, p_spatial=0.05,
                     max_errors_per_example=100, seed=0)
    for trial in range(50):
        text = "".join(rng.choice(list("abcdefgh jklmno")) for _ in range(40))
        out, events = corrupt(text.strip() or "fallback", cfg, seed=trial)
        kinds = [e.kind for e in events]
        expected = len(text.strip() or "fallback") + kinds.count("repeat") - kinds.count("omit")
        assert len(out) == expected


def test_spatial_substitutions_adjacent_and_case_preserving():
    cfg = TypoConfig(p_transpose=0, p_omit=0, p_repeat=0, p_spatial=1.0,
                     max_errors_per_example=1000, seed=3)
    text = "The Quick Brown fox"
    out, events = corrupt(text, cfg)
    assert len(out) == len(text)
    for e in events:
        orig, new = text[e.position], out[e.position]
        assert new.lower() in QWERTY.adjacency[orig.lower()]
        assert new.isupper() == orig.isupper()
    # non-letters never substituted: spaces survive
    assert [i for i, c in enumerate(text) if c == " "] == [
        i for i, c in enumerate(out) if c == " "
    ]


def test_spatial_rate_calibration_small():
    rng = np.random.default_rng(11)
    cfg = TypoConfig(p_transpose=0, p_omit=0, p_repeat=0, p_spatial=0.05,
                     max_errors_per_example=10**9, seed=0)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    total_positions = 0
    total_events = 0
    for i in range(1000):
        text = "".join(rng.choice(letters) for _ in range(40))
        _, events = corrupt(text, cfg, seed=i)
        total_positions += len(text)
        total_events += len(events)
    expected = 0.05 * total_positions
    assert abs(total_events - expected) <= 0.10 * expected


def test_corrupt_deterministic():
    cfg = TypoConfig(seed=21)
    a = corrupt("determinism check sentence", cfg)
    b = corrupt("determinism check sentence", cfg)
    assert a == b


def test_corrupt_rejects_empty():
    with pytest.raises(ValueError):
        corrupt("", TypoConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        TypoConfig(p_transpose=0.5, p_omit=0.3, p_repeat=0.2, p_spatial=0.1)
    with pytest.raises(ValueError):
        TypoConfig(p_omit=-0.1)
    with pytest.raises(ValueError):
        TypoConfig(max_errors_per_example=0)


def _examples():
    return [
        ECExample(id=f"e{i}", source=f"some corrupted text number {i}", target=f"clean {i}")
        for i in range(20)
    ]


def test_corrupt_dataset_targets_untouched():
    cfg = TypoConfig(p_transpose=0.1, p_omit=0.1, p_repeat=0.1, p_spatial=0.1, seed=5)
    examples = _examples()
    out = corrupt_dataset(examples, cfg)
    assert [ex.target for ex in out] == [ex.target for ex in examples]
    assert any(ex.source != orig.source for ex, orig in zip(out, examples))


def test_corrupt_dataset_deterministic_and_order_independent():
    cfg = TypoConfig(p_transpose=0.1, p_omit=0.1, p_repeat=0.1, p_spatial=0.1, seed=5)
    examples = _examples()
    once = corrupt_dataset(examples, cfg)
    twice = corrupt_dataset(examples, cfg)
    assert once == twice
    shuffled = corrupt_dataset(list(reversed(examples)), cfg)
    by_id = {ex.id: ex for ex in shuffled}
    assert all(by_id[ex.id] == ex for ex in once)


def test_corrupt_dataset_zero_rates_identity():
    cfg = TypoConfig(p_transpose=0, p_omit=0, p_repeat=0, p_spatial=0, seed=5)
    examples = _examples()
    assert corrupt_dataset(examples, cfg) == examples


def test_qwerty_adjacency_symmetric_no_self():
    for ch, near in QWERTY.adjacency.items():
        assert ch not in near
        for other in near:
            assert ch in QWERTY.adjacency[other]
    # spot checks on the staggered layout
    assert "a" in QWERTY.adjacency["q"]
    assert "w" in QWERTY.adjacency["a"]
    assert "m" in QWERTY.adjacency["n"]


def test_keyboard_model_validation():
    with pytest.raises(ValueError, match="symmetric"):
        KeyboardModel(layout_name="bad", adjacency={"a": frozenset("b"), "b": frozenset()})
    with pytest.raises(ValueError, match="itself"):
        KeyboardModel(layout_name="bad", adjacency={"a": frozenset("a")})


def test_load_keyboard(tmp_path):
    path = tmp_path / "layout.jsonl"
    path.write_text(
        '{"char": "a", "neighbors": ["b"]}\n{"char": "b", "neighbors": ["a"]}\n',
        encoding="utf-8",
    )
    kb = load_keyboard(path, layout_name="tiny")
    assert kb.neighbors("a") == ("b",)
    assert kb.neighbors("z") == ()


@pytest.mark.parametrize("entry", ['{"char": "a"}', '{"neighbors": ["b"]}'])
def test_load_keyboard_malformed_names_file_and_line(tmp_path, entry):
    path = tmp_path / "layout.jsonl"
    path.write_text('{"char": "b", "neighbors": ["a"]}\n' + entry + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match="layout.jsonl.*line 2"):
        load_keyboard(path)


def test_load_keyboard_repeated_char_names_file_and_line(tmp_path):
    path = tmp_path / "layout.jsonl"
    path.write_text(
        '{"char": "a", "neighbors": ["b"]}\n{"char": "b", "neighbors": ["a"]}\n'
        '{"char": "a", "neighbors": []}\n',
        encoding="utf-8",
    )
    with pytest.raises(RecordError, match="layout.jsonl.*'a'.*line 3"):
        load_keyboard(path)
