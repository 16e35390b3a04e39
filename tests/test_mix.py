from __future__ import annotations

import json
from collections import Counter

import pytest

from ecsynth.mix import MixSpec, continue_plan, filter_by_weight, mix_datasets
from ecsynth.records import ECExample


def _weighted(weights):
    return [
        ECExample(id=f"e{i}", source="s", target="t", weight=w, provenance="synthetic")
        for i, w in enumerate(weights)
    ]


def test_filter_boundary_inclusive():
    kept = filter_by_weight(_weighted([0.5, 1.0, 1.7]), threshold=1.0)
    assert [ex.weight for ex in kept] == [1.0, 1.7]
    assert all(ex.provenance == "synthetic_filtered" for ex in kept)


def test_filter_at_c_min_keeps_all():
    examples = _weighted([0.011, 0.5, 1.99])
    kept = filter_by_weight(examples, threshold=0.01)
    assert len(kept) == len(examples)


def test_filter_requires_weights():
    examples = [ECExample(id="e", source="s", target="t")]
    with pytest.raises(ValueError, match="without weights"):
        filter_by_weight(examples, 1.0)


def test_filter_idempotent_and_subset():
    examples = _weighted([0.3, 0.9, 1.0, 1.5])
    once = filter_by_weight(examples, 1.0)
    twice = filter_by_weight(once, 1.0)
    assert once == twice
    assert {ex.id for ex in once} <= {ex.id for ex in examples}


def _datasets(n_orig=100, n_synth=1000):
    orig = [
        ECExample(id=f"o{i}", source="s", target="t", provenance="original")
        for i in range(n_orig)
    ]
    synth = [
        ECExample(id=f"y{i}", source="s", target="t", provenance="synthetic")
        for i in range(n_synth)
    ]
    return orig, synth


def test_mix_exact_counts_1_to_4():
    orig, synth = _datasets(100, 1000)
    mixed = mix_datasets(orig, synth, MixSpec(ratio=(1, 4), seed=0))
    assert len(mixed) == 500
    counts = Counter(ex.provenance for ex in mixed)
    assert counts["original"] == 100
    assert counts["synthetic"] == 400


def test_mix_1_to_1_equal_sizes_each_exactly_once():
    orig, synth = _datasets(50, 50)
    mixed = mix_datasets(orig, synth, MixSpec(ratio=(1, 1), seed=3))
    assert len(mixed) == 100
    assert Counter(ex.id for ex in mixed) == Counter(
        [ex.id for ex in orig] + [ex.id for ex in synth]
    )


def test_mix_deterministic():
    orig, synth = _datasets(30, 200)
    a = mix_datasets(orig, synth, MixSpec(ratio=(1, 4), seed=7))
    b = mix_datasets(orig, synth, MixSpec(ratio=(1, 4), seed=7))
    assert [ex.id for ex in a] == [ex.id for ex in b]


def test_mix_ratio_exact_per_block():
    orig, synth = _datasets(20, 300)
    a, b = 2, 3
    mixed = mix_datasets(orig, synth, MixSpec(ratio=(a, b), seed=1))
    for start in range(0, len(mixed), a + b):
        block = mixed[start : start + a + b]
        counts = Counter(ex.provenance for ex in block)
        assert counts["original"] == a
        assert counts["synthetic"] == b


def test_mix_synthetic_epochs_without_replacement():
    orig, synth = _datasets(10, 25)
    mixed = mix_datasets(orig, synth, MixSpec(ratio=(1, 4), seed=2), total=50)
    synth_ids = [ex.id for ex in mixed if ex.provenance == "synthetic"]
    # 40 synthetic draws over a pool of 25: first epoch uses each once
    counts = Counter(synth_ids)
    assert max(counts.values()) <= 2
    assert sum(counts.values()) == 40


def test_mix_explicit_total():
    orig, synth = _datasets(100, 400)
    mixed = mix_datasets(orig, synth, MixSpec(ratio=(1, 4), seed=0), total=250)
    assert len(mixed) == 250


def test_mix_requires_nonempty():
    orig, synth = _datasets(5, 5)
    with pytest.raises(ValueError):
        mix_datasets([], synth, MixSpec())
    with pytest.raises(ValueError):
        mix_datasets(orig, [], MixSpec())


def test_mix_spec_validation():
    with pytest.raises(ValueError):
        MixSpec(ratio=(0, 4))


def test_continue_plan_contmixfil(tmp_path):
    paths = {}
    for key in ("synthetic", "mix_filtered"):
        p = tmp_path / f"{key}.jsonl"
        p.write_text("", encoding="utf-8")
        paths[key] = str(p)
    manifest = continue_plan("ContMixFil", paths)
    phases = manifest["phases"]
    assert len(phases) == 2
    assert phases[0]["dataset_path"] == paths["synthetic"]
    assert phases[1]["dataset_path"] == paths["mix_filtered"]
    assert (phases[0]["start_step"], phases[0]["end_step"]) == (0, 1000)
    assert (phases[1]["start_step"], phases[1]["end_step"]) == (1000, 4000)
    assert manifest["checkpoints"] == [600, 1000, 2000, 4000]
    assert manifest["total_steps"] == phases[-1]["end_step"]
    assert all(p["batch_multiplier"] == 4 for p in phases)


def test_continue_plan_contorig(tmp_path):
    paths = {}
    for key in ("synthetic", "original"):
        p = tmp_path / f"{key}.jsonl"
        p.write_text("", encoding="utf-8")
        paths[key] = str(p)
    manifest = continue_plan("ContOrig", paths)
    assert manifest["phases"][1]["dataset_path"] == paths["original"]


def test_continue_plan_missing_dataset(tmp_path):
    p = tmp_path / "synthetic.jsonl"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="mix_filtered"):
        continue_plan("ContMixFil", {"synthetic": str(p)})


def test_continue_plan_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        continue_plan("ContNothing", {})


def test_manifest_json_round_trip():
    # continue_plan returns the object manifest.json holds, keys in file order
    manifest = continue_plan("ContMix", {"synthetic": "synth.jsonl", "mix": "mix.jsonl"})
    expected = {
        "strategy": "ContMix",
        "checkpoints": [600, 1000, 2000, 4000],
        "total_steps": 4000,
        "phases": [
            {"dataset_path": "synth.jsonl", "start_step": 0, "end_step": 1000, "batch_multiplier": 4},
            {"dataset_path": "mix.jsonl", "start_step": 1000, "end_step": 4000, "batch_multiplier": 4},
        ],
    }
    assert json.loads(json.dumps(manifest)) == manifest == expected
    assert json.dumps(manifest) == json.dumps(expected)
