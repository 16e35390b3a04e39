"""Training-set construction: weight filtering, ratio mixing, continue-training plans.

Mixing emits fixed-pattern blocks of a originals + b synthetics (ratio a:b),
shuffled within each block. Synthetic examples are consumed without
replacement and reshuffled per epoch; originals repeat as needed, so the
small original set is oversampled rather than exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .records import ECExample
from .util import derive_seed

DEFAULT_TOTAL_STEPS = 4000
DEFAULT_PHASE1_STEPS = 1000
DEFAULT_CHECKPOINTS = (600, 1000, 2000, 4000)
DEFAULT_BATCH_MULTIPLIER = 4

STRATEGIES = ("ContOrig", "ContMix", "ContMixFil")


@dataclass(frozen=True)
class MixSpec:
    ratio: tuple[int, int] = (1, 4)  # original : synthetic
    seed: int = 0

    def __post_init__(self) -> None:
        a, b = self.ratio
        if a < 1 or b < 1:
            raise ValueError(f"ratio components must be >= 1, got {self.ratio}")
        object.__setattr__(self, "ratio", (int(a), int(b)))


def filter_by_weight(examples: Sequence[ECExample], threshold: float) -> list[ECExample]:
    """Keep examples with weight >= threshold (inclusive); provenance becomes filtered."""
    unweighted = [ex.id for ex in examples if ex.weight is None]
    if unweighted:
        raise ValueError(f"examples without weights: {unweighted[:5]}")
    return [
        replace(ex, provenance="synthetic_filtered")
        for ex in examples
        if ex.weight >= threshold
    ]


def _epoch_stream(n: int, rng: np.random.Generator) -> Iterator[int]:
    while True:
        for i in rng.permutation(n):
            yield int(i)


def mix_datasets(
    original: Sequence[ECExample],
    synthetic: Sequence[ECExample],
    spec: MixSpec,
    total: int | None = None,
) -> list[ECExample]:
    """Interleave the two sources at exactly the configured ratio.

    Default length covers every original once: ceil(|original| / a) blocks of
    a + b examples. An explicit total truncates or extends the block stream.
    """
    if not original or not synthetic:
        raise ValueError("both original and synthetic datasets must be non-empty")
    if total is not None and total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    a, b = spec.ratio
    if total is None:
        n_blocks = math.ceil(len(original) / a)
        total = n_blocks * (a + b)
    else:
        n_blocks = math.ceil(total / (a + b))
    orig_rng = np.random.default_rng(derive_seed(spec.seed, "original"))
    synth_rng = np.random.default_rng(derive_seed(spec.seed, "synthetic"))
    block_rng = np.random.default_rng(derive_seed(spec.seed, "block"))
    orig_stream = _epoch_stream(len(original), orig_rng)
    synth_stream = _epoch_stream(len(synthetic), synth_rng)

    out: list[ECExample] = []
    for _ in range(n_blocks):
        block = [original[next(orig_stream)] for _ in range(a)]
        block += [synthetic[next(synth_stream)] for _ in range(b)]
        order = block_rng.permutation(len(block))
        out.extend(block[i] for i in order)
    return out[:total]


def continue_plan(strategy: str, paths: dict[str, str]) -> dict:
    """Two-phase schedule: full synthetic first, then the strategy's phase-2 set.

    Returns the manifest as the JSON object `manifest.json` holds. paths
    keys: "synthetic" always; "original" for ContOrig; "mix" for ContMix;
    "mix_filtered" for ContMixFil. Batch size is recorded at x4 for both
    phases (the large-batch setting synthetic training runs at).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    phase2_key = {"ContOrig": "original", "ContMix": "mix", "ContMixFil": "mix_filtered"}[strategy]
    for key in ("synthetic", phase2_key):
        if key not in paths:
            raise ValueError(f"strategy {strategy} requires a {key!r} dataset path")
    phases = (
        (paths["synthetic"], 0, DEFAULT_PHASE1_STEPS),
        (paths[phase2_key], DEFAULT_PHASE1_STEPS, DEFAULT_TOTAL_STEPS),
    )
    return {
        "strategy": strategy,
        "checkpoints": list(DEFAULT_CHECKPOINTS),
        "total_steps": DEFAULT_TOTAL_STEPS,
        "phases": [
            {
                "dataset_path": path,
                "start_step": start,
                "end_step": end,
                "batch_multiplier": DEFAULT_BATCH_MULTIPLIER,
            }
            for path, start, end in phases
        ],
    }
