"""Training-set construction: weight filtering, ratio mixing, continue-training plans.

Mixing emits fixed-pattern blocks of a originals + b synthetics (ratio a:b),
shuffled within each block. Synthetic examples are consumed without
replacement and reshuffled per epoch; originals repeat as needed, so the
small original set is oversampled rather than exhausted.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class Phase:
    dataset_path: str
    start_step: int
    end_step: int
    batch_multiplier: int = 1


@dataclass(frozen=True)
class TrainingManifest:
    strategy: str
    phases: tuple[Phase, ...]
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS

    def __post_init__(self) -> None:
        prev_end = None
        for p in self.phases:
            if p.start_step >= p.end_step:
                raise ValueError(f"phase step range [{p.start_step}, {p.end_step}) is empty")
            if prev_end is not None and p.start_step != prev_end:
                raise ValueError(
                    f"phase ranges must be contiguous: got start {p.start_step} after end {prev_end}"
                )
            prev_end = p.end_step

    @property
    def total_steps(self) -> int:
        return self.phases[-1].end_step

    def to_json(self) -> str:
        return json.dumps(
            {
                "strategy": self.strategy,
                "checkpoints": list(self.checkpoints),
                "total_steps": self.total_steps,
                "phases": [
                    {
                        "dataset_path": p.dataset_path,
                        "start_step": p.start_step,
                        "end_step": p.end_step,
                        "batch_multiplier": p.batch_multiplier,
                    }
                    for p in self.phases
                ],
            },
            indent=2,
        )


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


def continue_plan(strategy: str, paths: dict[str, str]) -> TrainingManifest:
    """Two-phase schedule: full synthetic first, then the strategy's phase-2 set.

    paths keys: "synthetic" always; "original" for ContOrig; "mix" for
    ContMix; "mix_filtered" for ContMixFil. Batch size is recorded at x4 for
    both phases (the large-batch setting synthetic training runs at).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    phase2_key = {"ContOrig": "original", "ContMix": "mix", "ContMixFil": "mix_filtered"}[strategy]
    for key in ("synthetic", phase2_key):
        if key not in paths:
            raise ValueError(f"strategy {strategy} requires a {key!r} dataset path")
    return TrainingManifest(
        strategy=strategy,
        phases=(
            Phase(
                dataset_path=paths["synthetic"],
                start_step=0,
                end_step=DEFAULT_PHASE1_STEPS,
                batch_multiplier=DEFAULT_BATCH_MULTIPLIER,
            ),
            Phase(
                dataset_path=paths[phase2_key],
                start_step=DEFAULT_PHASE1_STEPS,
                end_step=DEFAULT_TOTAL_STEPS,
                batch_multiplier=DEFAULT_BATCH_MULTIPLIER,
            ),
        ),
    )
