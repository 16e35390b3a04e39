"""Seeded mobile-typing noise: transposition, omission, repetition, spatial errors.

Each character position draws at most one event from the configured
per-position probabilities. Spatial errors replace a letter with a uniformly
chosen neighbor on the keyboard (`QWERTY`, or the `records.KeyboardModel`
that `records.read_layout` reads), preserving case; characters missing from
the layout are never spatially substituted. Only sources are ever corrupted;
targets pass through untouched.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Sequence

from .records import ECExample, KeyboardModel
from .util import Draws, derive_seed

# rows staggered as on a phone keyboard; diagonal neighbors included
_QWERTY_ROWS = ("qwertyuiop", "asdfghjkl", "zxcvbnm")


def _qwerty_adjacency() -> dict[str, frozenset[str]]:
    adj: dict[str, set[str]] = {ch: set() for row in _QWERTY_ROWS for ch in row}

    def link(a: str, b: str) -> None:
        adj[a].add(b)
        adj[b].add(a)

    for r, row in enumerate(_QWERTY_ROWS):
        for i, ch in enumerate(row):
            if i + 1 < len(row):
                link(ch, row[i + 1])
            if r + 1 < len(_QWERTY_ROWS):
                below = _QWERTY_ROWS[r + 1]
                for j in (i - 1, i):  # lower row sits half a key to the right
                    if 0 <= j < len(below):
                        link(ch, below[j])
    return {ch: frozenset(near) for ch, near in adj.items()}


QWERTY = KeyboardModel(layout_name="qwerty", adjacency=_qwerty_adjacency())


@dataclass(frozen=True)
class TypoConfig:
    # defaults tuned for visibly corrupted but still recoverable text
    p_transpose: float = 0.01
    p_omit: float = 0.015
    p_repeat: float = 0.01
    p_spatial: float = 0.02
    max_errors_per_example: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        rates = (self.p_transpose, self.p_omit, self.p_repeat, self.p_spatial)
        if any(not 0.0 <= p <= 1.0 for p in rates):
            raise ValueError(f"rates must be in [0, 1], got {rates}")
        if sum(rates) > 1.0:
            raise ValueError(f"per-position rates sum to {sum(rates)} > 1")
        if self.max_errors_per_example < 1:
            raise ValueError("max_errors_per_example must be positive")


@dataclass(frozen=True)
class TypoEvent:
    position: int
    kind: str  # transpose | omit | repeat | spatial


_KINDS = ("transpose", "omit", "repeat", "spatial", None)


def corrupt(
    text: str,
    cfg: TypoConfig,
    keyboard: KeyboardModel = QWERTY,
    seed: int | None = None,
) -> tuple[str, list[TypoEvent]]:
    """Corrupt one string; returns (corrupted text, event log).

    Per event, length changes by -1 (omit), +1 (repeat), 0 (transpose,
    spatial). Transposition is skipped at the final character.
    """
    if not text:
        raise ValueError("corrupt: empty text")
    # the draws of default_rng(seed).random and .integers; one chunk holds a
    # draw per position and a few for spatial picks
    rng = Draws(cfg.seed if seed is None else seed, chunk=len(text) + 4)
    # one uniform draw per position; its bisection picks the event, or None at `rate` and above
    cumulative = list(accumulate((cfg.p_transpose, cfg.p_omit, cfg.p_repeat, cfg.p_spatial)))
    rate = cumulative[-1]
    out: list[str] = []  # the text up to `kept`, with its events applied
    events: list[TypoEvent] = []
    kept = i = 0
    while i < len(text) and len(events) < cfg.max_errors_per_example:
        u = rng.random()
        if u >= rate:
            i += 1
            continue
        ch, kind = text[i], _KINDS[bisect_right(cumulative, u)]
        if kind == "transpose" and i + 1 < len(text):
            typed = text[i + 1] + ch
        elif kind == "omit":
            typed = ""
        elif kind == "repeat":
            typed = ch + ch
        elif kind == "spatial" and (near := keyboard.neighbors(ch)):
            pick = near[rng.integers(0, len(near))]
            typed = pick.upper() if ch.isupper() else pick
        else:
            # the drawn kind does not apply at this position
            i += 1
            continue
        out += text[kept:i], typed
        events.append(TypoEvent(position=i, kind=kind))
        i += 2 if kind == "transpose" else 1
        kept = i
    return "".join(out) + text[kept:], events


def corrupt_dataset(
    examples: Sequence[ECExample],
    cfg: TypoConfig,
    keyboard: KeyboardModel = QWERTY,
) -> list[ECExample]:
    """Corrupt every source; targets unchanged.

    Per-example seeds derive from (cfg.seed, example id), so outputs do not
    depend on dataset order or worker scheduling.
    """
    out = []
    for ex in examples:
        corrupted, _ = corrupt(ex.source, cfg, keyboard, seed=derive_seed(cfg.seed, ex.id))
        out.append(replace(ex, source=corrupted))
    return out
