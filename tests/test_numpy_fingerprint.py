"""Fingerprints of the numpy routines every golden artifact depends on.

The goldens are made from numpy's seeded `Generator` draws and from its `exp`
and `log`. NEP 19 keeps the bit generators' streams stable across numpy
versions, but not the `Generator` methods' algorithms. Each case here hashes
one method the pipeline calls, at fixed seeds and at the argument shapes the
stages use, so a numpy that changes one fails here under that method's name
rather than only as dozens of mismatched artifact hashes.

The digests were taken with numpy 2.4.6 on an x86-64 CPU with AVX-512. The
`exp` and `log` digests also depend on the SIMD path numpy dispatches to, as
the goldens do.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np
import pytest


def _integers() -> list:
    # scalar draws below n: the k-means++ first pick (n = corpus size) and the demo's word picks
    g = np.random.default_rng(11)
    return [g.integers(n) for n in (4, 9, 2_000, 50_000) for _ in range(16)]


def _random() -> list:
    # scalar draws (seeding, simbench's mock outputs) and a (models, samples) array (simbench)
    g = np.random.default_rng(12)
    return [g.random() for _ in range(32)] + g.random((8, 300)).ravel().tolist()


def _choice_with_replacement() -> list:
    # one pick from an index array: k-means++'s fallback among non-chosen points
    g = np.random.default_rng(13)
    return [g.choice(np.arange(n)[1::2]) for n in (3, 40, 2_001) for _ in range(8)]


def _choice_without_replacement() -> list:
    # `quota_sample`: per_cluster picks from a cluster's members, both of numpy's algorithms
    g = np.random.default_rng(14)
    out: list = []
    for n, size in ((10, 10), (25, 10), (100, 20), (5_000, 20), (100_000, 20)):
        out += g.choice(n, size=size, replace=False).tolist()
    return out


def _permutation() -> list:
    # `mix`: an order over a whole dataset and over one block
    g = np.random.default_rng(15)
    return [i for n in (1, 5, 283, 2_000) for i in g.permutation(n).tolist()]


def _uniform() -> list:
    # simbench's base accuracy per model
    g = np.random.default_rng(16)
    return g.uniform(0.55, 0.9, size=8).tolist() + g.uniform(0.55, 0.9, size=50).tolist()


def _normal() -> list:
    # the fit's random restarts (3,), simbench's scores (n,), skills (models,) and noise (models, d)
    g = np.random.default_rng(17)
    out: list = []
    for loc, scale, size in ((0.0, 4.0, 3), (-3.0, 0.6, 300), (0.0, 0.5, 8), (0.0, 0.01, (8, 4))):
        out += np.ravel(g.normal(loc, scale, size=size)).tolist()
    return out


def _random_raw() -> list:
    # `util.Draws` reads raw PCG64 outputs in chunks of len(text) + 4 and of 8
    bits = np.random.PCG64(18)
    return [x for chunk in (8, 44, 1, 300) for x in bits.random_raw(chunk).tolist()]


_X = np.concatenate([np.linspace(-750.0, 709.0, 20_001), np.linspace(-3.0, 3.0, 20_001)])


def _exp() -> list:
    return np.exp(_X).tolist()


def _log() -> list:
    # the logit of rates in (0, 1) and a wide positive range
    p = np.linspace(0.0005, 0.9995, 20_001)
    wide = np.exp2(np.linspace(-1000.0, 1000.0, 20_001))
    return np.log(np.concatenate([p / (1.0 - p), wide])).tolist()


CASES: dict[str, tuple[Callable[[], list], str]] = {
    "Generator.integers": (_integers, "e91d47aafdf3a40a"),
    "Generator.random": (_random, "08c1e090978d716f"),
    "Generator.choice(replace=True)": (_choice_with_replacement, "09c2cb5bf3526b12"),
    "Generator.choice(replace=False)": (_choice_without_replacement, "48220a3d66b4198c"),
    "Generator.permutation": (_permutation, "3700959108f89187"),
    "Generator.uniform": (_uniform, "e4e9eb9f497659a9"),
    "Generator.normal": (_normal, "cd0249abdf2d2e2a"),
    "PCG64.random_raw": (_random_raw, "64cdd7df1f957e37"),
    "np.exp": (_exp, "e892a6a091c07e8a"),
    "np.log": (_log, "eb10a7c181548c13"),
}


def fingerprint(values: list) -> str:
    """A short sha256 of the values' reprs: an int as an int, a float with all its digits."""
    text = repr([float(v) if isinstance(v, float) else int(v) for v in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("method", sorted(CASES))
def test_numpy_routine_matches_the_goldens_numpy(method):
    draw, expected = CASES[method]
    got = fingerprint(draw())
    assert got == expected, (
        f"{method} returns other values than numpy 2.4.6 did (digest {got}, expected {expected}); "
        f"golden artifacts built from it will differ"
    )
