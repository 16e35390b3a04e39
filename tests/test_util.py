from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from ecsynth import util


@pytest.fixture
def blas_setters():
    """Each loaded OpenBLAS's setter, every count set to 2 for the test and put back after."""
    import numpy  # noqa: F401  loads numpy's OpenBLAS

    setters = util._openblas_setters()
    if not setters:
        pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local (>= 0.3.27)")
    original = [set_local(2) for set_local in setters]
    yield setters
    for set_local, n in zip(setters, original):
        set_local(n)


def _blas_threads(setters) -> list[int]:
    """Each library's thread count, read by setting it and putting it back."""
    counts = [set_local(1) for set_local in setters]
    for set_local, n in zip(setters, counts):
        set_local(n)
    return counts


def test_one_blas_thread_pins_each_library_and_restores_it(blas_setters):
    with util.one_blas_thread() as pinned:
        assert pinned
        assert _blas_threads(blas_setters) == [1] * len(blas_setters)
    assert _blas_threads(blas_setters) == [2] * len(blas_setters)
    with pytest.raises(KeyError):
        with util.one_blas_thread():
            raise KeyError("in the block")
    assert _blas_threads(blas_setters) == [2] * len(blas_setters)


def test_one_blas_thread_nested_holders_restore_once(blas_setters):
    with util.one_blas_thread():
        with util.one_blas_thread():
            assert _blas_threads(blas_setters) == [1] * len(blas_setters)
        # the inner holder left; the outer one still holds the pin
        assert _blas_threads(blas_setters) == [1] * len(blas_setters)
    assert _blas_threads(blas_setters) == [2] * len(blas_setters)


def test_one_blas_thread_overlapping_holders_restore_once(blas_setters):
    # the setter is process-wide in pthreads builds: the pin holds until its last holder leaves
    entered, release = threading.Event(), threading.Event()

    def hold():
        with util.one_blas_thread():
            entered.set()
            release.wait(10)

    other = threading.Thread(target=hold)
    with util.one_blas_thread():
        other.start()
        assert entered.wait(10)
    assert _blas_threads(blas_setters) == [1] * len(blas_setters)
    release.set()
    other.join(10)
    assert not other.is_alive()
    assert _blas_threads(blas_setters) == [2] * len(blas_setters)


def test_one_blas_thread_concurrent_holders_keep_the_pin(monkeypatch):
    count = [3]

    def set_count(n):
        previous, count[0] = count[0], n
        return previous

    monkeypatch.setattr(util, "_openblas_setters", lambda: (set_count,))
    unpinned = []

    def worker():
        for _ in range(2000):
            with util.one_blas_thread():
                if count[0] != 1:
                    unpinned.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert unpinned == []
    assert count == [3]


def test_one_blas_thread_without_a_setter_holds_nothing(monkeypatch):
    monkeypatch.setattr(util, "_openblas_setters", lambda: ())
    with util.one_blas_thread() as pinned:
        assert pinned is False


def test_draws_are_default_rngs_draws():
    # the calls interleave 64-bit draws (random) with 32-bit ones (integers,
    # choice), which share the kept half of an output
    plan = np.random.default_rng(17)
    for seed in range(400):
        rng, draws = np.random.default_rng(seed), util.Draws(seed, chunk=int(plan.integers(1, 9)))
        for _ in range(10):
            op = plan.integers(3)
            if op == 0:
                assert draws.random() == rng.random()
            elif op == 1:
                low = int(plan.integers(-5, 5))
                high = low + int(plan.integers(1, 12))
                assert draws.integers(low, high) == rng.integers(low, high)
            else:
                n = int(plan.integers(1, 9))
                size = int(plan.integers(0, n + 1))
                assert draws.choice(n, size) == rng.choice(n, size=size, replace=False).tolist()


def test_draws_at_the_edges_of_their_ranges():
    for seed in range(20):
        rng, draws = np.random.default_rng(seed), util.Draws(seed)
        # 3 * 2**30 + 7 rejects about a quarter of its 32-bit draws
        for high in (2**32 - 1, 3 * 2**30 + 7, 2**31 + 1, 10_000, 1):
            assert draws.integers(0, high) == rng.integers(0, high)
        assert draws.choice(10_000, 50) == rng.choice(10_000, size=50, replace=False).tolist()
        assert draws.choice(300, 300) == rng.choice(300, size=300, replace=False).tolist()
        assert draws.random() == rng.random()
    draws = util.Draws(0)
    with pytest.raises(ValueError):
        draws.integers(0, 2**32)
    with pytest.raises(ValueError):
        draws.choice(10_001, 1)
    with pytest.raises(ValueError):
        draws.choice(3, 4)
