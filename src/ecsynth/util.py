"""Deterministic hashing, seeding, and normalization helpers, numpy's draws
without its per-call overhead, the one HTTP POST, and the one BLAS thread pin.

Python's builtin hash() is salted per process, so every derived seed in the
pipeline goes through blake2b instead. All text comparison in the toolkit is
done byte-wise on NFC-normalized strings.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import threading
import time
import unicodedata
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


def nfc(text: str) -> str:
    """Unicode NFC normalization, applied to every text field at construction."""
    return unicodedata.normalize("NFC", text)


def stable_hash(*parts: object) -> int:
    """64-bit unsigned hash of the parts, stable across processes and platforms."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def derive_seed(root_seed: int, *scope: object) -> int:
    """Per-stage or per-item seed derived from a root seed.

    Seeding by (root, id) rather than by position makes outputs independent
    of input ordering and of how work is scheduled.
    """
    return stable_hash(root_seed, *scope) % (2**32)


_MASK32 = 0xFFFFFFFF


class Draws:
    """The draws of `np.random.default_rng(seed)`, made in Python from its raw PCG64 outputs.

    A Generator call costs microseconds of argument handling, more than the
    draw itself. This reads the bit generator's 64-bit outputs `chunk` at a
    time (`random_raw`) and makes each draw from them as numpy's C code does,
    so a sequence of calls returns what the same calls on
    `np.random.default_rng(seed)` return:
    - `random()` is `next_double`: the top 53 bits of one output, times 2**-53.
    - a bounded integer is Lemire's method on `next_uint32`, which takes the
      low half of a new output and keeps the high half for the next 32-bit
      draw. `integers` and `choice` take their draws so.
    Reading ahead in chunks leaves the bit generator past the draws made, so a
    caller uses only this object's draws, never the bit generator's.
    """

    def __init__(self, seed: int, chunk: int = 8):
        self._bits = np.random.PCG64(seed)  # what default_rng(seed) wraps
        self._chunk = chunk
        self._raw: list[int] = []
        self._at = 0  # next unused output in _raw
        self._high: int | None = None  # the kept half of the last `next_uint32`

    def _next64(self) -> int:
        if self._at == len(self._raw):
            self._raw, self._at = self._bits.random_raw(self._chunk).tolist(), 0
        self._at += 1
        return self._raw[self._at - 1]

    def _next32(self) -> int:
        if self._high is not None:
            out, self._high = self._high, None
            return out
        out = self._next64()
        self._high = out >> 32
        return out & _MASK32

    def _bounded(self, rng: int) -> int:
        """A uniform int in [0, rng]: numpy's `random_bounded_uint64(0, rng)` without masking."""
        if rng == 0:
            return 0
        if not 0 < rng < _MASK32:
            raise ValueError(f"Draws: a bounded draw takes a range in [0, 2**32 - 1), got {rng}")
        excl = rng + 1
        m = self._next32() * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - rng) % excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
        return m >> 32

    def random(self) -> float:
        """`Generator.random()`."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        """`Generator.integers(low, high)`, for high - low <= 2**32 - 1."""
        return low + self._bounded(high - low - 1)

    def choice(self, n: int, size: int) -> list[int]:
        """`Generator.choice(n, size, replace=False)` for n <= 10,000, in its order.

        That is Floyd's sampling, then a shuffle of the picks; above 10,000
        numpy shuffles a tail of range(n) instead when size > n // 50.
        """
        if not 0 <= size <= n <= 10_000:
            raise ValueError(f"Draws.choice: needs 0 <= size <= n <= 10000, got n={n}, size={size}")
        picks: list[int] = []
        taken: set[int] = set()
        for j in range(n - size, n):
            pick = self._bounded(j)
            picks.append(j if pick in taken else pick)
            taken.add(picks[-1])
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def config_hash(obj: object) -> str:
    """sha256 of a canonical JSON rendering; identifies a run configuration."""
    payload = json.dumps(obj, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# what a POST retries: transport errors (URLError and TimeoutError are OSErrors), bad replies
TRANSIENT_ERRORS = (OSError, KeyError, ValueError)
# and its policy: timeout (s), retries after the first attempt, backoff step (s)
TIMEOUT = 30.0
MAX_RETRIES = 2
RETRY_BACKOFF = 0.2


def post_text(
    endpoint: str, prompt: str, token: str = "",
    timeout: float = TIMEOUT, max_retries: int = MAX_RETRIES, retry_backoff: float = RETRY_BACKOFF,
) -> str:
    """POST {"prompt": prompt} as JSON with an optional bearer token; return the reply's "text".

    A TRANSIENT_ERRORS failure is retried max_retries times, sleeping
    retry_backoff * attempt seconds before each retry; the last one is raised.
    """
    payload = json.dumps({"prompt": prompt}).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    for attempt in range(max(max_retries, 0) + 1):  # always one attempt
        try:
            req = urllib.request.Request(endpoint, data=payload, headers=headers)
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))["text"]
        except TRANSIENT_ERRORS:
            if attempt >= max_retries:
                raise
            time.sleep(retry_backoff * (attempt + 1))


@functools.cache
def _openblas_setters() -> tuple[Callable[[int], int], ...]:
    """`openblas_set_num_threads_local` of each OpenBLAS the process has loaded.

    The loaded libraries are read from /proc/self/maps, so this finds nothing
    off Linux, and RTLD_NOLOAD opens only a library already in memory. A build
    older than OpenBLAS 0.3.27 lacks the symbol and is skipped. Each setter
    sets the thread count and returns the count it replaced. The list is
    read once, at the first call, so that call comes after numpy is imported.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        try:
            set_local = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_local.argtypes, set_local.restype = [ctypes.c_int], ctypes.c_int
        setters.append(set_local)
    return tuple(setters)


_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved: list[int] = []


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Hold every loaded OpenBLAS to one thread for the block, then restore each count.

    Yields whether any library is held. OpenBLAS splits a product among its
    threads in ways that can change the last bit of a sum, so a result
    computed under the pin does not depend on the thread count, and no idle
    BLAS thread spins between calls. In pthreads builds the "local" setter
    sets the process-wide count, so overlapping holders share one pin: the
    first saves the counts and the last restores them.
    """
    global _blas_holders, _blas_saved
    setters = _openblas_setters()
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = [set_local(1) for set_local in setters]
        _blas_holders += 1
    try:
        yield bool(setters)
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for set_local, n in zip(setters, _blas_saved):
                    set_local(n)
