"""Deterministic hashing, seeding, and normalization helpers, the one HTTP POST,
and the one BLAS thread pin.

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
