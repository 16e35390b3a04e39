"""Deterministic hashing, seeding, and normalization helpers, and the one HTTP POST.

Python's builtin hash() is salted per process, so every derived seed in the
pipeline goes through blake2b instead. All text comparison in the toolkit is
done byte-wise on NFC-normalized strings.
"""

from __future__ import annotations

import hashlib
import json
import time
import unicodedata
import urllib.request
from pathlib import Path


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
