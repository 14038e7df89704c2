"""Deterministic content hashing + document fingerprints.

The reference's document identity is a content hash of the raw bytes
(md5, /root/reference/db.py:120-122, caption_generator.py:14-17); our
per-row end-to-end invariant is ``sha256(content)`` (BASELINE.json
``input_hint``). All hashing here is process-independent (no python
``hash()``, which is salted per process).
"""

from __future__ import annotations

import hashlib

import numpy as np


def sha256_bytes(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def md5_hex(text: str) -> str:
    """Reference-compatible identity hash (db.py:120-122)."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def sha256_column(texts) -> list[bytes]:
    """Per-row sha256 digests for a batch of strings."""
    return [hashlib.sha256(t.encode("utf-8")).digest() for t in texts]


def stable_u64(data: str | bytes) -> int:
    """Deterministic 64-bit hash (blake2b) for sharding keys."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def md5_u64(data: str | bytes) -> int:
    """64-bit int from the md5 hex prefix — chosen (like ``_md5_60`` in
    pipelines/dedup.py) because DuckDB mirrors it EXACTLY:
    ``CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT)`` — which is
    what makes the MinHash/SimHash sketches SQL-oracle-checkable."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int(hashlib.md5(data).hexdigest()[:16], 16)


def token_fingerprint(tokens: list[str]) -> str:
    """Document fingerprint = md5 of the normalized token stream.

    SQL-parity: ``md5(array_to_string(tokens, ' '))`` in DuckDB.
    """
    return hashlib.md5(" ".join(tokens).encode("utf-8")).hexdigest()


def rolling_hashes(tokens: list[str], window: int, base: int = 1_000_003) -> np.ndarray:
    """Polynomial rolling hash over token windows (mod 2^64).

    Used for shingle fingerprints in near-dup detection; vectorized-ish:
    per-token 64-bit hashes first, then a numpy polynomial combine.
    """
    if len(tokens) < window:
        return np.empty(0, dtype=np.uint64)
    th = np.array([stable_u64(t) for t in tokens], dtype=np.uint64)
    n = len(th) - window + 1
    out = np.zeros(n, dtype=np.uint64)
    b = np.uint64(base)
    with np.errstate(over="ignore"):
        for j in range(window):
            out = out * b + th[j : j + n]
    return out
