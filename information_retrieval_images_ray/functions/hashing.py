"""Deterministic content hashing.

The reference's document identity is a content hash of the raw bytes
(md5, /root/reference/db.py:120-122, caption_generator.py:14-17); our
per-row end-to-end invariant is ``sha256(content)`` (BASELINE.json
``input_hint``). All hashing here is process-independent (no python
``hash()``, which is salted per process).
"""

from __future__ import annotations

import hashlib


def md5_u64(data: str | bytes) -> int:
    """64-bit int from the md5 hex prefix — chosen because DuckDB
    mirrors it EXACTLY:
    ``CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT)`` — which is
    what makes the hash splits, samplers, HLL and count-min registers
    and the text embedder SQL-oracle-checkable."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int(hashlib.md5(data).hexdigest()[:16], 16)


def _md5_60(s: str) -> int:
    """60-bit int from the md5 hex prefix — the signed-BIGINT sibling of
    ``md5_u64``, mirrored in DuckDB as
    ``CAST(concat('0x', substr(md5(s), 1, 15)) AS BIGINT)``."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:15], 16)
