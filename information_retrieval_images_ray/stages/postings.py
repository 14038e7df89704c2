"""Posting-list encoding stages (used inside groupby().map_groups).

Final segment row layout per (shard, term):

- ``df_local``  postings count within the doc-shard
- ``docs``      binary — varbyte doc_id stream, delta-coded with a
                restart every ``block_size`` postings: each block's
                first value is the ABSOLUTE doc_id, the rest are gaps
- ``tfs``       binary — varbyte stream of tf, in doc_id order

A segment row depends only on its shard's postings, not on any corpus
statistic. The restarts in ``docs`` once served block-max WAND's skip
table; they are kept so that ``query.decode_all_blocks`` is unchanged
and every index on disk stays readable with no format fork. Indexes
written with WAND's five extra columns (``block_*`` skip and offset
lists, per-block and per-term score bounds) still load: readers read
only ``term``, ``df_local``, ``docs`` and ``tfs``.

A whole shard is encoded in one vectorized pass (``encode_shard`` ->
``encode_terms_stream``), byte-identical to encoding each term alone
with ``encode_posting`` (tests/test_codec.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.codec import delta_encode, encode_varbyte, encode_varbyte_with_lengths

BLOCK_SIZE = 128


def encode_posting(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> dict:
    """Encode one term's postings into a segment row."""
    order = np.argsort(doc_ids, kind="stable")
    doc_ids = doc_ids[order].astype(np.uint64)
    tfs = tfs[order].astype(np.uint64)
    return {
        "df_local": np.uint32(len(doc_ids)),
        "docs": b"".join(
            encode_varbyte(delta_encode(doc_ids[s:s + block_size]))
            for s in range(0, len(doc_ids), block_size)
        ),
        "tfs": encode_varbyte(tfs),
    }


# Explicit Arrow schema for final segment rows, so every written
# Parquet file has an identical, portable schema.
SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("df_local", pa.uint32()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
    ]
)


def encode_shard(group: pa.Table, block_size: int = BLOCK_SIZE) -> pa.Table:
    """map_groups fn for one doc-shard: its docterms rows (doc_id,
    terms, tfs, shard) -> one SEGMENT_SCHEMA row per term.

    The rows are exploded to one posting per (term, doc) with Arrow list
    flattening, sorted by (term, doc_id) and encoded in ONE
    ``encode_terms_stream`` pass."""
    terms = group["terms"].combine_chunks()
    lens = terms.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
    if lens.sum() == 0:  # no doc of this shard has a token
        return SEGMENT_SCHEMA.empty_table()
    postings = pa.table(
        {
            "term": terms.flatten(),
            "doc_id": np.repeat(
                group["doc_id"].to_numpy().astype(np.uint64), lens),
            "tf": group["tfs"].combine_chunks().flatten().cast(pa.uint64()),
        }
    ).sort_by([("term", "ascending"), ("doc_id", "ascending")])
    return encode_terms_stream(
        postings["term"].to_numpy(zero_copy_only=False),
        postings["doc_id"].to_numpy(),
        postings["tf"].to_numpy(),
        int(group["shard"][0].as_py()), block_size,
    )


def encode_terms_stream(
    terms: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    shard: int,
    block_size: int = BLOCK_SIZE,
) -> pa.Table:
    """Vectorized core: a posting stream ALREADY lex-sorted by
    (term, doc_id) -> one SEGMENT_SCHEMA row per term.

    A restart (absolute doc_id) is placed at every term start and every
    block_size-th posting within a term, exactly the per-block format
    ``encode_posting`` emits, so the gap stream is ONE np.where and ONE
    varbyte pass encodes all terms' docs (and one more all tfs); each
    term's bytes are then a slice at its cumulative byte offset."""
    n = len(terms)
    uniq, term_starts = np.unique(terms, return_index=True)
    tbounds = np.append(term_starts, n)
    df = np.diff(tbounds)

    pos_in_term = np.arange(n, dtype=np.int64) - np.repeat(term_starts, df)
    is_restart = (pos_in_term % block_size) == 0
    prev = np.empty_like(doc_ids)
    prev[0] = 0
    prev[1:] = doc_ids[:-1]
    gaps = np.where(is_restart, doc_ids, doc_ids - prev)

    def per_term(values: np.ndarray) -> list[bytes]:
        buf, nbytes = encode_varbyte_with_lengths(values)
        cum = np.concatenate(([0], np.cumsum(nbytes)))[tbounds]
        return [buf[cum[i]: cum[i + 1]] for i in range(len(uniq))]

    return pa.Table.from_arrays(
        [
            pa.array(uniq, pa.string()),
            pa.array(np.full(len(uniq), shard, np.int32), pa.int32()),
            pa.array(df.astype(np.uint32), pa.uint32()),
            pa.array(per_term(gaps), pa.binary()),
            pa.array(per_term(tfs), pa.binary()),
        ],
        schema=SEGMENT_SCHEMA,
    )
