"""Posting-list encoding stages (used inside the build's per-shard tasks).

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

A whole shard is encoded in one vectorized pass (``encode_shard``),
byte-identical to encoding each term alone with ``encode_posting``
(tests/test_codec.py). The pass sorts only the shard's distinct terms:
the flattened term column is dictionary-encoded, the dictionary is
sorted once, and the postings are ordered by (term rank, doc_id) as
integers. One varbyte pass per column then encodes every term's
stream, and the ``docs`` and ``tfs`` columns are Arrow binary arrays
over those buffers, cut at each term's cumulative byte offset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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
    """Encode one doc-shard: its docterms rows (doc_id, terms, tfs,
    shard) -> one SEGMENT_SCHEMA row per term, sorted by term.

    The rows are exploded to one posting per (term, doc) with Arrow list
    flattening. Only the distinct terms are sorted (a dictionary encode
    plus ``sort_indices`` over the dictionary); the postings are then
    ordered by (term rank, doc_id) with one integer ``np.lexsort``.

    A restart (absolute doc_id) is placed at every term start and every
    block_size-th posting within a term, exactly the per-block format
    ``encode_posting`` emits, so the gap stream is ONE np.where and ONE
    varbyte pass encodes all terms' docs (and one more all tfs). Each
    binary column is then built over its varbyte buffer with the
    cumulative byte offsets at the term starts (no per-term copy)."""
    terms = group["terms"].combine_chunks()
    lens = terms.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
    if lens.sum() == 0:  # no doc of this shard has a token
        return SEGMENT_SCHEMA.empty_table()
    codes = terms.flatten().dictionary_encode()
    dictionary = codes.dictionary
    by_term = pc.sort_indices(dictionary).to_numpy()
    rank = np.empty(len(by_term), np.int64)
    rank[by_term] = np.arange(len(by_term))
    term_rank = rank[codes.indices.to_numpy()]
    doc_ids = np.repeat(group["doc_id"].to_numpy().astype(np.uint64), lens)
    tfs = group["tfs"].combine_chunks().flatten().to_numpy().astype(np.uint64)
    order = np.lexsort((doc_ids, term_rank))
    doc_ids, tfs = doc_ids[order], tfs[order]

    n, n_terms = len(order), len(by_term)
    df = np.bincount(term_rank, minlength=n_terms)
    tbounds = np.concatenate(([0], np.cumsum(df)))
    pos_in_term = np.arange(n, dtype=np.int64) - np.repeat(tbounds[:-1], df)
    is_restart = (pos_in_term % block_size) == 0
    prev = np.empty_like(doc_ids)
    prev[0] = 0
    prev[1:] = doc_ids[:-1]
    gaps = np.where(is_restart, doc_ids, doc_ids - prev)

    def per_term(values: np.ndarray) -> pa.Array:
        buf, nbytes = encode_varbyte_with_lengths(values)
        if len(buf) > np.iinfo(np.int32).max:  # pa.binary() offsets are int32
            raise OverflowError(f"shard stream of {len(buf)} B exceeds a binary column")
        offsets = np.concatenate(([0], np.cumsum(nbytes)))[tbounds].astype(np.int32)
        return pa.Array.from_buffers(
            pa.binary(), n_terms, [None, pa.py_buffer(offsets), pa.py_buffer(buf)])

    return pa.Table.from_arrays(
        [
            dictionary.take(by_term),
            pa.array(np.full(n_terms, int(group["shard"][0].as_py()), np.int32)),
            pa.array(df.astype(np.uint32)),
            per_term(gaps),
            per_term(tfs),
        ],
        schema=SEGMENT_SCHEMA,
    )
