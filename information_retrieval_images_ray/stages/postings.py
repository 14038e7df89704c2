"""Posting-list encoding stages (used inside groupby().map_groups).

Final segment row layout per (shard, term):

- ``df_local``        postings count within the doc-shard
- ``docs``            binary — per-block varbyte streams; each block's
                      first value is the ABSOLUTE doc_id, the rest are
                      gaps (delta restarts per block so WAND can decode
                      a block without touching its predecessors)
- ``tfs``             binary — per-block varbyte streams of tf
- ``block_last_doc``  list<uint64> — last doc_id of each block (the skip
                      pointer table)
- ``block_doc_off`` / ``block_tf_off``  list<uint64> byte offsets of
                      each block within the blobs (one extra trailing
                      entry = total length; uint64 because a hot term's
                      per-shard blob can exceed 4 GiB at the 10^12-doc
                      design point)
- ``block_max_partial`` list<float32> — max over the block of
                      tf*(k1+1)/(tf+k1*(1-b+b*dl/avgdl)), rounded UP to
                      float32 so it is always an upper bound (block-max
                      WAND safety); multiplied by idf at query time
- ``max_partial``     float32 term-level upper bound

A whole shard is encoded in one vectorized pass (``encode_shard`` ->
``encode_terms_stream``), byte-identical to encoding each term alone
with ``encode_posting`` (tests/test_codec.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.bm25 import BM25Params
from ..functions.codec import (
    decode_varbyte,
    delta_encode,
    encode_varbyte,
    encode_varbyte_with_lengths,
)

BLOCK_SIZE = 128


def _f32_upper(x: np.ndarray) -> np.ndarray:
    """float64 -> float32 rounded toward +inf (safe upper bounds)."""
    f = x.astype(np.float32)
    low = f.astype(np.float64) < x
    f[low] = np.nextafter(f[low], np.float32(np.inf))
    return f


def encode_posting(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avgdl: float,
    params: BM25Params = BM25Params(),
    block_size: int = BLOCK_SIZE,
) -> dict:
    """Encode one term's postings (ascending doc_ids) into a segment row."""
    order = np.argsort(doc_ids, kind="stable")
    doc_ids = doc_ids[order].astype(np.uint64)
    tfs = tfs[order].astype(np.uint64)
    dls = dls[order].astype(np.float64)
    n = len(doc_ids)
    k1, b = params.k1, params.b
    partial = tfs * (k1 + 1.0) / (tfs + k1 * (1.0 - b + b * dls / avgdl))

    doc_chunks: list[bytes] = []
    tf_chunks: list[bytes] = []
    block_last: list[int] = []
    block_max: list[np.float64] = []
    doc_off = [0]
    tf_off = [0]
    for s in range(0, n, block_size):
        e = min(n, s + block_size)
        ids = doc_ids[s:e]
        doc_chunks.append(encode_varbyte(delta_encode(ids)))
        tf_chunks.append(encode_varbyte(tfs[s:e]))
        block_last.append(int(ids[-1]))
        block_max.append(partial[s:e].max())
        doc_off.append(doc_off[-1] + len(doc_chunks[-1]))
        tf_off.append(tf_off[-1] + len(tf_chunks[-1]))
    bmax = _f32_upper(np.array(block_max, dtype=np.float64))
    return {
        "df_local": np.uint32(n),
        "docs": b"".join(doc_chunks),
        "tfs": b"".join(tf_chunks),
        "block_last_doc": np.array(block_last, dtype=np.uint64),
        "block_doc_off": np.array(doc_off, dtype=np.uint64),
        "block_tf_off": np.array(tf_off, dtype=np.uint64),
        "block_max_partial": bmax,
        "max_partial": np.float32(bmax.max() if len(bmax) else 0.0),
    }


def decode_posting_blocks(docs: bytes, df: int, block_doc_off: np.ndarray,
                          block_size: int = BLOCK_SIZE) -> np.ndarray:
    """Decode the full doc_id list from per-block delta streams."""
    vals = decode_varbyte(docs, df)
    out = np.empty(df, dtype=np.uint64)
    for i in range(len(block_doc_off) - 1):
        s = i * block_size
        e = min(df, s + block_size)
        out[s:e] = np.cumsum(vals[s:e], dtype=np.uint64)
    return out


# Explicit Arrow schema for final segment rows: plain list columns, so
# every written Parquet file has an identical, portable schema (letting
# Ray infer from pandas ndarray cells yields per-block tensor extension
# types whose flavor depends on whether the arrays in that block happen
# to share a shape — non-concatenable across files).
SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("df_local", pa.uint32()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
        ("block_last_doc", pa.list_(pa.uint64())),
        ("block_doc_off", pa.list_(pa.uint64())),
        ("block_tf_off", pa.list_(pa.uint64())),
        ("block_max_partial", pa.list_(pa.float32())),
        ("max_partial", pa.float32()),
    ]
)


def encode_shard(
    group: pa.Table,
    avgdl: float,
    params: BM25Params,
    block_size: int = BLOCK_SIZE,
) -> pa.Table:
    """map_groups fn for one doc-shard: its docterms rows (doc_id,
    doc_len, terms, tfs, shard) -> one SEGMENT_SCHEMA row per term.

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
            "dl": np.repeat(
                group["doc_len"].to_numpy().astype(np.float64), lens),
        }
    ).sort_by([("term", "ascending"), ("doc_id", "ascending")])
    return encode_terms_stream(
        postings["term"].to_numpy(zero_copy_only=False),
        postings["doc_id"].to_numpy(),
        postings["tf"].to_numpy(),
        postings["dl"].to_numpy(),
        int(group["shard"][0].as_py()), avgdl, params, block_size,
    )


def encode_terms_stream(
    terms: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    shard: int,
    avgdl: float,
    params: BM25Params,
    block_size: int = BLOCK_SIZE,
) -> pa.Table:
    """Vectorized core: a posting stream ALREADY lex-sorted by
    (term, doc_id) -> one SEGMENT_SCHEMA row per term.

    A restart (absolute doc_id) is placed at every term start and every
    block_size-th posting within a term, exactly the per-block format
    ``encode_posting`` emits, so the gap stream is ONE np.where and ONE
    varbyte pass encodes all terms' docs (and one more all tfs). Block
    skip tables and score bounds fall out of reduceat/searchsorted over
    the restart positions: ~30 numpy calls per shard instead of ~40 per
    term."""
    k1, b = params.k1, params.b
    n = len(terms)
    uniq, term_starts = np.unique(terms, return_index=True)
    tbounds = np.append(term_starts, n)
    df = np.diff(tbounds)

    # restart positions: first posting of every block of every term
    pos_in_term = np.arange(n, dtype=np.int64) - np.repeat(term_starts, df)
    is_restart = (pos_in_term % block_size) == 0
    prev = np.empty_like(doc_ids)
    prev[0] = 0
    prev[1:] = doc_ids[:-1]
    gaps = np.where(is_restart, doc_ids, doc_ids - prev)

    doc_bytes, doc_nbytes = encode_varbyte_with_lengths(gaps)
    tf_bytes, tf_nbytes = encode_varbyte_with_lengths(tfs)
    doc_cum = np.concatenate(([0], np.cumsum(doc_nbytes)))
    tf_cum = np.concatenate(([0], np.cumsum(tf_nbytes)))

    # per-block skip metadata
    block_start = np.flatnonzero(is_restart)
    block_end = np.append(block_start[1:], n) - 1
    block_last = doc_ids[block_end]
    tfs_f = tfs.astype(np.float64)
    partial = tfs_f * (k1 + 1.0) / (tfs_f + k1 * (1.0 - b + b * dls / avgdl))
    bmax = _f32_upper(np.maximum.reduceat(partial, block_start))
    # term -> its block range
    tb_start = np.searchsorted(block_start, term_starts)
    tb_bounds = np.append(tb_start, len(block_start))
    nblocks = np.diff(tb_bounds)
    max_partial = np.maximum.reduceat(bmax, tb_start)

    # offset lists: per-term block byte offsets + trailing total
    def off_lists(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        within = cum[block_start] - np.repeat(cum[tbounds[:-1]], nblocks)
        totals = cum[tbounds[1:]] - cum[tbounds[:-1]]
        L = nblocks + 1
        list_offs = np.concatenate(([0], np.cumsum(L)))
        vals = np.empty(list_offs[-1], dtype=np.uint64)
        trailing = list_offs[1:] - 1
        mask = np.ones(len(vals), dtype=bool)
        mask[trailing] = False
        vals[mask] = within.astype(np.uint64)
        vals[trailing] = totals.astype(np.uint64)
        return vals, list_offs

    doc_off_vals, off_offs = off_lists(doc_cum)
    tf_off_vals, _ = off_lists(tf_cum)

    blist_offs = tb_bounds.astype(np.int64)
    docs_col = [
        doc_bytes[doc_cum[tbounds[i]]: doc_cum[tbounds[i + 1]]]
        for i in range(len(uniq))
    ]
    tfs_col = [
        tf_bytes[tf_cum[tbounds[i]]: tf_cum[tbounds[i + 1]]]
        for i in range(len(uniq))
    ]
    return pa.Table.from_arrays(
        [
            pa.array(uniq, pa.string()),
            pa.array(np.full(len(uniq), shard, np.int32), pa.int32()),
            pa.array(df.astype(np.uint32), pa.uint32()),
            pa.array(docs_col, pa.binary()),
            pa.array(tfs_col, pa.binary()),
            pa.ListArray.from_arrays(
                pa.array(blist_offs, pa.int32()),
                pa.array(block_last, pa.uint64()),
            ),
            pa.ListArray.from_arrays(
                pa.array(off_offs, pa.int32()),
                pa.array(doc_off_vals, pa.uint64()),
            ),
            pa.ListArray.from_arrays(
                pa.array(off_offs, pa.int32()),
                pa.array(tf_off_vals, pa.uint64()),
            ),
            pa.ListArray.from_arrays(
                pa.array(blist_offs, pa.int32()),
                pa.array(bmax, pa.float32()),
            ),
            pa.array(max_partial, pa.float32()),
        ],
        schema=SEGMENT_SCHEMA,
    )
