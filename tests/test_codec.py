import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from information_retrieval_images_ray.functions.codec import (
    decode_doc_gaps,
    decode_varbyte,
    delta_decode,
    delta_encode,
    encode_doc_gaps,
    encode_varbyte,
)


def test_varbyte_roundtrip_known():
    for vals in [[], [0], [1], [127], [128], [16383], [16384], [2**63], [2**64 - 1],
                 [0, 0, 0], [5, 128, 300, 2**40, 7]]:
        a = np.array(vals, dtype=np.uint64)
        assert list(decode_varbyte(encode_varbyte(a), len(vals))) == vals


def test_varbyte_sizes():
    assert len(encode_varbyte(np.array([127], dtype=np.uint64))) == 1
    assert len(encode_varbyte(np.array([128], dtype=np.uint64))) == 2
    assert len(encode_varbyte(np.array([2**64 - 1], dtype=np.uint64))) == 10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300))
def test_varbyte_roundtrip_property(vals):
    a = np.array(vals, dtype=np.uint64)
    out = decode_varbyte(encode_varbyte(a), len(vals))
    assert np.array_equal(out, a)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**48), max_size=200))
def test_doc_gaps_roundtrip(ids):
    a = np.array(sorted(ids), dtype=np.uint64)
    out = decode_doc_gaps(encode_doc_gaps(a), len(a))
    assert np.array_equal(out, a)


def test_delta_roundtrip_long():
    rng = np.random.default_rng(7)
    ids = np.unique(rng.integers(0, 2**40, size=100_000).astype(np.uint64))
    assert np.array_equal(delta_decode(delta_encode(ids)), ids)
    assert np.array_equal(decode_doc_gaps(encode_doc_gaps(ids)), ids)


def test_count_mismatch_raises():
    buf = encode_varbyte(np.array([1, 2, 3], dtype=np.uint64))
    with pytest.raises(ValueError):
        decode_varbyte(buf, 2)


def _docterms_group(docs, shard):
    """A map_groups input for encode_shard: one docterms row per
    (doc_id, {term: tf}, doc_len), split over two chunks."""
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array([d for d, _, _ in docs], pa.uint64()),
            "doc_len": pa.array([dl for _, _, dl in docs], pa.uint32()),
            "terms": pa.array([list(tf) for _, tf, _ in docs], pa.large_list(pa.string())),
            "tfs": pa.array([list(tf.values()) for _, tf, _ in docs],
                            pa.large_list(pa.uint32())),
            "shard": pa.array([shard] * len(docs), pa.int32()),
        }
    )
    half = len(docs) // 2
    return pa.concat_tables([t.slice(0, half), t.slice(half)])


def _assert_matches_per_term(docs, shard, avgdl, block_size):
    """encode_shard's rows equal encode_posting over each term's
    postings, column for column."""
    from information_retrieval_images_ray.functions.bm25 import BM25Params
    from information_retrieval_images_ray.stages.postings import (
        SEGMENT_SCHEMA,
        encode_posting,
        encode_shard,
    )

    params = BM25Params()
    got = encode_shard(_docterms_group(docs, shard), avgdl, params, block_size)
    assert got.schema == SEGMENT_SCHEMA
    postings: dict[str, list] = {}
    for d, tf, dl in docs:
        for term, n in tf.items():
            postings.setdefault(term, []).append((d, n, dl))
    assert got["term"].to_pylist() == sorted(postings)
    for row in got.to_pylist():
        ids, tfs, dls = (np.array(c) for c in zip(*postings[row["term"]]))
        ref = encode_posting(ids.astype(np.uint64), tfs, dls, avgdl, params, block_size)
        assert row["shard"] == shard
        for col in ("df_local", "docs", "tfs", "max_partial"):
            assert row[col] == ref[col], (row["term"], col)
        for col in ("block_last_doc", "block_doc_off", "block_tf_off", "block_max_partial"):
            assert np.array_equal(np.asarray(row[col]), ref[col]), (row["term"], col)
    return got


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2**31))
def test_vectorized_shard_encode_matches_per_term(seed):
    """The one-pass shard encoder must be byte-identical, column for
    column, to the per-term encode_posting reference path. Term names
    mix ASCII, upper case and non-ASCII, so Arrow's sort order must
    agree with the term order of the encoded stream."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{t:03d}" for t in range(int(rng.integers(1, 12)))] + ["Zeta", "é", "ß", "日本"]
    ids = np.unique(rng.integers(0, 5000, size=int(rng.integers(1, 400))))
    docs = []
    for d in rng.permutation(ids):
        picked = rng.choice(len(vocab), size=int(rng.integers(0, len(vocab) + 1)),
                            replace=False)
        tf = {vocab[j]: int(rng.integers(1, 50)) for j in picked}
        docs.append((int(d), tf, sum(tf.values()) + int(rng.integers(0, 500))))
    if not any(tf for _, tf, _ in docs):
        docs[0][1]["t000"] = 1
    _assert_matches_per_term(docs, int(rng.integers(0, 8)), 120.0, 16)


def test_shard_encode_edge_inputs():
    """A shard whose docs have no tokens encodes to zero rows; a term
    with a single posting is one one-entry block."""
    from information_retrieval_images_ray.functions.bm25 import BM25Params
    from information_retrieval_images_ray.stages.postings import SEGMENT_SCHEMA, encode_shard

    empty = encode_shard(_docterms_group([(3, {}, 0), (4, {}, 0)], 1), 10.0, BM25Params())
    assert empty.num_rows == 0 and empty.schema == SEGMENT_SCHEMA
    got = _assert_matches_per_term(
        [(7, {"solo": 2, "pair": 1}, 5), (9, {"pair": 3}, 4)], 2, 4.5, 16)
    solo = got.to_pylist()[got["term"].to_pylist().index("solo")]
    assert solo["df_local"] == 1 and solo["block_last_doc"] == [7]
