"""Query-time metadata filter (filtered top-k).

Semantics: rank only docs whose docmeta column matches; corpus stats
(idf, avgdl) stay GLOBAL — the tombstone semantics of a search-time
restriction, not a corpus rebuild. The reference has no filtered
search (its /search scores every caption, server.py:147-166); this is
the retrieval-with-metadata-predicate shape an LLM training-data
pipeline needs (e.g. "top-k only among lang=fr docs").
"""

import duckdb
import pytest

from information_retrieval_images_ray.pipelines import flagship
from information_retrieval_images_ray.pipelines.query import IndexReader

QUERIES = [
    "merge sort",
    "batch",
    "hash join stream",
    "dup key vector",
    "fast scan filter table",
    "zebra unknownterm",
]


@pytest.fixture(scope="module")
def doc_index(sf_dir):
    return flagship.build_documents_index(sf_dir)


@pytest.fixture(scope="module")
def lang_of(sf_dir):
    rows = duckdb.sql(
        f"SELECT doc_id, lang FROM '{sf_dir}/documents.parquet'"
    ).fetchall()
    return dict(rows)


def test_filtered_membership_tuple_and_mask(doc_index, lang_of):
    r = IndexReader(doc_index)
    saw_hits = False
    for q in QUERIES:
        taat = r.search_taat(q, 10, doc_filter=("lang", "fr"))
        # a precomputed mask is the same filter
        assert taat == r.search_taat(q, 10, doc_filter=r.meta_mask("lang", "fr")), q
        for doc, _ in taat:
            assert lang_of[doc] == "fr", (q, doc)
        saw_hits = saw_hits or bool(taat)
    assert saw_hits


def test_filtered_equals_postfiltered_full_ranking(doc_index, lang_of):
    """Filtered top-k == the unfiltered FULL ranking restricted to the
    matching docs, truncated to k (global-stats semantics, the same
    contract the SQL oracle's ranked_where encodes)."""
    r = IndexReader(doc_index)
    for q in QUERIES:
        full = r.search_taat(q, k=10**9)
        expect = [(d, s) for d, s in full if lang_of[d] == "fr"][:10]
        got = r.search_taat(q, 10, doc_filter=("lang", "fr"))
        assert got == expect, q


def test_filter_no_match_value_returns_empty(doc_index):
    r = IndexReader(doc_index)
    assert r.search_taat("merge sort", 10, doc_filter=("lang", "no-such")) == []


def test_filtered_sharded_service_matches_whole_index(doc_index):
    """The df-exchange + scatter-gather service applies the filter on
    each actor's owned shards; merged result must equal the
    whole-index reader's."""
    from information_retrieval_images_ray.pipelines.serving import (
        ShardedQueryService,
    )

    r = IndexReader(doc_index)
    svc = ShardedQueryService(doc_index, num_actors=2)
    try:
        qs = [{"qid": i, "query": q} for i, q in enumerate(QUERIES)]
        rows = svc.topk(qs, k=10, doc_filter=("lang", "fr"))
        by_qid = {}
        for row in rows:
            by_qid.setdefault(row["qid"], []).append(
                (row["doc_id"], row["score"])
            )
        for i, q in enumerate(QUERIES):
            assert by_qid.get(i, []) == r.search_taat(
                q, 10, doc_filter=("lang", "fr")
            ), q
    finally:
        svc.shutdown()
