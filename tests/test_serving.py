"""Sharded serving: the shard-partitioned actor pool + df-exchange
router must be rank- AND score-identical (bitwise) to a whole-index
reader, including across actor counts that don't divide the shard
count."""

import pytest

from information_retrieval_images_ray.corpus import write_corpus
from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.query import IndexReader
from information_retrieval_images_ray.pipelines.serving import ShardedQueryService
from information_retrieval_images_ray.sources.corpus_source import (
    assign_dense_doc_ids,
    corpus_files,
    read_code_corpus,
)

QUERIES = [
    {"qid": 0, "query": "getUserName"},
    {"qid": 1, "query": "merge sort hash"},
    {"qid": 2, "query": "parse token buffer read"},
    {"qid": 3, "query": "zzz_nohit"},
    {"qid": 4, "query": "get"},
]


_CORPUS_OF: dict[str, str] = {}


@pytest.fixture(scope="module")
def served_index(tmp_path_factory):
    corpus = str(tmp_path_factory.mktemp("serv_corpus"))
    index = str(tmp_path_factory.mktemp("serv_index"))
    write_corpus(corpus, 180, seed=13, rows_per_file=60)
    ds = assign_dense_doc_ids(read_code_corpus(corpus), num_partitions=2)
    build_index(ds, index, source_files=corpus_files(corpus),
                num_shards=5, hot_df_threshold=60, salt_factor=4)
    _CORPUS_OF[index] = corpus
    return index


@pytest.mark.parametrize("num_actors", [1, 2, 3])
def test_sharded_service_rank_identical(served_index, num_actors):
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=num_actors)
    try:
        got = svc.topk(QUERIES, k=10)
        for q in QUERIES:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = reader.search_bmw(q["query"], 10)
            assert [d for d, _ in mine] == [d for d, _ in want], q
            assert all(a == b for (_, a), (_, b) in zip(mine, want)), q
    finally:
        svc.shutdown()


def test_shared_reader_pool_rank_identical(served_index):
    """The throughput batch path — QueryScorer pool sharing ONE
    ray.put() IndexReader across actors (zero-copy plasma views) —
    must be bitwise score-identical to the serial whole-index reader."""
    import ray
    import ray.data

    from information_retrieval_images_ray.pipelines.query import QueryScorer

    reader = IndexReader(served_index)
    reader_ref = ray.put(reader)
    out = (
        ray.data.from_items(QUERIES)
        .map_batches(
            QueryScorer,
            fn_constructor_kwargs={"reader_ref": reader_ref, "k": 10, "algo": "bmw"},
            batch_format="pandas",
            concurrency=2,
        )
        .to_pandas()
    )
    for q in QUERIES:
        got = out[out["qid"] == q["qid"]].sort_values("rank")
        want = reader.search_bmw(q["query"], 10)
        assert list(got["doc_id"]) == [d for d, _ in want], q
        assert list(got["score"]) == [s for _, s in want], q


def test_subset_reader_only_loads_owned_shards(served_index):
    sub = IndexReader(served_index, shards=[1, 3])
    assert sub.shards[0] is None and sub.shards[2] is None
    assert sub.shards[1] is not None and sub.shards[3] is not None
    # df_locals over a subset is <= the global df
    full = IndexReader(served_index)
    terms = ["get", "user"]
    d_sub = sub.df_locals(terms)
    d_full = full.df_locals(terms)
    for t in terms:
        if t in d_sub:
            assert d_sub[t] <= d_full[t]


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_boolean_prefix_fuzzy_rank_identical(served_index, num_actors):
    """The round-3 fulltext retrieval modes (boolean clauses, prefix
    expansion, fuzzy expansion) through the sharded router must be
    bitwise score-identical to the serial whole-index reader — the
    df exchange supplies exact global idf for the score terms, the
    expansion exchange reproduces the serial deterministic cap, and
    must/not presence composes per-shard because shards partition
    the doc space."""
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=num_actors)
    try:
        bqs = [
            {"qid": 0, "must": "get user", "should": "name", "must_not": ""},
            {"qid": 1, "must": "", "should": "merge sort hash", "must_not": "get"},
            {"qid": 2, "must": "parse", "should": "", "must_not": "zz_nohit"},
            {"qid": 3, "must": "zzz_nohit", "should": "get", "must_not": ""},
        ]
        got = svc.topk([svc.compile("boolean", "", q, qid=q["qid"])
                        for q in bqs], k=10)
        for q in bqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = reader.search_boolean(q["must"], q["should"], q["must_not"], 10)
            assert mine == want, ("boolean", q)

        pqs = [{"qid": 0, "prefix": "get"}, {"qid": 1, "prefix": "pa"},
               {"qid": 2, "prefix": "zzz_nohit"}]
        got = svc.topk([svc.compile("prefix", q["prefix"],
                                    {"max_expansions": 8}, qid=q["qid"])
                        for q in pqs], k=10)
        for q in pqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = reader.search_prefix(q["prefix"], 10, max_expansions=8)
            assert mine == want, ("prefix", q)

        fqs = [{"qid": 0, "word": "getx"}, {"qid": 1, "word": "mergE"},
               {"qid": 2, "word": "qqqqqq"}]
        got = svc.topk([svc.compile("fuzzy", q["word"],
                                    {"max_edits": 1, "prefix_len": 1,
                                     "max_expansions": 16}, qid=q["qid"])
                        for q in fqs], k=10)
        for q in fqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = reader.search_fuzzy(q["word"], 10, max_edits=1,
                                       prefix_len=1, max_expansions=16)
            assert mine == want, ("fuzzy", q)

        # synonym expansion is corpus-free (frozen map) — the router
        # expands, the df exchange covers OOV expansions with df=0
        sqs = [{"qid": 0, "query": "fast merge"}, {"qid": 1, "query": "get user"},
               {"qid": 2, "query": "zzz_nohit"}]
        got = svc.topk([svc.compile("synonym", q["query"], qid=q["qid"])
                        for q in sqs], k=10)
        for q in sqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = reader.search_synonym(q["query"], 10)
            assert mine == want, ("synonym", q)

        # wildcard: prefix-range, suffix (dictionary-scan path), infix,
        # no-hit — per-actor expansion caps compose like prefix
        wqs = [{"qid": 0, "pattern": "ge*"}, {"qid": 1, "pattern": "*er"},
               {"qid": 2, "pattern": "g*t"}, {"qid": 3, "pattern": "zz*q"}]
        got = svc.topk([svc.compile("wildcard", q["pattern"],
                                    {"max_expansions": 8}, qid=q["qid"])
                        for q in wqs], k=10)
        for q in wqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = reader.search_wildcard(q["pattern"], 10, max_expansions=8)
            assert mine == want, ("wildcard", q)
    finally:
        svc.shutdown()


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_phrase_proximity_rank_identical(served_index, num_actors):
    """Positional modes through the router: per-actor conjunctive
    candidates (global idf via the df exchange) + ONE sidecar verify
    over the merged candidates must equal the serial composition
    (conjunctive_scores → verify → (score desc, doc_id asc) rank)."""
    from information_retrieval_images_ray.pipelines.positions import (
        build_positions_sidecar,
        verify_phrase_positions,
        verify_proximity_positions,
    )
    from information_retrieval_images_ray.functions.tokenizer import tokenize_code

    ds = assign_dense_doc_ids(
        read_code_corpus(_CORPUS_OF[served_index]), num_partitions=2)
    build_positions_sidecar(ds, served_index)
    reader = IndexReader(served_index)

    def serial(terms, verify, k=10):
        ids, scores = reader.conjunctive_scores(sorted(set(terms)))
        if not len(ids):
            return []
        ok = set(verify(ids).tolist())
        kept = sorted(((s, d) for d, s in zip(ids.tolist(), scores.tolist())
                       if d in ok), key=lambda e: (-e[0], e[1]))[:k]
        return [(d, s) for s, d in kept]

    svc = ShardedQueryService(served_index, num_actors=num_actors)
    try:
        for phrase_text in ["get user", "merge sort", "zzz_nohit token"]:
            toks = tokenize_code(phrase_text)
            got = svc.topk([svc.compile("phrase", phrase_text)], k=10)
            mine = [(r["doc_id"], r["score"]) for r in got]
            want = serial(
                toks,
                lambda ids: verify_phrase_positions(served_index, toks, ids),
            )
            assert mine == want, ("phrase", phrase_text)

        for terms_text, window in [("get user", 4), ("merge hash", 6)]:
            toks = sorted(set(tokenize_code(terms_text)))
            got = svc.topk([svc.compile("proximity", terms_text,
                                        {"window": window})], k=10)
            mine = [(r["doc_id"], r["score"]) for r in got]
            want = serial(
                toks,
                lambda ids: verify_proximity_positions(
                    served_index, toks, window, ids),
            )
            assert mine == want, ("proximity", terms_text, window)

        from information_retrieval_images_ray.pipelines.positions import (
            verify_spannear_positions,
        )

        for terms_text, window in [("get user", 4), ("user get", 4),
                                   ("merge hash", 6)]:
            ordered = tokenize_code(terms_text)
            got = svc.topk([svc.compile("span_near", terms_text,
                                        {"window": window})], k=10)
            mine = [(r["doc_id"], r["score"]) for r in got]
            want = serial(
                ordered,
                lambda ids: verify_spannear_positions(
                    served_index, ordered, window, ids),
            )
            assert mine == want, ("span_near", terms_text, window)
    finally:
        svc.shutdown()


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_facets_match_serial(served_index, num_actors):
    """Distributed faceting (per-actor bincount partials summed by
    value string at the router) must equal the serial whole-index
    reader's counts, with and without a metadata filter — and the
    facet population must be the OR match set, not the top-k page."""
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=num_actors)
    try:
        for query in ["getUserName", "merge sort hash", "get", "zzz_nohit"]:
            want = reader.facet_counts(query, ["lang", "repo"])
            got = svc.facets([{"qid": 0, "query": query}], ["lang", "repo"])[0]
            assert got == want, query
            # the population is the full match set
            assert sum(want["repo"].values()) == len(reader.match_ids(query))

        want = reader.facet_counts("get", ["repo"], doc_filter=("lang", "py"))
        got = svc.facets([{"qid": 0, "query": "get"}], ["repo"],
                         doc_filter=("lang", "py"))[0]
        assert got == want
    finally:
        svc.shutdown()


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_more_like_this_matches_serial(served_index, num_actors):
    """MLT through the router (df exchange → router-side tf·idf term
    selection → OR scatter at k+1 → drop anchor) must equal the serial
    reader's more_like_this, selection cut included."""
    import pyarrow.parquet as pq_mod
    import glob as glob_mod

    from information_retrieval_images_ray.functions.tokenizer import tokenize_code

    reader = IndexReader(served_index)
    # pull two real doc texts (stored-field access) from docmeta+corpus:
    # use the corpus parquet directly
    files = sorted(glob_mod.glob(_CORPUS_OF[served_index] + "/*.parquet"))
    t = pq_mod.read_table(files[0], columns=["content"])
    # the generator emits some empty docs — anchor on non-empty texts
    texts = [x for x in t["content"].to_pylist() if x and len(x) > 40][:2]
    assert len(texts) == 2

    svc = ShardedQueryService(served_index, num_actors=num_actors)
    try:
        for i, text in enumerate(texts):
            toks = tokenize_code(text)
            want = reader.more_like_this(toks, exclude_doc=None, k=10,
                                         max_terms=6)
            got = svc.topk([svc.compile("more_like_this", text,
                                        {"max_terms": 6})], k=10)
            assert [(r["doc_id"], r["score"]) for r in got] == want, i
            # exclusion drops exactly the anchor and backfills to k
            anchor = want[0][0]
            got_ex = svc.topk([svc.compile(
                "more_like_this", text,
                {"max_terms": 6, "exclude_doc": anchor})], k=10)
            want_ex = reader.more_like_this(toks, exclude_doc=anchor, k=10,
                                            max_terms=6)
            assert [(r["doc_id"], r["score"]) for r in got_ex] == want_ex
            assert all(r["doc_id"] != anchor for r in got_ex)
    finally:
        svc.shutdown()


def test_paging_offset_matches_serial_tail(served_index):
    """Router offset paging == the serial reader's ranks 6..10 slice;
    absolute ranks in the output; page beyond the hits is empty."""
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=3)
    try:
        got = svc.topk([{"qid": 0, "query": "get"}], k=5, offset=5)
        want = reader.search_page("get", k=5, offset=5)
        assert [(r["doc_id"], r["score"]) for r in got] == want
        assert [r["rank"] for r in got] == [6, 7, 8, 9, 10]
        assert want == reader.search_bmw("get", 10)[5:10]
        deep = svc.topk([{"qid": 0, "query": "zzz_nohit"}], k=5, offset=5)
        assert deep == []
    finally:
        svc.shutdown()


def test_router_round_trips_per_mode(served_index, monkeypatch):
    """Actor round trips per router call. On a fresh pool (cold df
    cache) a plain bm25 search is two (df exchange, then the scatter);
    an expansion mode adds one batched expansion exchange;
    more_like_this pays its selection df exchange instead of the main
    one; prf adds a base top-k call and a selection df exchange. Once
    the same terms' df are cached, every df exchange goes: bm25 and
    more_like_this are one scatter, prefix and prf two round trips. A
    batch of plans costs what one plan does."""
    import ray

    real_get = ray.get
    calls = []

    def counting_get(refs, *a, **kw):
        calls.append(1)
        return real_get(refs, *a, **kw)

    cases = [
        ("bm25", "merge sort hash", {}, 2, 1),
        ("prefix", "ge", {"max_expansions": 8}, 3, 2),
        ("more_like_this", "merge sort hash get user", {"max_terms": 3}, 2, 1),
        ("prf", "merge sort", {"fb_docs": 3, "fb_terms": 2}, 4, 2),
    ]
    for mode, query, params, cold, warm in cases:
        for n in (1, 3):
            svc = ShardedQueryService(served_index, num_actors=2)
            try:
                monkeypatch.setattr(ray, "get", counting_get)
                for want in (cold, warm):
                    calls.clear()
                    svc.topk([svc.compile(mode, query, params, qid=i)
                              for i in range(n)], k=5)
                    assert len(calls) == want, (mode, n, len(calls))
            finally:
                monkeypatch.undo()
                svc.shutdown()
