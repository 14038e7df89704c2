"""Serving: the replica actor pool + page-cache router must be rank-
AND score-identical (bitwise) to a serial whole-index reader, at any
actor count, in one actor round trip per search."""

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

from conftest import search

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
                num_shards=5)
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
            want = reader.search_taat(q["query"], 10)
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
            fn_constructor_kwargs={"reader_ref": reader_ref, "k": 10},
            batch_format="pandas",
            concurrency=2,
        )
        .to_pandas()
    )
    for q in QUERIES:
        got = out[out["qid"] == q["qid"]].sort_values("rank")
        want = reader.search_taat(q["query"], 10)
        assert list(got["doc_id"]) == [d for d, _ in want], q
        assert list(got["score"]) == [s for _, s in want], q


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_boolean_prefix_fuzzy_rank_identical(served_index, num_actors):
    """The round-3 fulltext retrieval modes (boolean clauses, prefix
    expansion, fuzzy expansion, synonyms, wildcards) through the
    router must be bitwise score-identical to the serial whole-index
    reader."""
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
            want = search(reader, "boolean", "", 10, must=q["must"],
                          should=q["should"], must_not=q["must_not"])
            assert mine == want, ("boolean", q)

        pqs = [{"qid": 0, "prefix": "get"}, {"qid": 1, "prefix": "pa"},
               {"qid": 2, "prefix": "zzz_nohit"}]
        got = svc.topk([svc.compile("prefix", q["prefix"],
                                    {"max_expansions": 8}, qid=q["qid"])
                        for q in pqs], k=10)
        for q in pqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = search(reader, "prefix", q["prefix"], 10, max_expansions=8)
            assert mine == want, ("prefix", q)

        fqs = [{"qid": 0, "word": "getx"}, {"qid": 1, "word": "mergE"},
               {"qid": 2, "word": "qqqqqq"}]
        got = svc.topk([svc.compile("fuzzy", q["word"],
                                    {"max_edits": 1, "prefix_len": 1,
                                     "max_expansions": 16}, qid=q["qid"])
                        for q in fqs], k=10)
        for q in fqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = search(reader, "fuzzy", q["word"], 10, max_edits=1,
                          prefix_len=1, max_expansions=16)
            assert mine == want, ("fuzzy", q)

        # synonym expansion is corpus-free (frozen map); OOV
        # expansions have df=0 and score nothing
        sqs = [{"qid": 0, "query": "fast merge"}, {"qid": 1, "query": "get user"},
               {"qid": 2, "query": "zzz_nohit"}]
        got = svc.topk([svc.compile("synonym", q["query"], qid=q["qid"])
                        for q in sqs], k=10)
        for q in sqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = search(reader, "synonym", q["query"], 10)
            assert mine == want, ("synonym", q)

        # wildcard: prefix-range, suffix (dictionary-scan path), infix,
        # no-hit
        wqs = [{"qid": 0, "pattern": "ge*"}, {"qid": 1, "pattern": "*er"},
               {"qid": 2, "pattern": "g*t"}, {"qid": 3, "pattern": "zz*q"}]
        got = svc.topk([svc.compile("wildcard", q["pattern"],
                                    {"max_expansions": 8}, qid=q["qid"])
                        for q in wqs], k=10)
        for q in wqs:
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == q["qid"]]
            want = search(reader, "wildcard", q["pattern"], 10, max_expansions=8)
            assert mine == want, ("wildcard", q)
    finally:
        svc.shutdown()


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_phrase_proximity_rank_identical(served_index, num_actors):
    """Positional modes through the router: conjunctive candidates +
    ONE sidecar verify must equal the serial composition
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
    """Faceting through the router must equal the serial whole-index
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
    """MLT through the router (tf·idf term selection → OR scoring at
    k+1 → drop anchor) must equal the serial
    reader's more_like_this plan, selection cut included."""
    import pyarrow.parquet as pq_mod
    import glob as glob_mod

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
            want = search(reader, "more_like_this", text, 10, max_terms=6)
            got = svc.topk([svc.compile("more_like_this", text,
                                        {"max_terms": 6})], k=10)
            assert [(r["doc_id"], r["score"]) for r in got] == want, i
            # exclusion drops exactly the anchor and backfills to k
            anchor = want[0][0]
            got_ex = svc.topk([svc.compile(
                "more_like_this", text,
                {"max_terms": 6, "exclude_doc": anchor})], k=10)
            want_ex = search(reader, "more_like_this", text, 10,
                             exclude_doc=anchor, max_terms=6)
            assert [(r["doc_id"], r["score"]) for r in got_ex] == want_ex
            assert all(r["doc_id"] != anchor for r in got_ex)
    finally:
        svc.shutdown()


def test_paging_input_validation(served_index):
    """A negative limit or offset is a ValueError from the router, with
    no page-cache lookup, and from the serial reader; a limit of 0 is
    an empty page from both."""
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=2)
    try:
        for runner in (svc, reader):
            plan = runner.compile("bm25", "get")
            for k, offset in ((-1, 0), (3, -2), (-1, -1)):
                with pytest.raises(ValueError, match="must be >= 0"):
                    runner.topk([plan], k, offset=offset)
            assert runner.topk([plan], 0) == []
            assert runner.topk([plan], 0, offset=4) == []
        assert svc.page_cache_counters() == {"hits": 0, "misses": 2, "rows": 2}
    finally:
        svc.shutdown()


def test_paging_offset_matches_serial_tail(served_index):
    """Router offset paging == the serial reader's ranks 6..10 slice;
    absolute ranks in the output; page beyond the hits is empty."""
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=3)
    try:
        got = svc.topk([{"qid": 0, "query": "get"}], k=5, offset=5)
        want = search(reader, "bm25", "get", k=5, offset=5)
        assert [(r["doc_id"], r["score"]) for r in got] == want
        assert [r["rank"] for r in got] == [6, 7, 8, 9, 10]
        assert want == reader.search_taat("get", 10)[5:10]
        deep = svc.topk([{"qid": 0, "query": "zzz_nohit"}], k=5, offset=5)
        assert deep == []
    finally:
        svc.shutdown()


def test_router_round_trips_per_mode(served_index, monkeypatch):
    """Round trips per router call: every mode — bm25, an expansion
    mode, more_like_this and prf — is ONE frame to one replica and no
    ``ray.get`` on a page-cache miss, on a fresh pool as on a warm one,
    and a batch of plans costs what one plan does. A repeated plan is
    served from the page cache with no round trip."""
    import ray

    from information_retrieval_images_ray.pipelines import serving

    real_get, real_send = ray.get, serving._ActorSet.send
    gets, frames = [], []

    def counting_get(refs, *a, **kw):
        gets.append(1)
        return real_get(refs, *a, **kw)

    def counting_send(actor_set, frame):
        frames.append(1)
        return real_send(actor_set, frame)

    cases = [
        ("bm25", "merge sort hash", "get user", {}),
        ("prefix", "ge", "pa", {"max_expansions": 8}),
        ("more_like_this", "merge sort hash get user", "parse token buffer read",
         {"max_terms": 3}),
        ("prf", "merge sort", "get user", {"fb_docs": 3, "fb_terms": 2}),
    ]
    for mode, query, other, params in cases:
        for n in (1, 3):
            svc = ShardedQueryService(served_index, num_actors=2)
            try:
                monkeypatch.setattr(ray, "get", counting_get)
                monkeypatch.setattr(serving._ActorSet, "send", counting_send)
                for q, want in ((query, 1), (other, 1), (query, 0)):
                    gets.clear()
                    frames.clear()
                    svc.topk([svc.compile(mode, q, params, qid=i)
                              for i in range(n)], k=5)
                    assert (len(frames), len(gets)) == (want, 0), (mode, n, q)
            finally:
                monkeypatch.undo()
                svc.shutdown()


# ---------------------------------------------------------------------------
# The router's per-generation page cache


def test_page_cache_term_order_hit_is_bitwise_uncached(served_index):
    """``hash sort`` after ``sort hash`` is a page-cache hit, and every
    cached page (bm25, boosted, collapse, a filter, an offset) is
    bitwise equal to the uncached serial reader's page, with the
    caller's qid."""
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=2)
    try:
        cases = [
            ("bm25", "sort hash", "hash sort", {}, None, 0),
            ("boosted", "merge^2 get", "get merge^2", {}, None, 0),
            ("collapse", "get user", "user get", {"collapse_field": "lang"}, None, 0),
            ("bm25", "get parse", "parse get", {}, ("lang", "python"), 0),
            ("bm25", "get", "get", {}, None, 5),
        ]
        for mode, first, second, params, doc_filter, offset in cases:
            want = reader.topk([reader.compile(mode, second, params, qid=7)],
                               5, doc_filter, offset)
            assert want, (mode, second)
            cold = svc.topk([svc.compile(mode, first, params, qid=3)], 5,
                            doc_filter, offset)
            before = svc.page_cache_counters()
            got = svc.topk([svc.compile(mode, second, params, qid=7)], 5,
                           doc_filter, offset)
            after = svc.page_cache_counters()
            assert after["hits"] == before["hits"] + 1, (mode, second)
            assert after["misses"] == before["misses"]
            assert got == want, (mode, second)
            assert [dict(r, qid=7) for r in cold] == want
        # fresh rows: a caller mutating its page leaves the cache intact
        got[0]["score"] = -1.0
        assert svc.topk([svc.compile("bm25", "get")], 5, offset=5) == \
            reader.topk([reader.compile("bm25", "get")], 5, offset=5)
    finally:
        svc.shutdown()


def test_page_cache_row_budget_and_oversized_page(served_index, monkeypatch):
    """The cache never holds more than ``PAGE_CACHE_ROWS`` rows: the
    least recently used page is evicted first, and a page larger than
    the budget is served but not stored."""
    from information_retrieval_images_ray.pipelines import serving

    monkeypatch.setattr(serving, "PAGE_CACHE_ROWS", 12)
    reader = IndexReader(served_index)
    svc = ShardedQueryService(served_index, num_actors=2)

    def page(q, k=5):
        got = svc.topk([svc.compile("bm25", q)], k)
        assert got == reader.topk([reader.compile("bm25", q)], k), q
        return len(got)

    def misses():
        return svc.page_cache_counters()["misses"]

    try:
        assert page("get") == page("user") == 5
        assert svc.page_cache_counters()["rows"] == 10
        page("get")  # "get" is now the most recently used
        assert page("merge") == 5  # evicts "user"
        assert svc.page_cache_counters()["rows"] == 10
        m = misses()
        page("get")
        assert misses() == m
        page("user")
        assert misses() == m + 1
        assert svc.page_cache_counters()["rows"] <= 12
        page("zzz_nohit")  # an empty page counts as one row
        assert svc.page_cache_counters()["rows"] <= 12
        rows = svc.page_cache_counters()["rows"]
        assert page("get", 13) == 13
        assert svc.page_cache_counters()["rows"] == rows
        m = misses()
        page("get", 13)
        assert misses() == m + 1
    finally:
        svc.shutdown()


def test_page_cache_concurrent_searches(served_index):
    """Threads searching one generation at once all get the uncached
    serial reader's pages, and every plan is counted once."""
    import sys
    import threading

    reader = IndexReader(served_index)
    queries = ["get", "merge sort hash", "sort merge hash", "parse token", "zzz_nohit"]
    want = {q: reader.topk([reader.compile("bm25", q)], 5) for q in queries}
    svc = ShardedQueryService(served_index, num_actors=2)
    bad, errors = [], []

    def searcher(n):
        try:
            for i in range(12):
                q = queries[(n + i) % len(queries)]
                got = svc.topk([svc.compile("bm25", q)], 5)
                if got != want[q]:
                    bad.append((q, got))
        except Exception as e:  # noqa: BLE001 - any failure fails the test
            errors.append(repr(e))

    threads = [threading.Thread(target=searcher, args=(n,)) for n in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
        svc.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and bad == []
    c = svc.page_cache_counters()
    assert c["hits"] + c["misses"] == 48 and c["hits"] > 0
    assert c["rows"] == sum(len(w) or 1 for q, w in want.items()
                            if q != "sort merge hash")
