"""HTTP serving layer: the reference's POST /search surface
(server.py:46-177) over the sharded actor pool, stdlib-only."""

import json
import urllib.request

import numpy as np
import pytest
import ray.data

from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.query import IndexReader
from information_retrieval_images_ray.pipelines.serving_http import IndexHTTPServer

WORDS = "alpha bravo charlie delta echo foxtrot golf hotel dup zebra".split()


def _req(port, path, payload=None):
    url = f"http://127.0.0.1:{port}{path}"
    if payload is None:
        r = urllib.request.urlopen(url, timeout=30)
    else:
        data = json.dumps(payload).encode()
        req = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        r = urllib.request.urlopen(req, timeout=30)
    return r.status, json.loads(r.read())


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    rng = np.random.default_rng(21)
    rows = [
        {
            "doc_id": i,
            "content": " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 40)),
            "lang": "en" if i % 2 == 0 else "fr",
        }
        for i in range(60)
    ]
    idx = str(tmp_path_factory.mktemp("httpidx"))
    build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=2)
    # the (doc_id, text) source parquet enables "snippet": true
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus_pq = str(tmp_path_factory.mktemp("httpcorpus") / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
        "text": pa.array([r["content"] for r in rows], pa.string()),
    }), corpus_pq)
    srv = IndexHTTPServer(idx, num_actors=2, port=0,
                          corpus_path=corpus_pq).start()
    yield srv, idx
    srv.close()


def test_search_matches_reader(server):
    srv, idx = server
    reader = IndexReader(idx)
    status, hits = _req(srv.port, "/search", {"query": "alpha dup", "limit": 5})
    assert status == 200
    want = reader.search_bmw("alpha dup", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == [(d, s) for d, s in want]
    assert all("content_sha256" in h and "lang" in h for h in hits)  # hydrated


def test_search_lang_filter(server):
    srv, idx = server
    reader = IndexReader(idx)
    status, hits = _req(
        srv.port, "/search", {"query": "alpha dup", "limit": 5, "lang": "fr"}
    )
    assert status == 200
    want = reader.search_bmw("alpha dup", 5, doc_filter=("lang", "fr"))
    assert [(h["doc_id"], h["score"]) for h in hits] == [(d, s) for d, s in want]
    assert hits and all(h["lang"] == "fr" for h in hits)  # hydrated + filtered


def test_doc_and_stats_routes(server):
    srv, _ = server
    status, doc = _req(srv.port, "/doc/3")
    assert status == 200 and doc["doc_id"] == 3 and doc["lang"] == "fr"
    status, stats = _req(srv.port, "/stats")
    assert status == 200 and stats["n_docs"] == 60
    with pytest.raises(urllib.error.HTTPError):
        _req(srv.port, "/doc/99999")


def test_delete_visible_on_next_search(server):
    srv, _ = server
    _, hits = _req(srv.port, "/search", {"query": "alpha", "limit": 3})
    victim = hits[0]["doc_id"]
    status, out = _req(srv.port, "/delete", {"doc_ids": [victim]})
    assert status == 200 and out["tombstoned"] == 1
    _, hits2 = _req(srv.port, "/search", {"query": "alpha", "limit": 10})
    assert victim not in {h["doc_id"] for h in hits2}


def test_extend_over_http_roundtrip(server):
    """POST /extend (reference POST /label-images): new content pushed
    over HTTP becomes searchable, and re-POSTing the same payload is an
    idempotent no-op (content-hash delta_id)."""
    srv, _ = server
    payload = {"docs": [
        {"content": "qqxtoken alpha bravo fresh doc over http", "lang": "en"},
        {"content": "another qqxtoken document sent via the wire", "lang": "en"},
    ]}
    _, before = _req(srv.port, "/stats")
    status, out = _req(srv.port, "/extend", payload)
    assert status == 200 and out["added"] == 2
    assert out["n_docs"] == before["n_docs"] + 2
    _, hits = _req(srv.port, "/search", {"query": "qqxtoken", "limit": 5})
    assert len(hits) == 2
    assert {h["doc_id"] for h in hits} == {before["doc_id_span"], before["doc_id_span"] + 1}
    # idempotent re-send: same delta_id, nothing appended
    status, again = _req(srv.port, "/extend", payload)
    assert status == 200 and again["added"] == 0
    assert again["n_docs"] == out["n_docs"]


def test_reset_and_reload_roundtrip(tmp_path):
    """POST /reset (guarded like the CLI's `reset --yes`) deletes the
    index; /search and /stats then refuse; an out-of-band rebuild plus
    POST /reload brings the server back. Reference surface: POST
    /reset-db (server.py:104-116) — which calls a nonexistent method;
    this one round-trips."""
    rng = np.random.default_rng(33)
    rows = [
        {
            "doc_id": i,
            "content": " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 30)),
            "lang": "en",
        }
        for i in range(30)
    ]
    idx = str(tmp_path / "residx")
    build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=2)
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    try:
        # unconfirmed reset refuses (400) and leaves the index serving
        with pytest.raises(urllib.error.HTTPError) as ei:
            _req(srv.port, "/reset", {})
        assert ei.value.code == 400
        status, _ = _req(srv.port, "/search", {"query": "alpha", "limit": 3})
        assert status == 200
        # confirmed reset deletes and retires the pool
        status, out = _req(srv.port, "/reset", {"confirm": True})
        assert status == 200 and out["removed"] == idx
        with pytest.raises(urllib.error.HTTPError) as ei:
            _req(srv.port, "/stats")
        assert ei.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as ei:
            _req(srv.port, "/search", {"query": "alpha"})
        assert ei.value.code == 409
        # out-of-band rebuild, then /reload re-attaches a fresh pool
        build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=2)
        status, out = _req(srv.port, "/reload", {})
        assert status == 200 and out["n_docs"] == 30
        status, hits = _req(srv.port, "/search", {"query": "alpha", "limit": 3})
        assert status == 200 and len(hits) > 0
    finally:
        srv.close()


def test_searches_flow_during_extend(server):
    """An in-flight POST /extend must not block searches: the Ray
    delta job runs under the ingest lock only, searches keep hitting
    the current pool (pre-extend view) and the swap happens at the
    end. At least one search must complete WHILE the extend thread is
    still running (the extend is a multi-second Ray job; a search is
    milliseconds — under the old whole-job lock, zero complete)."""
    import threading
    import time

    srv, _ = server
    payload = {"docs": [
        {"content": f"zzconcur{i} golf hotel concurrent ingest", "lang": "en"}
        for i in range(5)
    ]}
    result = {}

    def do_extend():
        result["resp"] = _req(srv.port, "/extend", payload)

    t = threading.Thread(target=do_extend)
    t.start()
    completed_during = 0
    while t.is_alive():
        status, hits = _req(srv.port, "/search", {"query": "golf", "limit": 5})
        assert status == 200 and len(hits) > 0
        if t.is_alive():
            completed_during += 1
        time.sleep(0.01)
    t.join()
    assert result["resp"][0] == 200 and result["resp"][1]["added"] == 5
    assert completed_during > 0  # searches flowed during the ingest
    # and the ingested docs are searchable after the swap
    _, hits = _req(srv.port, "/search", {"query": "zzconcur3", "limit": 5})
    assert len(hits) == 1


def test_concurrent_searches_and_delete(server):
    """ThreadingHTTPServer + the pool-swap lock: concurrent searches
    racing a delete all succeed (or at worst retry-level errors never
    corrupt state), and post-delete results converge."""
    from concurrent.futures import ThreadPoolExecutor

    srv, _ = server
    def search(_):
        return _req(srv.port, "/search", {"query": "delta golf", "limit": 5})[0]

    with ThreadPoolExecutor(8) as ex:
        codes = list(ex.map(search, range(16)))
    assert codes == [200] * 16
    _, hits = _req(srv.port, "/search", {"query": "delta golf", "limit": 5})
    victim = hits[0]["doc_id"]
    with ThreadPoolExecutor(8) as ex:
        fut = ex.submit(_req, srv.port, "/delete", {"doc_ids": [victim]})
        codes = list(ex.map(search, range(8)))
        fut.result()
    _, after = _req(srv.port, "/search", {"query": "delta golf", "limit": 10})
    assert victim not in {h["doc_id"] for h in after}


# ---------------------------------------------------------------------------
# POST /hybrid (BM25 + client-vector RRF over an attached IVF index)


@pytest.fixture(scope="module")
def hybrid_server(tmp_path_factory):
    rng = np.random.default_rng(33)
    rows = [
        {
            "doc_id": i,
            "content": " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 40)),
            "lang": "en",
        }
        for i in range(60)
    ]
    emb = [
        {"vec_id": i, "embedding": rng.normal(size=8).astype(np.float32).tolist(),
         "label": i % 3}
        for i in range(60)
    ]
    idx = str(tmp_path_factory.mktemp("hyidx"))
    vidx = str(tmp_path_factory.mktemp("hyvec")) + "/ivf"
    build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=2)
    from information_retrieval_images_ray.pipelines.similarity import build_ivf_index

    build_ivf_index(ray.data.from_items(emb), vidx, nlist=8)
    srv = IndexHTTPServer(idx, num_actors=2, port=0, vector_index_dir=vidx).start()
    yield srv, idx, emb
    srv.close()


def test_hybrid_matches_reference_fusion(hybrid_server):
    """/hybrid == rrf_fuse(reader top-20, exact cosine top-20) when
    every cluster is probed; provenance ranks round-trip."""
    import pandas as pd

    from information_retrieval_images_ray.pipelines.hybrid import rrf_fuse

    srv, idx, emb = hybrid_server
    qvec = list(map(float, emb[7]["embedding"]))
    status, hits = _req(srv.port, "/hybrid", {
        "query": "alpha dup", "vector": qvec, "limit": 10,
        "n_each": 20, "nprobe": 8,
    })
    assert status == 200 and len(hits) == 10

    reader = IndexReader(idx)
    lex_hits = reader.search_bmw("alpha dup", 20)
    lex = pd.DataFrame({
        "qid": 0,
        "doc_id": [d for d, _ in lex_hits],
        "rank": np.arange(1, len(lex_hits) + 1),
    })
    m = np.stack([np.asarray(e["embedding"], np.float64) for e in emb])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = np.asarray(qvec, np.float64)
    sims = m @ (q / np.linalg.norm(q))
    ids = np.array([e["vec_id"] for e in emb])
    order = np.lexsort((ids, -sims))[:20]
    vec = pd.DataFrame({
        "qid": 0, "doc_id": ids[order], "rank": np.arange(1, 21)
    })
    want = rrf_fuse(lex, vec, k=10)
    assert [h["doc_id"] for h in hits] == list(want["doc_id"])
    assert [h["rank"] for h in hits] == list(want["rank"])
    # self-match doc 7 is vec rank 1; provenance survives fusion
    h7 = next(h for h in hits if h["doc_id"] == 7)
    assert h7["vec_rank"] == 1
    lexset = set(lex["doc_id"])
    for h in hits:
        assert (h["bm25_rank"] is not None) == (h["doc_id"] in lexset)
        assert "content_sha256" in h  # hydrated


def test_hybrid_respects_tombstones(hybrid_server):
    srv, _, emb = hybrid_server
    qvec = list(map(float, emb[9]["embedding"]))
    _, before = _req(srv.port, "/hybrid", {
        "query": "bravo", "vector": qvec, "limit": 10, "nprobe": 8,
    })
    assert 9 in {h["doc_id"] for h in before}  # self-match present
    _req(srv.port, "/delete", {"doc_ids": [9]})
    _, after = _req(srv.port, "/hybrid", {
        "query": "bravo", "vector": qvec, "limit": 10, "nprobe": 8,
    })
    assert 9 not in {h["doc_id"] for h in after}
    assert len(after) == 10  # overfetch backfills the dropped doc


def test_hybrid_error_contracts(server, hybrid_server):
    import urllib.error

    srv_plain, _ = server
    srv_h, _, _ = hybrid_server
    # no vector index attached -> 409
    with pytest.raises(urllib.error.HTTPError) as e:
        _req(srv_plain.port, "/hybrid", {"query": "x", "vector": [1.0, 0.0]})
    assert e.value.code == 409
    # missing/empty vector -> 400
    with pytest.raises(urllib.error.HTTPError) as e:
        _req(srv_h.port, "/hybrid", {"query": "x"})
    assert e.value.code == 400


# ---------------------------------------------------------------------------
# POST /knn (pure ANN over the attached IVF index)


def _live_exact_topk(srv, idx, emb, qvec, k, label=None):
    """Exact cosine top-k over the live (non-tombstoned) vectors —
    the oracle for /knn at exhaustive nprobe. Module-scoped fixtures
    accumulate tombstones across tests, so read them from disk."""
    from information_retrieval_images_ray.pipelines.maintenance import (
        load_tombstones,
    )

    tombs = load_tombstones(idx)
    rows = [
        e for e in emb
        if e["vec_id"] not in tombs
        and (label is None or e["label"] == label)
    ]
    m = np.stack([np.asarray(e["embedding"], np.float64) for e in rows])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = np.asarray(qvec, np.float64)
    sims = m @ (q / np.linalg.norm(q))
    ids = np.array([e["vec_id"] for e in rows])
    order = np.lexsort((ids, -sims))[:k]
    return [int(ids[i]) for i in order]


def test_knn_matches_exact(hybrid_server):
    srv, idx, emb = hybrid_server
    qvec = list(map(float, emb[5]["embedding"]))
    status, hits = _req(srv.port, "/knn", {
        "vector": qvec, "limit": 10, "nprobe": 8,
    })
    assert status == 200 and len(hits) == 10
    assert [h["doc_id"] for h in hits] == _live_exact_topk(srv, idx, emb, qvec, 10)
    assert [h["rank"] for h in hits] == list(range(1, 11))
    assert all("content_sha256" in h for h in hits)  # hydrated
    assert hits[0]["sim"] >= hits[-1]["sim"]


def test_knn_filtered(hybrid_server):
    srv, idx, emb = hybrid_server
    qvec = list(map(float, emb[12]["embedding"]))  # label 12 % 3 == 0
    status, hits = _req(srv.port, "/knn", {
        "vector": qvec, "limit": 5, "nprobe": 8,
        "filter_col": "label", "filter_value": 0,
    })
    assert status == 200
    assert [h["doc_id"] for h in hits] == _live_exact_topk(
        srv, idx, emb, qvec, 5, label=0
    )
    assert all(h["doc_id"] % 3 == 0 for h in hits)


def test_knn_respects_tombstones(hybrid_server):
    srv, idx, emb = hybrid_server
    qvec = list(map(float, emb[11]["embedding"]))
    _, before = _req(srv.port, "/knn", {"vector": qvec, "limit": 10, "nprobe": 8})
    assert 11 in {h["doc_id"] for h in before}  # self-match present
    _req(srv.port, "/delete", {"doc_ids": [11]})
    _, after = _req(srv.port, "/knn", {"vector": qvec, "limit": 10, "nprobe": 8})
    assert 11 not in {h["doc_id"] for h in after}
    assert len(after) == 10  # overfetch backfills the dropped doc
    assert [h["doc_id"] for h in after] == _live_exact_topk(srv, idx, emb, qvec, 10)


def test_knn_error_contracts(server, hybrid_server):
    import urllib.error

    srv_plain, _ = server
    srv_h, _, _ = hybrid_server
    with pytest.raises(urllib.error.HTTPError) as e:
        _req(srv_plain.port, "/knn", {"vector": [1.0, 0.0]})
    assert e.value.code == 409
    with pytest.raises(urllib.error.HTTPError) as e:
        _req(srv_h.port, "/knn", {})
    assert e.value.code == 400


def test_knn_underfill_retry_with_many_tombstones(tmp_path):
    """More than 64 tombstoned docs outranking the live ones must not
    underfill /knn: the capped overfetch retries once with the full
    tombstone count (the shared _vector_topk contract, so /hybrid's
    vector side inherits the same guarantee)."""
    rng = np.random.default_rng(44)
    # 100 docs; ids 0..79 all share (almost exactly) the query vector,
    # so every tombstoned doc ranks above every live doc
    center = rng.normal(size=8)
    rows, emb = [], []
    for i in range(100):
        rows.append({"doc_id": i, "content": " ".join(
            WORDS[j] for j in rng.integers(0, len(WORDS), 20)), "lang": "en"})
        v = center + (0.001 if i < 80 else 10.0) * rng.normal(size=8)
        emb.append({"vec_id": i, "embedding": v.astype(np.float32).tolist()})
    idx = str(tmp_path / "ti")
    vidx = str(tmp_path / "vi")
    build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=2)
    from information_retrieval_images_ray.pipelines.similarity import (
        build_ivf_index,
    )

    build_ivf_index(ray.data.from_items(emb), vidx, nlist=4)
    srv = IndexHTTPServer(idx, num_actors=2, port=0, vector_index_dir=vidx).start()
    try:
        _req(srv.port, "/delete", {"doc_ids": list(range(80))})  # 80 > 64
        _, hits = _req(srv.port, "/knn", {
            "vector": [float(x) for x in center], "limit": 10, "nprobe": 4,
        })
        assert len(hits) == 10  # retry filled from the live tail
        assert all(h["doc_id"] >= 80 for h in hits)
    finally:
        srv.close()


def test_search_mode_multiplexing(server):
    """One /search route serves every sharded query mode; each is
    rank-identical to the serial reader; phrase/proximity 409 until
    the positions sidecar exists, unknown modes 400."""
    srv, idx = server
    reader = IndexReader(idx)

    _, hits = _req(srv.port, "/search", {
        "mode": "boolean", "must": "alpha", "should": "dup",
        "must_not": "zebra", "limit": 5,
    })
    want = reader.search_boolean("alpha", "dup", "zebra", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "prefix", "query": "alp", "limit": 5, "max_expansions": 8,
    })
    want = reader.search_prefix("alp", 5, max_expansions=8)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "fuzzy", "query": "alphq", "limit": 5,
    })
    want = reader.search_fuzzy("alphq", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "query": "alpha dup", "limit": 3, "offset": 3,
    })
    want = reader.search_page("alpha dup", k=3, offset=3)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits
    assert [h["rank"] for h in hits] == [4, 5, 6]

    # cursor paging reaches the same slice without the offset recompute
    _, p1 = _req(srv.port, "/search", {"query": "alpha dup", "limit": 3})
    _, hits = _req(srv.port, "/search", {
        "query": "alpha dup", "limit": 3,
        "search_after": [p1[-1]["score"], p1[-1]["doc_id"]],
    })
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "wildcard", "query": "alp*a", "limit": 5,
    })
    want = reader.search_wildcard("alp*a", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "synonym", "query": "fast alpha", "limit": 5,
    })
    want = reader.search_synonym("fast alpha", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "regex", "query": "alp.a", "limit": 5,
    })
    want = reader.search_regex("alp.a", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "boosted", "query": "alpha^2 dup", "limit": 5,
    })
    want = reader.search_boosted("alpha^2 dup", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "collapse", "query": "alpha dup", "limit": 5,
        "collapse_field": "lang",
    })
    want = reader.search_collapse("alpha dup", "lang", 5)
    assert [
        (h["doc_id"], h["score"], h["group"], h["group_n"]) for h in hits
    ] == [(r["doc_id"], r["score"], r["value"], r["n"]) for r in want]
    assert hits  # en + fr groups both present in the 60-doc fixture

    reader_texts = reader  # keep name for clarity below

    # more-like-this: source text in, anchor excluded, identical to the
    # serial reader's composition
    src_text = "alpha dup zebra alpha hotel"
    _, hits = _req(srv.port, "/search", {
        "mode": "more_like_this", "query": src_text, "limit": 5,
        "max_terms": 3, "exclude_doc": 7,
    })
    from information_retrieval_images_ray.functions.tokenizer import (
        tokenize_simple,
    )

    want = reader.more_like_this(tokenize_simple(src_text), exclude_doc=7,
                                 k=5, max_terms=3)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    # facet route: whole-match-set counts, identical to the reader
    _, fc = _req(srv.port, "/facets", {"query": "alpha dup", "cols": ["lang"]})
    assert fc == reader.facet_counts("alpha dup", ["lang"])
    assert sum(fc["lang"].values()) == len(reader.match_ids("alpha dup"))

    # significant terms: router aggregation == the serial reader
    _, sig = _req(srv.port, "/significant", {
        "query": "alpha dup", "limit": 5, "sample_n": 20,
    })
    want_sig = reader.significant_terms("alpha dup", k=5, sample_n=20)
    assert [(r["term"], r["fg_df"], r["df"], r["lor"]) for r in sig] == \
        [(r["term"], r["fg_df"], r["df"], r["lor"]) for r in want_sig]
    assert sig and all(r["rank"] == i + 1 for i, r in enumerate(sig))

    # term vectors: pruned docterms read + df exchange == the reader
    _, tv = _req(srv.port, "/termvectors", {"doc_ids": [3, 8]})
    assert tv == reader.term_vectors([3, 8]) and tv
    _, tv0 = _req(srv.port, "/termvectors", {"doc_ids": []})
    assert tv0 == []

    # numeric range facet: token-length histogram of the match set
    _, fc = _req(srv.port, "/facets", {
        "query": "alpha dup", "cols": ["lang"], "length_edges": [0, 20, 40],
    })
    assert fc["length"] == reader.length_facets("alpha dup", [0, 20, 40])
    assert sum(r["n"] for r in fc["length"]) == \
        len(reader.match_ids("alpha dup"))

    with pytest.raises(urllib.error.HTTPError) as e:
        _req(srv.port, "/search", {"mode": "nope", "query": "alpha"})
    assert e.value.code == 400

    # phrase before the sidecar exists: a clean 409, not a 500
    with pytest.raises(urllib.error.HTTPError) as e:
        _req(srv.port, "/search", {"mode": "phrase", "query": "alpha dup"})
    assert e.value.code == 409

    # build the sidecar (same deterministic corpus as the fixture),
    # then phrase and proximity serve through the same route
    from information_retrieval_images_ray.pipelines.positions import (
        build_positions_sidecar,
        verify_phrase_positions,
        verify_proximity_positions,
    )

    rng = np.random.default_rng(21)
    rows = [
        {
            "doc_id": i,
            "content": " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 40)),
            "lang": "en" if i % 2 == 0 else "fr",
        }
        for i in range(60)
    ]
    build_positions_sidecar(ray.data.from_items(rows), idx)

    def serial(terms, verify, k=5):
        ids, scores = reader.conjunctive_scores(sorted(set(terms)))
        ok = set(verify(ids).tolist()) if len(ids) else set()
        kept = sorted(((s, d) for d, s in zip(ids.tolist(), scores.tolist())
                       if d in ok), key=lambda e: (-e[0], e[1]))[:k]
        return [(d, s) for s, d in kept]

    _, hits = _req(srv.port, "/search", {
        "mode": "phrase", "query": "alpha dup", "limit": 5,
    })
    want = serial(["alpha", "dup"], lambda ids: verify_phrase_positions(
        idx, ["alpha", "dup"], ids))
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "proximity", "query": "alpha zebra", "window": 6, "limit": 5,
    })
    want = serial(["alpha", "zebra"], lambda ids: verify_proximity_positions(
        idx, ["alpha", "zebra"], 6, ids))
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    # ordered span-near through the same route; both orders must
    # reproduce their own serial composition
    from information_retrieval_images_ray.pipelines.positions import (
        verify_spannear_positions,
    )

    for ordered in (["alpha", "zebra"], ["zebra", "alpha"]):
        _, hits = _req(srv.port, "/search", {
            "mode": "span_near", "query": " ".join(ordered),
            "window": 6, "limit": 5,
        })
        want = serial(ordered, lambda ids: verify_spannear_positions(
            idx, ordered, 6, ids))
        assert [(h["doc_id"], h["score"]) for h in hits] == want


# ---------------------------------------------------------------------------
# server-side text embedding (/knn and /hybrid with "text")


@pytest.fixture(scope="module")
def text_embed_server(tmp_path_factory):
    """Index + IVF built from the engine's OWN text embedder
    (similarity.embed_text_pipeline), so the server can embed query
    text into the same space — the reference's search-time embed loop
    (server.py:135-140) closed end-to-end."""
    rng = np.random.default_rng(55)
    rows = [
        {
            "doc_id": i,
            "content": " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 30)),
            "lang": "en",
        }
        for i in range(50)
    ]
    idx = str(tmp_path_factory.mktemp("teidx"))
    vidx = str(tmp_path_factory.mktemp("tevec")) + "/ivf"
    build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=2)
    from information_retrieval_images_ray.pipelines.similarity import (
        build_ivf_index,
        embed_text_pipeline,
    )

    emb = embed_text_pipeline(
        ray.data.from_items(rows), dim=32, text_col="content"
    )
    build_ivf_index(emb, vidx, nlist=8)
    srv = IndexHTTPServer(idx, num_actors=2, port=0, vector_index_dir=vidx).start()
    yield srv, rows
    srv.close()


def test_knn_text_query_matches_client_vector(text_embed_server):
    """POST /knn {"text": q} ranks EXACTLY like the client embedding
    the same text with the same public embedder and posting the
    vector; a doc's own content self-matches at rank 1 / sim 1."""
    from information_retrieval_images_ray.functions.embedder import (
        HashedNgramEmbedder,
    )

    srv, rows = text_embed_server
    q = rows[13]["content"]
    status, by_text = _req(srv.port, "/knn", {"text": q, "limit": 5, "nprobe": 8})
    assert status == 200 and len(by_text) == 5
    vec = HashedNgramEmbedder(dim=32).embed([q])[0].tolist()
    _, by_vec = _req(srv.port, "/knn", {"vector": vec, "limit": 5, "nprobe": 8})
    assert [h["doc_id"] for h in by_text] == [h["doc_id"] for h in by_vec]
    assert by_text[0]["doc_id"] == 13 and abs(by_text[0]["sim"] - 1.0) < 1e-6

    import urllib.error

    with pytest.raises(urllib.error.HTTPError) as ei:
        _req(srv.port, "/knn", {"limit": 5})  # neither vector nor text
    assert ei.value.code == 400


def test_hybrid_text_only_drives_both_sides(text_embed_server):
    """POST /hybrid {"text": q} == /hybrid {"query": q, "vector":
    embed(q)} — one string, server-embedded, fused."""
    from information_retrieval_images_ray.functions.embedder import (
        HashedNgramEmbedder,
    )

    srv, rows = text_embed_server
    q = rows[7]["content"]
    status, by_text = _req(srv.port, "/hybrid", {"text": q, "limit": 10, "nprobe": 8})
    assert status == 200 and len(by_text) > 0
    vec = HashedNgramEmbedder(dim=32).embed([q])[0].tolist()
    _, explicit = _req(srv.port, "/hybrid", {
        "query": q, "vector": vec, "limit": 10, "nprobe": 8,
    })
    assert [h["doc_id"] for h in by_text] == [h["doc_id"] for h in explicit]
    # the vector side self-matches doc 7 at rank 1 (fusion rank may
    # differ — BM25 over a 30-token bag can prefer another doc)
    h7 = next(h for h in by_text if h["doc_id"] == 7)
    assert h7["vec_rank"] == 1


def test_ui_served_at_root(server):
    """GET / (and /ui) returns the built-in search page — the
    reference frontend's analogue (Search.tsx) over the same POST
    /search contract, one self-contained HTML document."""
    srv, _ = server
    for path in ("/", "/ui"):
        r = urllib.request.urlopen(f"http://127.0.0.1:{srv.port}{path}", timeout=30)
        assert r.status == 200
        assert r.headers["Content-Type"].startswith("text/html")
        body = r.read().decode()
        # the page drives the documented JSON API, nothing else
        for needle in ('"/search"', '"/facets"', '"/knn"', '"/hybrid"',
                       "/stats", "<form", "more_like_this"):
            assert needle in body, needle


def test_best_window_tokens_matches_positions_semantics():
    """The serving-layer token-domain window (_best_window_tokens)
    must implement EXACTLY the positions.best_window_positions
    contract: candidate starts = query-term occurrence positions,
    score = distinct query terms in [s, s+window-1], ties leftmost.
    Cross-checked against the numpy occurrence-anchored computation
    lifted from positions.per_doc on random streams."""
    from information_retrieval_images_ray.pipelines.serving_http import (
        _best_window_tokens,
    )

    rng = np.random.default_rng(7)
    vocab = WORDS + ["india", "juliet"]
    for _ in range(300):
        tokens = [vocab[j] for j in rng.integers(0, len(vocab),
                                                 int(rng.integers(1, 60)))]
        qn = int(rng.integers(1, 4))
        qterms = {vocab[j] for j in rng.integers(0, len(vocab), qn)}
        window = int(rng.integers(2, 9))
        got = _best_window_tokens(tokens, qterms, window)
        pos = {
            t: np.array([i for i, x in enumerate(tokens) if x == t], np.int64)
            for t in qterms
            if t in tokens
        }
        if not pos:
            assert got is None
            continue
        starts = np.unique(np.concatenate(list(pos.values())))
        n = np.zeros(len(starts), np.int64)
        for p in pos.values():
            lo = np.searchsorted(p, starts)
            hi = np.searchsorted(p, starts + window)
            n += (hi > lo).astype(np.int64)
        best = int(np.argmax(n))
        assert got == (int(starts[best]), int(n[best]))


def test_search_snippet(server):
    """"snippet": true attaches {snippet, snip_start, n_match} to each
    hit — the best distinct-term window with query terms <em>-marked,
    recomputable from the corpus parquet."""
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.functions.tokenizer import (
        tokenize_simple,
    )
    from information_retrieval_images_ray.pipelines.serving_http import (
        _best_window_tokens,
    )

    srv, _ = server
    status, hits = _req(srv.port, "/search", {
        "query": "alpha dup", "limit": 5, "snippet": True,
    })
    assert status == 200 and hits
    t = pq.read_table(srv.corpus_path)
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    qterms = {"alpha", "dup"}
    for h in hits:
        tokens = tokenize_simple(texts[h["doc_id"]])
        start, n_match = _best_window_tokens(tokens, qterms, 8)
        assert h["snip_start"] == start and h["n_match"] == n_match >= 1
        want = " ".join(
            f"<em>{w}</em>" if w in qterms else w
            for w in tokens[start:start + 8]
        )
        assert h["snippet"] == want
        assert "<em>" in h["snippet"]

    # custom window width flows through
    status, narrow = _req(srv.port, "/search", {
        "query": "alpha dup", "limit": 5, "snippet": True,
        "snippet_window": 3,
    })
    assert status == 200
    assert all(len(h["snippet"].split(" ")) <= 3 for h in narrow)


def test_search_snippet_boolean_and_synonym_terms(server):
    """boolean marks must+should terms; synonym marks the expanded
    set (one-hop SYNONYMS, same expansion the scorer used)."""
    srv, _ = server
    status, hits = _req(srv.port, "/search", {
        "query": "", "mode": "boolean", "must": "alpha", "should": "dup",
        "limit": 3, "snippet": True,
    })
    assert status == 200 and hits
    assert all("snippet" in h for h in hits)

    status, hits = _req(srv.port, "/search", {
        "query": "zebra", "mode": "synonym", "limit": 3, "snippet": True,
    })
    assert status == 200
    # every returned snippet marks at least one term of the expansion
    assert all("<em>" in h.get("snippet", "") for h in hits) or hits == []


def test_search_snippet_expansion_modes_and_no_corpus(server, tmp_path):
    """Expansion modes highlight their dictionary expansions — the
    snippet marks exactly the terms that scored (every <em>-marked
    token starts with the prefix; the window is the token-domain best
    window over the expansion set); a server started without
    corpus_path 400s an explicit error instead of guessing."""
    srv, idx = server
    status, hits = _req(srv.port, "/search", {
        "query": "alp", "mode": "prefix", "limit": 3, "snippet": True,
    })
    assert status == 200 and hits
    import re as _re

    from information_retrieval_images_ray.pipelines.serving import (
        ShardedQueryService,
    )

    marked_any = False
    for h in hits:
        assert "snippet" in h and h["n_match"] >= 1
        for m in _re.findall(r"<em>([a-z0-9]+)</em>", h["snippet"]):
            assert m.startswith("alp")
            marked_any = True
    assert marked_any
    # the expand-once path (snippet=true expands before topk) is
    # bitwise rank-identical to the mode's own expansion call
    _, plain = _req(srv.port, "/search", {
        "query": "alp", "mode": "prefix", "limit": 3,
    })
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        [(h["doc_id"], h["score"]) for h in plain]
    # more_like_this stays snippet-less (terms come from docterms reads)
    status, hits = _req(srv.port, "/search", {
        "query": "alpha beta", "mode": "more_like_this", "limit": 3,
        "snippet": True,
    })
    assert status == 200
    assert all("snippet" not in h for h in hits)

    bare = IndexHTTPServer(idx, num_actors=1, port=0).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as ei:
            _req(bare.port, "/search", {
                "query": "alpha", "limit": 3, "snippet": True,
            })
        assert ei.value.code == 400
        assert "corpus_path" in json.loads(ei.value.read())["error"]
    finally:
        bare.close()


def test_search_mode_prf_matches_reader(server):
    """mode=prf through HTTP equals IndexReader.search_prf bitwise —
    base top-fb, docterms-backed expansion, weighted re-score."""
    srv, idx = server
    reader = IndexReader(idx)
    status, hits = _req(srv.port, "/search", {
        "query": "alpha dup", "mode": "prf", "limit": 5,
        "fb_docs": 3, "fb_terms": 4, "beta": 0.5,
    })
    assert status == 200 and hits
    want = reader.search_prf("alpha dup", 5, fb_docs=3, fb_terms=4, beta=0.5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want


def test_search_explain_breakdown(server):
    """"explain": true attaches the per-term BM25 breakdown whose
    contributions sum to the hit's score; non-bm25 modes 400."""
    import pytest as _pytest
    import urllib.error

    srv, idx = server
    status, hits = _req(srv.port, "/search", {
        "query": "alpha dup", "limit": 5, "explain": True,
    })
    assert status == 200 and hits
    for h in hits:
        ex = h["explanation"]
        assert ex and all(e["term"] in ("alpha", "dup") for e in ex)
        assert sum(e["contribution"] for e in ex) == _pytest.approx(
            h["score"], rel=1e-12)
        assert all(e["tf"] >= 1 and e["df"] >= 1 for e in ex)
    with _pytest.raises(urllib.error.HTTPError) as ei:
        _req(srv.port, "/search", {
            "query": "alp", "mode": "prefix", "limit": 3, "explain": True,
        })
    assert ei.value.code == 400


def test_msearch_fast_path_matches_per_query_search(server):
    """A homogeneous plain-bm25 batch takes the single pooled topk
    call; each response list must equal the per-query /search result
    exactly (ranks, scores, hydrated fields)."""
    srv, idx = server
    queries = ["alpha dup", "bravo", "charlie echo", "zzznohit"]
    status, out = _req(srv.port, "/msearch", {
        "searches": [{"query": q, "limit": 5} for q in queries]
    })
    assert status == 200
    responses = out["responses"]
    assert len(responses) == len(queries)
    for q, got in zip(queries, responses):
        _, want = _req(srv.port, "/search", {"query": q, "limit": 5})
        assert got == want


def test_msearch_mixed_modes_and_error_isolation(server):
    """Heterogeneous batch falls back to per-body dispatch; a bad mode
    in the middle yields an error OBJECT at that index while its
    neighbors still return hits (the ES _msearch contract)."""
    srv, idx = server
    status, out = _req(srv.port, "/msearch", {"searches": [
        {"query": "alpha", "limit": 3},
        {"query": "alpha", "mode": "definitely_not_a_mode"},
        {"query": "alp", "mode": "prefix", "limit": 3},
    ]})
    assert status == 200
    r = out["responses"]
    assert isinstance(r[0], list) and r[0]
    assert isinstance(r[1], dict) and "error" in r[1]
    assert isinstance(r[2], list) and r[2]
    _, want = _req(srv.port, "/search",
                   {"query": "alp", "mode": "prefix", "limit": 3})
    assert r[2] == want


def test_msearch_pooled_groups_match_per_body(server):
    """Same-key groups of a MIXED batch ride pooled calls and must
    be bitwise-identical to per-body /search — bm25 x2, boolean x2,
    prefix x3 and fuzzy x2 pooled (the expansion bodies share one
    expansion exchange), a bad mode interleaved and isolated."""
    srv, idx = server
    bodies = [
        {"query": "alpha delta", "limit": 4},                      # bm25 pool
        {"mode": "boolean", "must": "alpha", "should": "delta",
         "must_not": "", "limit": 4},                              # bool pool
        {"query": "nosuchterm", "mode": "definitely_not_a_mode"},  # error
        {"query": "zebra", "limit": 4},                            # bm25 pool
        {"mode": "boolean", "must": "zebra", "should": "",
         "must_not": "alpha", "limit": 4},                         # bool pool
        {"query": "alp", "mode": "prefix", "limit": 4},            # prefix
        {"query": "br", "mode": "prefix", "limit": 4},             # prefix
        {"query": "ech", "mode": "prefix", "limit": 4,
         "max_expansions": 1},                                     # prefix
        {"query": "alphq", "mode": "fuzzy", "limit": 4},           # fuzzy
        {"query": "zebru", "mode": "fuzzy", "limit": 4,
         "max_edits": 1},                                          # fuzzy
    ]
    status, out = _req(srv.port, "/msearch", {"searches": bodies})
    assert status == 200
    r = out["responses"]
    assert isinstance(r[2], dict) and "error" in r[2]
    for i in (0, 1, 3, 4, 5, 6, 7, 8, 9):
        body = dict(bodies[i])
        _, want = _req(srv.port, "/search", body)
        assert r[i] == want, i
    # r[4] may legitimately be empty (must_not excludes all must hits)
    assert r[0] and r[1] and r[3] and r[5]
    assert r[6] and r[7] and r[8] and r[9]


def test_msearch_empty_batch_rejected(server):
    srv, idx = server
    import urllib.error

    with pytest.raises(urllib.error.HTTPError) as ei:
        _req(srv.port, "/msearch", {"searches": []})
    assert ei.value.code == 400


# ---------------------------------------------------------------------------
# The pool generation owns the df cache and the docmeta snapshot


def _small_index(path, n=60, seed=51):
    rng = np.random.default_rng(seed)
    rows = [
        {
            "doc_id": i,
            "content": " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 30)),
            "repo": f"r{i % 4}", "path": f"p{i}.txt", "commit": "c0",
            "lang": "en" if i % 3 else None,
        }
        for i in range(n)
    ]
    build_index(ray.data.from_items(rows), path, tokenizer="simple", num_shards=2)
    return path


def test_df_cache_exact_across_extend_and_delete(tmp_path):
    """After /extend adds docs holding an already-cached term, and
    after a /delete, the next /search is bitwise equal in ranks and
    scores to a fresh serial reader on the index at that point. A df
    cache that outlived its pool would score the extended index with
    the old df."""
    idx = _small_index(str(tmp_path / "dfidx"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    query = "alpha bravo"

    def check():
        _, hits = _req(srv.port, "/search", {"query": query, "limit": 10})
        want = IndexReader(idx).search_bmw(query, 10)
        assert want and [(h["doc_id"], h["score"]) for h in hits] == \
            [(d, s) for d, s in want]
        return hits

    try:
        check()
        check()  # served with alpha/bravo df cached
        status, out = _req(srv.port, "/extend", {"docs": [
            {"content": f"alpha alpha charlie extended{i}"} for i in range(8)]})
        assert status == 200 and out["added"] == 8
        hits = check()
        status, out = _req(srv.port, "/delete", {"doc_ids": [hits[0]["doc_id"]]})
        assert status == 200 and out["tombstoned"] == 1
        assert hits[0]["doc_id"] not in {h["doc_id"] for h in check()}
    finally:
        srv.close()


def _reference_meta(idx, ids):
    """``query.hydrate_hits`` rows as the server shaped them before:
    numpy scalars to Python, NaN to None."""
    import pandas as pd

    from information_retrieval_images_ray.pipelines.query import hydrate_hits

    out = {}
    for rec in hydrate_hits(pd.DataFrame({"doc_id": sorted(ids)}), idx).to_dict("records"):
        rec = {k: v.item() if isinstance(v, np.generic) else v for k, v in rec.items()}
        out[rec["doc_id"]] = {
            k: None if isinstance(v, float) and v != v else v for k, v in rec.items()}
    return out


def _assert_hydrated(idx, rows):
    ref = _reference_meta(idx, {r["doc_id"] for r in rows})
    assert rows and len(ref) == len({r["doc_id"] for r in rows})
    for r in rows:
        for k, v in ref[r["doc_id"]].items():
            assert r[k] == v and type(r[k]) is type(v), (r["doc_id"], k, r[k], v)


def test_hydration_matches_offline_hydrate_and_reads_no_disk(tmp_path, monkeypatch):
    """Every hydrated row of /search, /msearch, /doc/<id> and /knn
    equals ``query.hydrate_hits`` on the same ids, field for field and
    type for type, before and after an /extend. A warm hydrated bm25
    /search and an /msearch then run with every file, glob, parquet
    and dataset read patched to raise."""
    import builtins
    import glob

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.pipelines.similarity import build_ivf_index

    idx = _small_index(str(tmp_path / "hyd"))
    vidx = str(tmp_path / "hydvec")
    rng = np.random.default_rng(52)
    emb = [{"vec_id": i, "embedding": rng.normal(size=8).astype(np.float32).tolist()}
           for i in range(60)]
    build_ivf_index(ray.data.from_items(emb), vidx, nlist=4)
    srv = IndexHTTPServer(idx, num_actors=2, port=0, vector_index_dir=vidx).start()
    bodies = [{"query": "alpha delta", "limit": 5}, {"query": "zebra", "limit": 5},
              {"query": "ech", "mode": "prefix", "limit": 5}]
    try:
        for step in ("built", "extended"):
            _assert_hydrated(idx, srv.search("alpha delta", 8))
            for page in srv.msearch(bodies):
                _assert_hydrated(idx, page)
            _assert_hydrated(idx, srv.knn(emb[7]["embedding"], k=6, nprobe=4))
            for d in (0, 3, 59):
                _, doc = _req(srv.port, f"/doc/{d}")
                assert doc == _reference_meta(idx, [d])[d]
            if step == "built":
                status, out = _req(srv.port, "/extend", {"docs": [
                    {"content": "alpha delta fresh", "lang": "en"},
                    {"content": "alpha zebra fresh"}]})
                assert status == 200 and out["added"] == 2
        _, doc = _req(srv.port, "/doc/61")
        assert doc == _reference_meta(idx, [61])[61] and doc["lang"] == ""
        assert 60 in {r["doc_id"] for r in srv.search("fresh", 5)}

        want_search = srv.search("alpha delta", 8)
        want_msearch = srv.msearch(bodies)

        def boom(*a, **kw):
            raise AssertionError("disk read on the request path")

        monkeypatch.setattr(builtins, "open", boom)
        monkeypatch.setattr(glob, "glob", boom)
        monkeypatch.setattr(pq, "read_table", boom)
        monkeypatch.setattr(pads, "dataset", boom)
        got_search = srv.search("alpha delta", 8)
        got_msearch = srv.msearch(bodies)
        monkeypatch.undo()
        assert got_search == want_search
        assert got_msearch == want_msearch
    finally:
        monkeypatch.undo()
        srv.close()
