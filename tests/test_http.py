"""HTTP serving layer: the reference's POST /search surface
(server.py:46-177) over the replica actor pool, stdlib-only."""

import json
import urllib.request

import numpy as np
import pytest
import ray.data

from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.query import IndexReader
from information_retrieval_images_ray.pipelines.serving_http import IndexHTTPServer

from conftest import collapse, search

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
    want = reader.search_taat("alpha dup", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == [(d, s) for d, s in want]
    assert all("content_sha256" in h and "lang" in h for h in hits)  # hydrated


def test_search_lang_filter(server):
    srv, idx = server
    reader = IndexReader(idx)
    status, hits = _req(
        srv.port, "/search", {"query": "alpha dup", "limit": 5, "lang": "fr"}
    )
    assert status == 200
    want = reader.search_taat("alpha dup", 5, doc_filter=("lang", "fr"))
    assert [(h["doc_id"], h["score"]) for h in hits] == [(d, s) for d, s in want]
    assert hits and all(h["lang"] == "fr" for h in hits)  # hydrated + filtered


def test_doc_and_stats_routes(server):
    """/doc/<id> serves a live doc's row; an unknown or tombstoned id
    is a 404, a non-integer one a 400. /stats reports the serving
    generation and its page-cache counters."""
    srv, _ = server
    status, doc = _req(srv.port, "/doc/3")
    assert status == 200 and doc["doc_id"] == 3 and doc["lang"] == "fr"
    status, stats = _req(srv.port, "/stats")
    assert status == 200 and stats["n_docs"] == 60
    assert set(stats["page_cache"]) == {"hits", "misses", "rows"}
    assert stats["retries"] == 0
    for path, code in [("/doc/99999", 404), ("/doc/abc", 400), ("/doc/", 400),
                       ("/doc/1.5", 400), ("/doc/" + "9" * 30, 400)]:
        with pytest.raises(urllib.error.HTTPError) as ei:
            _req(srv.port, path)
        assert ei.value.code == code, path
    status, out = _req(srv.port, "/delete", {"doc_ids": [57]})
    assert status == 200 and out["tombstoned"] == 1
    with pytest.raises(urllib.error.HTTPError) as ei:
        _req(srv.port, "/doc/57")
    assert ei.value.code == 404
    assert _req(srv.port, "/doc/3")[0] == 200


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
    lex_hits = reader.search_taat("alpha dup", 20)
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
    want = search(reader, "boolean", "", 5, must="alpha", should="dup",
                  must_not="zebra")
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "prefix", "query": "alp", "limit": 5, "max_expansions": 8,
    })
    want = search(reader, "prefix", "alp", 5, max_expansions=8)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "fuzzy", "query": "alphq", "limit": 5,
    })
    want = search(reader, "fuzzy", "alphq", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "query": "alpha dup", "limit": 3, "offset": 3,
    })
    want = search(reader, "bm25", "alpha dup", k=3, offset=3)
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
    want = search(reader, "wildcard", "alp*a", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "synonym", "query": "fast alpha", "limit": 5,
    })
    want = search(reader, "synonym", "fast alpha", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "regex", "query": "alp.a", "limit": 5,
    })
    want = search(reader, "regex", "alp.a", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "boosted", "query": "alpha^2 dup", "limit": 5,
    })
    want = search(reader, "boosted", "alpha^2 dup", 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    _, hits = _req(srv.port, "/search", {
        "mode": "collapse", "query": "alpha dup", "limit": 5,
        "collapse_field": "lang",
    })
    want = collapse(reader, "alpha dup", "lang", 5)
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
    want = search(reader, "more_like_this", src_text, 5, exclude_doc=7,
                  max_terms=3)
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
    # the reader's own message, not the actor's traceback
    assert json.loads(e.value.read())["error"].startswith("no positions sidecar")

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
    """The token-domain snippet window (positions.best_window) must
    implement EXACTLY the occurrence-anchored contract the q_snippets
    oracle mirrors: candidate starts = query-term occurrence positions,
    score = distinct query terms in [s, s+window-1], ties leftmost.
    Cross-checked against an independent numpy computation (per-term
    sorted positions, searchsorted counts per candidate start) on
    random streams."""
    from information_retrieval_images_ray.pipelines.positions import best_window

    rng = np.random.default_rng(7)
    vocab = WORDS + ["india", "juliet"]
    for _ in range(300):
        tokens = [vocab[j] for j in rng.integers(0, len(vocab),
                                                 int(rng.integers(1, 60)))]
        qn = int(rng.integers(1, 4))
        qterms = {vocab[j] for j in rng.integers(0, len(vocab), qn)}
        window = int(rng.integers(2, 9))
        got = best_window(tokens, qterms, window)
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
    from information_retrieval_images_ray.pipelines.positions import best_window

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
        start, n_match = best_window(tokens, qterms, 8)
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
    """mode=prf through HTTP equals the serial reader's prf plan bitwise —
    base top-fb, docterms-backed expansion, weighted re-score."""
    srv, idx = server
    reader = IndexReader(idx)
    status, hits = _req(srv.port, "/search", {
        "query": "alpha dup", "mode": "prf", "limit": 5,
        "fb_docs": 3, "fb_terms": 4, "beta": 0.5,
    })
    assert status == 200 and hits
    want = search(reader, "prf", "alpha dup", 5, fb_docs=3, fb_terms=4,
                  beta=0.5)
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


def test_paging_input_validation(server):
    """A negative limit or offset is a 400 with a plain message on
    /search and a per-body error in /msearch; a limit of 0 is an empty
    page."""
    import urllib.error

    srv, _ = server
    for body in ({"query": "alpha", "offset": -2, "limit": 3},
                 {"query": "alpha", "limit": -1},
                 {"query": "alp", "mode": "prefix", "limit": -1, "snippet": True}):
        with pytest.raises(urllib.error.HTTPError) as ei:
            _req(srv.port, "/search", body)
        assert ei.value.code == 400, body
        err = json.loads(ei.value.read())["error"]
        assert err.startswith("limit and offset must be >= 0"), (body, err)
    assert _req(srv.port, "/search", {"query": "alpha", "limit": 0}) == (200, [])
    status, out = _req(srv.port, "/msearch", {"searches": [
        {"query": "alpha", "limit": 3}, {"query": "alpha", "offset": -2, "limit": 3},
        {"query": "bravo", "limit": -1}, {"query": "bravo", "limit": 0}]})
    r = out["responses"]
    assert status == 200 and r[0] and r[3] == []
    assert r[0] == _req(srv.port, "/search", {"query": "alpha", "limit": 3})[1]
    assert [set(e) for e in r[1:3]] == [{"error"}] * 2


# ---------------------------------------------------------------------------
# The pool generation owns the docmeta snapshot


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
        want = IndexReader(idx).search_taat(query, 10)
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


def test_hydration_covers_every_column_type_and_nulls(tmp_path):
    """After ``build.extend_index`` adds a delta whose docs carry an
    integer, a float and a string column that the base docs lack, and
    a /reload, every hydrated row of /search, /msearch and /doc/<id>
    equals the docmeta table's own ``take(...).to_pylist()`` with
    ``content_sha256`` as hex, value for value and type for type; the
    base docs' cells of those columns come back as None. The tokenize
    stage passes every source column but ``content`` through, so the
    delta's columns keep their own names: ``stars`` int64, ``weight``
    float64, ``branch`` string."""
    import pyarrow as pa

    from information_retrieval_images_ray.pipelines.build import extend_index
    from information_retrieval_images_ray.pipelines.serving import load_docmeta

    rng = np.random.default_rng(53)
    base = [{"doc_id": i, "lang": "en" if i % 3 else None,
             "content": " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 20))}
            for i in range(30)]
    idx = str(tmp_path / "typed")
    build_index(ray.data.from_items(base), idx, tokenizer="simple", num_shards=2)
    srv = IndexHTTPServer(idx, num_actors=1, port=0).start()
    try:
        extend_index(ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(30, 36), pa.int64()),
            "content": [f"alpha zebra delta typed{i}" for i in range(6)],
            "stars": pa.array([7, None, -3, 2**40, 0, 5], pa.int64()),
            "weight": pa.array([0.5, 2.0, None, -1e-9, 3.25, 1e300], pa.float64()),
            "branch": ["c0", "", None, "é日本", "c4", "c5"],
            "lang": ["en", "fr", "en", None, "en", "fr"],
        })), idx, delta_id="typed")
        assert _req(srv.port, "/reload", {})[0] == 200

        table = load_docmeta(idx)
        known = table["doc_id"].to_numpy()

        def reference(ids):
            ids = sorted(set(ids))
            rows = table.take(np.searchsorted(known, ids)).to_pylist()
            for r in rows:
                r["content_sha256"] = r["content_sha256"].hex()
            assert [r["doc_id"] for r in rows] == ids
            return {r["doc_id"]: r for r in rows}

        def check(rows):
            ref = reference(r["doc_id"] for r in rows)
            for r in rows:
                for k, v in ref[r["doc_id"]].items():
                    assert r[k] == v and type(r[k]) is type(v), (r["doc_id"], k, r[k], v)

        _, hits = _req(srv.port, "/search", {"query": "alpha delta", "limit": 40})
        ids = {h["doc_id"] for h in hits}
        assert ids & set(range(30)) and ids >= set(range(30, 36))
        check(hits)
        _, out = _req(srv.port, "/msearch", {"searches": [
            {"query": "zebra", "limit": 40}, {"query": "typed3 bravo", "limit": 40}]})
        for page in out["responses"]:
            check(page)
        docs = [_req(srv.port, f"/doc/{d}")[1] for d in range(36)]
        check(docs)
        assert all(docs[d][c] is None for d in range(30) for c in ("stars", "weight", "branch"))
        assert docs[30]["stars"] == 7 and docs[31]["weight"] == 2.0
        assert docs[33]["branch"] == "é日本" and docs[32]["branch"] is None
        assert docs[0]["lang"] is None and docs[1]["lang"] == "en"
    finally:
        srv.close()


def test_malformed_body_is_a_400(server):
    """A POST body that is not JSON, not UTF-8, or JSON but not an
    object is a 400 with an error on /search, /extend, /delete and
    /termvectors, and the kept-open connection then serves the next
    request. So is a /delete or /termvectors whose ``doc_ids`` is not
    a list of integers (a string, a bool, a float) and an /extend whose
    ``docs`` is not a list of objects with a string ``content`` and
    string metadata; neither writes a tombstone or a docterms delta."""
    import glob
    import http.client
    import os

    srv, idx = server

    def written():
        return (glob.glob(os.path.join(idx, "tombstones", "*")),
                glob.glob(os.path.join(idx, "docterms", "delta=*")))

    before = written()
    bad_ids = [{"doc_ids": "123"}, {"doc_ids": [True]}, {"doc_ids": [1.7]},
               {"doc_ids": ["1"]}, {"doc_ids": 5}, {"doc_ids": [-1]}]
    typed = {
        "/delete": bad_ids,
        "/termvectors": bad_ids,
        "/extend": [{"docs": "abc"}, {"docs": [{"content": 5}]}, {"docs": ["abc"]},
                    {"docs": [{"repo": "r"}]}, {"docs": {"content": "abc"}},
                    {"docs": [{"content": "alpha", "lang": 3}]},
                    {"docs": [{"content": "alpha"}, {"content": "bravo", "path": None}]}],
    }
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    try:
        for path in ("/search", "/extend", "/delete", "/termvectors"):
            bodies = [b"not json", b"[]", b'"alpha"', b"\xff\xfe", b"{"]
            bodies += [json.dumps(b).encode() for b in typed.get(path, [])]
            for body in bodies:
                conn.request("POST", path, body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 400, (path, body)
                assert "error" in json.loads(resp.read()), (path, body)
        assert written() == before
        conn.request("POST", "/search", body=json.dumps({"query": "alpha", "limit": 3}),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 200 and len(json.loads(resp.read())) == 3
    finally:
        conn.close()


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


# ---------------------------------------------------------------------------
# Pool generations: /extend and /delete derive the next generation on the
# running actors


def _hits(svc, query, k=10):
    """(doc_id, score) top-k of ``query`` served by generation ``svc``."""
    return [(h["doc_id"], h["score"])
            for h in svc.topk([svc.compile("bm25", query)], k=k)]


def test_held_generation_keeps_serving_its_index(tmp_path):
    """A request that took its generation before an /extend or a
    /delete keeps the pre-write index: searches on the held generation
    are bitwise equal to a serial reader over a copy of the index taken
    before the write, the new generation's to a reader over the index
    after it. The held generation's hot term is warmed first on every
    actor (one page over it per actor, in turn; a repeated page is a
    page-cache hit that reaches no actor), so the new generation must
    not reuse partials computed under the old avgdl."""
    import shutil

    idx = _small_index(str(tmp_path / "pin"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    queries = ["alpha", "alpha bravo", "zebra dup"]
    try:
        for write in ("extend", "delete"):
            held = srv._pool()
            before = str(tmp_path / f"before_{write}")
            shutil.copytree(idx, before)
            for k in (10, 9):  # round-robin: one page per actor
                _hits(held, "alpha", k)
            warm = held.counters()
            for k in (8, 7):
                _hits(held, "alpha", k)
            assert all(c["partial_hits"] > w["partial_hits"]
                       for c, w in zip(held.counters(), warm))
            if write == "extend":
                status, out = _req(srv.port, "/extend", {"docs": [
                    {"content": f"alpha alpha zebra pinned{i}"} for i in range(6)]})
                assert status == 200 and out["added"] == 6
            else:
                victim = _hits(held, "alpha", 1)[0][0]
                status, out = _req(srv.port, "/delete", {"doc_ids": [victim]})
                assert status == 200 and out["tombstoned"] == 1
            new = srv._pool()
            assert out["generation"] == new.generation != held.generation
            assert _req(srv.port, "/stats")[1]["generation"] == new.generation
            old_reader, new_reader = IndexReader(before), IndexReader(idx)
            for q in queries:
                assert _hits(held, q) == old_reader.search_taat(q, 10), (write, q)
                assert _hits(new, q) == new_reader.search_taat(q, 10), (write, q)
                _, page = _req(srv.port, "/search", {"query": q, "limit": 10})
                assert [(h["doc_id"], h["score"]) for h in page] == \
                    new_reader.search_taat(q, 10)
            del held
    finally:
        srv.close()


def _alive_query_actors() -> set[str]:
    import ray._private.state

    return {a["ActorID"] for a in ray._private.state.actors().values()
            if a["ActorClassName"] == "ShardQueryActor" and a["State"] == "ALIVE"}


def test_extend_and_delete_start_no_actor(tmp_path, monkeypatch):
    """Ten /extend and three /delete calls start no actor process and
    leave one view per actor, each actor holding every shard. Compacting the index and a /reload then
    start a fresh actor set that serves the compacted index, and the
    old set is killed, so exactly ``num_actors`` ShardQueryActors of
    this server are ALIVE."""
    import shutil
    import time

    from information_retrieval_images_ray.pipelines import serving
    from information_retrieval_images_ray.pipelines.maintenance import compact_index

    before = _alive_query_actors()
    idx = _small_index(str(tmp_path / "leak"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    started = []
    real_remote = serving.ShardQueryActor.remote

    def counting_remote(*a, **kw):
        started.append(a)
        return real_remote(*a, **kw)

    try:
        monkeypatch.setattr(serving.ShardQueryActor, "remote", counting_remote)
        for i in range(10):
            status, out = _req(srv.port, "/extend", {"docs": [
                {"content": f"alpha leak{i} bravo"}, {"content": f"charlie leak{i}"}]})
            assert status == 200 and out["added"] == 2
            if i % 3 == 2:
                _, hits = _req(srv.port, "/search", {"query": f"leak{i}", "limit": 1})
                status, out = _req(srv.port, "/delete", {"doc_ids": [hits[0]["doc_id"]]})
                assert status == 200 and out["tombstoned"] == 1
        assert started == []
        svc = srv._pool()
        deadline = time.time() + 30
        while any(c["views"] != 1 for c in svc.counters()) and time.time() < deadline:
            time.sleep(0.1)
        counters = svc.counters()
        assert [c["views"] for c in counters] == [1, 1]
        assert svc.stats["num_shards"] == 12  # 2 base shards + one per extend
        assert [c["shards"] for c in counters] == [list(range(12))] * 2
        del svc
        compacted = str(tmp_path / "compacted")
        compact_index(idx, compacted)
        shutil.rmtree(idx)
        shutil.copytree(compacted, idx)
        status, out = _req(srv.port, "/reload", {})
        assert status == 200 and out["generation"] == srv._pool().generation
        assert out["n_docs"] == 60 + 20 - 3
        assert len(started) == 2
        for q in ("alpha", "leak3 charlie"):
            _, page = _req(srv.port, "/search", {"query": q, "limit": 10})
            assert [(h["doc_id"], h["score"]) for h in page] == \
                IndexReader(compacted).search_taat(q, 10)
        mine = {a._actor_id.hex() for a in srv._pool().actors}
        deadline = time.time() + 30
        while _alive_query_actors() - before != mine and time.time() < deadline:
            time.sleep(0.1)
        assert _alive_query_actors() - before == mine
    finally:
        monkeypatch.undo()
        srv.close()


def test_race_every_response_matches_a_generation(tmp_path):
    """Four searcher threads race an interleaved /extend + /delete +
    /reload sequence. Every response equals the brute-force BM25 top-k
    (k1 1.2, b 0.75, score desc then doc_id asc) of one of the index
    states that existed during the race: tombstoned docs leave the
    ranking but stay in n_docs and avgdl until compaction, as in the
    engine. /reload re-attaches the unchanged on-disk index with a
    fresh actor set while the old set is retired, so its state repeats
    the previous one."""
    import sys
    import threading

    from information_retrieval_images_ray.functions.bm25 import bm25_brute_force
    from information_retrieval_images_ray.functions.tokenizer import get_tokenizer

    tok = get_tokenizer("simple")
    rng = np.random.default_rng(61)
    rows = [{"doc_id": i, "content": " ".join(
        WORDS[j] for j in rng.integers(0, len(WORDS), 20))} for i in range(40)]
    idx = str(tmp_path / "race")
    build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=2)
    docs = {r["doc_id"]: tok(r["content"]) for r in rows}
    states = [(dict(docs), frozenset())]
    queries = ["alpha", "bravo dup", "zebra echo golf"]
    k = 5

    def oracle(q, docs, tombs):
        ranked = bm25_brute_force(docs, tok(q), k=len(docs))
        return [(d, s) for d, s in ranked if d not in tombs][:k]

    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    done = threading.Event()
    seen: list[tuple[str, list]] = []
    errors: list = []

    def searcher(n):
        while not done.is_set():
            q = queries[n % len(queries)]
            n += 1
            try:
                status, hits = _req(srv.port, "/search",
                                    {"query": q, "limit": k, "hydrate": False})
                seen.append((q, [(h["doc_id"], h["score"]) for h in hits]))
            except Exception as e:  # noqa: BLE001 - any failure fails the test
                errors.append(repr(e))

    threads = [threading.Thread(target=searcher, args=(i,)) for i in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    for t in threads:
        t.start()
    try:
        for step, op in enumerate(
                ["extend", "delete", "reload", "extend", "delete", "extend"]):
            docs, tombs = states[-1]
            if op == "extend":
                span = _req(srv.port, "/stats")[1]["doc_id_span"]
                new = [f"alpha bravo race{step} zebra" * (1 + i % 3) for i in range(4)]
                status, out = _req(srv.port, "/extend",
                                   {"docs": [{"content": c} for c in new]})
                assert status == 200 and out["added"] == 4
                docs = {**docs, **{span + i: tok(c) for i, c in enumerate(new)}}
            elif op == "delete":
                victims = {oracle(q, docs, tombs)[0][0] for q in queries[:2]}
                status, out = _req(srv.port, "/delete", {"doc_ids": sorted(victims)})
                assert status == 200
                tombs = tombs | victims
            else:
                status, out = _req(srv.port, "/reload", {})
                assert status == 200
            states.append((docs, tombs))
    finally:
        done.set()
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(switch)
        srv.close()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    want = {q: [oracle(q, d, t) for d, t in states] for q in queries}
    served = set()
    for q, got in seen:
        match = [i for i, w in enumerate(want[q]) if got == w]
        assert match, (q, got)
        served.update(match)
    assert len(seen) > 20 and len(served) > 2


# ---------------------------------------------------------------------------
# One frame on one kept-open replica connection per search


def test_ranked_search_is_one_frame_and_no_ray_call(tmp_path, monkeypatch):
    """A ranked bm25 /search that misses the page cache makes no Ray
    actor method call and is exactly one frame on one replica (its
    ``counters()["calls"]``), and successive misses take the replicas
    in turn."""
    import ray.actor

    idx = _small_index(str(tmp_path / "one"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    calls = []
    real_remote = ray.actor.ActorMethod.remote

    def counting_remote(method, *a, **kw):
        calls.append(method._method_name)
        return real_remote(method, *a, **kw)

    try:
        served = []
        for q in ("alpha zebra", "bravo", "echo golf", "dup"):
            before = [c["calls"] for c in srv._pool().counters()]
            calls.clear()
            monkeypatch.setattr(ray.actor.ActorMethod, "remote", counting_remote)
            status, hits = _req(srv.port, "/search", {"query": q, "limit": 5})
            monkeypatch.undo()
            assert status == 200 and hits, q
            assert calls == [], q
            grew = [c["calls"] - b for c, b in zip(srv._pool().counters(), before)]
            assert sorted(grew) == [0, 1], q
            served.append(grew.index(1))
        assert served in ([0, 1, 0, 1], [1, 0, 1, 0])
    finally:
        monkeypatch.undo()
        srv.close()


def _kill_replica(svc, i: int) -> None:
    """``ray.kill`` replica ``i`` of ``svc`` and wait until its port
    refuses connections (Ray reports an actor DEAD before its process
    has exited)."""
    import socket
    import time

    ray.kill(svc.actors[i])
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            socket.create_connection(svc._set.addresses[i], timeout=5).close()
        except ConnectionRefusedError:
            return
        time.sleep(0.05)
    raise AssertionError(f"replica {i} still accepts connections")


def test_dead_replica_is_retried_on_the_next(tmp_path):
    """With one of two replicas killed while serving, 20 /search misses
    all answer 200, rank- and score-identical to a fresh serial reader.
    A frame that fails on the dead replica is resent to the live one
    and counted in /stats ``retries``; once its connect is refused the
    dead replica gets no more turns, so at most 2 of the 20 are resent
    (its kept-open connection breaking, then the refused connect). With
    every replica dead, /search is a prompt 500."""
    import time
    import urllib.error

    idx = _small_index(str(tmp_path / "failover"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    reader = IndexReader(idx)
    try:
        for q in ("alpha", "bravo"):  # a kept-open connection to each replica
            assert _req(srv.port, "/search", {"query": q, "limit": 5})[0] == 200
        assert _req(srv.port, "/stats")[1]["retries"] == 0
        _kill_replica(srv._pool(), 0)
        for i in range(20):
            q = f"{WORDS[i % len(WORDS)]} {WORDS[(3 * i + 1) % len(WORDS)]}"
            status, page = _req(srv.port, "/search", {"query": q, "limit": 10 + i})
            assert status == 200, q
            assert [(h["doc_id"], h["score"]) for h in page] == \
                reader.search_taat(q, 10 + i), q
        assert 1 <= _req(srv.port, "/stats")[1]["retries"] <= 2
        _kill_replica(srv._pool(), 1)
        start = time.time()
        with pytest.raises(urllib.error.HTTPError) as e:
            _req(srv.port, "/search", {"query": "alpha golf", "limit": 3})
        assert e.value.code == 500
        assert time.time() - start < 10
    finally:
        srv.close()


class _MakesMarker:
    """Unpickling it creates the file ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


def test_replica_unpickles_nothing_without_the_secret(tmp_path):
    """A raw connection to a replica's ``address()`` that sends a wrong
    secret and then a frame whose unpickling would create a file is
    closed: no file appears and the replica's frame count stays. The
    same frame behind the pool's secret does create it, so the check
    can see an unpickled frame."""
    import pickle
    import socket

    from information_retrieval_images_ray.pipelines import serving

    idx = _small_index(str(tmp_path / "auth"))
    svc = serving.ShardedQueryService(idx, num_actors=1)
    marker = tmp_path / "unpickled"
    payload = pickle.dumps(_MakesMarker(str(marker)))
    frame = serving._HEADER.pack(0, len(payload)) + payload

    def exchange(secret: bytes) -> bytes:
        address = tuple(ray.get(svc.actors[0].address.remote()))
        with socket.create_connection(address, timeout=10) as sock:
            try:
                sock.sendall(secret + frame)
                return sock.recv(1)
            except ConnectionResetError:
                return b""

    try:
        before = svc.counters()[0]["calls"]
        assert exchange(bytes(len(svc._set.secret))) == b""
        assert not marker.exists()
        assert svc.counters()[0]["calls"] == before
        assert exchange(svc._set.secret) == bytes([1])  # an error reply
        assert marker.exists()
        assert svc.counters()[0]["calls"] == before + 1
    finally:
        svc.shutdown()


def test_router_sockets_close_with_their_actor_set(tmp_path):
    """After /reload, the old actor set's router sockets stay open
    while a generation of it is held and are closed once that set is
    killed; after ``close()`` every router socket is closed."""
    import gc
    import time

    idx = _small_index(str(tmp_path / "sockets"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    try:
        for q in ("alpha", "bravo", "charlie"):
            assert _req(srv.port, "/search", {"query": q, "limit": 5})[0] == 200
        held = srv._pool()
        old = list(held._set.sockets)
        assert len(old) == 2 and all(s.fileno() != -1 for s in old)
        assert _req(srv.port, "/reload", {})[0] == 200
        assert all(s.fileno() != -1 for s in old)
        del held
        gc.collect()
        deadline = time.time() + 30
        while any(s.fileno() != -1 for s in old) and time.time() < deadline:
            time.sleep(0.05)
        assert all(s.fileno() == -1 for s in old)
        for q in ("delta", "echo"):
            assert _req(srv.port, "/search", {"query": q, "limit": 5})[0] == 200
        new = list(srv._pool()._set.sockets)
        assert new and all(s.fileno() != -1 for s in new)
    finally:
        srv.close()
    assert all(s.fileno() == -1 for s in new)


def _replica_pages(svc, query: str, k: int = 10) -> list[list[tuple]]:
    """The uncached page of ``query`` from every actor of ``svc``: one
    ``_call`` per actor, which the round-robin gives each actor once."""
    before = [c["calls"] for c in svc.counters()]
    plan = svc.compile("bm25", query)
    pages = [[(r["doc_id"], r["score"]) for r in svc._call(("topk", [plan], k, None, 0))[0]]
             for _ in svc.actors]
    assert [c["calls"] - b for c, b in zip(svc.counters(), before)] == [1] * len(svc.actors)
    return pages


def test_replicas_identical_across_writes(tmp_path):
    """After an /extend whose docs bring terms the index did not hold,
    after a /delete and after a /reload of the compacted index, every
    replica actor's page equals a fresh serial reader's in ranks and
    scores (so in df and idf too), and so does /search."""
    import shutil

    from information_retrieval_images_ray.pipelines.maintenance import compact_index

    idx = _small_index(str(tmp_path / "rep"))
    srv = IndexHTTPServer(idx, num_actors=3, port=0).start()
    queries = ["alpha brandnew1", "brandnew2 zebra", "bravo dup", "echo"]

    def check(step):
        reader = IndexReader(idx)
        for q in queries:
            want = reader.search_taat(q, 10)
            assert _replica_pages(srv._pool(), q) == [want] * 3, (step, q)
            _, page = _req(srv.port, "/search", {"query": q, "limit": 10})
            assert [(h["doc_id"], h["score"]) for h in page] == want, (step, q)

    try:
        check("built")
        status, out = _req(srv.port, "/extend", {"docs": [
            {"content": "alpha brandnew1 brandnew2"}, {"content": "zebra brandnew2"}]})
        assert status == 200 and out["added"] == 2
        assert IndexReader(idx).df_locals(["brandnew2"]) == {"brandnew2": 2}
        check("extended")
        status, out = _req(srv.port, "/delete", {"doc_ids": [60, 0, 1]})
        assert status == 200 and out["tombstoned"] == 3
        check("deleted")
        compacted = str(tmp_path / "rep_compacted")
        compact_index(idx, compacted)
        shutil.rmtree(idx)
        shutil.copytree(compacted, idx)
        status, _ = _req(srv.port, "/reload", {})
        assert status == 200
        check("reloaded")
    finally:
        srv.close()


def test_retired_generation_partials_are_purged(tmp_path):
    """Once the generation before an /extend is collected, no actor
    holds a partial cached under its avgdl."""
    import gc
    import time

    idx = _small_index(str(tmp_path / "purge"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    try:
        held = srv._pool()
        old_avgdl = held.stats["avgdl"]
        for k in (10, 9):  # round-robin: one page per actor
            _hits(held, "alpha bravo zebra", k)
        assert all(c["partial_avgdls"] == [old_avgdl] for c in held.counters())
        status, out = _req(srv.port, "/extend", {"docs": [
            {"content": "alpha alpha alpha purge"}, {"content": "bravo purge"}]})
        assert status == 200 and out["added"] == 2
        new = srv._pool()
        assert new.stats["avgdl"] != old_avgdl
        for k in (10, 9):
            _hits(new, "alpha bravo zebra", k)
        del held
        gc.collect()
        deadline = time.time() + 30
        while any(c["views"] != 1 for c in new.counters()) and time.time() < deadline:
            time.sleep(0.1)
        counters = new.counters()
        assert [c["views"] for c in counters] == [1, 1]
        assert all(c["partial_avgdls"] == [new.stats["avgdl"]] for c in counters)
    finally:
        srv.close()


# ---------------------------------------------------------------------------
# The router's per-generation page cache


def test_close_without_start_returns(tmp_path):
    """Closing a server whose ``start()`` never ran returns at once
    (``shutdown()`` would wait for a serve loop that never started) and
    kills its actor pool."""
    import threading
    import time

    idx = _small_index(str(tmp_path / "nostart"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0)
    mine = {a._actor_id.hex() for a in srv._pool().actors}
    assert mine <= _alive_query_actors()
    closer = threading.Thread(target=srv.close, daemon=True)
    closer.start()
    closer.join(timeout=10)
    assert not closer.is_alive()
    deadline = time.time() + 30
    while mine & _alive_query_actors() and time.time() < deadline:
        time.sleep(0.1)
    assert not mine & _alive_query_actors()


def test_repeated_search_is_a_page_cache_hit(tmp_path, monkeypatch):
    """A repeated ranked /search makes no actor call and leaves every
    actor's ``execute`` count unchanged; /stats counts it as one page
    cache hit. After an /extend and after a /delete the new generation
    starts with an empty cache, its pages equal a fresh serial
    reader's, and a held generation keeps serving its own pages."""
    import shutil

    import ray.actor

    idx = _small_index(str(tmp_path / "pages"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    queries = ["alpha zebra", "zebra alpha", "bravo dup", "echo"]
    try:
        body = {"query": "alpha zebra", "limit": 5}
        status, first = _req(srv.port, "/search", body)
        assert status == 200 and first
        cache = _req(srv.port, "/stats")[1]["page_cache"]
        before = srv._pool().counters()
        calls = []
        real_remote = ray.actor.ActorMethod.remote

        def counting_remote(method, *a, **kw):
            calls.append(method._method_name)
            return real_remote(method, *a, **kw)

        monkeypatch.setattr(ray.actor.ActorMethod, "remote", counting_remote)
        status, again = _req(srv.port, "/search", body)
        monkeypatch.undo()
        assert status == 200 and again == first
        assert calls == []
        assert srv._pool().counters() == before
        now = _req(srv.port, "/stats")[1]["page_cache"]
        assert now == {**cache, "hits": cache["hits"] + 1}

        for write in ("extend", "delete"):
            held = srv._pool()
            before_dir = str(tmp_path / f"pages_before_{write}")
            shutil.copytree(idx, before_dir)
            old_pages = {q: _hits(held, q) for q in queries}
            held_misses = held.page_cache_counters()["misses"]
            if write == "extend":
                status, out = _req(srv.port, "/extend", {"docs": [
                    {"content": f"alpha zebra echo paged{i}"} for i in range(5)]})
                assert status == 200 and out["added"] == 5
            else:
                victim = old_pages["echo"][0][0]
                status, out = _req(srv.port, "/delete", {"doc_ids": [victim]})
                assert status == 200 and out["tombstoned"] == 1
            assert _req(srv.port, "/stats")[1]["page_cache"] == \
                {"hits": 0, "misses": 0, "rows": 0}
            old_reader, new_reader = IndexReader(before_dir), IndexReader(idx)
            for _ in range(2):
                for q in queries:
                    assert _hits(srv._pool(), q) == new_reader.search_taat(q, 10), (write, q)
                    _, page = _req(srv.port, "/search", {"query": q, "limit": 10})
                    assert [(h["doc_id"], h["score"]) for h in page] == \
                        new_reader.search_taat(q, 10), (write, q)
                    assert _hits(held, q) == old_pages[q] == \
                        old_reader.search_taat(q, 10), (write, q)
            assert srv._pool().page_cache_counters()["misses"] == 3
            assert held.page_cache_counters()["misses"] == held_misses
            del held
    finally:
        monkeypatch.undo()
        srv.close()


def test_msearch_one_scatter_for_cached_uncached_and_duplicates(server, monkeypatch):
    """An /msearch mixing a cached body, uncached bodies and duplicates
    (by term order too) makes exactly one actor call, one ``topk`` over
    the distinct uncached plans only, and equals per-body /search and
    the serial reader."""
    from information_retrieval_images_ray.pipelines import serving

    srv, idx = server
    _req(srv.port, "/search", {"query": "alpha dup", "limit": 5})
    bodies = [{"query": q, "limit": 5} for q in
              ["alpha dup", "zebra echo", "echo zebra", "golf", "dup alpha", "golf"]]
    sent = []
    real_call = serving.ShardedQueryService._call

    def counting_call(svc, *calls):
        sent.append([(c[0], len(c[1])) for c in calls])
        return real_call(svc, *calls)

    monkeypatch.setattr(serving.ShardedQueryService, "_call", counting_call)
    status, out = _req(srv.port, "/msearch", {"searches": bodies})
    monkeypatch.undo()
    assert status == 200 and sent == [[("topk", 2)]]
    reader = IndexReader(idx)
    for body, page in zip(bodies, out["responses"]):
        assert page == _req(srv.port, "/search", body)[1], body
        assert [(h["doc_id"], h["score"]) for h in page] == \
            reader.search_taat(body["query"], 5), body


def test_keep_alive_one_connection(server):
    """Searches, a 400 and a 404 all go over one kept-alive socket, and
    a search on it takes well under a Nagle / delayed-ACK stall."""
    import http.client
    import statistics
    import time

    srv, _ = server
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)

    def post(path, body):
        conn.request("POST", path, body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    try:
        assert post("/search", {"query": "alpha dup", "limit": 5})[0] == 200
        sock = conn.sock
        assert sock is not None
        assert post("/search", {"query": "zebra", "mode": "nope"})[0] == 400
        assert post("/nowhere", {})[0] == 404
        lat = []
        for i in range(20):
            t = time.perf_counter()
            status, hits = post("/search", {"query": ["alpha dup", "zebra echo"][i % 2],
                                            "limit": 5})
            lat.append(time.perf_counter() - t)
            assert status == 200 and hits
        assert conn.sock is sock
        assert statistics.median(lat) < 0.040, lat
    finally:
        conn.close()


def test_writes_after_a_replica_died(tmp_path):
    """With one of two replicas killed, /extend answers 200 and the
    next /search finds the new docs, /delete answers 200 and the next
    /search leaves the deleted doc out. The dead replica is marked down
    by its failed attach, so it gets no more turns: at most 2 searches
    are resent."""
    idx = _small_index(str(tmp_path / "deadwrite"))
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    try:
        for q in ("alpha", "bravo"):  # a kept-open connection to each replica
            assert _req(srv.port, "/search", {"query": q, "limit": 5})[0] == 200
        _kill_replica(srv._pool(), 0)
        status, out = _req(srv.port, "/extend", {"docs": [
            {"content": "alpha deadwrite"}, {"content": "deadwrite golf"}]})
        assert status == 200 and out["added"] == 2
        for _ in range(4):
            status, page = _req(srv.port, "/search", {"query": "deadwrite", "limit": 5})
            assert status == 200 and sorted(h["doc_id"] for h in page) == [60, 61]
        status, out = _req(srv.port, "/delete", {"doc_ids": [60]})
        assert status == 200 and out["tombstoned"] == 1
        status, page = _req(srv.port, "/search", {"query": "deadwrite", "limit": 5})
        assert status == 200 and [h["doc_id"] for h in page] == [61]
        assert [(h["doc_id"], h["score"]) for h in page] == \
            IndexReader(idx).search_taat("deadwrite", 5)
        assert _req(srv.port, "/stats")[1]["retries"] <= 2
        assert srv._pool()._set.down == {0}
    finally:
        srv.close()


def test_segments_after_extends_and_delete_equal_fresh_reads(tmp_path):
    """A 4-shard build served by 2 replicas, then two /extend calls and
    a /delete: each replica holds all 6 shards as 3 segments (the base
    build, one per extend). bm25, boolean (must / must_not), prefix
    and collapse pages equal those of a fresh build of every doc (and
    bm25 equals ``bm25_brute_force``) before the delete, and those of
    a fresh reader of the index after it, ranks and scores bitwise."""
    import time

    from information_retrieval_images_ray.functions.bm25 import bm25_brute_force
    from information_retrieval_images_ray.functions.tokenizer import get_tokenizer

    rng = np.random.default_rng(61)
    words = WORDS + ["alpine", "bravado", "echoes", "golfer"]
    batches = [[{"content": " ".join(rng.choice(words[:len(WORDS) + 2 * b], 25)),
                 "lang": ["en", "fr", "de"][i % 3]} for i in range(n)]
               for b, n in enumerate((80, 12, 9))]
    docs = [dict(d, doc_id=i) for i, d in enumerate(d for b in batches for d in b)]
    idx, fresh = str(tmp_path / "segidx"), str(tmp_path / "fresh")
    build_index(ray.data.from_items(docs[:80]), idx, tokenizer="simple", num_shards=4)
    build_index(ray.data.from_items(docs), fresh, tokenizer="simple", num_shards=4)
    tok = get_tokenizer("simple")
    tokens = {d["doc_id"]: tok(d["content"]) for d in docs}
    srv = IndexHTTPServer(idx, num_actors=2, port=0).start()
    queries = [
        ("bm25", "alpha golfer echoes", {}), ("bm25", "bravado", {}),
        ("boolean", "", {"must": "alpha", "should": "golfer echo", "must_not": "zebra"}),
        ("boolean", "", {"must": "alpine bravo", "must_not": "dup"}),
        ("prefix", "al", {}), ("prefix", "ec", {}),
        ("collapse", "alpine echo", {"collapse_field": "lang"}),
    ]

    def pages(read):
        out = []
        for mode, q, params in queries:
            status, page = _req(srv.port, "/search",
                                {"query": q, "mode": mode, "limit": 10, **params})
            assert status == 200, (mode, q)
            got = [(h["doc_id"], h["score"], h.get("group"), h.get("group_n")) for h in page]
            want = [(h["doc_id"], h["score"], h.get("group"), h.get("group_n"))
                    for h in read.topk([read.compile(mode, q, params)], 10)]
            assert got == want, (mode, q, params)
            out.append(got)
        return out

    try:
        for b in (1, 2):
            status, out = _req(srv.port, "/extend", {"docs": batches[b]})
            assert status == 200 and out["added"] == len(batches[b])
        assert any(pages(IndexReader(fresh))), "every page empty"
        for q in ("alpha golfer echoes", "bravado", "alpine dup"):
            _, page = _req(srv.port, "/search", {"query": q, "limit": 10})
            assert [(h["doc_id"], h["score"]) for h in page] == \
                bm25_brute_force(tokens, sorted(set(tok(q))), k=10), q
        status, _ = _req(srv.port, "/delete", {"doc_ids": [3, 81, 95]})
        assert status == 200
        pages(IndexReader(idx))
        svc = srv._pool()
        deadline = time.time() + 30
        while any(c["views"] != 1 for c in svc.counters()) and time.time() < deadline:
            time.sleep(0.1)
        assert [(c["shards"], c["segments"]) for c in svc.counters()] == \
            [(list(range(6)), 3)] * 2
    finally:
        srv.close()


def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection and read until the server
    closes it."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        out = b""
        while chunk := sock.recv(65536):
            out += chunk
    return out


def _post_bytes(path: str, body: bytes, version: str = "HTTP/1.1",
                headers: str = "") -> bytes:
    return (f"POST {path} {version}\r\nHost: x\r\n{headers}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def test_each_response_is_one_write(server, monkeypatch):
    """Every response, a search, an error or the UI page, leaves the
    handler in exactly one write on its socket, with ``Date``,
    ``Content-Type`` and ``Content-Length`` and no ``Server`` header;
    100 requests share one kept-alive connection."""
    import http.client
    import socketserver
    import threading

    srv, _ = server
    writes = []
    lock = threading.Lock()
    real = socketserver._SocketWriter.write

    def counting(self, b):
        with lock:
            writes.append(bytes(b))
        return real(self, b)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting)
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    try:
        sock = None
        for i in range(100):
            method, path, body = [
                ("POST", "/search", {"query": "alpha dup", "limit": 5 + i % 3}),
                ("POST", "/search", {"query": "zebra", "mode": "nope"}),
                ("GET", "/stats", None), ("GET", "/", None), ("GET", "/doc/7", None),
                ("POST", "/nowhere", {}),
            ][i % 6]
            before = len(writes)
            conn.request(method, path, body=None if body is None else json.dumps(body))
            resp = conn.getresponse()
            resp.read()
            assert resp.status in (200, 400, 404), (path, resp.status)
            with lock:
                assert len(writes) - before == 1, (path, writes[before:])
                head = writes[-1].split(b"\r\n\r\n", 1)[0].lower()
            assert b"\r\ndate: " in head and b"\r\ncontent-length: " in head, head
            assert b"\r\ncontent-type: " in head and b"\r\nserver:" not in head, head
            sock = sock or conn.sock
            assert conn.sock is sock, i
    finally:
        conn.close()


def test_http_framing_rules(server):
    """The handler's own request parsing keeps the stdlib's rules:
    ``Connection: close`` and HTTP/1.0 close the connection after the
    response, ``Expect: 100-continue`` gets ``100 Continue`` before the
    body is sent, a lower-case ``content-length`` is read, a garbage
    request line is a 400, a header line over 64 KiB or more than 100
    header lines a 431, and HTTP/2 a 505."""
    import socket

    srv, _ = server
    body = json.dumps({"query": "alpha", "limit": 2}).encode()

    def status_and_body(raw: bytes) -> tuple[int, bytes]:
        head, _, rest = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), rest

    for req in (_post_bytes("/search", body, headers="Connection: close\r\n"),
                _post_bytes("/search", body, version="HTTP/1.0")):
        raw = _raw_exchange(srv.port, req)  # returns only once the server closed
        code, rest = status_and_body(raw)
        assert code == 200 and len(json.loads(rest)) == 2, raw[:200]
        assert b"\r\nConnection: close\r\n\r\n" in raw

    lower = (f"POST /search HTTP/1.1\r\nhost: x\r\ncontent-length: {len(body)}\r\n"
             "connection: close\r\n\r\n").encode() + body
    code, rest = status_and_body(_raw_exchange(srv.port, lower))
    assert code == 200 and len(json.loads(rest)) == 2

    with socket.create_connection(("127.0.0.1", srv.port), timeout=30) as sock:
        sock.sendall(f"POST /search HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                     f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode())
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    code, rest = status_and_body(raw)
    assert code == 200 and len(json.loads(rest)) == 2

    for req, want in (
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /stats HTTP/x.y\r\n\r\n", 400),
        (b"GET /stats HTTP/2.0\r\n\r\n", 505),
        (b"GET /stats HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (b"GET /stats HTTP/1.1\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(101))
         + b"\r\n", 431),
    ):
        code, rest = status_and_body(_raw_exchange(srv.port, req))
        assert code == want and "error" in json.loads(rest), req[:40]
    many = b"GET /stats HTTP/1.1\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(90)) \
        + b"Connection: close\r\n\r\n"
    assert status_and_body(_raw_exchange(srv.port, many))[0] == 200
