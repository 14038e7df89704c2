"""End-to-end: build the index with Ray Data, query it, and demand
rank-identity against the frozen brute-force BM25 fixtures. Also checks
the per-row content_sha256 invariant."""

import glob
import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from information_retrieval_images_ray.corpus import generate_corpus, write_corpus
from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.query import (
    IndexReader,
    QueryScorer,
    hydrate_hits,
)
from information_retrieval_images_ray.sources.corpus_source import (
    assign_dense_doc_ids,
    corpus_files,
    read_code_corpus,
)

HERE = os.path.dirname(__file__)


@pytest.fixture(scope="module")
def fixture_spec():
    with open(os.path.join(HERE, "fixtures", "queries.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "fixtures", "golden_topk.json")) as f:
        golden = json.load(f)
    return spec, golden


@pytest.fixture(scope="module")
def built_index(tmp_path_factory, fixture_spec):
    spec, _ = fixture_spec
    corpus_dir = str(tmp_path_factory.mktemp("corpus"))
    index_dir = str(tmp_path_factory.mktemp("index"))
    write_corpus(corpus_dir, spec["n_docs"], seed=spec["seed"], rows_per_file=100)
    ds = assign_dense_doc_ids(read_code_corpus(corpus_dir), num_partitions=4)
    stats = build_index(
        ds,
        index_dir,
        source_files=corpus_files(corpus_dir),
        num_shards=3,
    )
    return corpus_dir, index_dir, stats


def test_stats(built_index, fixture_spec):
    spec, _ = fixture_spec
    _, _, stats = built_index
    assert stats["n_docs"] == spec["n_docs"]
    assert stats["doc_id_span"] == spec["n_docs"]  # ids are dense
    assert stats["avgdl"] > 0


def test_rank_identity_with_golden_brute_force(built_index, fixture_spec):
    spec, golden = fixture_spec
    _, index_dir, _ = built_index
    reader = IndexReader(index_dir)
    for q in spec["queries"]:
        want = golden[str(q["qid"])]
        got = reader.search_taat(q["query"], 10)
        assert [d for d, _ in got] == [d for d, _ in want], q
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=1e-9, atol=1e-12
        )


def test_partial_cache_warm_equals_cold(built_index, fixture_spec):
    """The decoded-partial LRU (and its dense stopword-term form) must
    be invisible to results: repeated searches on one reader equal the
    first, and a cache-disabled reader returns the same thing bitwise.
    The fixture queries include hot (dense-form) and rare terms."""
    spec, _ = fixture_spec
    _, index_dir, _ = built_index
    cached = IndexReader(index_dir)  # default cache on
    plain = IndexReader(index_dir, cache_bytes=0)
    for q in spec["queries"]:
        cold = cached.search_taat(q["query"], 10)
        warm = cached.search_taat(q["query"], 10)   # cache-hit path
        off = plain.search_taat(q["query"], 10)
        assert cold == warm == off, q
    # the dense form actually engaged for at least one hot term
    assert any(
        ids is None
        for sg in cached.segments
        for (ids, _) in sg._part_cache.values()
    )


def test_partial_cache_purge_keeps_bytes_exact(built_index):
    """``purge`` drops exactly the partials cached under an avgdl it is
    not given and keeps the cache's byte count equal to what it
    holds."""
    from information_retrieval_images_ray.pipelines.query import _nbytes

    _, index_dir, _ = built_index
    reader = IndexReader(index_dir)
    sh = next(sg for sg in reader.segments if sg.n_terms)
    old, live = reader.avgdl + 1.0, reader.avgdl
    for avgdl in (old, live):
        for i in range(min(30, sh.n_terms)):
            sh.partial(i, reader.doc_len, 1.2, 0.75, avgdl)
    assert {key[1] for key in sh._part_cache} == {old, live}
    sh.purge({live})
    assert {key[1] for key in sh._part_cache} == {live}
    assert len(sh._part_cache) == min(30, sh.n_terms)
    assert sh._cache_used == sum(_nbytes(e) for e in sh._part_cache.values())


def test_sorted_terms_lookup_matches_python_order():
    """``SortedTerms`` finds and prefix-scans exactly as ``str``
    comparison over an Arrow-sorted array does, non-ASCII terms and
    absent probes included."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from information_retrieval_images_ray.pipelines.query import SortedTerms

    vocab = ["a", "ab", "abc", "b", "ba", "z", "zz", "é", "éa", "日本", "日本語", "😀"]
    arr = pa.array(vocab[::-1])
    arr = pc.take(arr, pc.sort_indices(arr))
    assert arr.to_pylist() == sorted(vocab)
    terms = SortedTerms(arr.slice(0))
    assert terms.arrow.to_pylist() == sorted(vocab)
    for probe in vocab + ["", "aa", "abd", "c", "zzz", "é0", "日", "￿"]:
        want = sorted(vocab).index(probe) if probe in vocab else None
        assert terms.find(probe) == want, probe
        assert list(terms.prefixed(probe)) == [v for v in sorted(vocab)
                                               if v.startswith(probe)], probe
    # a sliced array (non-zero offset) searches its own rows only
    tail = SortedTerms(arr.slice(3))
    assert tail.find("a") is None and tail.find("b") == 0
    assert list(tail.prefixed("a")) == []


def test_each_term_is_looked_up_once_per_call(tmp_path, monkeypatch):
    """A bm25 ``topk``, a ``search_taat`` and an ``explain`` of a query
    with n distinct indexed terms over G loaded segments make at most
    n·G ``SortedTerms.find`` calls: the df sum and the scorer share each
    term's lookups, and a 4-shard build loads as one segment. Ranks and scores equal ``bm25_brute_force``, and
    each doc's explain contributions sum to its score."""
    import ray.data

    from information_retrieval_images_ray.functions.bm25 import bm25_brute_force
    from information_retrieval_images_ray.functions.tokenizer import get_tokenizer
    from information_retrieval_images_ray.pipelines.query import SortedTerms

    words = "alpha bravo charlie delta echo foxtrot golf hotel india juliet".split()
    rng = np.random.default_rng(7)
    rows = [{"doc_id": i, "content": " ".join(rng.choice(words, 12))} for i in range(80)]
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_items(rows), idx, tokenizer="simple", num_shards=4)
    tok = get_tokenizer("simple")
    docs = {r["doc_id"]: tok(r["content"]) for r in rows}
    reader = IndexReader(idx)
    assert [sg.shards for sg in reader.segments] == [[0, 1, 2, 3]]
    n_segments = len(reader.segments)

    probes: list[str] = []
    find = SortedTerms.find
    monkeypatch.setattr(SortedTerms, "find",
                        lambda self, term: probes.append(term) or find(self, term))
    for q in ("alpha", "bravo delta", "echo alpha golf echo", "india juliet hotel charlie"):
        terms = sorted(set(tok(q)))
        bound = len(terms) * n_segments
        want = bm25_brute_force(docs, terms, k=10)
        assert want, q

        probes.clear()
        hits = reader.topk([reader.compile("bm25", q)], 10)
        assert len(probes) <= bound, (q, "topk", len(probes))
        assert [(h["doc_id"], h["score"]) for h in hits] == want, q

        probes.clear()
        assert reader.search_taat(q, 10) == want, q
        assert len(probes) <= bound, (q, "search_taat", len(probes))

        probes.clear()
        explained = reader.explain(q, [d for d, _ in want])
        assert len(probes) <= bound, (q, "explain", len(probes))
        total: dict[int, float] = {}
        for r in explained:
            total[r["doc_id"]] = total.get(r["doc_id"], 0.0) + r["contribution"]
        assert [(d, total[d]) for d, _ in want] == want, q


def test_query_scorer_actor_pool(built_index, fixture_spec):
    """Batch-of-queries via map_batches actor pool (T1 Ray mapping)."""
    import ray.data

    spec, golden = fixture_spec
    _, index_dir, _ = built_index
    qds = ray.data.from_items(
        [{"qid": q["qid"], "query": q["query"]} for q in spec["queries"]]
    )
    out = qds.map_batches(
        QueryScorer,
        fn_constructor_kwargs={"index_dir": index_dir, "k": 10},
        batch_format="pandas",
        concurrency=2,
    ).to_pandas()
    for q in spec["queries"]:
        want = golden[str(q["qid"])]
        got = out[out["qid"] == q["qid"]].sort_values("rank")
        assert list(got["doc_id"]) == [d for d, _ in want]


def test_sha256_invariant_end_to_end(built_index, fixture_spec):
    """Every docmeta row's content_sha256 equals a recomputed
    sha256(content) of the source doc (reference identity invariant)."""
    spec, _ = fixture_spec
    _, index_dir, _ = built_index
    tbl = generate_corpus(spec["n_docs"], spec["seed"]).to_pandas()
    tbl = tbl.sort_values(
        ["repo", "path", "commit", "content"], kind="mergesort"
    ).reset_index(drop=True)
    files = glob.glob(os.path.join(index_dir, "docmeta", "**", "*.parquet"), recursive=True)
    meta = pd.concat([pq.read_table(f).to_pandas() for f in files])
    assert len(meta) == spec["n_docs"]
    for _, row in meta.iterrows():
        expect = hashlib.sha256(tbl["content"][row["doc_id"]].encode()).digest()
        assert bytes(row["content_sha256"]) == expect


def test_hydration_join(built_index):
    _, index_dir, _ = built_index
    reader = IndexReader(index_dir)
    hits = reader.search_taat("getUserName", 5)
    df = pd.DataFrame({"doc_id": [d for d, _ in hits], "score": [s for _, s in hits]})
    hydrated = hydrate_hits(df, index_dir)
    assert {"repo", "path", "lang", "content_sha256", "doc_len"} <= set(hydrated.columns)
    assert len(hydrated) == len(df)
    assert hydrated["repo"].notna().all()


def test_hydration_reads_only_hit_shards(built_index):
    """hydrate_hits must never read docmeta partitions outside the hit
    doc_ids' shards: corrupting every non-hit shard's parquet files
    leaves hydration working (so at 10^12 docs it reads k directories,
    not the table)."""
    import shutil

    _, index_dir, stats = built_index
    bounds = stats["shard_bounds"]
    # pick hits entirely inside shard 0
    lo, hi = bounds[0], bounds[1]
    df = pd.DataFrame({"doc_id": [lo, hi - 1], "score": [1.0, 0.5]})

    backup = {}
    try:
        for s in range(1, stats["num_shards"]):
            for f in glob.glob(os.path.join(index_dir, "docmeta", f"shard={s}", "*.parquet")):
                with open(f, "rb") as fh:
                    backup[f] = fh.read()
                with open(f, "wb") as fh:
                    fh.write(b"NOT A PARQUET FILE")  # any read of this would raise
        hydrated = hydrate_hits(df, index_dir)
        assert len(hydrated) == 2
        assert hydrated["repo"].notna().all()
        assert set(hydrated["doc_id"]) == {lo, hi - 1}
    finally:
        for f, data in backup.items():
            with open(f, "wb") as fh:
                fh.write(data)


def test_duplicate_and_empty_docs(built_index, fixture_spec):
    """Exact-duplicate contents rank adjacently with identical scores;
    empty docs never match."""
    spec, _ = fixture_spec
    _, index_dir, _ = built_index
    tbl = generate_corpus(spec["n_docs"], spec["seed"]).to_pandas()
    srt = tbl.sort_values(["repo", "path", "commit", "content"], kind="mergesort").reset_index(drop=True)
    dup_content = tbl["content"][3]
    dup_ids = sorted(srt.index[srt["content"] == dup_content])
    assert len(dup_ids) == 3
    reader = IndexReader(index_dir)
    # query with a term from the duplicated doc
    from information_retrieval_images_ray.functions.tokenizer import tokenize_code

    term = tokenize_code(dup_content)[0]
    hits = dict(reader.search_taat(term, spec["n_docs"]))
    scores = {d: hits.get(d) for d in dup_ids}
    vals = [v for v in scores.values() if v is not None]
    assert len(vals) == 3 and len(set(vals)) == 1


def test_dedup_build_equals_plain_build_of_distinct(tmp_path):
    """build_index(dedup=True) over a corpus containing a full
    duplicate copy (fresh ids) equals a plain build of the distinct
    corpus — the reference's UNIQUE(md5) ingest constraint (db.py:32)
    enforced at initial build."""
    import pyarrow as pa
    import ray.data

    texts = [f"alpha beta doc{i} gamma delta" for i in range(30)]
    dup = tmp_path / "dup"
    dup.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array(list(range(30)) + list(range(100, 130)), pa.uint64()),
            "content": texts + texts,
        }),
        str(dup / "p.parquet"),
    )
    plain = tmp_path / "plain"
    plain.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(30), pa.uint64()), "content": texts}),
        str(plain / "p.parquet"),
    )
    idx_d = str(tmp_path / "idx_d")
    idx_p = str(tmp_path / "idx_p")
    s_d = build_index(
        ray.data.read_parquet(str(dup)), idx_d,
        source_files=[str(dup / "p.parquet")], num_shards=2, dedup=True,
    )
    s_p = build_index(
        ray.data.read_parquet(str(plain)), idx_p,
        source_files=[str(plain / "p.parquet")], num_shards=2,
    )
    assert s_d["n_docs"] == s_p["n_docs"] == 30
    assert s_d["doc_id_span"] == s_p["doc_id_span"] == 30
    r_d, r_p = IndexReader(idx_d), IndexReader(idx_p)
    for q in ("alpha", "doc5", "beta doc17 gamma"):
        assert r_d.search_taat(q, 40) == r_p.search_taat(q, 40), q

    # Bloom keep-set path: a forced-tiny broadcast cap routes the same
    # dedup build through the Bloom filter (manifest-recorded, expected
    # FP logged) and the index still equals the plain distinct build —
    # no false negatives by construction; at this corpus size and
    # fp=1e-4 no false positive occurs (deterministic hashing).
    import json as _json

    idx_b = str(tmp_path / "idx_b")
    s_b = build_index(
        ray.data.read_parquet(str(dup)), idx_b,
        source_files=[str(dup / "p.parquet")], num_shards=2, dedup=True,
        dedup_broadcast_max=1,
    )
    assert s_b["n_docs"] == 30 and s_b["doc_id_span"] == 30
    with open(f"{idx_b}/manifest.json") as f:
        entry = _json.load(f)["entries"]["docterms"]
    assert entry["dedup_filter"] == "bloom"
    assert 0 < entry["dedup_expected_fp"] <= 1e-3
    r_b = IndexReader(idx_b)
    for q in ("alpha", "doc5", "beta doc17 gamma"):
        assert r_b.search_taat(q, 40) == r_p.search_taat(q, 40), q


def test_build_bloom_keep_set_logs_warning(tmp_path, caplog):
    """The build's Bloom keep-set switch is a logging WARNING record
    (not a stdout print) naming the keep-set size and the cap."""
    import logging

    import pyarrow as pa
    import ray.data

    src = tmp_path / "src"
    src.mkdir()
    texts = ["alpha beta", "gamma delta", "alpha beta"]
    pq.write_table(pa.table({"doc_id": pa.array(range(3), pa.uint64()),
                             "content": texts}), str(src / "p.parquet"))
    with caplog.at_level(logging.WARNING,
                         logger="information_retrieval_images_ray.pipelines.build"):
        build_index(ray.data.read_parquet(str(src)), str(tmp_path / "idx"),
                    source_files=[str(src / "p.parquet")], num_shards=1,
                    dedup=True, dedup_broadcast_max=1)
    recs = [r for r in caplog.records
            if r.name == "information_retrieval_images_ray.pipelines.build"]
    assert len(recs) == 1 and recs[0].levelno == logging.WARNING
    assert "keep-set of 2 ids exceeds dedup_broadcast_max=1" in recs[0].getMessage()


def test_degenerate_corpora(tmp_path):
    """Single-doc and all-empty-content corpora build and query
    cleanly (no postings -> no hits, never an exception)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from information_retrieval_images_ray.pipelines.build import build_index

    one = tmp_path / "one"
    one.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0], pa.uint64()),
                  "content": ["def mergeSort(a): return a"]}),
        str(one / "p.parquet"),
    )
    idx1 = str(tmp_path / "idx1")
    build_index(ray.data.read_parquet(str(one)), idx1,
                source_files=[str(one / "p.parquet")], num_shards=2)
    r = IndexReader(idx1)
    assert [d for d, _ in r.search_taat("merge", 5)] == [0]

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], pa.uint64()), "content": ["", ""]}),
        str(empty / "p.parquet"),
    )
    idx2 = str(tmp_path / "idx2")
    build_index(ray.data.read_parquet(str(empty)), idx2,
                source_files=[str(empty / "p.parquet")], num_shards=2)
    r2 = IndexReader(idx2)
    assert r2.search_taat("anything", 5) == []
    assert r2.search_taat("", 5) == []


def test_csv_and_jsonl_corpus_sources(tmp_path):
    """S1 source-format variants: the same corpus via parquet, csv and
    json-lines builds an identical index (identical query results)."""
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq2
    import ray.data

    from information_retrieval_images_ray.corpus import generate_corpus
    from information_retrieval_images_ray.sources.corpus_source import (
        read_code_corpus,
    )

    tbl = generate_corpus(60, seed=17)
    # drop the unicode/empty edge rows for CSV round-trip simplicity?
    # no — keep them: the readers must cope with quoting and unicode
    pq_dir = tmp_path / "pq"; pq_dir.mkdir()
    csv_dir = tmp_path / "csv"; csv_dir.mkdir()
    jl_dir = tmp_path / "jl"; jl_dir.mkdir()
    pq2.write_table(tbl, str(pq_dir / "c.parquet"))
    import pyarrow.csv as pacsv

    pacsv.write_csv(tbl, str(csv_dir / "c.csv"))
    with open(jl_dir / "c.jsonl", "w") as f:
        for row in tbl.to_pylist():
            f.write(_json.dumps(row) + "\n")

    idx = {}
    for name, d in (("pq", pq_dir), ("csv", csv_dir), ("jl", jl_dir)):
        ds = assign_dense_doc_ids(read_code_corpus(str(d)), num_partitions=2)
        out = str(tmp_path / f"idx_{name}")
        build_index(ds, out, num_shards=2)
        idx[name] = IndexReader(out)
    for q in ["getUserName", "merge sort", ""]:
        want = idx["pq"].search_taat(q, 10)
        assert idx["csv"].search_taat(q, 10) == want, ("csv", q)
        assert idx["jl"].search_taat(q, 10) == want, ("jl", q)


def test_phrase_search_planted(tmp_path):
    """Phrase semantics end-to-end: conjunctive candidates + adjacency
    verification must find exactly the docs containing the phrase as a
    CONTIGUOUS token run — not docs with the terms scattered — ranked
    by the phrase terms' BM25 with the engine's tie-break."""
    import ray.data

    from information_retrieval_images_ray.functions.tokenizer import (
        tokenize_simple,
    )
    from information_retrieval_images_ray.pipelines.flagship import (
        run_phrase_queries,
    )

    # doc 0 is the anchor: phrase = "red panda climbs"
    texts = [
        "red panda climbs trees daily",
        # contiguous match, extra context
        "the red panda climbs very fast",
        # all three terms present but NEVER adjacent -> must be excluded
        "red fox panda bear climbs walls",
        # partial term overlap only
        "red panda sleeps all day",
        # another contiguous match
        "zoo red panda climbs red panda climbs",
        "unrelated words entirely here",
    ]
    rows = [
        {"doc_id": i, "text": t, "lang": "en", "source": "test"}
        for i, t in enumerate(texts)
    ]
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        __import__("pyarrow").Table.from_pylist(rows),
        str(sf / "documents.parquet"),
    )
    out = run_phrase_queries(str(sf), k=10, n_tokens=3, anchors=(0,))
    assert set(out["doc_id"]) == {0, 1, 4}
    assert list(out["rank"]) == [1, 2, 3]

    # scores equal search_taat's for the same terms (same accumulators)
    from information_retrieval_images_ray.pipelines.flagship import (
        build_documents_index,
    )
    from information_retrieval_images_ray.pipelines.query import IndexReader

    reader = IndexReader(build_documents_index(str(sf)))
    taat = dict(reader.search_taat("red panda climbs", 10))
    for _, r in out.iterrows():
        assert int(np.floor(taat[r["doc_id"]] * 1e6 + 0.5)) == r["score_e6"]

    # conjunctive_scores drops the conjunction when any term is unindexed
    ids, scores = reader.conjunctive_scores(["red", "nosuchterm"])
    assert len(ids) == 0 and len(scores) == 0
