"""Scoring explanations (IndexReader.explain — the Lucene explain
shape) and pseudo-relevance-feedback retrieval (search_prf / router
prf plans): component exactness vs brute-force counts, sum-equals-score
bitwise, and sharded-router parity."""

import collections
import math

import pytest

from information_retrieval_images_ray.corpus import generate_corpus, write_corpus
from information_retrieval_images_ray.functions.bm25 import bm25_brute_force
from information_retrieval_images_ray.functions.tokenizer import tokenize_code
from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.query import IndexReader
from information_retrieval_images_ray.pipelines.serving import ShardedQueryService
from information_retrieval_images_ray.sources.corpus_source import (
    assign_dense_doc_ids,
    corpus_files,
    read_code_corpus,
)

QUERIES = ["getUserName", "merge sort hash", "get", "zzz_nohit"]
N_DOCS = 150
SEED = 31


@pytest.fixture(scope="module")
def prf_index(tmp_path_factory):
    corpus = str(tmp_path_factory.mktemp("prf_corpus"))
    index = str(tmp_path_factory.mktemp("prf_index"))
    write_corpus(corpus, N_DOCS, seed=SEED, rows_per_file=50)
    ds = assign_dense_doc_ids(read_code_corpus(corpus), num_partitions=2)
    build_index(ds, index, source_files=corpus_files(corpus),
                num_shards=3, hot_df_threshold=60, salt_factor=4)
    return index


@pytest.fixture(scope="module")
def docs_tokens():
    """doc_id -> tokens, in the engine's dense-id order (the verify
    oracle recipe: sort by (repo, path, commit, content), mergesort)."""
    import pandas as pd

    df = generate_corpus(N_DOCS, seed=SEED)
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    df = df.sort_values(["repo", "path", "commit", "content"],
                        kind="mergesort").reset_index(drop=True)
    return {i: tokenize_code(c) for i, c in enumerate(df["content"])}


def _idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def test_explain_components_match_brute(prf_index, docs_tokens):
    """tf == the doc's token count, df == global doc frequency, and
    per-doc contributions sum to the ranked score EXACTLY (same float64
    adds in the same term order — explain audits the page)."""
    reader = IndexReader(prf_index)
    n = len(docs_tokens)
    df_all = collections.Counter()
    for toks in docs_tokens.values():
        df_all.update(set(toks))
    for q in QUERIES:
        hits = reader.search_taat(q, 5)
        rows = reader.explain(q, [d for d, _ in hits])
        qterms = set(reader.tokenize(q))
        sums: dict[int, float] = collections.defaultdict(float)
        for r in rows:
            assert r["term"] in qterms
            c = collections.Counter(docs_tokens[r["doc_id"]])
            assert r["tf"] == c[r["term"]], (q, r)
            assert r["df"] == df_all[r["term"]], (q, r)
            assert r["dl"] == len(docs_tokens[r["doc_id"]])
            assert r["idf"] == pytest.approx(_idf(n, r["df"]), rel=1e-12)
            assert r["contribution"] == r["idf"] * r["partial"]
            sums[r["doc_id"]] += r["contribution"]
        for d, s in hits:
            assert sums[d] == s, (q, d)  # bitwise, not approx
        # rows are (doc_id asc, term asc)
        keys = [(r["doc_id"], r["term"]) for r in rows]
        assert keys == sorted(keys)
    assert reader.explain("getUserName", []) == []


def test_explain_skips_tombstoned(prf_index, tmp_path):
    import shutil

    from information_retrieval_images_ray.pipelines.maintenance import delete_docs

    idx = str(tmp_path / "tomb")
    shutil.copytree(prf_index, idx)
    reader0 = IndexReader(idx)
    hits = reader0.search_taat("get", 5)
    victim = hits[0][0]
    delete_docs(idx, [victim])
    reader = IndexReader(idx)
    rows = reader.explain("get", [d for d, _ in hits])
    assert rows and all(r["doc_id"] != victim for r in rows)


def _prf_reference(docs_tokens, query_tokens, k, fb_docs, fb_terms, beta):
    """Test-local PRF oracle over raw token dicts: brute-force BM25
    base ranking -> summed-tf·idf expansion cut (term-asc ties) ->
    weighted OR re-score with term-ascending float adds."""
    n = len(docs_tokens)
    df_all = collections.Counter()
    for toks in docs_tokens.values():
        df_all.update(set(toks))
    avgdl = sum(len(t) for t in docs_tokens.values()) / n
    orig = sorted(set(query_tokens))
    base = bm25_brute_force(docs_tokens, orig, fb_docs)
    if not base:
        return []
    rel = collections.Counter()
    for d, _ in base:
        rel.update(docs_tokens[d])
    cand = [
        (t, rel[t] * _idf(n, df_all[t]))
        for t in rel if t not in set(orig) and df_all[t]
    ]
    cand.sort(key=lambda e: (-e[1], e[0]))
    expansion = [t for t, _ in cand[:fb_terms]]
    w = {t: _idf(n, df_all[t]) for t in orig if df_all[t]}
    w.update({t: beta * _idf(n, df_all[t]) for t in expansion})
    scores: dict[int, float] = collections.defaultdict(float)
    for t in sorted(w):
        for d, toks in docs_tokens.items():
            tf = toks.count(t)
            if tf:
                dl = len(toks)
                part = tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
                scores[d] += w[t] * part
    ranked = sorted(scores.items(), key=lambda e: (-e[1], e[0]))[:k]
    return ranked


@pytest.mark.parametrize("query", ["getUserName", "merge sort hash", "get"])
def test_prf_matches_reference(prf_index, docs_tokens, query):
    reader = IndexReader(prf_index)
    got = reader.search_prf(query, 10, fb_docs=5, fb_terms=6, beta=0.5)
    want = _prf_reference(docs_tokens, reader.tokenize(query), 10, 5, 6, 0.5)
    assert [d for d, _ in got] == [d for d, _ in want], query
    for (_, a), (_, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-9)


def test_prf_expansion_changes_ranking(prf_index):
    """Non-vacuousness: expansion at beta>0 must differ from the plain
    base ranking for at least one battery query (else the test above
    proves nothing about the expansion path)."""
    reader = IndexReader(prf_index)
    diff = 0
    for q in ["getUserName", "merge sort hash", "get"]:
        base = reader.search_taat(q, 10)
        prf = reader.search_prf(q, 10, fb_docs=5, fb_terms=6, beta=0.5)
        if [d for d, _ in base] != [d for d, _ in prf]:
            diff += 1
    assert diff > 0


def test_prf_no_hit_query_empty(prf_index):
    reader = IndexReader(prf_index)
    assert reader.search_prf("zzz_nohit qqq_nope", 10) == []


@pytest.mark.parametrize("num_actors", [1, 3])
def test_router_prf_rank_identical(prf_index, num_actors):
    reader = IndexReader(prf_index)
    svc = ShardedQueryService(prf_index, num_actors=num_actors)
    try:
        qs = [{"qid": i, "query": q} for i, q in enumerate(QUERIES)]
        got = svc.topk([svc.compile("prf", q["query"],
                                    {"fb_docs": 5, "fb_terms": 6, "beta": 0.5},
                                    qid=q["qid"])
                        for q in qs], k=10)
        for i, q in enumerate(QUERIES):
            mine = [(r["doc_id"], r["score"]) for r in got if r["qid"] == i]
            want = reader.search_prf(q, 10, fb_docs=5, fb_terms=6, beta=0.5)
            assert mine == want, q  # bitwise scores, not approx
    finally:
        svc.shutdown()


@pytest.mark.parametrize("num_actors", [1, 3])
def test_router_explain_matches_reader(prf_index, num_actors):
    reader = IndexReader(prf_index)
    svc = ShardedQueryService(prf_index, num_actors=num_actors)
    try:
        for q in QUERIES:
            hits = reader.search_taat(q, 5)
            want = reader.explain(q, [d for d, _ in hits])
            got = svc.explain(q, [d for d, _ in hits])
            assert got == want, q
    finally:
        svc.shutdown()
