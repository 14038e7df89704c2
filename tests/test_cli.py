"""CLI verb coverage (reference main.py:12-76 verb surface): build,
query, show, reset — driven in-session via cli.main(argv)."""

import json
import os

import pytest

from information_retrieval_images_ray.cli import main
from information_retrieval_images_ray.corpus import write_corpus

from conftest import collapse, search


@pytest.fixture(scope="module")
def cli_index(tmp_path_factory):
    corpus = str(tmp_path_factory.mktemp("cli_corpus"))
    index = str(tmp_path_factory.mktemp("cli_index"))
    write_corpus(corpus, 120, seed=21, rows_per_file=60)
    rc = main(["build", "--corpus", corpus, "--index", index, "--shards", "2"])
    assert rc == 0
    return index


def test_build_creates_index(cli_index, capsys):
    assert os.path.exists(os.path.join(cli_index, "stats.json"))
    assert os.path.exists(os.path.join(cli_index, "manifest.json"))


def test_build_dedup_flag(tmp_path, capsys):
    """`build --dedup`: a corpus written twice (two identical file
    sets) indexes each distinct content once."""
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, 40, seed=33, rows_per_file=40)
    import shutil

    for f in os.listdir(corpus):
        if f.endswith(".parquet"):
            shutil.copy(os.path.join(corpus, f), os.path.join(corpus, "copy_" + f))
    index = str(tmp_path / "index")
    rc = main(["build", "--corpus", corpus, "--index", index, "--shards", "2", "--dedup"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # 80 rows in (every content twice, plus any generator-planted
    # dups), one survivor per distinct content
    from information_retrieval_images_ray.corpus import generate_corpus

    distinct = generate_corpus(40, 33).to_pandas()["content"].nunique()
    assert stats["n_docs"] == distinct


def test_query_returns_ranked_hits(cli_index, capsys):
    rc = main(["query", "getUserName", "--index", cli_index, "-k", "5"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert hits and all({"doc_id", "score"} <= set(h) for h in hits)
    scores = [h["score"] for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_query_paging_validation(cli_index, capsys):
    """A negative -k or --offset exits 2 with a plain message; -k 0
    prints an empty page."""
    for args in (["-k", "-1"], ["-k", "3", "--offset", "-2"]):
        assert main(["query", "get", "--index", cli_index, *args]) == 2, args
        assert "limit and offset must be >= 0" in capsys.readouterr().err
    assert main(["query", "get", "--index", cli_index, "-k", "0"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == []


def test_query_hydrated(cli_index, capsys):
    rc = main(["query", "merge", "--index", cli_index, "-k", "3", "--hydrate"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rows and {"doc_id", "score", "repo", "path", "content_sha256"} <= set(rows[0])


def test_show_summarizes(cli_index, capsys):
    rc = main(["show", "--index", cli_index])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stats"]["n_docs"] == 120
    assert len(out["shards"]) == 2


def test_reset_requires_yes(cli_index):
    assert main(["reset", "--index", cli_index]) == 2
    assert os.path.exists(cli_index)


def test_reset_with_yes(tmp_path, capsys):
    d = str(tmp_path / "gone")
    os.makedirs(d)
    assert main(["reset", "--index", d, "--yes"]) == 0
    assert not os.path.exists(d)


def test_vector_lifecycle_verbs(tmp_path, capsys):
    """vec-build -> vec-search -> vec-extend -> vec-delete ->
    vec-compact -> vec-search: the CLI surface of the persisted-IVF
    lifecycle, exact vs a numpy cosine oracle at exhaustive nprobe."""
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(5)
    dim, n = 8, 80
    vecs = rng.normal(size=(n, dim)).astype(np.float32)

    def write(path, lo, hi):
        pd.DataFrame({
            "vec_id": np.arange(lo, hi, dtype=np.int64),
            "embedding": [v.tolist() for v in vecs[lo:hi]],
        }).to_parquet(path)

    base_pq = str(tmp_path / "base.parquet")
    delta_pq = str(tmp_path / "delta.parquet")
    write(base_pq, 0, 60)
    write(delta_pq, 0, 80)  # overlapping delta: only 60..79 are new
    idx = str(tmp_path / "vivf")

    assert main(["vec-build", "--vectors", base_pq, "--index", idx,
                 "--nlist", "4"]) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["nlist"] == 4

    assert main(["vec-extend", "--vectors", delta_pq, "--index", idx]) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["added"] == 20

    def oracle(qvec, k, exclude=()):
        m = vecs.astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = m @ (np.asarray(qvec) / np.linalg.norm(qvec))
        ids = np.arange(n)
        keep = ~np.isin(ids, list(exclude))
        ids, sims = ids[keep], sims[keep]
        return [int(i) for i in ids[np.lexsort((ids, -sims))[:k]]]

    q = [float(x) for x in vecs[3]]
    assert main(["vec-search", json.dumps(q), "--index", idx,
                 "-k", "5", "--nprobe", "4"]) == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [h["vec_id"] for h in hits] == oracle(q, 5)

    assert main(["vec-delete", "3", "7", "--index", idx]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])[
        "n_tombstones"] == 2
    assert main(["vec-compact", "--index", idx]) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["epochs"] == ["vectors_g1"] and meta["n_tombstones"] == 0

    assert main(["vec-search", json.dumps(q), "--index", idx,
                 "-k", "5", "--nprobe", "4"]) == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [h["vec_id"] for h in hits] == oracle(q, 5, exclude=(3, 7))


def test_query_modes(cli_index, capsys):
    """`query --mode ...` drives every retrieval mode and matches the
    serial reader; --facets prints match-set counts."""
    from information_retrieval_images_ray.pipelines.query import IndexReader

    reader = IndexReader(cli_index)

    rc = main(["query", "get", "--index", cli_index, "-k", "5",
               "--mode", "prefix", "--max-expansions", "8"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    want = search(reader, "prefix", "get", 5, max_expansions=8)
    assert [(h["doc_id"], h["score"]) for h in hits] == want and hits

    rc = main(["query", "getx", "--index", cli_index, "-k", "5",
               "--mode", "fuzzy"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [(h["doc_id"], h["score"]) for h in hits] == search(reader, "fuzzy", "getx", 5)

    rc = main(["query", "g*t", "--index", cli_index, "-k", "5",
               "--mode", "wildcard", "--max-expansions", "8"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        search(reader, "wildcard", "g*t", 5, max_expansions=8) and hits

    rc = main(["query", "get merge", "--index", cli_index, "-k", "5",
               "--mode", "synonym"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        search(reader, "synonym", "get merge", 5)

    rc = main(["query", "ignored", "--index", cli_index, "-k", "5",
               "--mode", "boolean", "--must", "get", "--must-not", "sort"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        search(reader, "boolean", "", 5, must="get", must_not="sort")

    rc = main(["query", "get name", "--index", cli_index, "-k", "5",
               "--mode", "more_like_this", "--max-terms", "2"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    want = search(reader, "more_like_this", "get name", 5, max_terms=2)
    assert [(h["doc_id"], h["score"]) for h in hits] == want

    # cursor paging: --after "score,doc_id" == ranks 6..10
    p1 = reader.search_taat("get", 5)
    rc = main(["query", "get", "--index", cli_index, "-k", "5",
               "--after", f"{p1[-1][1]!r},{p1[-1][0]}"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        search(reader, "bm25", "get", 5, offset=5) and hits

    rc = main(["query", "g.t", "--index", cli_index, "-k", "5",
               "--mode", "regex", "--max-expansions", "8"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        search(reader, "regex", "g.t", 5, max_expansions=8) and hits

    rc = main(["query", "get^2 merge", "--index", cli_index, "-k", "5",
               "--mode", "boosted"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        search(reader, "boosted", "get^2 merge", 5) and hits

    rc = main(["query", "get merge", "--index", cli_index, "-k", "5",
               "--mode", "collapse", "--collapse-field", "lang"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    want = collapse(reader, "get merge", "lang", 5)
    assert [
        (h["doc_id"], h["score"], h["group"], h["group_n"]) for h in hits
    ] == [(r["doc_id"], r["score"], r["value"], r["n"]) for r in want]
    assert hits

    # phrase without a sidecar: clean exit code 2, not a traceback
    rc = main(["query", "get name", "--index", cli_index, "--mode", "phrase"])
    assert rc == 2
    capsys.readouterr()

    rc = main(["query", "get", "--index", cli_index, "-k", "3",
               "--facets", "lang"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fc = json.loads(lines[0])["facets"]
    assert fc == reader.facet_counts("get", ["lang"])
    assert json.loads(lines[-1])  # ranked hits still printed


def test_vec_embed_and_text_search_verbs(tmp_path, capsys):
    """vec-embed -> vec-build -> vec-search --text: the full
    text->vector->index->query loop through the CLI; a doc queried by
    its own text self-matches at rank 1."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.cli import main

    corpus_pq = str(tmp_path / "docs.parquet")
    rows = [f"topic{i % 4} token{i} shared words here" for i in range(30)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "text": pa.array(rows, pa.string()),
    }), corpus_pq)

    emb_dir = str(tmp_path / "emb")
    idx = str(tmp_path / "ivf")
    assert main(["vec-embed", "--corpus", corpus_pq, "--out", emb_dir,
                 "--dim", "32"]) == 0
    capsys.readouterr()
    assert main(["vec-build", "--vectors", emb_dir, "--index", idx,
                 "--nlist", "4"]) == 0
    capsys.readouterr()
    assert main(["vec-search", "--index", idx, "--text", rows[17],
                 "-k", "3", "--nprobe", "4"]) == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert hits[0]["vec_id"] == 17 and hits[0]["sim_e6"] == 1_000_000

    # neither vector nor --text -> usage error, not a traceback
    assert main(["vec-search", "--index", idx]) == 2


def test_export_verb(tmp_path, capsys):
    """export: quality-filter + dedup + split -> hive parquet; the
    printed summary matches the manifest on disk."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.cli import main

    good = ("the quick brown fox jumps over a lazy dog while many other "
            "animals watch the bright summer sky and wonder about food "
            "with great interest in every single moment of it")
    corpus_pq = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(12), pa.int64()),
        "text": pa.array([f"{good} extra token{i % 10}" for i in range(12)]),
        "lang": pa.array(["en", "fr"] * 6),
    }), corpus_pq)

    out = str(tmp_path / "exp")
    assert main(["export", "--corpus", corpus_pq, "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    man = json.load(open(f"{out}/_export.json"))
    assert man["partitions"] == summary
    # docs 10, 11 duplicate 0, 1 -> 10 survivors
    assert sum(p["n_docs"] for p in summary) == 10


def test_query_snippet_corpus(cli_index, capsys, tmp_path):
    """query --snippet-corpus: hits carry the <em>-marked best-window
    snippet (HTTP "snippet": true contract), recomputable from the
    corpus and the index's own tokenizer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.corpus import generate_corpus
    from information_retrieval_images_ray.pipelines.query import IndexReader
    from information_retrieval_images_ray.pipelines.positions import best_window

    # doc_id = row position after the dense-assignment sort order
    df = (
        generate_corpus(120, 21).to_pandas()
        .sort_values(["repo", "path", "commit", "content"], kind="mergesort")
        .reset_index(drop=True)
    )
    corpus_pq = str(tmp_path / "snipcorpus.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(df)), pa.int64()),
        "text": pa.array(df["content"], pa.string()),
    }), corpus_pq)

    rc = main(["query", "getUserName", "--index", cli_index, "-k", "3",
               "--snippet-corpus", corpus_pq])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert hits and all(
        {"snippet", "snip_start", "n_match"} <= set(h) for h in hits)
    reader = IndexReader(cli_index)
    qterms = set(reader.tokenize("getUserName"))
    for h in hits:
        toks = reader.tokenize(df["content"][h["doc_id"]])
        start, n = best_window(toks, qterms, 8)
        assert (h["snip_start"], h["n_match"]) == (start, n)
        assert "<em>" in h["snippet"]

    # expansion mode: snippets mark the dictionary expansions — every
    # <em>-marked token is an expand_wildcard("getuser*") term
    rc = main(["query", "getuser*", "--index", cli_index, "-k", "3",
               "--mode", "wildcard", "--snippet-corpus", corpus_pq])
    assert rc == 0
    whits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert whits and all(
        {"snippet", "snip_start", "n_match"} <= set(h) for h in whits)
    import re as _re

    exp = set(reader.expand_wildcard("getuser*", 64))
    marked = {
        m for h in whits
        for m in _re.findall(r"<em>([a-z0-9]+)</em>", h["snippet"])
    }
    assert marked and marked <= exp


def test_query_prf_and_explain(cli_index, capsys):
    """--mode prf matches the serial reader's prf plan; --explain attaches
    the per-term breakdown whose contributions sum to the score."""
    from information_retrieval_images_ray.pipelines.query import IndexReader

    rc = main(["query", "getUserName", "--index", cli_index, "-k", "5",
               "--mode", "prf", "--fb-docs", "3", "--fb-terms", "4"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    want = search(IndexReader(cli_index), "prf", "getUserName", 5, fb_docs=3,
                  fb_terms=4)
    assert [(h["doc_id"], h["score"]) for h in hits] == want

    rc = main(["query", "getUserName", "--index", cli_index, "-k", "3",
               "--explain"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert hits
    for h in hits:
        ex = h["explanation"]
        assert ex and abs(sum(e["contribution"] for e in ex) - h["score"]) < 1e-9

    # --explain outside bm25 mode is a clean usage error
    rc = main(["query", "getUserName", "--index", cli_index,
               "--mode", "prf", "--explain"])
    assert rc == 2


def test_cli_report(tmp_path, capsys):
    """`report` emits one JSON document with every corpus-health
    section; --out writes the same payload atomically."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["a b c d", "a b c d", "e f g h", "i j"], pa.string()),
        "lang": pa.array(["en", "en", "fr", "fr"], pa.string()),
        "source": pa.array(["s1", "s1", "s2", "s2"], pa.string()),
    }), corpus)
    rc = main(["report", "--corpus", corpus, "--vocab-bucket", "2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(rep) == {"corpus", "stats", "quality_rates",
                        "dup_rate_by_source", "length_quartiles",
                        "vocab_growth", "entropy_percentiles_e6",
                        "source_kl"}
    dup = {r["source"]: r for r in rep["dup_rate_by_source"]}
    assert dup["s1"]["n_docs"] == 2 and dup["s1"]["n_distinct"] == 1
    assert dup["s2"]["dup_rate_e6"] == 0
    # every doc above is all-distinct tokens -> entropy = log2(n)
    assert rep["entropy_percentiles_e6"]["p10"] == 1_000_000   # "i j"
    assert rep["entropy_percentiles_e6"]["p90"] == 2_000_000   # 4 tokens
    kl = {r["source"]: r for r in rep["source_kl"]}
    assert set(kl) == {"s1", "s2"} and kl["s1"]["kl_e6"] > 0
    out_file = str(tmp_path / "report.json")
    rc = main(["report", "--corpus", corpus, "--out", out_file])
    assert rc == 0
    assert json.load(open(out_file))["dup_rate_by_source"]
