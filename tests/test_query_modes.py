"""Round-5 query modes: regex expansion, query-time term boosting and
field collapsing — serial-reader semantics checked against brute-force
python, and the sharded router checked bitwise against the serial
reader (the engine-wide identity contract every other mode carries)."""

import glob as glob_mod
import re

import pytest

from information_retrieval_images_ray.corpus import write_corpus
from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.query import (
    IndexReader,
    parse_boosted_query,
)
from information_retrieval_images_ray.pipelines.serving import ShardedQueryService
from information_retrieval_images_ray.sources.corpus_source import (
    assign_dense_doc_ids,
    corpus_files,
    read_code_corpus,
)

from conftest import collapse, search

_CORPUS_OF: dict[str, str] = {}


@pytest.fixture(scope="module")
def modes_index(tmp_path_factory):
    corpus = str(tmp_path_factory.mktemp("modes_corpus"))
    index = str(tmp_path_factory.mktemp("modes_index"))
    write_corpus(corpus, 160, seed=29, rows_per_file=80)
    ds = assign_dense_doc_ids(read_code_corpus(corpus), num_partitions=2)
    build_index(ds, index, source_files=corpus_files(corpus),
                num_shards=4)
    _CORPUS_OF[index] = corpus
    return index


def _vocab(reader: IndexReader) -> set[str]:
    out: set[str] = set()
    for sg in reader.segments:
        if sg.terms is not None:
            out.update(sg.terms.arrow.to_pylist())
    return out


# ---------------------------------------------------------------------------
# regex


REGEX_PATTERNS = [
    "get.*",          # literal prefix + open tail
    "[gs]et.*",       # class head -> dictionary scan
    "ge?t",           # optional char after prefix 'g'
    "(read|write).*", # alternation head -> scan
    "zzz+q*",         # no hits
    "get",            # pure literal
    "ge*t",           # quantifier binds the 'e': prefix drops to 'g'
]


def test_expand_regex_matches_brute(modes_index):
    """The pruned range probe + full-match tail must equal a brute
    fullmatch over the whole dictionary, cap and order included."""
    reader = IndexReader(modes_index)
    vocab = _vocab(reader)
    for pat in REGEX_PATTERNS:
        rx = re.compile(pat)
        want = sorted(t for t in vocab if rx.fullmatch(t))[:8]
        got = reader.expand_regex(pat, max_expansions=8)
        assert got == want, pat


def test_search_regex_equals_or_of_expansions(modes_index):
    reader = IndexReader(modes_index)
    for pat in REGEX_PATTERNS:
        terms = reader.expand_regex(pat, max_expansions=8)
        want = reader.search_or_terms(terms, 10) if terms else []
        assert search(reader, "regex", pat, 10, max_expansions=8) == want, pat


# ---------------------------------------------------------------------------
# boosted


def test_parse_boosted_query_shapes():
    tok = lambda s: re.findall(r"[a-z0-9]+", s.lower())
    assert parse_boosted_query("sort^2 merge", tok) == {"sort": 2.0, "merge": 1.0}
    # repeated clauses SUM their boosts
    assert parse_boosted_query("fast^2 fast", tok) == {"fast": 3.0}
    # non-numeric tail after ^ is literal clause text for the tokenizer
    assert parse_boosted_query("a^b", tok) == {"a": 1.0, "b": 1.0}
    assert parse_boosted_query("x^0.5", tok) == {"x": 0.5}


def test_boosted_unboosted_is_plain_bm25(modes_index):
    """All-1.0 boosts must reproduce search_taat BITWISE (multiply by
    1.0 is exact)."""
    reader = IndexReader(modes_index)
    for q in ("merge sort", "get parse token", "read"):
        assert search(reader, "boosted", q, 10) == reader.search_taat(q, 10), q


def test_boosted_sums_and_oov(modes_index):
    reader = IndexReader(modes_index)
    # fast^2 fast == fast^3 (boosts sum before any float multiply)
    assert search(reader, "boosted", "get^2 get", 10) == \
        search(reader, "boosted", "get^3", 10)
    # a boosted out-of-vocabulary term contributes nothing
    assert search(reader, "boosted", "zzznothere^5 merge", 10) == \
        search(reader, "boosted", "merge", 10)
    # boosting reorders: a heavy boost on a rare term must move docs
    # holding it ahead of the unboosted ranking when both rank
    plain = search(reader, "boosted", "merge sort", 10)
    heavy = search(reader, "boosted", "merge^9 sort", 10)
    assert plain and heavy


# ---------------------------------------------------------------------------
# collapse


def _lang_of(index_dir: str) -> dict[int, str]:
    import pyarrow.parquet as pq

    out: dict[int, str] = {}
    for f in glob_mod.glob(f"{index_dir}/docmeta/**/*.parquet", recursive=True):
        t = pq.read_table(f, columns=["doc_id", "lang"])
        for d, v in zip(t["doc_id"].to_pylist(), t["lang"].to_pylist()):
            if v is not None:
                out[int(d)] = str(v)
    return out


def test_collapse_matches_brute(modes_index):
    """Leaders and counts vs brute force: full OR match set (huge k)
    grouped by the docmeta lang value in python."""
    reader = IndexReader(modes_index)
    lang = _lang_of(modes_index)
    for q in ("merge sort hash", "get", "parse token buffer read"):
        full = reader.search_or_terms(
            sorted(set(reader.tokenize(q))), k=10**9)
        groups: dict[str, list] = {}
        for d, s in full:
            v = lang.get(d)
            if v is not None:
                groups.setdefault(v, []).append((d, s))
        want = []
        for v, hits in groups.items():
            hits.sort(key=lambda e: (-e[1], e[0]))
            want.append({"value": v, "doc_id": hits[0][0],
                         "score": hits[0][1], "n": len(hits)})
        want.sort(key=lambda r: (-r["score"], r["doc_id"]))
        got = collapse(reader, q, "lang", k=10)
        assert [
            (r["value"], r["doc_id"], r["score"], r["n"]) for r in got
        ] == [
            (r["value"], r["doc_id"], r["score"], r["n"]) for r in want[:10]
        ], q
        assert [r["rank"] for r in got] == list(range(1, len(got) + 1))


# ---------------------------------------------------------------------------
# significant terms


def test_significant_terms_brute_and_sharded(modes_index):
    """Serial scores vs a brute recount (match sample -> fg doc freq
    -> add-one log-odds); the sharded router (match-prefix scatter +
    pruned docterms read + df exchange) must reproduce it exactly."""
    from collections import Counter

    import numpy as np

    reader = IndexReader(modes_index)
    for q in ("merge sort", "get"):
        sample = reader.match_ids(q)[:20].tolist()
        got = reader.significant_terms(q, k=8, sample_n=20)
        # brute foreground from term_vectors (independent pruned read)
        fg: Counter = Counter()
        for row in reader.term_vectors(sample):
            fg[row["term"]] += 1
        exclude = set(reader.tokenize(q))
        want = []
        for t in sorted(fg):
            if t in exclude:
                continue
            d = reader.df_locals([t]).get(t, 0)
            # np.log, not math.log: the engine (and the DuckDB oracle,
            # per the distinctive-terms precedent) uses numpy's libm,
            # which can differ from python's by 1 ulp
            lor = float(np.log((fg[t] + 1.0) / (len(sample) - fg[t] + 1.0))
                        - np.log((d + 1.0) / (reader.n_docs - d + 1.0)))
            want.append({"term": t, "fg_df": fg[t], "df": d, "lor": lor})
        want.sort(key=lambda r: (-r["lor"], r["term"]))
        assert got == want[:8], q

    svc = ShardedQueryService(modes_index, num_actors=3)
    try:
        qs = [{"qid": i, "query": s} for i, s in enumerate(
            ["merge sort", "get", "zzz_nohit"])]
        rows = svc.topk_significant(qs, k=8, sample_n=20)
        for q in qs:
            mine = [(r["term"], r["fg_df"], r["df"], r["lor"])
                    for r in rows if r["qid"] == q["qid"]]
            want = [(r["term"], r["fg_df"], r["df"], r["lor"])
                    for r in reader.significant_terms(
                        q["query"], k=8, sample_n=20)]
            assert mine == want, q
    finally:
        svc.shutdown()


# ---------------------------------------------------------------------------
# term vectors


def test_term_vectors_match_brute(modes_index):
    """(doc, term, tf, df) from the pruned docterms read must equal a
    brute tokenize of the corpus texts."""
    from collections import Counter

    import pyarrow.parquet as pq_mod

    from information_retrieval_images_ray.functions.tokenizer import tokenize_code

    reader = IndexReader(modes_index)
    files = sorted(glob_mod.glob(_CORPUS_OF[modes_index] + "/*.parquet"))
    texts: dict[int, str] = {}
    # re-derive doc ids exactly as assign_dense_doc_ids does
    import pandas as pd

    frames = [pq_mod.read_table(f).to_pandas() for f in files]
    df = pd.concat(frames, ignore_index=True)
    df = df.sort_values(["repo", "path", "commit", "content"],
                        kind="mergesort").reset_index(drop=True)
    texts = dict(enumerate(df["content"]))

    # corpus-wide df from brute tokenization
    brute_df: Counter = Counter()
    for t in texts.values():
        brute_df.update(set(tokenize_code(t)))

    anchors = [0, 3, 17]
    got = reader.term_vectors(anchors)
    want = []
    for d in anchors:
        c = Counter(tokenize_code(texts[d]))
        for t in sorted(c):
            want.append({"doc_id": d, "term": t, "tf": c[t],
                         "df": brute_df[t]})
    assert got == want
    assert reader.term_vectors([]) == []
    assert reader.term_vectors([10**9]) == []  # unknown id: no rows


# ---------------------------------------------------------------------------
# cursor paging (search_after)


def test_search_after_walks_the_total_order(modes_index):
    """A cursor walk in k-sized pages must reproduce the offset-paged
    total order exactly, page by page, until exhaustion."""
    reader = IndexReader(modes_index)
    for q in ("get", "merge sort hash"):
        k = 7
        cursor, walked = None, []
        for page in range(5):
            hits = search(reader, "bm25", q, k, search_after=cursor)
            assert hits == search(reader, "bm25", q, k, offset=page * k), (q, page)
            walked.extend(hits)
            if len(hits) < k:
                break
            cursor = (hits[-1][1], hits[-1][0])  # (score, doc_id)
        # no duplicates across pages; strictly descending rank order
        ids = [d for d, _ in walked]
        assert len(ids) == len(set(ids))
        keys = [(-s, d) for d, s in walked]
        assert keys == sorted(keys)
    assert search(reader, "bm25", "zzz_nohit", 5) == []
    # a cursor past the last hit pages to empty
    d, s = search(reader, "bm25", "get", 10**9)[-1]
    assert search(reader, "bm25", "get", 5, search_after=(s, d)) == []


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_search_after_matches_serial(modes_index, num_actors):
    reader = IndexReader(modes_index)
    svc = ShardedQueryService(modes_index, num_actors=num_actors)
    try:
        page1 = svc.topk([{"qid": 0, "query": "get"}], k=5)
        cursor = (page1[-1]["score"], page1[-1]["doc_id"])
        got = svc.topk(
            [svc.compile("bm25", "get", {"search_after": cursor})], k=5)
        assert [(r["doc_id"], r["score"]) for r in got] == \
            search(reader, "bm25", "get", 5, search_after=cursor)
        # no cursor == page one == plain topk
        got0 = svc.topk([svc.compile("bm25", "get")], k=5)
        assert [(r["doc_id"], r["score"]) for r in got0] == \
            [(r["doc_id"], r["score"]) for r in page1]
    finally:
        svc.shutdown()


# ---------------------------------------------------------------------------
# range facets


def test_length_facets_match_brute(modes_index):
    """Bucket counts vs brute force over the match set's doc
    lengths; totals must equal the match-set size (edges start at 0,
    so every matched doc lands in exactly one bucket)."""
    import numpy as np

    reader = IndexReader(modes_index)
    edges = [0, 5, 10, 20, 40]
    for q in ("merge sort hash", "get", "zzz_nohit"):
        ids = reader.match_ids(q)
        want: dict[int, int] = {}
        for dl in reader.doc_len[ids]:
            lo = max(e for e in edges if e <= dl)
            want[lo] = want.get(lo, 0) + 1
        got = reader.length_facets(q, edges)
        assert {r["lo"]: r["n"] for r in got} == want, q
        assert [r["lo"] for r in got] == sorted(want)
        assert sum(r["n"] for r in got) == len(ids)
    assert reader.length_facets("zzz_nohit", edges) == []


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_length_facets_match_serial(modes_index, num_actors):
    reader = IndexReader(modes_index)
    svc = ShardedQueryService(modes_index, num_actors=num_actors)
    try:
        edges = [0, 5, 10, 20, 40]
        qs = [{"qid": i, "query": s} for i, s in enumerate(
            ["merge sort hash", "get", "zzz_nohit"])]
        got = svc.length_facets(qs, edges)
        for q, buckets in zip(qs, got):
            assert buckets == reader.length_facets(q["query"], edges), q
    finally:
        svc.shutdown()


# ---------------------------------------------------------------------------
# sharded router == serial reader (bitwise), across actor counts


@pytest.mark.parametrize("num_actors", [1, 3])
def test_sharded_modes_match_serial(modes_index, num_actors):
    reader = IndexReader(modes_index)
    svc = ShardedQueryService(modes_index, num_actors=num_actors)
    try:
        rq = [{"qid": i, "pattern": p} for i, p in enumerate(REGEX_PATTERNS)]
        got = svc.topk([svc.compile("regex", q["pattern"],
                                    {"max_expansions": 8}, qid=q["qid"])
                        for q in rq], k=10)
        for q in rq:
            mine = [(r["doc_id"], r["score"]) for r in got
                    if r["qid"] == q["qid"]]
            assert mine == search(
                reader, "regex", q["pattern"], 10, max_expansions=8), q

        bq = [{"qid": i, "query": s} for i, s in enumerate(
            ["get^2 merge", "sort^0.5 hash^3", "merge sort",
             "get^2 get", "zzznope^4 read"])]
        got = svc.topk([svc.compile("boosted", q["query"], qid=q["qid"])
                        for q in bq], k=10)
        for q in bq:
            mine = [(r["doc_id"], r["score"]) for r in got
                    if r["qid"] == q["qid"]]
            assert mine == search(reader, "boosted", q["query"], 10), q

        cq = [{"qid": i, "query": s} for i, s in enumerate(
            ["merge sort hash", "get", "zzz_nohit"])]
        got = svc.topk([svc.compile("collapse", q["query"],
                                    {"collapse_field": "lang"}, qid=q["qid"])
                        for q in cq], k=10)
        for q in cq:
            mine = [(r["doc_id"], r["score"], r["group"], r["group_n"])
                    for r in got if r["qid"] == q["qid"]]
            want = [(r["doc_id"], r["score"], r["value"], r["n"])
                    for r in collapse(reader, q["query"], "lang", 10)]
            assert mine == want, q
    finally:
        svc.shutdown()
