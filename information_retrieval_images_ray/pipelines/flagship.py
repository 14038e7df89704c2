"""Flagship pipeline: BM25 index + top-k over the driver's `documents`
table (the engine applied to shared testdata, with the SQL-parity
`simple` tokenizer so DuckDB can act as the correctness oracle).

The built index is cached under /tmp keyed by the sf_dir path +
config; the build's own manifest/fingerprint machinery makes a repeat
call a cheap no-op (reference idempotency, lifted — db.py:114-116).
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd

from ..sources.corpus_source import read_documents_table
from .build import build_index
from .query import IndexReader, QueryScorer

# Frozen query battery over the documents vocabulary (31 terms, one
# rare term 'dup'): rare, hot, multi-term, no-hit shapes.
BM25_QUERIES = [
    {"qid": 1, "query": "dup"},
    {"qid": 2, "query": "merge sort"},
    {"qid": 3, "query": "hash join stream"},
    {"qid": 4, "query": "spark window"},
    {"qid": 5, "query": "batch"},
    {"qid": 6, "query": "zebra unknownterm"},
    {"qid": 7, "query": "dup key vector"},
    {"qid": 8, "query": "fast scan filter table"},
]

NUM_SHARDS = 4
HOT_DF_THRESHOLD = 150  # hot at sf>=0.01 scale -> exercises salting
SALT_FACTOR = 4


def documents_index_dir(sf_dir: str, variant: str = "v1") -> str:
    # the source file's stat-fingerprint is part of the cache key, so a
    # regenerated documents.parquet (even same-size) gets a fresh dir
    from ..state.manifest import fingerprint_file

    src = f"{sf_dir}/documents.parquet"
    ffp = fingerprint_file(src) if os.path.exists(src) else "missing"
    key = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}|{ffp}|simple|{NUM_SHARDS}|{HOT_DF_THRESHOLD}|{variant}".encode()
    ).hexdigest()[:16]
    return os.path.join("/tmp", "iri_ray_cache", f"docindex_{key}")


def build_documents_index(sf_dir: str) -> str:
    index_dir = documents_index_dir(sf_dir)
    ds = read_documents_table(sf_dir)
    build_index(
        ds,
        index_dir,
        source_files=[f"{sf_dir}/documents.parquet"],
        tokenizer="simple",
        num_shards=NUM_SHARDS,
        hot_df_threshold=HOT_DF_THRESHOLD,
        salt_factor=SALT_FACTOR,
        # sampled hot-term detection (the scale default): the exact df
        # table is statistics-only — query-time df is the sum of
        # per-shard df_local and index bytes are identical either way
        # (salting merge is byte-identical, tested) — so the flagship
        # comparable doesn't pay a full vocab scan it never reads.
        # The exact path stays covered: build_index defaults to
        # exact_termstats=True and every non-flagship pytest build
        # exercises it.
        exact_termstats=False,
    )
    return index_dir


def run_bm25_queries(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, algo: str = "bmw"
) -> pd.DataFrame:
    """(qid, rank, doc_id, score_e6) for the frozen battery, scored by
    the actor-pool QueryScorer over a queries Dataset."""
    return _run_battery(build_documents_index(sf_dir), queries, k, algo)


def run_bm25_queries_page(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, offset: int = 10,
    algo: str = "bmw",
) -> pd.DataFrame:
    """Page 2 of the battery: absolute ranks offset+1..offset+k of the
    (score desc, doc_id asc) total order — deterministic deep paging
    (fetch top-(offset+k), keep the tail slice)."""
    out = _run_battery(build_documents_index(sf_dir), queries, k + offset, algo)
    out = out[out["rank"] > offset]
    return out.sort_values(["qid", "rank"]).reset_index(drop=True)


def run_bm25_cursor_queries(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10,
) -> pd.DataFrame:
    """Page 2 of the battery through CURSOR paging (the Elasticsearch
    ``search_after`` shape): page 1's last (score, doc_id) is the
    cursor, page 2 fetches the k hits strictly after it — absolute
    ranks k+1..2k of the same total order as offset paging, reached
    without recomputing the skipped ranks. Runs through the SHARDED
    service (per-actor cursor-filtered top-k over owned docs, router
    k-way merge); a query with <= k total hits pages to empty."""
    import numpy as np
    import pandas as pd

    from .serving import ShardedQueryService

    index_dir = build_documents_index(sf_dir)
    svc = ShardedQueryService(index_dir, num_actors=2)
    try:
        page1 = svc.topk(list(queries), k=k)
        last: dict[int, tuple[float, int]] = {}
        for r in page1:
            last[r["qid"]] = (r["score"], r["doc_id"])  # rank ascends
        q2 = [
            svc.compile("bm25", q["query"], {"search_after": last[q["qid"]]},
                        qid=q["qid"])
            for q in queries if q["qid"] in last
        ]
        page2 = svc.topk(q2, k=k) if q2 else []
    finally:
        svc.shutdown()
    if not page2:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                             ["qid", "rank", "doc_id", "score_e6"]})
    out = pd.DataFrame(page2)
    out["rank"] = out["rank"] + k  # absolute ranks k+1..2k
    out["score_e6"] = np.floor(
        out["score"].to_numpy(np.float64) * 1e6 + 0.5).astype(np.int64)
    out = out[["qid", "rank", "doc_id", "score_e6"]].astype("int64")
    return out.sort_values(["qid", "rank"]).reset_index(drop=True)


def run_bm25_queries_merged(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, algo: str = "bmw"
) -> pd.DataFrame:
    """The battery over a MERGED index: the documents table is built
    as two disjoint half indexes (split at the midpoint doc_id) and
    combined with maintenance.merge_indexes — scores must equal a
    single full build, so the oracle is the ordinary full-corpus BM25
    SQL. Exercises the segment-merge path end-to-end."""
    import pyarrow.parquet as pq

    from .maintenance import merge_indexes

    src = f"{sf_dir}/documents.parquet"
    t = pq.read_table(src, columns=["doc_id"])
    ids = t["doc_id"].to_numpy()
    mid = int(ids.min() + (ids.max() - ids.min() + 1) // 2)

    halves = []
    for name, expr in (("mgA", f"doc_id < {mid}"), ("mgB", f"doc_id >= {mid}")):
        d = documents_index_dir(sf_dir, variant=name)
        build_index(
            read_documents_table(sf_dir).filter(expr=expr),
            d, source_files=[src], tokenizer="simple",
            num_shards=max(1, NUM_SHARDS // 2),
            hot_df_threshold=HOT_DF_THRESHOLD, salt_factor=SALT_FACTOR,
            exact_termstats=False,
        )
        halves.append(d)
    merged = documents_index_dir(sf_dir, variant="merged")
    merge_indexes(halves, merged)
    return _run_battery(merged, queries, k, algo)


def run_bm25_queries_filtered(
    sf_dir: str, lang: str = "fr", queries=BM25_QUERIES, k: int = 10,
    algo: str = "bmw",
) -> pd.DataFrame:
    """The battery with a query-time metadata filter: only docs whose
    docmeta ``lang`` matches are ranked; corpus stats (idf, avgdl)
    stay GLOBAL — the tombstone semantics of a search-time
    restriction, not a per-language rebuild. The reference scores
    every caption unconditionally (server.py:147-166); this is the
    metadata-predicate retrieval an LLM-data pipeline needs. Oracle:
    the full-corpus BM25 CTE with ranked_where on documents.lang."""
    return _run_battery(
        build_documents_index(sf_dir), queries, k, algo,
        doc_filter=("lang", lang),
    )


def run_bm25_queries_delta(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, algo: str = "bmw"
) -> pd.DataFrame:
    """The same battery over an index built INCREMENTALLY: initial
    build on the lower half of the documents table, then
    ``extend_index`` with the upper half (the reference's
    re-run-to-extend workflow, db.py:114-116). Must be rank- and
    score-identical to the full-corpus build — its SQL oracle is the
    plain full-corpus BM25 oracle."""
    import pyarrow.parquet as pq

    from .build import build_index, extend_index

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    half = n // 2
    index_dir = documents_index_dir(sf_dir, variant=f"delta-{half}")
    ds = read_documents_table(sf_dir)
    build_index(
        ds.filter(expr=f"doc_id < {half}"),
        index_dir,
        source_files=[f"{sf_dir}/documents.parquet"],
        tokenizer="simple",
        num_shards=NUM_SHARDS,
        hot_df_threshold=HOT_DF_THRESHOLD,
        salt_factor=SALT_FACTOR,
    )
    extend_index(
        ds.filter(expr=f"doc_id >= {half}"),
        index_dir,
        delta_id=f"upper-{half}",
    )
    return _run_battery(index_dir, queries, k, algo)


DELETE_MOD = 7  # the deterministic driver delete set: doc_id % 7 == 0


def build_documents_index_deleted(sf_dir: str) -> str:
    """Full build + tombstone every doc_id % DELETE_MOD == 0
    (reference delete_record, vector_db.py:54-58)."""
    import pyarrow.parquet as pq

    from .maintenance import delete_docs

    index_dir = documents_index_dir(sf_dir, variant="del7")
    ds = read_documents_table(sf_dir)
    build_index(
        ds,
        index_dir,
        source_files=[f"{sf_dir}/documents.parquet"],
        tokenizer="simple",
        num_shards=NUM_SHARDS,
        hot_df_threshold=HOT_DF_THRESHOLD,
        salt_factor=SALT_FACTOR,
    )
    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    delete_docs(index_dir, range(0, n, DELETE_MOD))
    return index_dir


def run_bm25_queries_deleted(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, algo: str = "bmw"
) -> pd.DataFrame:
    """Battery over the tombstoned index: deleted docs never appear in
    any top-k, remaining docs keep their pre-delete scores (stats stay
    stale until compaction — the tombstone contract). Oracle: BM25
    over the FULL corpus stats with deleted docs filtered before
    ranking."""
    return _run_battery(build_documents_index_deleted(sf_dir), queries, k, algo)


def run_bm25_queries_compacted(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, algo: str = "bmw"
) -> pd.DataFrame:
    """Battery after ``compact_index`` materializes the tombstones:
    scores now equal a fresh build of the corpus WITHOUT the deleted
    docs (stats recomputed). Oracle: BM25 over the filtered corpus."""
    from .maintenance import compact_index

    src = build_documents_index_deleted(sf_dir)
    out = documents_index_dir(sf_dir, variant="del7-compacted")
    compact_index(src, out)
    return _run_battery(out, queries, k, algo)


def run_bm25_queries_delta_dedup(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, algo: str = "bmw"
) -> pd.DataFrame:
    """Full build, then an extend whose delta is RE-SENT content
    (copies of the lower half under fresh doc_ids) with
    ``skip_existing_content=True`` — the reference's md5-presence skip
    at content granularity. Everything in the delta is dropped, so
    results must equal the plain full-corpus build and its BM25 SQL
    oracle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .build import build_index, extend_index

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    index_dir = documents_index_dir(sf_dir, variant=f"dedupskip-{n}")
    ds = read_documents_table(sf_dir)
    build_index(
        ds,
        index_dir,
        source_files=[f"{sf_dir}/documents.parquet"],
        tokenizer="simple",
        num_shards=NUM_SHARDS,
        hot_df_threshold=HOT_DF_THRESHOLD,
        salt_factor=SALT_FACTOR,
    )

    def shift_ids(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"),
            "doc_id",
            pa.compute.add(batch["doc_id"], pa.scalar(n, pa.uint64())),
        )

    resent = ds.filter(expr=f"doc_id < {n // 2}").map_batches(
        shift_ids, batch_format="pyarrow"
    )
    extend_index(
        resent, index_dir, delta_id=f"resent-{n}", skip_existing_content=True
    )
    return _run_battery(index_dir, queries, k, algo)


def run_bm25_queries_dedup_build(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, algo: str = "bmw"
) -> pd.DataFrame:
    """Initial build with ``dedup=True`` over a corpus where every doc
    arrives TWICE (full documents table + a doc_id-shifted copy) — the
    reference's UNIQUE(md5) ingest constraint (db.py:32) enforced at
    initial build, not just on extend. One doc per distinct content
    (min doc_id) survives, so the oracle is BM25 over
    ``SELECT min(doc_id), text ... GROUP BY text`` of the doubled
    corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    # shift by span (max id + 1), not row count — collision-free even
    # for sparse id spaces; single-column scan, driver holds a scalar
    ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    span = int(pa.compute.max(ids["doc_id"]).as_py()) + 1
    index_dir = documents_index_dir(sf_dir, variant=f"dedup-build-{span}")
    ds = read_documents_table(sf_dir)

    def shift_ids(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"),
            "doc_id",
            pa.compute.add(batch["doc_id"].cast(pa.uint64()), pa.scalar(span, pa.uint64())),
        )

    doubled = ds.union(ds.map_batches(shift_ids, batch_format="pyarrow"))
    build_index(
        doubled,
        index_dir,
        source_files=[f"{sf_dir}/documents.parquet"],
        tokenizer="simple",
        num_shards=NUM_SHARDS,
        hot_df_threshold=HOT_DF_THRESHOLD,
        salt_factor=SALT_FACTOR,
        dedup=True,
    )
    return _run_battery(index_dir, queries, k, algo)


def _run_battery(
    index_dir: str, queries, k: int, algo: str, doc_filter=None, **scorer_kw
) -> pd.DataFrame:
    import numpy as np
    import ray
    import ray.data

    # load the index once, share it with the pool via the object store
    # (zero-copy per actor; see QueryScorer.reader_ref)
    reader_ref = ray.put(IndexReader(index_dir))
    qds = ray.data.from_items(list(queries))
    out = qds.map_batches(
        QueryScorer,
        fn_constructor_kwargs={
            "reader_ref": reader_ref, "k": k, "algo": algo,
            "doc_filter": doc_filter, **scorer_kw,
        },
        batch_format="pandas",
        concurrency=2,
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "score_e6"]}
        )
    out["score_e6"] = np.floor(out["score"].to_numpy(np.float64) * 1e6 + 0.5).astype(np.int64)
    out = out[["qid", "rank", "doc_id", "score_e6"]].astype("int64")
    return out.sort_values(["qid", "rank"]).reset_index(drop=True)


def run_bm25_queries_prf(
    sf_dir: str, queries=BM25_QUERIES, k: int = 10, fb_docs: int = 5,
    fb_terms: int = 8, beta: float = 0.5,
) -> pd.DataFrame:
    """The battery with pseudo-relevance-feedback expansion
    (IndexReader.search_prf): base top-``fb_docs`` as the feedback
    set, ``fb_terms`` expansion terms by summed-tf·idf (deterministic
    term-asc tie-break), re-scored with original terms at idf weight
    and expansion terms at ``beta``·idf. SQL-oracle-checkable because
    every step (base ranking, term selection, weighted re-score) is a
    pure function of the tf/df/dl tables."""
    return _run_battery(
        build_documents_index(sf_dir), queries, k, "prf",
        fb_docs=fb_docs, fb_terms=fb_terms, beta=beta,
    )


def run_bm25_explain(
    sf_dir: str, queries=BM25_QUERIES, top_docs: int = 3,
) -> pd.DataFrame:
    """Lucene-style score explanations for the battery's top
    ``top_docs`` hits: one row per (qid, doc, matching query term)
    with tf, exact global df and the e6-rounded BM25 contribution.
    Per-doc contributions sum to the hit's ranked score bitwise
    (IndexReader.explain). Driver-side loop is battery-sized (8
    frozen queries), never data-sized."""
    import numpy as np

    reader = IndexReader(build_documents_index(sf_dir))
    rows = []
    for q in queries:
        hits = reader.search_taat(q["query"], top_docs)
        for e in reader.explain(q["query"], [d for d, _ in hits]):
            rows.append((
                q["qid"], e["doc_id"], e["term"], e["tf"], e["df"],
                int(np.floor(e["contribution"] * 1e6 + 0.5)),
            ))
    out = pd.DataFrame(
        rows, columns=["qid", "doc_id", "term", "tf", "df",
                       "contribution_e6"],
    )
    for c in ("qid", "doc_id", "tf", "df", "contribution_e6"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["qid", "doc_id", "term"]).reset_index(drop=True)


def segment_summary(sf_dir: str) -> pd.DataFrame:
    """Per-shard (shard, n_terms, n_postings) — SQL-checkable via the
    doc-range shard function shard = doc_id * S // span."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir)
    rows = []
    for s, sh in enumerate(reader.shards):
        rows.append((s, sh.n_terms, sh.df_local_sum))
    return pd.DataFrame(rows, columns=["shard", "n_terms", "n_postings"]).astype("int64")


def flagship_entry(sf_dir: str) -> pd.DataFrame:
    """entry(): build + query + hydrate on the smallest testdata."""
    from .query import hydrate_hits

    hits = run_bm25_queries(sf_dir, k=5)
    index_dir = documents_index_dir(sf_dir)
    return hydrate_hits(hits, index_dir)


# Frozen boolean-clause battery (Lucene BooleanQuery shapes over the
# documents vocabulary): pure-AND, AND+OR, pure-OR with exclusion,
# multi-NOT, an unsatisfiable must ('zebra' has df 0 -> qid 5 empty),
# and a must/should TERM OVERLAP (qid 7: 'window' scores once).
BOOLEAN_QUERIES = [
    {"qid": 1, "must": "hash join", "should": "stream batch", "must_not": ""},
    {"qid": 2, "must": "dup", "should": "key vector", "must_not": ""},
    {"qid": 3, "must": "", "should": "spark window", "must_not": "slow"},
    {"qid": 4, "must": "merge sort fast", "should": "", "must_not": "dup"},
    {"qid": 5, "must": "customer zebra", "should": "table", "must_not": ""},
    {"qid": 6, "must": "scan", "should": "filter table", "must_not": "big small"},
    {"qid": 7, "must": "window", "should": "window order", "must_not": ""},
]

# Frozen prefix battery: multi-expansion ('s' matches 6 vocab terms —
# exercises the max_expansions=4 cap: lexicographically-first wins),
# single, no-hit, and exact-term-as-prefix shapes.
PREFIX_QUERIES = [
    {"qid": 1, "prefix": "s"},
    {"qid": 2, "prefix": "st"},
    {"qid": 3, "prefix": "co"},
    {"qid": 4, "prefix": "qu"},
    {"qid": 5, "prefix": "b"},
    {"qid": 6, "prefix": "zz"},
    {"qid": 7, "prefix": "dup"},
]
PREFIX_MAX_EXPANSIONS = 4

# Frozen fuzzy battery (edit distance <= 1, first char pinned):
# substitutions, an insertion ('batchh'), a deletion ('vale'->value),
# a MULTI-match ('ag' is 1 edit from both 'a' and 'agg'), a no-match,
# and an exact vocabulary hit ('sort').
FUZZY_QUERIES = [
    {"qid": 1, "word": "hask"},
    {"qid": 2, "word": "streem"},
    {"qid": 3, "word": "joon"},
    {"qid": 4, "word": "batchh"},
    {"qid": 5, "word": "vale"},
    {"qid": 6, "word": "ag"},
    {"qid": 7, "word": "zebra"},
    {"qid": 8, "word": "sort"},
]
FUZZY_MAX_EDITS = 1
FUZZY_MAX_EXPANSIONS = 8

# Frozen query-time synonym map (one-directional: a query term pulls
# in its expansions; expansions never chain). Mostly vocabulary words
# so the OR-set really widens; 'rapid'/'huge' are deliberate
# out-of-vocabulary expansions (df=0 terms must score nothing).
SYNONYMS = {
    "fast": ("quick", "rapid"),
    "quick": ("fast",),
    "merge": ("join",),
    "table": ("row", "column"),
    "stream": ("batch",),
    "big": ("large", "huge"),
    "small": ("big",),
}
# Frozen wildcard battery: prefix-ish, suffix (leading-* -> the
# lazily-built per-shard REVERSED-term dictionary range), doubly-open
# infix (the one remaining scan shape), no-hit and exact (no star).
WILDCARD_QUERIES = [
    {"qid": 1, "pattern": "s*"},
    {"qid": 2, "pattern": "*er"},
    {"qid": 3, "pattern": "st*am"},
    {"qid": 4, "pattern": "*a*"},
    {"qid": 5, "pattern": "zz*qq"},
    {"qid": 6, "pattern": "sort"},
]
WILDCARD_MAX_EXPANSIONS = 8

# Frozen regex battery (Lucene RegexpQuery shape; anchored full
# match): literal-prefix-pruned, class head (dictionary scan),
# optional-char, alternation head (scan), no-hit, pure literal, and a
# quantifier directly after the first literal char (prefix must drop
# to 's'). Patterns use only syntax RE2 (DuckDB) and Python `re`
# evaluate identically — no lookaround, no backreferences.
REGEX_QUERIES = [
    {"qid": 1, "pattern": "s.*m"},
    {"qid": 2, "pattern": "[sb]ort"},
    {"qid": 3, "pattern": "st.?eam"},
    {"qid": 4, "pattern": "(row|col).*"},
    {"qid": 5, "pattern": "zz+q*"},
    {"qid": 6, "pattern": "sort"},
    {"qid": 7, "pattern": "so*rt"},
]
REGEX_MAX_EXPANSIONS = 8

# Frozen boosted battery (term^boost clause syntax): plain boost,
# fractional + heavy boost, no boosts (must equal plain BM25), a
# repeated term (boosts sum: fast^2 fast == fast^3), a boosted
# out-of-vocabulary term (contributes nothing), three-way mix. All
# boost values are exact float64 literals so the SQL mirror is
# bit-identical.
BOOSTED_QUERIES = [
    {"qid": 1, "query": "sort^2 merge"},
    {"qid": 2, "query": "stream^0.5 batch^3"},
    {"qid": 3, "query": "table row"},
    {"qid": 4, "query": "fast^2 fast"},
    {"qid": 5, "query": "zebra^5 sort"},
    {"qid": 6, "query": "join^1.5 window^0.25 scan"},
]

SYNONYM_QUERIES = [
    {"qid": 1, "query": "fast merge"},
    {"qid": 2, "query": "slow scan"},       # no synonyms at all
    {"qid": 3, "query": "big table stream"},
    {"qid": 4, "query": "window merge"},
    {"qid": 5, "query": "quick zebra"},      # no-hit term + mapped term
    {"qid": 6, "query": "small sort"},
]


# per clause battery: the row field holding the query text (boolean
# rows carry must / should / must_not instead) and its compile options
_BATTERY_PLANS = {
    "boolean": (None, {}),
    "prefix": ("prefix", {"max_expansions": PREFIX_MAX_EXPANSIONS}),
    "fuzzy": ("word", {"max_edits": FUZZY_MAX_EDITS,
                       "max_expansions": FUZZY_MAX_EXPANSIONS}),
    "wildcard": ("pattern", {"max_expansions": WILDCARD_MAX_EXPANSIONS}),
    "regex": ("pattern", {"max_expansions": REGEX_MAX_EXPANSIONS}),
    "boosted": ("query", {}),
    "synonym": ("query", {}),
}


class _ClauseScorer:
    """Actor-pool callable for the clause/expansion batteries — same
    pool shape as ``QueryScorer`` (reader shared zero-copy via
    ``reader_ref``): each batch compiles to plans of one ``mode`` and
    runs as one ``IndexReader.topk`` call."""

    def __init__(self, reader_ref, k: int, mode: str):
        import ray as _ray

        self.reader = _ray.get(reader_ref)
        self.k = k
        self.mode = mode

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        field, opts = _BATTERY_PLANS[self.mode]
        hits = self.reader.topk([
            self.reader.compile(self.mode, row[field] if field else "",
                                {**row, **opts}, qid=int(row["qid"]))
            for row in batch.to_dict("records")
        ], self.k)
        return pd.DataFrame({
            "qid": pd.Series([h["qid"] for h in hits], dtype="int64"),
            "rank": pd.Series([h["rank"] for h in hits], dtype="int64"),
            "doc_id": pd.Series([h["doc_id"] for h in hits], dtype="int64"),
            "score": pd.Series([h["score"] for h in hits], dtype="float64"),
        })


def _run_clause_battery(sf_dir: str, queries, k: int, mode: str) -> pd.DataFrame:
    import numpy as np
    import ray
    import ray.data

    reader_ref = ray.put(IndexReader(build_documents_index(sf_dir)))
    out = ray.data.from_items(list(queries)).map_batches(
        _ClauseScorer,
        fn_constructor_kwargs={"reader_ref": reader_ref, "k": k, "mode": mode},
        batch_format="pandas",
        concurrency=2,
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "score_e6"]}
        )
    out["score_e6"] = np.floor(out["score"].to_numpy(np.float64) * 1e6 + 0.5).astype(np.int64)
    out = out[["qid", "rank", "doc_id", "score_e6"]].astype("int64")
    return out.sort_values(["qid", "rank"]).reset_index(drop=True)


def run_boolean_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Boolean must/should/must_not battery (see BOOLEAN_QUERIES)."""
    return _run_clause_battery(sf_dir, BOOLEAN_QUERIES, k, "boolean")


def run_prefix_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Prefix-expansion battery (see PREFIX_QUERIES)."""
    return _run_clause_battery(sf_dir, PREFIX_QUERIES, k, "prefix")


def run_fuzzy_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Fuzzy (edit-distance-1) battery (see FUZZY_QUERIES)."""
    return _run_clause_battery(sf_dir, FUZZY_QUERIES, k, "fuzzy")


def run_wildcard_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Wildcard battery (see WILDCARD_QUERIES): dictionary expansion
    via prefix-range scan + anchored regex tail (leading-* falls back
    to a dictionary scan — the reversed-dictionary seam), OR-scored."""
    return _run_clause_battery(sf_dir, WILDCARD_QUERIES, k, "wildcard")


def run_regex_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Regex battery (see REGEX_QUERIES): dictionary expansion via the
    literal-prefix range probe + anchored full match (patterns with a
    class/alternation head fall back to a dictionary scan), OR-scored
    with per-term idf."""
    return _run_clause_battery(sf_dir, REGEX_QUERIES, k, "regex")


def run_boosted_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Boosted battery (see BOOSTED_QUERIES): Lucene ``term^boost``
    clause syntax, each term scoring boost·idf through the weighted OR
    path — an unboosted query is bitwise plain BM25."""
    return _run_clause_battery(sf_dir, BOOSTED_QUERIES, k, "boosted")


def run_collapse_queries(
    sf_dir: str, field: str = "lang", k: int = 10, queries=BM25_QUERIES,
) -> pd.DataFrame:
    """Field-collapsed search over the frozen BM25 battery: per query
    the best ``k`` groups of ``docmeta[field]``, each represented by
    its (score desc, doc_id asc) leader hit plus the group's FULL
    match-set size (one result per source, with how many it hides).

    Runs through the SHARDED service on purpose — collapse is a mode
    whose distributed form differs structurally from the serial one
    (per-actor leader+count partials, router max-merge + count sum),
    so the oracle checks the distributed path. Identity with the
    serial reader is asserted in tests/test_query_modes.py."""
    import numpy as np
    import pandas as pd

    from .serving import ShardedQueryService

    index_dir = build_documents_index(sf_dir)
    svc = ShardedQueryService(index_dir, num_actors=2)
    try:
        rows = svc.topk([
            svc.compile("collapse", q["query"], {"collapse_field": field},
                        qid=q["qid"])
            for q in queries
        ], k=k)
    finally:
        svc.shutdown()
    if not rows:
        return pd.DataFrame({
            "qid": pd.Series(dtype="int64"),
            "rank": pd.Series(dtype="int64"),
            "doc_id": pd.Series(dtype="int64"),
            "score_e6": pd.Series(dtype="int64"),
            field: pd.Series(dtype="object"),
            "group_n": pd.Series(dtype="int64"),
        })
    out = pd.DataFrame(rows)
    out["score_e6"] = np.floor(
        out["score"].to_numpy(np.float64) * 1e6 + 0.5).astype(np.int64)
    out = out.rename(columns={"group": field})
    out = out[["qid", "rank", "doc_id", "score_e6", field, "group_n"]]
    for c in ("qid", "rank", "doc_id", "group_n"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["qid", "rank"]).reset_index(drop=True)


# Frozen range-facet bucket edges (token-length histogram; the last
# bucket is open-ended). Shared verbatim with the SQL VALUES list.
LENGTH_FACET_EDGES = [0, 8, 16, 24, 32, 48, 64]


def run_length_facet_queries(
    sf_dir: str, edges=LENGTH_FACET_EDGES, queries=BM25_QUERIES,
) -> pd.DataFrame:
    """Numeric range faceting over the frozen BM25 battery: the
    token-length histogram of each query's FULL match set (the
    Elasticsearch range-aggregation shape — the ranked page answers
    "best hits", this answers "how long are ALL the hits"). Runs
    through the SHARDED service (per-actor bucket partials over owned
    docs, router bucket-edge sum — presence-only, no df exchange);
    identity with the serial reader is asserted in
    tests/test_query_modes.py."""
    import pandas as pd

    from .serving import ShardedQueryService

    index_dir = build_documents_index(sf_dir)
    svc = ShardedQueryService(index_dir, num_actors=2)
    try:
        per_q = svc.length_facets(list(queries), list(edges))
    finally:
        svc.shutdown()
    rows = [
        (q["qid"], r["lo"], r["n"])
        for q, buckets in zip(queries, per_q)
        for r in buckets
    ]
    out = pd.DataFrame(rows, columns=["qid", "bucket_lo", "n_docs"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["qid", "bucket_lo"]).reset_index(drop=True)


def run_significant_queries(
    sf_dir: str, k: int = 10, sample_n: int = 50, queries=BM25_QUERIES,
) -> pd.DataFrame:
    """Significant-terms aggregation over the frozen BM25 battery:
    per query the top-``k`` terms over-represented in its match set vs
    the whole corpus (add-one log-odds of doc rates; foreground = the
    first ``sample_n`` matched ids ascending). Runs through the
    SHARDED service — per-actor ascending match-prefix scatter, one
    pruned docterms read + df exchange at the router; identity with
    the serial reader is asserted in tests/test_query_modes.py.
    Columns: qid, rank, term, fg_df, df, lor_e6."""
    import numpy as np
    import pandas as pd

    from .serving import ShardedQueryService

    index_dir = build_documents_index(sf_dir)
    svc = ShardedQueryService(index_dir, num_actors=2)
    try:
        rows = svc.topk_significant(list(queries), k=k, sample_n=sample_n)
    finally:
        svc.shutdown()
    cols = ["qid", "rank", "term", "fg_df", "df", "lor_e6"]
    if not rows:
        return pd.DataFrame({
            c: pd.Series(dtype="object" if c == "term" else "int64")
            for c in cols
        })
    out = pd.DataFrame(rows)
    out["lor_e6"] = np.floor(
        out["lor"].to_numpy(np.float64) * 1e6 + 0.5).astype(np.int64)
    out = out[cols]
    for c in ("qid", "rank", "fg_df", "df"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["qid", "rank"]).reset_index(drop=True)


def run_term_vector_queries(sf_dir: str, anchors=None) -> pd.DataFrame:
    """Term vectors (the Elasticsearch ``_termvectors`` shape) for the
    frozen anchor docs (PHRASE_ANCHORS): per (doc, term) the in-doc tf
    from ONE doc_id-pruned read of the index's own docterms checkpoint
    plus the exact global df — the stored-field inspection surface
    next to the ranked one. Columns: doc_id, term, tf, df."""
    import pandas as pd

    reader = IndexReader(build_documents_index(sf_dir))
    rows = reader.term_vectors(
        list(PHRASE_ANCHORS if anchors is None else anchors))
    out = pd.DataFrame(rows, columns=["doc_id", "term", "tf", "df"])
    for c in ("doc_id", "tf", "df"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_id", "term"]).reset_index(drop=True)


def run_synonym_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Query-time synonym expansion battery: every query term pulls in
    its SYNONYMS expansions (one hop, no chaining), the widened set is
    OR-scored with per-term idf — the SynonymGraphFilter-at-query-time
    contract. Out-of-vocabulary expansions contribute nothing."""
    return _run_clause_battery(sf_dir, SYNONYM_QUERIES, k, "synonym")


def run_facet_queries(
    sf_dir: str, facet_cols: tuple[str, ...] = ("lang", "repo"),
    queries=BM25_QUERIES,
) -> pd.DataFrame:
    """Faceted search over the frozen BM25 battery: for every query,
    the distribution of the FULL match set (docs containing ≥1 query
    term — the population behind the ranked page, not the page) over
    each docmeta facet column. Output one row per
    (qid, facet_field, facet_value) with the matching-doc count.

    Runs through the SHARDED service on purpose — faceting is the
    mode whose distributed form differs most from the serial one
    (per-actor bincount partials summed by value string at the router,
    no df exchange needed: presence is idf-free), so the oracle checks
    the distributed path. Identity with the serial reader is asserted
    in tests/test_serving.py."""
    import pandas as pd

    from .serving import ShardedQueryService

    index_dir = build_documents_index(sf_dir)
    svc = ShardedQueryService(index_dir, num_actors=2)
    try:
        per_q = svc.facets(list(queries), list(facet_cols))
    finally:
        svc.shutdown()
    # docmeta stores the documents table's `source` under `repo`
    # (read_documents_table's corpus-shape mapping) — surface the
    # original table column name to the user / oracle
    display = {"repo": "source"}
    rows = []
    for q, fc in zip(queries, per_q):
        for col in facet_cols:
            for value, n in fc[col].items():
                rows.append((q["qid"], display.get(col, col), value, n))
    out = pd.DataFrame(
        rows, columns=["qid", "facet_field", "facet_value", "n_docs"]
    )
    out["qid"] = out["qid"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values(
        ["qid", "facet_field", "facet_value"]
    ).reset_index(drop=True)


# anchor doc ids whose first tokens become the frozen phrase battery
# (data-derived, so the battery exists at every scale factor)
PHRASE_ANCHORS = (0, 7, 23, 42, 99)


def run_mlt_queries(
    sf_dir: str, k: int = 10, max_terms: int = 8, anchors=PHRASE_ANCHORS,
) -> pd.DataFrame:
    """More-like-this battery (Lucene MLT shape): for each anchor doc,
    select its ``max_terms`` highest-tf·idf terms (tf in the anchor,
    exact global idf, ties term-asc), OR-score them with per-term idf,
    drop the anchor itself, top-k. qid = anchor doc_id.

    Runs through the SHARDED service — term selection happens at the
    router from the pooled df exchange, so the oracle checks the
    distributed selection + scatter-gather path end to end. Anchor
    text is one doc-id-pruned parquet read (the stored-field access
    Lucene MLT re-analyzes; never a corpus scan)."""
    import numpy as np
    import pyarrow.dataset as pads

    from .serving import ShardedQueryService

    index_dir = build_documents_index(sf_dir)
    anchor_t = pads.dataset(
        f"{sf_dir}/documents.parquet", format="parquet"
    ).to_table(
        columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(list(anchors)),
    )
    texts = dict(zip(anchor_t["doc_id"].to_pylist(), anchor_t["text"].to_pylist()))
    svc = ShardedQueryService(index_dir, num_actors=2)
    try:
        hits = svc.topk([
            svc.compile("more_like_this", texts.get(a) or "",
                        {"max_terms": max_terms, "exclude_doc": a}, qid=a)
            for a in anchors
        ], k=k)
    finally:
        svc.shutdown()
    if not hits:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "score_e6"]}
        )
    out = pd.DataFrame(hits)
    out["score_e6"] = np.floor(
        out["score"].to_numpy(np.float64) * 1e6 + 0.5).astype(np.int64)
    out = out[["qid", "rank", "doc_id", "score_e6"]].astype("int64")
    return out.sort_values(["qid", "rank"]).reset_index(drop=True)


def run_phrase_queries(
    sf_dir: str, k: int = 10, n_tokens: int = 3, anchors=PHRASE_ANCHORS,
) -> pd.DataFrame:
    """Phrase search (exact contiguous-token match) over the documents
    index: for each anchor doc, the phrase is its first ``n_tokens``
    tokens; results are docs whose token stream CONTAINS that phrase,
    ranked by the BM25 score of the phrase's terms (the standard
    "phrase filter + rank" semantics; the reference's engine has no
    phrase operator — Milvus is vector-only — so this is fulltext
    surface the reference can't express).

    Two-stage plan, index-first:

    1. **candidates** — ``IndexReader.conjunctive_scores``: docs
       containing EVERY phrase term (AND over postings), scores
       accumulated in the same TAAT pass. No corpus text touched.
    2. **adjacency verify** — one doc-id-pruned parquet read of just
       the candidate union (predicate pushdown skips non-candidate row
       groups), tokenized per batch in an actor pool; a doc matches if
       ``" ".join(tokens)`` contains the space-joined phrase with
       space padding (tokens are [a-z0-9]+ — exactly the contiguous
       subsequence test, and exactly what the SQL oracle's LIKE does).

    The candidate stage prunes hard for multi-word phrases (AND of
    dfs), so the verify scan is tiny relative to the corpus. A
    positional-postings sidecar (positions per (term, doc) written at
    build, adjacency checked by intersecting position lists) is the
    documented optimization seam for phrase-heavy workloads — it drops
    stage 2's text re-read entirely at the cost of index bytes.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray
    import ray.data

    from ..functions.tokenizer import tokenize_simple

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir)
    src = f"{sf_dir}/documents.parquet"

    anchor_t = pads.dataset(src, format="parquet").to_table(
        columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(list(anchors)),
    )
    texts = dict(zip(anchor_t["doc_id"].to_pylist(), anchor_t["text"].to_pylist()))

    phrases: dict[int, list[str]] = {}
    cands: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for qid in anchors:
        toks = tokenize_simple(texts.get(qid) or "")[:n_tokens]
        if not toks:
            continue
        phrases[qid] = toks
        cands[qid] = reader.conjunctive_scores(toks)

    empty = pd.DataFrame(
        {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "score_e6"]}
    )
    union = np.unique(np.concatenate(
        [ids for ids, _ in cands.values()] or [np.empty(0, np.int64)]
    ))
    if not len(union):
        return empty

    payload = ray.put({
        qid: (" ".join(toks), cands[qid][0]) for qid, toks in phrases.items()
    })

    class VerifyAdjacency:
        def __init__(self):
            self.ph = ray.get(payload)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            padded = [
                " " + " ".join(tokenize_simple(tx or "")) + " "
                for tx in batch["text"].to_pylist()
            ]
            out_q, out_d = [], []
            for qid, (pstr, pids) in self.ph.items():
                needle = f" {pstr} "
                for j in np.flatnonzero(np.isin(ids, pids)):
                    if needle in padded[j]:
                        out_q.append(qid)
                        out_d.append(int(ids[j]))
            return pa.table({
                "qid": pa.array(out_q, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
            })

    matched = (
        ray.data.read_parquet(
            src, columns=["doc_id", "text"],
            filter=pads.field("doc_id").isin(pa.array(union, pa.int64())),
        )
        .map_batches(VerifyAdjacency, batch_format="pyarrow", concurrency=(1, 4))
        .to_pandas()
    )
    if matched.empty:
        return empty

    frames = []
    for qid in sorted(phrases):
        ids, scores = cands[qid]
        hit = np.unique(
            matched.loc[matched["qid"] == qid, "doc_id"].to_numpy(np.int64)
        )
        frame = _rank_verified(qid, ids, scores, hit, k)
        if frame is not None:
            frames.append(frame)
    if not frames:
        return empty
    return pd.concat(frames, ignore_index=True).astype("int64")


def _rank_verified(qid, cand_ids, cand_scores, hit, k) -> pd.DataFrame | None:
    """Shared tail of the verify-then-rank queries (phrase/proximity):
    take the verified subset of the conjunctive candidates, rank by
    (score desc, doc_id asc), truncate to k."""
    import numpy as np

    if not len(hit):
        return None
    s = cand_scores[np.searchsorted(cand_ids, hit)]  # ids sorted by contract
    order = np.lexsort((hit, -s))[: min(k, len(hit))]
    return pd.DataFrame({
        "qid": np.full(len(order), qid, np.int64),
        "rank": np.arange(1, len(order) + 1, dtype=np.int64),
        "doc_id": hit[order],
        "score_e6": np.floor(s[order] * 1e6 + 0.5).astype(np.int64),
    })


def run_phrase_queries_positional(
    sf_dir: str, k: int = 10, n_tokens: int = 3, anchors=PHRASE_ANCHORS,
) -> pd.DataFrame:
    """The positional-index form of ``run_phrase_queries``: identical
    semantics and output (same candidates, same ranking — its oracle is
    the same phrase SQL), but adjacency is verified from the positional
    sidecar's (term, doc, positions) rows instead of re-reading and
    re-tokenizing candidate text. The sidecar read is pushdown-pruned
    to the phrase's terms and candidate ids, so the verify stage costs
    O(candidate postings), not O(candidate text bytes)."""
    import numpy as np
    import pyarrow.dataset as pads

    from ..functions.tokenizer import tokenize_simple
    from ..sources.corpus_source import read_documents_table
    from .positions import build_positions_sidecar, verify_phrase_positions

    index_dir = build_documents_index(sf_dir)
    build_positions_sidecar(read_documents_table(sf_dir), index_dir)
    reader = IndexReader(index_dir)

    anchor_t = pads.dataset(
        f"{sf_dir}/documents.parquet", format="parquet"
    ).to_table(
        columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(list(anchors)),
    )
    texts = dict(zip(anchor_t["doc_id"].to_pylist(), anchor_t["text"].to_pylist()))

    frames = []
    for qid in anchors:
        toks = tokenize_simple(texts.get(qid) or "")[:n_tokens]
        if not toks:
            continue
        ids, scores = reader.conjunctive_scores(toks)
        if not len(ids):
            continue
        hit = verify_phrase_positions(index_dir, toks, ids)
        frame = _rank_verified(qid, ids, scores, hit, k)
        if frame is not None:
            frames.append(frame)
    if not frames:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "score_e6"]}
        )
    return pd.concat(frames, ignore_index=True).astype("int64")


def run_snippet_queries(
    sf_dir: str, k: int = 5, window: int = 8, queries=BM25_QUERIES,
) -> pd.DataFrame:
    """Snippet/highlight generation for the BM25 battery's top-k hits:
    per hit, the best ``window``-token span (max distinct query terms
    inside, ties leftmost; candidate starts are the query terms'
    occurrence positions) plus the snippet TEXT — the highlighter every
    search UI needs, computed index-first:

    1. ranked hits from the battery (the existing top-k path);
    2. ``best_window_positions`` over the positional sidecar, pruned
       to (query terms × hit ids) — never a corpus scan;
    3. ONE doc-id-pruned corpus read of just the hit docs to render
       the snippet string (tokens[start : start+window] joined).

    Output (qid, doc_id, snip_start, n_match, snippet)."""
    import numpy as np
    import pyarrow.dataset as pads

    from ..functions.tokenizer import tokenize_simple
    from ..sources.corpus_source import read_documents_table
    from .positions import best_window_positions, build_positions_sidecar

    index_dir = build_documents_index(sf_dir)
    build_positions_sidecar(read_documents_table(sf_dir), index_dir)
    hits = run_bm25_queries(sf_dir, queries=queries, k=k)

    all_ids = np.unique(hits["doc_id"].to_numpy(np.int64)) if len(hits) else []
    texts: dict[int, str] = {}
    if len(all_ids):
        t = pads.dataset(
            f"{sf_dir}/documents.parquet", format="parquet"
        ).to_table(
            columns=["doc_id", "text"],
            filter=pads.field("doc_id").isin(list(all_ids)),
        )
        texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

    frames = []
    for q in queries:
        terms = sorted(set(tokenize_simple(q["query"])))
        ids = hits.loc[hits["qid"] == q["qid"], "doc_id"].to_numpy(np.int64)
        if not len(ids) or not terms:
            continue
        best = best_window_positions(index_dir, terms, window, ids)
        if best.empty:
            continue
        best.insert(0, "qid", int(q["qid"]))
        snips = []
        for _, r in best.iterrows():
            toks = tokenize_simple(texts.get(int(r["doc_id"])) or "")
            s = int(r["snip_start"])
            snips.append(" ".join(toks[s:s + window]))
        best["snippet"] = snips
        frames.append(best)
    if not frames:
        return pd.DataFrame({
            "qid": pd.Series(dtype="int64"),
            "doc_id": pd.Series(dtype="int64"),
            "snip_start": pd.Series(dtype="int64"),
            "n_match": pd.Series(dtype="int64"),
            "snippet": pd.Series(dtype="str"),
        })
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["qid", "doc_id"]).reset_index(drop=True)


# Frozen span-near battery: terms must appear IN THE GIVEN ORDER within
# a `window`-token span (last chosen position - first <= window) — the
# Lucene span_near(in_order=true) shape, stricter than proximity. Term
# ORDER is semantic here, so entries are not sorted. qid 5 reverses
# qid 1's order (different answers prove orderedness); qid 6 is df-0.
SPANNEAR_QUERIES = [
    {"qid": 1, "terms": "hash join", "window": 4},
    {"qid": 2, "terms": "merge sort", "window": 3},
    {"qid": 3, "terms": "fast scan filter", "window": 7},
    {"qid": 4, "terms": "window group", "window": 6},
    {"qid": 5, "terms": "join hash", "window": 4},
    {"qid": 6, "terms": "zebra scan", "window": 5},
]


def run_spannear_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Ordered span-near search over the positional sidecar: candidates
    are the conjunctive (all-terms) docs from the postings, verification
    is the greedy ordered-chain sweep (`verify_spannear_positions`),
    ranking is the BM25 sum over the DISTINCT query terms (all present
    by construction) — the same rank surface as phrase/proximity."""
    import numpy as np

    from ..functions.tokenizer import tokenize_simple
    from ..sources.corpus_source import read_documents_table
    from .positions import build_positions_sidecar, verify_spannear_positions

    index_dir = build_documents_index(sf_dir)
    build_positions_sidecar(read_documents_table(sf_dir), index_dir)
    reader = IndexReader(index_dir)

    frames = []
    for q in SPANNEAR_QUERIES:
        ordered = tokenize_simple(q["terms"])  # order preserved
        terms = sorted(set(ordered))
        ids, scores = reader.conjunctive_scores(terms)
        if not len(ids):
            continue
        hit = verify_spannear_positions(index_dir, ordered, q["window"], ids)
        frame = _rank_verified(q["qid"], ids, scores, hit, k)
        if frame is not None:
            frames.append(frame)
    if not frames:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "score_e6"]}
        )
    return pd.concat(frames, ignore_index=True).astype("int64")


# Frozen proximity battery: ALL terms within a `window`-token span
# (unordered; span = max chosen position - min chosen position).
# 2-term pairs, one 3-term entry, one df-0 term (qid 6 -> empty).
PROXIMITY_QUERIES = [
    {"qid": 1, "terms": "hash join", "window": 4},
    {"qid": 2, "terms": "merge sort", "window": 2},
    {"qid": 3, "terms": "spark window", "window": 6},
    {"qid": 4, "terms": "dup key", "window": 8},
    {"qid": 5, "terms": "fast scan filter", "window": 6},
    {"qid": 6, "terms": "zebra scan", "window": 5},
]


def run_proximity_queries(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Proximity search over the positional sidecar: candidates are the
    conjunctive (all-terms) docs from the postings, verification is the
    minimal-cover sweep over their position lists, ranking is the BM25
    sum of the query terms (same scores as the conjunctive stage)."""
    import numpy as np

    from ..functions.tokenizer import tokenize_simple
    from ..sources.corpus_source import read_documents_table
    from .positions import build_positions_sidecar, verify_proximity_positions

    index_dir = build_documents_index(sf_dir)
    build_positions_sidecar(read_documents_table(sf_dir), index_dir)
    reader = IndexReader(index_dir)

    frames = []
    for q in PROXIMITY_QUERIES:
        terms = sorted(set(tokenize_simple(q["terms"])))
        ids, scores = reader.conjunctive_scores(terms)
        if not len(ids):
            continue
        hit = verify_proximity_positions(index_dir, terms, q["window"], ids)
        frame = _rank_verified(q["qid"], ids, scores, hit, k)
        if frame is not None:
            frames.append(frame)
    if not frames:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "score_e6"]}
        )
    return pd.concat(frames, ignore_index=True).astype("int64")
