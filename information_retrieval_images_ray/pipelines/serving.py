"""Sharded query serving: a stateful actor pool where each actor owns
a disjoint subset of index shards (north_star: "served by a stateful
actor pool holding index shards").

This is the one place the engine drops to raw ``@ray.remote`` actors:
a Dataset ``map_batches`` actor pool gives every actor the WHOLE index
(right for throughput batches, see ``QueryScorer``), but cluster-scale
serving partitions the index across actors — and then every query
needs a result merge across actors, which the Dataset API cannot
express as a per-batch transform.

Every query mode runs one path, ``PlanRunner.topk`` (query.py), which
the router shares with the serial ``IndexReader``:

1. **compile**: the caller turns a request into a plan
   (``query.compile_plan``: scored terms with boosts or an expansion
   spec, must / must-not terms, an optional positional verifier,
   after / collapse / exclude_doc, or a feedback step);
2. **expand**: one batched ``expand_batch`` round trip, only when some
   plan has a dictionary-expansion spec — each actor expands against
   its own dictionary subset, the router unions and re-caps;
3. **df**: ``_global_df`` sums per-actor ``df_locals`` into exact
   global df, turned into boost·idf weights (O(query terms) numbers).
   A pool caches every df > 0 it has learned: the index is immutable
   for the pool's lifetime, so a cached df stays exact, and only terms
   the pool has not seen yet cost an exchange;
4. **execute**: one ``ShardQueryActor.execute`` scatter — each actor
   runs ``IndexReader.execute`` for every plan over its owned shards;
5. **merge**: the router ranks with the engine-wide (score desc,
   doc_id asc) tie-break, max-merges collapse leaders, or verifies
   positional candidates against the positions sidecar.

MoreLikeThis and PRF plans first run their term selection at the
router (a df exchange; PRF also a base top-k call and a pruned
docterms read) and continue as weighted-OR plans that skip step 3. A
plain bm25 search is one round trip (the scatter) once its terms' df
are cached, two (df, then the scatter) before.

A pool is one immutable generation of the index: the HTTP server
builds a new one on every /extend, /delete and /reload. Besides its
actors it owns the index's docmeta, loaded once into memory sorted by
doc_id (``docmeta``), which ``serving_http.hydrate_hits`` serves from
with no disk read.

Rank/score identity with a single whole-index ``IndexReader`` holds by
construction (same plans, same weights, same per-shard executor, same
merge) and is asserted in tests/test_serving.py.

Reference analogue: the Milvus standalone server holding the
collection while the app queries it over the wire
(/root/reference/vector_db.py:12-31, server.py:128-177) — here the
"server" is N shard actors and the router is a thin library call.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

import pyarrow as pa
import ray

from ..functions.bm25 import idf as idf_fn
from .query import IndexReader, PlanRunner


def load_docmeta(index_dir: str) -> pa.Table:
    """The whole docmeta table in memory, sorted by an int64
    ``doc_id`` that comes first, without the hive ``shard`` key. Its
    columns are the union over all partitions: an extend that brought
    columns the base build lacked leaves them null on the base docs."""
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(index_dir, "docmeta", "**", "*.parquet"),
                             recursive=True))
    if not files:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    t = pa.concat_tables([pq.read_table(f) for f in files],
                         promote_options="permissive")
    rest = [c for c in t.column_names if c not in ("doc_id", "shard")]
    t = pa.table([t["doc_id"].cast(pa.int64())] + [t[c] for c in rest],
                 names=["doc_id", *rest])
    return t.sort_by("doc_id").combine_chunks()


@ray.remote
class ShardQueryActor:
    """Owns a subset of shards; state loaded once in __init__."""

    def __init__(self, index_dir: str, shard_ids: list[int]):
        self.reader = IndexReader(index_dir, shards=shard_ids)

    def df_locals(self, terms: list[str]) -> dict[str, int]:
        return self.reader.df_locals(terms)

    def expand_batch(self, specs: list[tuple]) -> list[list[str]]:
        """All of a batch's expansion specs in ONE round trip."""
        return self.reader.expand_batch(specs)

    def execute(self, plans: list[dict], weights: list[dict[str, float]],
                k: int, doc_filter=None) -> list[list[tuple]]:
        """Per plan, ``IndexReader.execute`` over OWNED shards only.
        ``doc_filter`` is a ("col", value) docmeta predicate; each actor
        masks exactly the docs it owns, so the merged result equals a
        whole-index filtered search."""
        return [self.reader.execute(p, k, w, doc_filter)
                for p, w in zip(plans, weights)]

    def facet_counts(
        self, queries: list[dict], facet_cols: list[str], doc_filter=None,
    ) -> list[dict[str, dict[str, int]]]:
        """Per-query facet partials over OWNED shards (presence is
        df-independent, so no weight exchange is needed; the router
        sums value counts — exact, since shards partition docs)."""
        return [
            self.reader.facet_counts(q["query"], facet_cols, doc_filter)
            for q in queries
        ]

    def length_facets(
        self, queries: list[dict], edges: list[int], doc_filter=None,
    ) -> list[list[dict]]:
        """Per-query numeric range-facet partials over OWNED shards
        (presence-only like ``facet_counts`` — no weight exchange; the
        router sums bucket counts, exact since shards partition
        docs)."""
        return [
            self.reader.length_facets(q["query"], edges, doc_filter)
            for q in queries
        ]

    def match_prefix(
        self, queries: list[dict], n: int, doc_filter=None,
    ) -> list[list[int]]:
        """Per query the first ``n`` OWNED matched doc ids ascending —
        the router's global ascending sample is the merged cut of
        these prefixes (exact: a global first-n id is in its own
        actor's first n)."""
        return [
            self.reader.match_ids(q["query"], doc_filter)[:n].tolist()
            for q in queries
        ]

    def explain(
        self, query: str, doc_ids: list[int],
        weights: dict[str, float], df_override: dict[str, int],
    ) -> list[dict]:
        """Per-(owned doc, term) BM25 breakdown; the router supplies
        global idf weights and global df from its df exchange (this
        reader's own df would be shard-local)."""
        return self.reader.explain(query, doc_ids, weights=weights,
                                   df_override=df_override)

    def ready(self) -> bool:
        return True


class ShardedQueryService(PlanRunner):
    """Router over a pool of ShardQueryActor, shards round-robined.
    Queries go through ``topk`` (see ``PlanRunner``); the hooks below
    are its backend over the actor pool."""

    def __init__(self, index_dir: str, num_actors: int = 4):
        from ..functions.tokenizer import get_tokenizer
        from .maintenance import load_tombstones

        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            stats = json.load(f)
        nsh = stats["num_shards"]
        self.n_docs = stats["n_docs"]
        self.tokenize = get_tokenizer(stats["tokenizer"])
        # the pool serves one tombstone generation (the HTTP server
        # swaps the pool when it changes), like its actors' readers
        self.tombstones = load_tombstones(index_dir)
        # global df per term, df > 0 only (bounded by the vocabulary)
        self._df: dict[str, int] = {}
        num_actors = max(1, min(num_actors, nsh))
        assign: list[list[int]] = [[] for _ in range(num_actors)]
        for s in range(nsh):
            assign[s % num_actors].append(s)
        self.actors = [
            ShardQueryActor.remote(index_dir, shard_ids) for shard_ids in assign
        ]
        # loaded while the actors start
        self.docmeta = load_docmeta(index_dir)
        ray.get([a.ready.remote() for a in self.actors])

    # -- PlanRunner backend: the actor pool ------------------------------------
    def _global_df(self, terms: list[str]) -> dict[str, int]:
        """Exact global df (shards partition the doc space, so
        per-actor df_local sums are exact); df 0 left out. Only terms
        missing from the pool's cache go to the actors, so a search
        whose terms are all cached makes no df exchange."""
        miss = [t for t in terms if t not in self._df]
        if miss:
            gdf: dict[str, int] = defaultdict(int)
            for part in ray.get([a.df_locals.remote(miss) for a in self.actors]):
                for t, n in part.items():
                    gdf[t] += n
            self._df.update(gdf)
        return {t: self._df[t] for t in terms if t in self._df}

    def _expand_specs(self, specs: list[tuple]) -> list[list[str]]:
        """ONE ``expand_batch`` round trip per actor for the whole
        batch, then per spec union, sort and cap."""
        per_actor = ray.get([a.expand_batch.remote(specs) for a in self.actors])
        return [
            sorted({t for lists in per_actor for t in lists[i]})[:cap]
            for i, (_, _, cap) in enumerate(specs)
        ]

    def _scatter(self, plans, weights, k: int, doc_filter) -> list[list]:
        return ray.get([a.execute.remote(plans, weights, k, doc_filter)
                        for a in self.actors])

    # -- non-ranking aggregations ------------------------------------------------
    def topk_significant(self, queries: list[dict], k: int = 10,
                         sample_n: int = 50, doc_filter=None) -> list[dict]:
        """Distributed significant-terms. queries: [{"qid", "query"}]
        → per query the top-k terms over-represented in its match set
        vs the corpus. Protocol: per-actor ascending match-id prefixes
        (one scatter, no df needed for presence) merge to the global
        first-``sample_n`` sample; ONE doc_id-pruned docterms read at
        the router; candidate df via the usual exchange; the SAME
        scoring floats as the serial reader (query.py
        _score_significant). Rows: {"qid", "rank", "term", "fg_df",
        "df", "lor"}."""
        from .query import _sample_doc_freqs, _score_significant

        prefixes = ray.get([
            a.match_prefix.remote(queries, sample_n, doc_filter)
            for a in self.actors
        ])
        per_q = []
        for qi, q in enumerate(queries):
            ids = sorted({d for p in prefixes for d in p[qi]})[:sample_n]
            fg = _sample_doc_freqs(self.index_dir, ids)
            exclude = set(self.tokenize(q["query"]))
            per_q.append((ids, fg, sorted(t for t in fg if t not in exclude)))
        gdf = self._global_df(sorted({t for _, _, c in per_q for t in c}))
        out = []
        for q, (ids, fg, cand) in zip(queries, per_q):
            rows = _score_significant(fg, gdf, len(ids), self.n_docs, cand, k)
            for rank, r in enumerate(rows, start=1):
                out.append({"qid": q["qid"], "rank": rank, **r})
        return out

    def explain(self, query: str, doc_ids: list[int]) -> list[dict]:
        """Whole-pool scoring explanation: one df exchange for exact
        global df/idf, then each actor explains the requested docs it
        OWNS (shards partition the doc space, so the concatenation is
        exactly a whole-index reader's explain). Rows come back
        (doc_id asc, term asc)."""
        gdf = self._global_df(sorted(set(self.tokenize(query))))
        weights = {t: idf_fn(self.n_docs, d) for t, d in gdf.items()}
        parts = ray.get([
            a.explain.remote(query, doc_ids, weights, gdf)
            for a in self.actors
        ])
        rows = [r for p in parts for r in p]
        rows.sort(key=lambda r: (r["doc_id"], r["term"]))
        return rows

    def facets(self, queries: list[dict], facet_cols: list[str],
               doc_filter=None) -> list[dict[str, dict[str, int]]]:
        """Distributed faceting: one scatter (no df exchange — presence
        needs no idf), per-actor vectorized counts over owned shards,
        router sums by value string. Returns one {col: {value: n}} per
        query, aligned with ``queries``."""
        parts = ray.get([
            a.facet_counts.remote(queries, facet_cols, doc_filter)
            for a in self.actors
        ])
        out: list[dict[str, dict[str, int]]] = []
        for qi in range(len(queries)):
            merged: dict[str, dict[str, int]] = {c: {} for c in facet_cols}
            for p in parts:
                for col, d in p[qi].items():
                    m = merged[col]
                    for v, n in d.items():
                        m[v] = m.get(v, 0) + n
            out.append(merged)
        return out

    def length_facets(self, queries: list[dict], edges: list[int],
                      doc_filter=None) -> list[list[dict]]:
        """Distributed numeric range faceting: one scatter (no df
        exchange — presence needs no idf), per-actor bucket counts
        over owned docs, router sums by bucket lower edge. Returns one
        ascending [{lo, n}, ...] (non-empty buckets only) per query,
        aligned with ``queries``."""
        parts = ray.get([
            a.length_facets.remote(queries, edges, doc_filter)
            for a in self.actors
        ])
        out: list[list[dict]] = []
        for qi in range(len(queries)):
            merged: dict[int, int] = {}
            for p in parts:
                for row in p[qi]:
                    merged[row["lo"]] = merged.get(row["lo"], 0) + row["n"]
            out.append([{"lo": lo, "n": merged[lo]} for lo in sorted(merged)])
        return out

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
