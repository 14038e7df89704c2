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
the router shares with the serial ``IndexReader``, behind a page cache
that only the router has:

1. **compile**: the caller turns a request into a plan
   (``query.compile_plan``: scored terms with boosts or an expansion
   spec, must / must-not terms, an optional positional verifier,
   after / collapse / exclude_doc, or a feedback step);
2. **cache**: ``ShardedQueryService.topk`` looks each plan up in its
   generation's page cache, keyed by the plan without ``qid``
   (sorted-key JSON), ``k``, ``offset`` and the ("col", value) filter.
   A hit is answered with no actor call; the misses of a batch,
   deduplicated, run steps 3-6 in one ``PlanRunner.topk`` call. A plan
   with a precomputed mask filter is not cached. Scope: one
   generation, which never changes; ``extended``, ``deleted`` and a
   fresh service start empty, so no page is served under other stats
   or tombstones. Bound: ``PAGE_CACHE_ROWS`` ranked rows, least
   recently used pages evicted first; a larger page is not stored;
3. **expand**: one batched ``expand_batch`` round trip, only when some
   plan has a dictionary-expansion spec — each actor expands against
   its own dictionary subset, the router unions and re-caps;
4. **df**: ``_global_df`` looks the exact global df up in the
   router's df table, with no actor call, and turns it into
   boost·idf weights. The table is built when a pool starts: each
   actor returns its shards' (term, df_local) rows
   (``IndexReader.term_dfs``) and the router sums them into one
   sorted term array plus an int64 df array, binary-searched like a
   shard's own dictionary (``query.SortedTerms``). It is
   O(vocabulary) in the router — about 4 B of offset, the term's
   UTF-8 bytes and 8 B of df per distinct term;
5. **execute**: one ``ShardQueryActor.execute`` scatter — each actor
   runs ``IndexReader.execute`` for every plan over its owned shards;
6. **merge**: the router ranks with the engine-wide (score desc,
   doc_id asc) tie-break, max-merges collapse leaders, or verifies
   positional candidates against the positions sidecar.

MoreLikeThis and PRF plans first run their term selection at the
router (a df lookup; PRF also a base top-k call and a pruned
docterms read) and continue as weighted-OR plans that skip step 4. A
plain bm25 search is at most one round trip: the scatter, one
``execute`` call per actor, and none when its page is cached.

A ``ShardedQueryService`` is one immutable generation of the served
index: the actor handles and each actor's shards, ``n_docs`` /
``avgdl`` / shard bounds (``stats``), the tombstones, the docmeta
table (held in memory sorted by doc_id, which
``serving_http.hydrate_hits`` serves from with no disk read), the
df table and the page cache. A request takes one generation and uses
it for every call it makes; each actor call names that generation, and an actor keeps
one ``IndexReader`` view per live generation, the views sharing the
loaded shards. Constructing the service starts a fresh actor set (the
HTTP server does that at start and on /reload). ``extended`` and
``deleted`` derive the next generation on the SAME actors: an extend
loads only the new shards, onto the least-loaded actor, appends their
docmeta rows and merges every (term, df_local) row of theirs into the
df table (a term only the new shards hold gains its entry); a delete
only swaps the tombstones and shares the table (stats stay stale
until compaction). When the last reference to a generation drops,
its actor views are retired with the partials cached under an avgdl
no live view uses, and an actor set is killed once no live
generation uses it.

Rank/score identity with a single whole-index ``IndexReader`` holds by
construction (same plans, same weights, same per-shard executor, same
merge) and is asserted in tests/test_serving.py.

Reference analogue: the Milvus standalone server holding the
collection while the app queries it over the wire
(/root/reference/vector_db.py:12-31, server.py:128-177) — here the
"server" is N shard actors and the router is a thin library call.
"""

from __future__ import annotations

import copy
import glob
import itertools
import json
import os
import threading
import weakref
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import ray

from ..functions.bm25 import idf as idf_fn
from .query import IndexReader, PlanRunner, SortedTerms, shard_docmeta_files

# generation ids, unique per process: an actor's views are keyed by
# them, and a server never reports the same id for two generations,
# not even across /reload's fresh actor sets
_GENERATIONS = itertools.count(1)

# ranked rows one generation's page cache holds at most (an empty page
# counts as one row)
PAGE_CACHE_ROWS = 50_000

# the fields of a ranked row, in ``PlanRunner._merge``'s order
_ROW_FIELDS = ("qid", "rank", "doc_id", "score", "group", "group_n")


def _docmeta_table(files: list[str]) -> pa.Table:
    """The docmeta rows of ``files``, sorted by an int64 ``doc_id``
    that comes first, without the hive ``shard`` key. Its columns are
    the union over the files."""
    import pyarrow.parquet as pq

    if not files:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    t = pa.concat_tables([pq.read_table(f) for f in files],
                         promote_options="permissive")
    rest = [c for c in t.column_names if c not in ("doc_id", "shard")]
    t = pa.table([t["doc_id"].cast(pa.int64())] + [t[c] for c in rest],
                 names=["doc_id", *rest])
    return t.sort_by("doc_id").combine_chunks()


def _df_table(parts: list[pa.Table]) -> tuple[SortedTerms, np.ndarray]:
    """Sum (term, df_local) rows into the router's df table: the
    distinct terms, sorted, and their int64 global df."""
    t = (pa.concat_tables(parts).group_by("term")
         .aggregate([("df_local", "sum")]).sort_by("term"))
    return SortedTerms(t["term"]), t["df_local_sum"].to_numpy()


def load_docmeta(index_dir: str) -> pa.Table:
    """The whole docmeta table in memory (see ``_docmeta_table``): an
    extend that brought columns the base build lacked leaves them null
    on the base docs."""
    return _docmeta_table(sorted(glob.glob(
        os.path.join(index_dir, "docmeta", "**", "*.parquet"), recursive=True)))


def _page_key(plan: dict, k: int, offset: int, doc_filter) -> tuple | None:
    """The page cache key of ``plan``: the plan without ``qid`` as
    sorted-key JSON, ``k``, ``offset`` and the filter as a tuple. None
    (not cached) for a precomputed mask filter, or for a plan or
    filter value that does not serialize or hash. Plans that differ
    only in term order share a key: the scorer adds terms in sorted
    order, so their pages are bitwise equal."""
    if isinstance(doc_filter, np.ndarray):
        return None
    try:
        key = (json.dumps({kk: v for kk, v in plan.items() if kk != "qid"},
                          sort_keys=True),
               int(k), int(offset), None if doc_filter is None else tuple(doc_filter))
        hash(key)
    except TypeError:
        return None
    return key


class _PageCache:
    """One generation's ranked pages: ``_page_key`` -> a tuple of row
    tuples without the qid, least recently used evicted first once
    more than ``PAGE_CACHE_ROWS`` rows are held. Counts lookups that
    found a page (``hits``) and that did not (``misses``). A lock
    guards it for the threaded HTTP server."""

    def __init__(self):
        self.pages: OrderedDict = OrderedDict()
        self.rows = self.hits = self.misses = 0
        self.lock = threading.Lock()

    def get(self, key) -> tuple | None:
        with self.lock:
            page = self.pages.get(key)
            if page is None:
                self.misses += 1
            else:
                self.hits += 1
                self.pages.move_to_end(key)
            return page

    def put(self, key, page: tuple) -> None:
        size = len(page) or 1
        with self.lock:
            if size > PAGE_CACHE_ROWS or key in self.pages:
                return
            self.pages[key] = page
            self.rows += size
            while self.rows > PAGE_CACHE_ROWS:
                self.rows -= len(self.pages.popitem(last=False)[1]) or 1

    def counters(self) -> dict:
        with self.lock:
            return {"hits": self.hits, "misses": self.misses, "rows": self.rows}


@ray.remote
class ShardQueryActor:
    """Owns a subset of shards, with one ``IndexReader`` view per live
    pool generation; the views share every loaded shard. Each query
    method runs on the view of the generation ``gen`` it is given, so a
    request that started before an attach neither scores nor counts df
    in the shards attached after it."""

    def __init__(self, index_dir: str, shard_ids: list[int], gen: int):
        self.views = {gen: IndexReader(index_dir, shards=shard_ids)}
        self.executes = 0

    def term_dfs(self, gen: int) -> pa.Table:
        """The (term, df_local) rows of every shard the view of ``gen``
        owns, for the router's df table."""
        view = self.views[gen]
        return view.term_dfs(view.owned)

    def attach(self, gen: int, base: int, stats: dict, shard_ids: list[int],
               tombstones: np.ndarray | None) -> pa.Table:
        """Add the view of generation ``gen``, derived from ``base``'s
        (``IndexReader.attach``: only ``shard_ids`` are read). Returns
        the (term, df_local) rows of ``shard_ids``."""
        view = self.views[base].attach(stats, shard_ids, tombstones)
        self.views[gen] = view
        return view.term_dfs(shard_ids)

    def retire(self, gen: int) -> None:
        """Drop the view of ``gen`` and the partials its shards cached
        under an avgdl that no live view uses."""
        view = self.views.pop(gen, None)
        if view is not None:
            live = {v.avgdl for v in self.views.values()}
            for sh in view.shards:
                if sh is not None:
                    sh.purge(live)

    def counters(self) -> dict:
        """Live generation views, shards held, ``execute`` calls, the
        avgdls with cached partials, partial-cache hits and misses
        (over the held shards' lifetime)."""
        held = {s: sh for v in self.views.values()
                for s, sh in enumerate(v.shards) if sh is not None}
        return {
            "views": len(self.views), "shards": sorted(held),
            "executes": self.executes,
            "partial_avgdls": sorted({key[1] for sh in held.values()
                                      for key in sh._part_cache}),
            "partial_hits": sum(sh.hits for sh in held.values()),
            "partial_misses": sum(sh.misses for sh in held.values()),
        }

    def expand_batch(self, gen: int, specs: list[tuple]) -> list[list[str]]:
        """All of a batch's expansion specs in ONE round trip."""
        return self.views[gen].expand_batch(specs)

    def execute(self, gen: int, plans: list[dict], weights: list[dict[str, float]],
                k: int, doc_filter=None) -> list[list[tuple]]:
        """Per plan, ``IndexReader.execute`` over OWNED shards only.
        ``doc_filter`` is a ("col", value) docmeta predicate; each actor
        masks exactly the docs it owns, so the merged result equals a
        whole-index filtered search."""
        self.executes += 1
        return [self.views[gen].execute(p, k, w, doc_filter)
                for p, w in zip(plans, weights)]

    def facet_counts(
        self, gen: int, queries: list[dict], facet_cols: list[str], doc_filter=None,
    ) -> list[dict[str, dict[str, int]]]:
        """Per-query facet partials over OWNED shards (presence is
        df-independent, so no weight exchange is needed; the router
        sums value counts — exact, since shards partition docs)."""
        return [
            self.views[gen].facet_counts(q["query"], facet_cols, doc_filter)
            for q in queries
        ]

    def length_facets(
        self, gen: int, queries: list[dict], edges: list[int], doc_filter=None,
    ) -> list[list[dict]]:
        """Per-query numeric range-facet partials over OWNED shards
        (presence-only like ``facet_counts`` — no weight exchange; the
        router sums bucket counts, exact since shards partition
        docs)."""
        return [
            self.views[gen].length_facets(q["query"], edges, doc_filter)
            for q in queries
        ]

    def match_prefix(
        self, gen: int, queries: list[dict], n: int, doc_filter=None,
    ) -> list[list[int]]:
        """Per query the first ``n`` OWNED matched doc ids ascending —
        the router's global ascending sample is the merged cut of
        these prefixes (exact: a global first-n id is in its own
        actor's first n)."""
        return [
            self.views[gen].match_ids(q["query"], doc_filter)[:n].tolist()
            for q in queries
        ]

    def explain(
        self, gen: int, query: str, doc_ids: list[int],
        weights: dict[str, float], df_override: dict[str, int],
    ) -> list[dict]:
        """Per-(owned doc, term) BM25 breakdown; the router supplies
        global idf weights and global df from its df table (this
        reader's own df would be shard-local)."""
        return self.views[gen].explain(query, doc_ids, weights=weights,
                                       df_override=df_override)


def _kill(actors: list) -> None:
    if ray.is_initialized():
        for a in actors:
            ray.kill(a)


class _ActorSet:
    """The actors of one fresh pool, shared by every generation derived
    from it. They are killed when the last of those generations is
    collected, or by ``ShardedQueryService.shutdown``."""

    def __init__(self, actors: list):
        self.actors = actors
        self.kill = weakref.finalize(self, _kill, actors)
        self.kill.atexit = False


def _retire(actor_set: _ActorSet, gen: int) -> None:
    """Drop generation ``gen``'s views (fire and forget)."""
    if actor_set.kill.alive and ray.is_initialized():
        for a in actor_set.actors:
            a.retire.remote(gen)


class ShardedQueryService(PlanRunner):
    """Router over a pool of ShardQueryActor, shards round-robined; one
    instance is one generation of the served index (see the module
    docstring). Queries go through ``topk``: the generation's page
    cache, then ``PlanRunner.topk``, whose backend over the actor pool
    is the hooks below."""

    def __init__(self, index_dir: str, num_actors: int = 4):
        from ..functions.tokenizer import get_tokenizer
        from .maintenance import load_tombstones

        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        nsh = self.stats["num_shards"]
        self.n_docs = self.stats["n_docs"]
        self.tokenize = get_tokenizer(self.stats["tokenizer"])
        self.tombstones = load_tombstones(index_dir)
        num_actors = max(1, min(num_actors, nsh))
        # actor i -> the shards it owns in this generation
        self.assign = [list(range(i, nsh, num_actors)) for i in range(num_actors)]
        self.generation = next(_GENERATIONS)
        self._pages = _PageCache()
        self._set = _ActorSet([
            ShardQueryActor.remote(index_dir, shard_ids, self.generation)
            for shard_ids in self.assign
        ])
        self._track()
        parts = [a.term_dfs.remote(self.generation) for a in self.actors]
        # loaded while the actors start
        self.docmeta = load_docmeta(index_dir)
        self._terms, self._df = _df_table(ray.get(parts))

    @property
    def actors(self) -> list:
        return self._set.actors

    def _track(self) -> None:
        weakref.finalize(self, _retire, self._set, self.generation).atexit = False

    def _derive(self, stats: dict, tombstones: np.ndarray,
                assign: list[list[int]]) -> tuple["ShardedQueryService", list]:
        """The next generation on the same actors, with one ``attach``
        per actor (its newly assigned shards, if any); also returns
        each actor's (term, df_local) rows of those shards."""
        nxt = copy.copy(self)
        nxt.generation = next(_GENERATIONS)
        nxt._pages = _PageCache()
        nxt.stats, nxt.n_docs = stats, stats["n_docs"]
        nxt.tombstones, nxt.assign = tombstones, assign
        nxt._track()  # retires any view made even if an attach fails
        send = None if tombstones is self.tombstones else tombstones
        parts = ray.get([
            a.attach.remote(nxt.generation, self.generation, stats,
                            new[len(old):], send)
            for a, old, new in zip(self.actors, self.assign, assign)
        ])
        return nxt, parts

    def extended(self, stats: dict) -> "ShardedQueryService":
        """The generation after an extend that committed ``stats``.
        Each new shard goes to the actor owning the fewest docs; only
        that actor reads anything. Docmeta gains the new shards' rows
        (their ids lie above the old span, so it stays sorted) and the
        df table gains every (term, df_local) row of theirs, so it
        stays exact."""
        bounds = stats["shard_bounds"]
        new_shards = range(self.stats["num_shards"], stats["num_shards"])
        assign = [list(a) for a in self.assign]
        load = [sum(bounds[s + 1] - bounds[s] for s in a) for a in assign]
        for s in new_shards:
            i = load.index(min(load))
            assign[i].append(s)
            load[i] += bounds[s + 1] - bounds[s]
        nxt, parts = self._derive(stats, self.tombstones, assign)
        nxt._terms, nxt._df = _df_table(
            [pa.table({"term": self._terms.arrow, "df_local": self._df}), *parts])
        nxt.docmeta = pa.concat_tables(
            [self.docmeta, _docmeta_table(shard_docmeta_files(self.index_dir, new_shards))],
            promote_options="permissive").combine_chunks()
        return nxt

    def deleted(self, tombstones: np.ndarray) -> "ShardedQueryService":
        """The generation after a delete: ``tombstones`` replace this
        one's, everything else (the df table included — stats stay
        stale until compaction) is shared."""
        return self._derive(self.stats, tombstones, self.assign)[0]

    def counters(self) -> list[dict]:
        """``ShardQueryActor.counters`` of every actor."""
        return ray.get([a.counters.remote() for a in self.actors])

    def page_cache_counters(self) -> dict:
        """This generation's page cache: plans answered from it
        (``hits``), plans that ran the scorer (``misses``) and the
        ranked rows it holds (``rows``)."""
        return self._pages.counters()

    def topk(self, plans: list[dict], k: int = 10, doc_filter=None,
             offset: int = 0) -> list[dict]:
        """``PlanRunner.topk`` behind this generation's page cache.
        Each plan is looked up by ``_page_key``; a hit comes back as
        fresh rows carrying the caller's qid. The misses, deduplicated
        by key, run in ONE ``PlanRunner.topk`` call (one scatter for
        the batch, none when every plan hits) and their pages are
        stored. Every page is bitwise equal to the uncached one: the
        generation, and with it every input of the page, is fixed."""
        plans = self.compiled(plans)
        keys = [_page_key(p, k, offset, doc_filter) for p in plans]
        pages = [None if key is None else self._pages.get(key) for key in keys]
        misses: dict = {}  # key (an uncached plan: its index) -> plan indexes
        for i, (key, page) in enumerate(zip(keys, pages)):
            if page is None:
                misses.setdefault(i if key is None else key, []).append(i)
        if misses:
            groups = list(misses.values())
            ran: list[list[tuple]] = [[] for _ in groups]
            for r in super().topk([{**plans[g[0]], "qid": j} for j, g in enumerate(groups)],
                                  k, doc_filter, offset):
                ran[r["qid"]].append(tuple(r.values())[1:])
            for g, rows in zip(groups, ran):
                page = tuple(rows)
                if keys[g[0]] is not None:
                    self._pages.put(keys[g[0]], page)
                for i in g:
                    pages[i] = page
        return [dict(zip(_ROW_FIELDS, (p["qid"], *row)))
                for p, page in zip(plans, pages) for row in page]

    # -- PlanRunner backend: the actor pool ------------------------------------
    def _global_df(self, terms: list[str]) -> dict[str, int]:
        """Exact global df from the df table (shards partition the doc
        space, so the summed df_local are exact); df 0 left out. No
        actor call."""
        out = {}
        for t in terms:
            i = self._terms.find(t)
            if i is not None:
                out[t] = int(self._df[i])
        return out

    def _expand_specs(self, specs: list[tuple]) -> list[list[str]]:
        """ONE ``expand_batch`` round trip per actor for the whole
        batch, then per spec union, sort and cap."""
        per_actor = ray.get([a.expand_batch.remote(self.generation, specs) for a in self.actors])
        return [
            sorted({t for lists in per_actor for t in lists[i]})[:cap]
            for i, (_, _, cap) in enumerate(specs)
        ]

    def _scatter(self, plans, weights, k: int, doc_filter) -> list[list]:
        return ray.get([a.execute.remote(self.generation, plans, weights, k, doc_filter)
                        for a in self.actors])

    # -- non-ranking aggregations ------------------------------------------------
    def topk_significant(self, queries: list[dict], k: int = 10,
                         sample_n: int = 50, doc_filter=None) -> list[dict]:
        """Distributed significant-terms. queries: [{"qid", "query"}]
        → per query the top-k terms over-represented in its match set
        vs the corpus. Protocol: per-actor ascending match-id prefixes
        (one scatter, no df needed for presence) merge to the global
        first-``sample_n`` sample; ONE doc_id-pruned docterms read at
        the router; candidate df from the df table; the SAME
        scoring floats as the serial reader (query.py
        _score_significant). Rows: {"qid", "rank", "term", "fg_df",
        "df", "lor"}."""
        from .query import _sample_doc_freqs, _score_significant

        prefixes = ray.get([
            a.match_prefix.remote(self.generation, queries, sample_n, doc_filter)
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
        """Whole-pool scoring explanation: exact global df/idf from
        the df table, then each actor explains the requested docs it
        OWNS (shards partition the doc space, so the concatenation is
        exactly a whole-index reader's explain). Rows come back
        (doc_id asc, term asc)."""
        gdf = self._global_df(sorted(set(self.tokenize(query))))
        weights = {t: idf_fn(self.n_docs, d) for t, d in gdf.items()}
        parts = ray.get([
            a.explain.remote(self.generation, query, doc_ids, weights, gdf)
            for a in self.actors
        ])
        rows = [r for p in parts for r in p]
        rows.sort(key=lambda r: (r["doc_id"], r["term"]))
        return rows

    def facets(self, queries: list[dict], facet_cols: list[str],
               doc_filter=None) -> list[dict[str, dict[str, int]]]:
        """Distributed faceting: one scatter (no df — presence
        needs no idf), per-actor vectorized counts over owned shards,
        router sums by value string. Returns one {col: {value: n}} per
        query, aligned with ``queries``."""
        parts = ray.get([
            a.facet_counts.remote(self.generation, queries, facet_cols, doc_filter)
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
        """Distributed numeric range faceting: one scatter (no df —
        presence needs no idf), per-actor bucket counts
        over owned docs, router sums by bucket lower edge. Returns one
        ascending [{lo, n}, ...] (non-empty buckets only) per query,
        aligned with ``queries``."""
        parts = ray.get([
            a.length_facets.remote(self.generation, queries, edges, doc_filter)
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
        """Kill the actors now, for every generation that shares them."""
        self._set.kill()
