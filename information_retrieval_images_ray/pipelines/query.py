"""BM25 top-k query path.

The Ray-native re-expression of the reference's query lifecycle
(/root/reference/server.py:128-177: embed the query -> ANN top-k ->
hydrate metadata -> ranked output). Differences by design:

- the "model" is the frozen tokenizer (same config the index was built
  with, recorded in manifest/stats — reference records its prompt per
  row the same way, db.py:124-127);
- the index state (term dictionary, posting segments, doc_len arrays)
  is loaded ONCE per scorer — the reference builds its Milvus/SQLite
  clients per request (server.py:135-146), which SURVEY.md flags; our
  ``QueryScorer`` is a callable class so ``map_batches(QueryScorer,
  concurrency=N)`` gives an actor pool holding the index;
- every query mode compiles to one plan (``compile_plan``) and runs
  one path (``PlanRunner.topk``: feedback → expand → df → execute →
  merge), shared with the sharded router in serving.py;
- two scorers over the same compressed segments: the exhaustive
  term-at-a-time accumulator (``_matches``, the oracle-shaped path
  every non-plain plan takes) and block-max WAND with skip pointers
  (Ding & Suel, SIGIR 2011) for plain ranked plans, rank-identical by
  construction (full scores are summed in the same sorted-term
  float64 order).

Scale notes: shards here are doc_id ranges; every shard scores
independently and k-way merges, so a cluster serves queries with one
actor pool per shard subset and a tiny driver-side merge (k per shard).
A single actor loads only the shards it owns; at 10^12 docs the
dictionary read becomes a pushdown read of the query's terms only.
"""

from __future__ import annotations

import glob
import heapq
import json
import os
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.bm25 import BM25Params, idf as idf_fn, rank_topk
from ..functions.codec import decode_varbyte
from ..functions.tokenizer import get_tokenizer


def _levenshtein_leq(a: str, b: str, cap: int) -> bool:
    """True iff levenshtein(a, b) <= cap. Banded DP: only the diagonal
    band of width 2*cap+1 is computed and a row whose band minimum
    already exceeds ``cap`` exits early — O(min(len)*cap), not
    O(len(a)*len(b)). Matches DuckDB's ``levenshtein`` (unit-cost
    insert/delete/substitute; transposition counts as 2)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        lo = max(1, i - cap)
        hi = min(lb, i + cap)
        cur = [i] + [cap + 1] * lb
        ca = a[i - 1]
        for j in range(lo, hi + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != b[j - 1]),
            )
        if min(cur[max(0, i - cap): hi + 1]) > cap:
            return False
        prev = cur
    return prev[lb] <= cap


def parse_boosted_query(query: str, tokenize) -> dict[str, float]:
    """Parse Lucene ``term^boost`` clause syntax into per-term boost
    multipliers: whitespace-split clauses, each with an optional
    trailing ``^float`` (default 1.0); the clause text then runs
    through the index tokenizer (a clause may normalize to several
    terms, each inheriting the clause boost). A term repeated across
    clauses SUMS its boosts — the OR-of-clauses contract (two clauses
    for the same term add their contributions, so ``fast^2 fast``
    scores exactly like ``fast^3``). A ``^`` with a non-numeric tail
    is literal clause text (the tokenizer strips it)."""
    boosts: dict[str, float] = {}
    for clause in query.split():
        head, sep, tail = clause.rpartition("^")
        boost, text = 1.0, clause
        if sep:
            try:
                boost = float(tail)
                text = head
            except ValueError:
                pass
        for t in tokenize(text):
            boosts[t] = boosts.get(t, 0.0) + boost
    return boosts


def _sample_doc_freqs(index_dir: str, ids: list[int]) -> dict[str, int]:
    """Foreground doc frequencies for significant-terms: how many of
    the sample docs contain each term, from ONE doc_id-pruned read of
    the docterms checkpoint. Shared by the serial reader and the
    sharded router (which samples via per-actor ascending prefixes)."""
    import pyarrow.dataset as pads

    if not ids:
        return {}
    dt_dir = os.path.join(index_dir, "docterms")
    tbl = pads.dataset(dt_dir, format="parquet").to_table(
        columns=["doc_id", "terms"],
        filter=pads.field("doc_id").isin(sorted(set(int(d) for d in ids))),
    )
    fg: dict[str, int] = {}
    for terms in tbl["terms"].to_pylist():
        for t in set(terms):
            fg[t] = fg.get(t, 0) + 1
    return fg


def _score_significant(
    fg: dict[str, int], dfs: dict[str, int], n_sample: int, n_docs: int,
    cand: list[str], k: int,
) -> list[dict]:
    """Add-one log-odds of foreground vs corpus doc rate — identical
    float ops serial and sharded (and mirrored in the SQL oracle):
    ln((fg+1)/(ns-fg+1)) - ln((df+1)/(N-df+1)), integer-valued doubles
    divided once, the bit-exactness the distinctive-terms oracle
    already relies on. Top-k by (lor desc, term asc)."""
    rows = []
    for t in cand:
        f, d = fg[t], int(dfs.get(t, 0))
        lor = float(
            np.log((f + 1.0) / (n_sample - f + 1.0))
            - np.log((d + 1.0) / (n_docs - d + 1.0))
        )
        rows.append({"term": t, "fg_df": f, "df": d, "lor": lor})
    rows.sort(key=lambda r: (-r["lor"], r["term"]))
    return rows[:k]


def decode_all_blocks(row: dict, block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a term's full (doc_ids, tfs) in O(1) numpy passes.

    The doc stream is delta-encoded with a restart at every block (the
    first value of each block is an absolute doc_id), so a single
    cumsum over the whole gap stream over-counts every element of block
    b by the gap total of all earlier blocks — which is exactly
    ``cumsum[block_start - 1]``. That error is constant within each
    block, so one vectorized subtraction fixes all blocks at once (no
    per-block python loop; ~100x fewer numpy calls than per-block
    decode on long postings)."""
    df = int(row["df_local"])
    gaps = decode_varbyte(row["docs"], df)
    raw = np.cumsum(gaps, dtype=np.uint64)
    n = len(raw)
    if n > block_size:
        starts = np.arange(block_size, n, block_size)
        corr_vals = raw[starts - 1]
        lens = np.diff(np.append(starts, n))
        corr = np.concatenate(
            [np.zeros(block_size, dtype=np.uint64), np.repeat(corr_vals, lens)]
        )
        ids = raw - corr
    else:
        ids = raw
    tfs = decode_varbyte(row["tfs"], df)
    return ids, tfs


def _bisect(arr, probe: str) -> int:
    """Index of the leftmost term >= ``probe`` in a sorted Arrow string
    array (~log2(V) string reads, no vocab-sized python objects)."""
    lo, hi = 0, len(arr)
    while lo < hi:
        mid = (lo + hi) // 2
        if arr[mid].as_py() < probe:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _dict_range(arr, probe: str):
    """The terms of a sorted Arrow string array that start with
    ``probe``, in order: matches are contiguous under lexicographic
    order, so one binary search plus a forward scan finds them (an
    empty probe scans the whole dictionary)."""
    for j in range(_bisect(arr, probe), len(arr)):
        v = arr[j].as_py()
        if not v.startswith(probe):
            return
        yield v


class _ShardIndex:
    """One doc-range shard: lazy term -> posting-row access.

    The segment table stays columnar (Arrow buffers; list columns held
    as flat numpy values + offsets, zero-copy). Per-term row dicts are
    materialized only for terms a query actually touches — at web
    scale a query hits a handful of terms out of a vocab of millions,
    so eager per-term dict building is both O(vocab) startup time and
    O(vocab) python-object heap.
    """

    def __init__(self, seg_dir: str, lo: int, hi: int, bound_scale: float = 1.0,
                 cache_bytes: int = 0):
        """``bound_scale`` >= 1 rescales the stored block-max tables:
        after a delta extend raises global avgdl, bounds encoded with
        the older (smaller) avgdl are no longer upper bounds of the
        live BM25 partial (which is monotone increasing in avgdl);
        multiplying by avgdl_now/encode_avgdl restores admissibility
        (the ratio partial_new/partial_old is < avgdl_new/avgdl_old
        for every (tf, dl)). Scores themselves always use live stats —
        only pruning is affected, and only by slack."""
        import pyarrow.compute as pc

        from collections import OrderedDict

        self.lo, self.hi = lo, hi
        # LRU of per-term decoded BM25 partials, keyed by row index:
        # (doc_ids int64, tf_partial float64) — everything score-side
        # except the per-query idf weight, which just scales it. Zipf
        # query workloads hit the same hot terms constantly; decoding
        # a 1M-posting stopword list (varbyte + cumsum + gather) per
        # query was the large-corpus latency floor. Budget-bounded
        # (``cache_bytes`` total per shard), evicts least-recent.
        self._part_cache: "OrderedDict[int, tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._cache_budget = int(cache_bytes)
        self._cache_used = 0
        scale = max(1.0, float(bound_scale))
        files = sorted(glob.glob(os.path.join(seg_dir, "*.parquet")))
        if not files:
            self.n_terms = 0
            self.df_local_sum = 0
            self._terms = None
            return
        t = pa.concat_tables([pq.read_table(f) for f in files])
        # sort rows by term ONCE (C-speed); lookups are then O(log V)
        # binary searches touching ~17 strings — no vocab-sized python
        # dict is ever built, so reader/actor startup is O(bytes read)
        t = t.take(pc.sort_indices(t["term"])).combine_chunks()
        self._terms = t["term"].combine_chunks()
        self._df_local = t["df_local"].to_numpy(zero_copy_only=False).astype(np.int64)
        self._docs = t["docs"].combine_chunks()
        self._tfs = t["tfs"].combine_chunks()
        self._lists = {}
        for name, dtype in (
            ("block_last_doc", np.uint64),
            ("block_doc_off", np.int64),
            ("block_tf_off", np.int64),
            ("block_max_partial", np.float64),
        ):
            col = t[name].combine_chunks()
            vals = col.values.to_numpy(zero_copy_only=False).astype(dtype)
            if name == "block_max_partial" and scale != 1.0:
                vals = vals * scale
            self._lists[name] = (
                vals,
                col.offsets.to_numpy(zero_copy_only=False).astype(np.int64),
            )
        self._max_partial = t["max_partial"].to_numpy(zero_copy_only=False).astype(
            np.float64
        ) * scale
        self.n_terms = len(self._terms)
        self.df_local_sum = int(self._df_local.sum())

    def rev_terms(self):
        """Reversed-term dictionary (terms codepoint-reversed, then
        C-sorted), built lazily on the FIRST leading-``*`` wildcard
        and cached for the shard's lifetime — suffix queries become
        one contiguous prefix range on this array (the standard
        reversed-dictionary trick; Lucene's ReverseStringFilter
        sidecar field). Vectorized arrow build (utf8_reverse +
        sort_indices), O(vocab) memory like the forward dictionary,
        paid only by workloads that actually issue ``*tail``
        patterns."""
        rev = getattr(self, "_rev_terms", None)
        if rev is None and self._terms is not None:
            import pyarrow.compute as pc

            flipped = pc.utf8_reverse(self._terms)
            rev = pc.take(flipped, pc.sort_indices(flipped))
            if isinstance(rev, pa.ChunkedArray):
                rev = rev.combine_chunks()
            self._rev_terms = rev
        return rev

    def find(self, term: str) -> int | None:
        """Binary search the sorted term column; row index or None."""
        arr = self._terms
        if arr is None:
            return None
        i = _bisect(arr, term)
        return i if i < len(arr) and arr[i].as_py() == term else None

    def df_local_at(self, i: int) -> int:
        return int(self._df_local[i])

    def row(self, i: int) -> dict:
        out = {
            "df_local": int(self._df_local[i]),
            "docs": self._docs[i].as_py(),
            "tfs": self._tfs[i].as_py(),
            "max_partial": float(self._max_partial[i]),
        }
        for name, (flat, offs) in self._lists.items():
            out[name] = flat[offs[i]: offs[i + 1]]
        return out

    def get(self, term: str) -> dict | None:
        i = self.find(term)
        return None if i is None else self.row(i)

    def partial(
        self, i: int, block_size: int, doc_len: np.ndarray,
        k1: float, b: float, avgdl: float,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """BM25 tf-partial for row ``i`` — decoded+computed once and
        LRU-cached within the budget. The partial depends only on
        index-constant state (tf, dl, avgdl, k1, b); a query's
        contribution is ``idf_weight * partial``.

        Returns ``(doc_ids int64, partial)`` sparse form, or
        ``(None, dense partial over the shard span)`` for stopword-like
        terms (df >= half the span): the dense form replaces the
        accumulator's 1-per-posting scatter-add with one SIMD array add
        AND is smaller (span*8 < df*16 bytes). Non-matching docs hold
        0.0, which is never a valid BM25 partial (tf>=1 => partial>0),
        so they can't leak into results."""
        hit = self._part_cache.get(i)
        if hit is not None:
            self._part_cache.move_to_end(i)
            return hit
        ids_u, tfs = decode_all_blocks(self.row(i), block_size)
        ids = ids_u.astype(np.int64)
        tfs_f = tfs.astype(np.float64)
        dl = doc_len[ids]
        part = tfs_f * (k1 + 1.0) / (tfs_f + k1 * (1.0 - b + b * dl / avgdl))
        span = self.hi - self.lo
        if 2 * len(ids) >= span:
            dense = np.zeros(span, dtype=np.float64)
            dense[ids - self.lo] = part
            entry = (None, dense)
            nbytes = dense.nbytes
        else:
            entry = (ids, part)
            nbytes = ids.nbytes + part.nbytes
        if nbytes <= self._cache_budget:
            while self._cache_used + nbytes > self._cache_budget and self._part_cache:
                _, (old_ids, old_part) = self._part_cache.popitem(last=False)
                self._cache_used -= old_part.nbytes + (
                    old_ids.nbytes if old_ids is not None else 0
                )
            self._part_cache[i] = entry
            self._cache_used += nbytes
        return entry


# -- query plans ---------------------------------------------------------------

MODES = (
    "bm25", "boolean", "prefix", "fuzzy", "wildcard", "regex", "boosted",
    "collapse", "synonym", "more_like_this", "phrase", "proximity",
    "span_near", "prf",
)


def compile_plan(mode: str, query: str, params: dict | None, tokenize,
                 qid: int = 0) -> dict:
    """Compile one request of any query mode into the engine's single
    plan shape — the only place a mode name is interpreted. Every
    layer (serial reader, shard actor, router, HTTP, CLI) runs plans
    through ``PlanRunner.topk``; ``params`` carries the mode options
    under their HTTP body names (``must``, ``should``, ``must_not``,
    ``max_expansions``, ``max_edits``, ``prefix_len``, ``max_terms``,
    ``exclude_doc``, ``fb_docs``, ``fb_terms``, ``beta``, ``window``,
    ``search_after``, ``collapse_field``).

    Plan fields:

    - ``qid``;
    - ``terms``: {term: boost} scored terms (clause boosts sum per
      term); None while an expansion spec or a feedback step has yet
      to supply them;
    - ``expand``: (kind, arg, cap) dictionary-expansion spec, kind in
      prefix | wildcard | regex | fuzzy (arg = (word, max_edits,
      prefix_len) for fuzzy); kept after expansion as the terms'
      provenance;
    - ``must`` / ``must_not``: sorted terms a hit contains all of /
      none of;
    - ``positional``: (kind, term sequence, window), verified against
      the positions sidecar after the merge;
    - ``after``: (score, doc_id) cursor; ``collapse``: docmeta field
      whose groups collapse to their best hit; ``exclude_doc``: a doc
      dropped before the top-k cut;
    - ``feedback``: a term-selection step that resolves ``terms`` and
      ``weights`` first — {"kind": "mlt", "tokens", "max_terms"} or
      {"kind": "prf", "fb_docs", "fb_terms", "beta"};
    - ``weights``: {term: weight} resolved by the feedback step; None
      means boost·idf from the df exchange.

    Raises ValueError for an unknown mode."""
    p = params or {}
    plan = {
        "qid": qid, "terms": {}, "expand": None, "must": [], "must_not": [],
        "positional": None, "after": None, "collapse": None,
        "exclude_doc": None, "feedback": None, "weights": None,
    }
    if mode in ("bm25", "collapse", "prf"):
        plan["terms"] = dict.fromkeys(sorted(set(tokenize(query))), 1.0)
        after = p.get("search_after") if mode == "bm25" else None
        if after:
            plan["after"] = (float(after[0]), int(after[1]))
        if mode == "collapse":
            plan["collapse"] = str(p.get("collapse_field", "lang"))
        if mode == "prf":
            plan["feedback"] = {
                "kind": "prf", "fb_docs": int(p.get("fb_docs", 5)),
                "fb_terms": int(p.get("fb_terms", 8)),
                "beta": float(p.get("beta", 0.5)),
            }
    elif mode == "boolean":
        must = sorted(set(tokenize(str(p.get("must", "")))))
        should = tokenize(str(p.get("should", "")))
        plan["terms"] = dict.fromkeys(sorted(set(must) | set(should)), 1.0)
        plan["must"] = must
        plan["must_not"] = sorted(set(tokenize(str(p.get("must_not", "")))))
    elif mode == "boosted":
        plan["terms"] = parse_boosted_query(query, tokenize)
    elif mode == "synonym":
        from .flagship import SYNONYMS

        toks = tokenize(query)
        plan["terms"] = dict.fromkeys(
            sorted(set(toks) | {s for t in toks for s in SYNONYMS.get(t, ())}),
            1.0)
    elif mode in ("prefix", "fuzzy", "wildcard", "regex"):
        # words run through the index tokenizer; wildcard / regex
        # patterns are only lowercased (the tokenizer would strip the
        # metacharacters)
        if mode in ("prefix", "fuzzy"):
            arg = (tokenize(query) or [""])[0]
        else:
            arg = str(query).lower()
        if arg:
            spec = (arg, int(p.get("max_edits", 1)),
                    int(p.get("prefix_len", 1))) if mode == "fuzzy" else arg
            plan["expand"] = (mode, spec, int(p.get("max_expansions", 64)))
            plan["terms"] = None
    elif mode == "more_like_this":
        ex = p.get("exclude_doc")
        plan["terms"] = None
        plan["feedback"] = {"kind": "mlt", "tokens": list(tokenize(query)),
                            "max_terms": int(p.get("max_terms", 8))}
        plan["exclude_doc"] = None if ex is None else int(ex)
    elif mode in ("phrase", "proximity", "span_near"):
        toks = tokenize(query)
        distinct = sorted(set(toks))
        plan["terms"] = dict.fromkeys(distinct, 1.0)
        plan["must"] = distinct
        plan["positional"] = (mode, distinct if mode == "proximity" else toks,
                              int(p.get("window", 8)))
    else:
        raise ValueError(f"unknown mode {mode!r}: expected {'|'.join(MODES)}")
    return plan


def _is_plain(plan: dict) -> bool:
    """A plain OR of unit-boost query terms: the shape that takes the
    ``search_bmw`` dispatch (every other plan runs the exhaustive
    accumulator, as it always has)."""
    return (
        plan["expand"] is None and plan["feedback"] is None
        and not plan["must"] and not plan["must_not"]
        and plan["positional"] is None and plan["after"] is None
        and plan["collapse"] is None and plan["exclude_doc"] is None
        and all(b == 1.0 for b in plan["terms"].values())
    )


def _select_by_tfidf(tf: dict[str, int], dfs: dict[str, int], n_docs: int,
                     n: int) -> list[str]:
    """The ``n`` terms of ``tf`` with the highest tf·idf, ties
    term-ascending; terms with df 0 never qualify — the deterministic
    MoreLikeThis / feedback-expansion cut."""
    scored = sorted(
        ((t, f * idf_fn(n_docs, dfs[t])) for t, f in tf.items() if dfs.get(t)),
        key=lambda e: (-e[1], e[0]),
    )
    return [t for t, _ in scored[:n]]


def _docterms(index_dir: str, ids: list[int]) -> dict[int, dict[str, int]]:
    """doc_id -> {term: tf} from ONE doc_id-pruned read of the index's
    ``docterms`` checkpoint (predicate pushdown: only the row groups
    holding ``ids`` are touched, never the corpus text)."""
    import pyarrow.dataset as pads

    if not ids:
        return {}
    dt_dir = os.path.join(index_dir, "docterms")
    if not os.path.isdir(dt_dir):
        raise FileNotFoundError(
            f"no docterms checkpoint at {dt_dir} (present on any "
            "build_index output)")
    tbl = pads.dataset(dt_dir, format="parquet").to_table(
        columns=["doc_id", "terms", "tfs"],
        filter=pads.field("doc_id").isin(ids),
    )
    out: dict[int, dict[str, int]] = {}
    for d, terms, tfs in zip(tbl["doc_id"].to_pylist(),
                             tbl["terms"].to_pylist(),
                             tbl["tfs"].to_pylist()):
        m = out.setdefault(int(d), {})
        for t, f in zip(terms, tfs):
            m[t] = m.get(t, 0) + int(f)
    return out


class PlanRunner:
    """The one query path: feedback → expand → df → execute → merge.

    Shared by the serial ``IndexReader`` (its own shards are the
    backend) and the sharded router ``serving.ShardedQueryService``
    (RPCs to the shard actors are the backend), so serial/sharded
    parity holds by construction: both run the same plans through the
    same steps, and only these hooks differ —

    - ``_expand_specs(specs)``: the sorted, capped term list of each
      (kind, arg, cap) expansion spec;
    - ``_global_df(terms)``: exact global df, terms with df > 0 only;
    - ``_scatter(plans, weights, k, doc_filter)``: one part per shard
      owner, a part holding one ``IndexReader.execute`` result per plan.

    A backend also provides ``tokenize``, ``n_docs``, ``index_dir`` and
    ``tombstones``."""

    def compile(self, mode: str, query: str = "", params: dict | None = None,
                qid: int = 0) -> dict:
        """``compile_plan`` with this index's tokenizer."""
        return compile_plan(mode, query, params, self.tokenize, qid)

    def topk(self, plans: list[dict], k: int = 10, doc_filter=None,
             offset: int = 0) -> list[dict]:
        """Compiled plans (a bare {"qid", "query"} body is a bm25 plan)
        -> [{"qid", "rank", "doc_id", "score"}], collapse plans adding
        {"group", "group_n"}: per plan the absolute ranks
        offset+1..offset+k of the (score desc, doc_id asc) total order
        — exact deep paging, since each owner returns its own
        top-(offset+k). ``doc_filter`` is a ("col", value) docmeta
        predicate; it restricts membership only, stats stay global.

        Steps: resolve feedback plans (MoreLikeThis: one df exchange
        over the source terms; PRF: a base top-k call, one pruned
        docterms read and one df exchange) into weighted-OR plans; one
        batched expansion exchange when some plan has an expansion
        spec; one df exchange for the plans without resolved weights;
        one scatter; the merge (rank, collapse max-merge, or the
        positional verify)."""
        plans = [p if "terms" in p else self.compile("bm25", p["query"], qid=p["qid"])
                 for p in plans]
        if any(p["positional"] for p in plans):
            from .positions import positions_dir

            if not os.path.isdir(positions_dir(self.index_dir)):
                raise FileNotFoundError(
                    f"no positions sidecar under {self.index_dir} — "
                    "run build_positions_sidecar first")
        plans = self.expand(self._resolve_feedback(plans, doc_filter))
        need = sorted({t for p in plans if p["weights"] is None for t in p["terms"]})
        gdf = self._global_df(need) if need else {}
        weights = [
            p["weights"] if p["weights"] is not None else
            {t: b * idf_fn(self.n_docs, gdf[t]) for t, b in p["terms"].items()
             if t in gdf}
            for p in plans
        ]
        parts = self._scatter(plans, weights, k + offset, doc_filter) if plans else []
        return self._merge(plans, parts, k, offset)

    def expand(self, plans: list[dict]) -> list[dict]:
        """Fill in the terms of every plan with a pending expansion
        spec — one batched expansion exchange for all of them, nothing
        when no plan has one. Owners cap their own dictionary subsets,
        the union is re-capped: a term in the global lexicographically
        first N is in its own owner's first N, so the cut is exact."""
        pending = [p["terms"] is None and p["expand"] is not None for p in plans]
        if not any(pending):
            return plans
        lists = iter(self._expand_specs(
            [p["expand"] for p, todo in zip(plans, pending) if todo]))
        return [
            {**p, "terms": dict.fromkeys(next(lists), 1.0)} if todo else p
            for p, todo in zip(plans, pending)
        ]

    def _resolve_feedback(self, plans: list[dict], doc_filter) -> list[dict]:
        """Run the term-selection step of each MoreLikeThis / PRF plan
        and return it as a weighted-OR plan carrying its resolved
        weights (so the main path skips its df exchange).

        - mlt: the source's ``max_terms`` highest tf·idf terms (tf in
          the source), each at idf;
        - prf: the base query's top ``fb_docs`` hits are the feedback
          set; the ``fb_terms`` highest (summed feedback tf)·idf terms
          not in the query join the query terms, originals at idf,
          expansions at ``beta``·idf. Feedback docs stay eligible for
          the final page.

        All plans share one base top-k call, one docterms read and one
        df exchange."""
        todo = [i for i, p in enumerate(plans)
                if p["feedback"] and p["weights"] is None]
        if not todo:
            return plans
        tf: dict[int, dict[str, int]] = {}
        prf = [i for i in todo if plans[i]["feedback"]["kind"] == "prf"]
        if prf:
            base = self.topk(
                [{**plans[i], "feedback": None, "qid": i} for i in prf],
                max(plans[i]["feedback"]["fb_docs"] for i in prf), doc_filter)
            fb: dict[int, list[int]] = {i: [] for i in prf}
            for r in base:
                if r["rank"] <= plans[r["qid"]]["feedback"]["fb_docs"]:
                    fb[r["qid"]].append(r["doc_id"])
            docs = _docterms(self.index_dir,
                             sorted({d for ids in fb.values() for d in ids}))
            for i in prf:
                tf[i] = Counter()
                for d in fb[i]:
                    tf[i].update(docs.get(d, {}))
                for t in plans[i]["terms"]:
                    tf[i].pop(t, None)
        for i in todo:
            if plans[i]["feedback"]["kind"] == "mlt":
                tf[i] = Counter(plans[i]["feedback"]["tokens"])
        gdf = self._global_df(sorted(
            {t for i in todo for t in tf[i]}
            | {t for i in prf for t in plans[i]["terms"]}))
        out = list(plans)
        for i in todo:
            p, fbk = plans[i], plans[i]["feedback"]
            if fbk["kind"] == "mlt":
                sel = _select_by_tfidf(tf[i], gdf, self.n_docs, fbk["max_terms"])
                terms = sel
                w = {t: idf_fn(self.n_docs, gdf[t]) for t in sel}
            else:
                sel = _select_by_tfidf(tf[i], gdf, self.n_docs, fbk["fb_terms"])
                terms = sorted(p["terms"]) + sel
                w = {t: idf_fn(self.n_docs, gdf[t]) for t in p["terms"] if t in gdf}
                w.update({t: fbk["beta"] * idf_fn(self.n_docs, gdf[t]) for t in sel})
            out[i] = {**p, "terms": dict.fromkeys(terms, 1.0), "weights": w}
        return out

    def _merge(self, plans: list[dict], parts, k: int, offset: int) -> list[dict]:
        """Gather: per plan, concatenate the owners' rows, then
        max-merge collapse leaders (summing their group counts) or
        verify positional candidates, and rank by the engine-wide
        (score desc, doc_id asc) tie-break. Exact, because shards
        partition the doc space."""
        out = []
        for i, p in enumerate(plans):
            rows = [r for part in parts for r in part[i]]
            if p["collapse"]:
                rows = _merge_groups(rows)
            elif p["positional"]:
                rows = self._verify(p["positional"], rows)
            rows.sort(key=lambda r: (-r[1], r[0]))
            for rank, r in enumerate(rows[offset:offset + k], start=offset + 1):
                row = {"qid": p["qid"], "rank": rank, "doc_id": r[0], "score": r[1]}
                if p["collapse"]:
                    row["group"], row["group_n"] = r[2], r[3]
                out.append(row)
        return out

    def _verify(self, positional, rows: list[tuple]) -> list[tuple]:
        """Keep the conjunctive candidates whose positions satisfy the
        plan: ONE pushdown-pruned sidecar read over the merged
        candidates (O(candidate postings), never a corpus read)."""
        from . import positions

        if not rows:
            return rows
        kind, seq, window = positional
        ids = np.sort(np.array([d for d, _ in rows], np.int64))
        if kind == "phrase":
            ok = positions.verify_phrase_positions(self.index_dir, seq, ids)
        elif kind == "proximity":
            ok = positions.verify_proximity_positions(self.index_dir, seq, window, ids)
        else:  # span_near: terms in query order
            ok = positions.verify_spannear_positions(self.index_dir, seq, window, ids)
        keep = set(ok.tolist())
        return [r for r in rows if r[0] in keep]

    def term_vectors(self, doc_ids: list[int]) -> list[dict]:
        """Per-doc term vectors (the Elasticsearch ``_termvectors``
        shape): each requested live doc's (term, tf) pairs from one
        pruned docterms read, joined with each term's exact global df.
        Rows {"doc_id", "term", "tf", "df"} sorted (doc_id, term)."""
        ids = sorted({int(d) for d in doc_ids})
        if len(self.tombstones) and ids:
            from .maintenance import is_tombstoned

            alive = ~is_tombstoned(self.tombstones, np.asarray(ids, dtype=np.int64))
            ids = [d for d, a in zip(ids, alive.tolist()) if a]
        per_doc = _docterms(self.index_dir, ids)
        dfs = self._global_df(sorted({t for m in per_doc.values() for t in m}))
        return [
            {"doc_id": d, "term": t, "tf": per_doc[d][t], "df": int(dfs.get(t, 0))}
            for d in sorted(per_doc) for t in sorted(per_doc[d])
        ]


def _merge_groups(rows: list[tuple]) -> list[tuple]:
    """Collapse partials (leader doc_id, score, group value, count) ->
    one row per group: the (score desc, doc_id asc) best leader and
    the summed count."""
    best: dict[str, tuple[int, float]] = {}
    count: dict[str, int] = {}
    for doc, score, val, n in rows:
        count[val] = count.get(val, 0) + n
        cur = best.get(val)
        if cur is None or (-score, doc) < (-cur[1], cur[0]):
            best[val] = (doc, score)
    return [(d, s, v, count[v]) for v, (d, s) in best.items()]


class IndexReader(PlanRunner):
    """Loads a built index directory; executes query plans over it.

    State loaded once (the actor-pool __init__ pattern, reference
    analogue vector_db.py:12-31).
    """

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 cache_bytes: int = 256 << 20):
        """``shards=None`` loads the whole index; a list of shard ids
        loads only those (the sharded-serving mode: each actor of a
        pool owns a disjoint subset — global df is then resolved by a
        per-query df exchange, see pipelines/serving.py).

        ``cache_bytes`` bounds the reader-wide decoded-partial LRU
        (split evenly across owned shards; 0 disables) — hot terms'
        postings decode once, repeat queries reuse them."""
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.params = BM25Params(self.stats["k1"], self.stats["b"])
        self.block_size = self.stats["block_size"]
        self.tokenize = get_tokenizer(self.stats["tokenizer"])
        self.n_docs = self.stats["n_docs"]
        self.avgdl = self.stats["avgdl"]
        # df/doc-span ratio above which a term is "dense" (stopword-
        # like); an all-dense query routes to the exhaustive scan
        self.dense_query_cutoff = 0.1
        bounds = self.stats["shard_bounds"]
        self.num_shards = self.stats["num_shards"]
        self.owned = list(range(self.num_shards)) if shards is None else sorted(shards)

        # NB: no global df table is loaded — exact global df(term) is
        # the sum of per-shard df_local over this reader's shards (the
        # shards partition the doc space), so startup cost stays
        # O(index bytes), not O(vocab) python objects.

        # doc_len array, dense over the doc_id span but filled only for
        # owned shards (docmeta is hive-partitioned by shard)
        span = self.stats["doc_id_span"]
        self.doc_len = np.zeros(span, dtype=np.float64)
        meta_files: list[str] = []
        for s in self.owned:
            meta_files.extend(
                sorted(glob.glob(os.path.join(index_dir, "docmeta", f"shard={s}", "*.parquet")))
            )
        if not meta_files and shards is None:  # non-partitioned legacy layout
            meta_files = sorted(
                glob.glob(os.path.join(index_dir, "docmeta", "**", "*.parquet"), recursive=True)
            )
        for f in meta_files:
            t = pq.read_table(f, columns=["doc_id", "doc_len"])
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            self.doc_len[ids] = t["doc_len"].to_numpy(zero_copy_only=False)
        # kept for lazy metadata-filter masks (meta_mask); building one
        # is a column-pruned docmeta read, done only when a filtered
        # search is actually issued, then cached per (col, value)
        self._meta_files = meta_files
        self._mask_cache: dict[tuple[str, str], np.ndarray] = {}
        self._codes_cache: dict[str, tuple[np.ndarray, list[str]]] = {}

        # tombstoned docs (pipelines/maintenance.delete_docs) are
        # excluded from every top-k; stats stay stale until compaction
        from .maintenance import load_tombstones

        self.tombstones = load_tombstones(index_dir)

        from .build import segment_shard_dir

        # per-shard block-max rescale for delta-extended indexes (see
        # _ShardIndex.__init__); fresh builds have encode_avgdl ==
        # avgdl everywhere -> scale 1.0
        enc = self.stats.get("encode_avgdl", {})

        def _scale(s: int) -> float:
            v = float(enc.get(str(s), self.avgdl))
            return self.avgdl / v if v > 0 else 1.0  # avgdl 0 = empty corpus

        owned_set = set(self.owned)
        per_shard_cache = int(cache_bytes) // max(1, len(self.owned))
        self.shards = [
            _ShardIndex(
                segment_shard_dir(index_dir, s), bounds[s], bounds[s + 1],
                bound_scale=_scale(s), cache_bytes=per_shard_cache,
            )
            if s in owned_set
            else None
            for s in range(self.num_shards)
        ]

    # -- PlanRunner backend: this reader's own shards ---------------------------
    def _expand_specs(self, specs: list[tuple]) -> list[list[str]]:
        return self.expand_batch(specs)

    def _global_df(self, terms: list[str]) -> dict[str, int]:
        # global for a whole-index reader; a shard-subset reader is one
        # owner behind the router, which sums df across owners
        return self.df_locals(terms)

    def _scatter(self, plans, weights, k: int, doc_filter) -> list[list]:
        return [[self.execute(p, k, w, doc_filter) for p, w in zip(plans, weights)]]

    # -- helpers --------------------------------------------------------------
    def _locs(self, term: str) -> list[tuple[int, int]]:
        """[(shard_idx, row_idx)] of ``term`` in the owned shards — one
        binary-search probe per shard."""
        locs = []
        for s, sh in enumerate(self.shards):
            if sh is not None:
                i = sh.find(term)
                if i is not None:
                    locs.append((s, i))
        return locs

    def _term_infos(
        self, weights: dict[str, float]
    ) -> list[tuple[str, float, list[tuple[int, int]]]]:
        """Per weighted term present in the owned shards, in sorted
        term order (the float64 add order every scorer shares):
        (term, weight, [(shard_idx, row_idx), ...])."""
        infos = []
        for t in sorted(weights):
            locs = self._locs(t)
            if locs:
                infos.append((t, weights[t], locs))
        return infos

    def _term_weights(self, terms, weights: dict[str, float] | None = None,
                      ) -> dict[str, float]:
        """{term: weight} over the distinct ``terms``: ``weights``
        restricted to them when given (sharded serving's global-df
        exchange), else idf from this reader's own df."""
        uniq = sorted(set(terms))
        if weights is not None:
            return {t: weights[t] for t in uniq if t in weights}
        return {t: idf_fn(self.n_docs, d) for t, d in self.df_locals(uniq).items()}

    def df_locals(self, terms: list[str]) -> dict[str, int]:
        """term -> sum of df_local over THIS reader's owned shards (the
        df-exchange half of sharded serving); terms with df 0 are
        left out."""
        out = {}
        for t in terms:
            df = sum(self.shards[s].df_local_at(i) for s, i in self._locs(t))
            if df:
                out[t] = df
        return out

    def meta_mask(self, col: str, value: str) -> np.ndarray:
        """Dense bool mask over the doc-id span: docmeta[col] == value,
        filled for OWNED shards only (a sharded reader filters exactly
        the docs it scores, so the service's scatter-gather stays
        correct). One column-pruned docmeta read per (col, value) per
        reader, cached; nothing vocab- or corpus-text-sized loads."""
        import pyarrow.compute as pc

        key = (col, value)
        m = self._mask_cache.get(key)
        if m is None:
            m = np.zeros(len(self.doc_len), dtype=bool)
            for f in self._meta_files:
                t = pq.read_table(f, columns=["doc_id", col])
                ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                eq = pc.fill_null(pc.equal(t[col], pa.scalar(value)), False)
                m[ids] = eq.to_numpy(zero_copy_only=False)
            self._mask_cache[key] = m
        return m

    def meta_codes(self, col: str) -> tuple[np.ndarray, list[str]]:
        """Dense int32 code array over the doc-id span for
        ``docmeta[col]`` (owned shards; -1 = unowned or null) plus the
        code→value list (sorted unique values of OWNED docs — a sharded
        router merges per-actor counts by the value STRING, so
        dictionaries never need to agree across actors). One
        column-pruned docmeta read per col per reader, cached — the
        facet analogue of ``meta_mask``."""
        cached = self._codes_cache.get(col)
        if cached is not None:
            return cached
        ids_all, vals_all = [], []
        for f in self._meta_files:
            t = pq.read_table(f, columns=["doc_id", col])
            ids_all.append(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
            vals_all.append(t[col].to_numpy(zero_copy_only=False))
        codes = np.full(len(self.doc_len), -1, dtype=np.int32)
        if ids_all:
            ids = np.concatenate(ids_all)
            vals = np.concatenate(vals_all)
            ok = np.array([v is not None for v in vals], dtype=bool)
            values = sorted({str(v) for v in vals[ok]})
            lut = {v: i for i, v in enumerate(values)}
            codes[ids[ok]] = np.array(
                [lut[str(v)] for v in vals[ok]], dtype=np.int32)
        else:
            values = []
        self._codes_cache[col] = (codes, values)
        return codes, values

    def _resolve_filter(self, doc_filter) -> np.ndarray | None:
        """None | precomputed bool mask | ("col", "value") tuple."""
        if doc_filter is None or isinstance(doc_filter, np.ndarray):
            return doc_filter
        col, value = doc_filter
        return self.meta_mask(col, value)

    # -- the one posting accumulator ------------------------------------------
    def _matches(
        self, weights: dict[str, float], must=(), must_not=(), doc_filter=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every owned doc matching a plan, with its full BM25 score:
        (doc_ids ascending, scores). A doc matches when it contains
        every ``must`` term and no ``must_not`` term; with no must
        terms, when it contains at least one weighted term. Scores sum
        ``weight * partial`` over the weighted terms in sorted-term
        float64 order (the add order of ``search_bmw``'s window scorer
        and of the brute-force oracle, so scores are bitwise equal
        across paths). Per shard one dense score accumulator plus, when
        needed, a must-presence counter and an exclusion flag — no
        per-doc python. Presence is df-independent, so a shard-subset
        reader decides must / must_not exactly for the docs it owns.
        Tombstones and the optional metadata filter are excluded."""
        mask = self._resolve_filter(doc_filter)
        must_s, not_s = set(must), set(must_not)
        acc: dict[int, np.ndarray] = {}
        cnt: dict[int, np.ndarray] = {}
        exc: dict[int, np.ndarray] = {}
        k1, b = self.params.k1, self.params.b
        for t in sorted(set(weights) | must_s | not_s):
            w = weights.get(t)
            for s, i in self._locs(t):
                sh = self.shards[s]
                ids, part = sh.partial(i, self.block_size, self.doc_len,
                                       k1, b, self.avgdl)
                if w is not None:
                    if s not in acc:
                        acc[s] = np.zeros(sh.hi - sh.lo, dtype=np.float64)
                    if ids is None:  # dense stopword form: one SIMD add
                        acc[s] += w * part
                    else:
                        acc[s][ids - sh.lo] += w * part
                if t not in must_s and t not in not_s:
                    continue
                # presence; in the dense form tf > 0 <=> partial > 0
                at = part > 0 if ids is None else ids - sh.lo
                if t in must_s:
                    if s not in cnt:
                        cnt[s] = np.zeros(sh.hi - sh.lo, dtype=np.int32)
                    cnt[s][at] += 1
                if t in not_s:
                    if s not in exc:
                        exc[s] = np.zeros(sh.hi - sh.lo, dtype=bool)
                    exc[s][at] = True
        all_ids, all_scores = [], []
        for s in sorted(acc):
            a = acc[s]
            if must_s:
                if s not in cnt:
                    continue
                sel = cnt[s] == len(must_s)
            else:
                sel = a != 0
            if s in exc:
                sel &= ~exc[s]
            nz = np.flatnonzero(sel)
            all_ids.append((nz + self.shards[s].lo).astype(np.int64))
            all_scores.append(a[nz])
        if not all_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        ids = np.concatenate(all_ids)
        scores = np.concatenate(all_scores)
        if mask is not None:
            keep = mask[ids]
            ids, scores = ids[keep], scores[keep]
        if len(self.tombstones):
            from .maintenance import is_tombstoned

            live = ~is_tombstoned(self.tombstones, ids)
            ids, scores = ids[live], scores[live]
        return ids, scores

    def execute(self, plan: dict, k: int, weights: dict[str, float],
                doc_filter=None) -> list[tuple]:
        """Run one resolved plan over the OWNED shards with the given
        per-term weights (the router supplies global ones) and return
        this owner's share of the answer for ``PlanRunner._merge``:

        - its top-``k`` (doc_id, score) rows — a plain plan takes the
          ``search_bmw`` dispatch; a cursor plan keeps only hits
          strictly after ``after`` in the (score desc, doc_id asc)
          order; ``exclude_doc`` leaves before the cut;
        - for a positional plan, every (doc_id, score) conjunctive
          candidate, uncut: verification happens after the merge;
        - for a collapse plan, per ``docmeta[field]`` group its (score
          desc, doc_id asc) leader as (doc_id, score, value, n), n the
          group's full match count. Docs with a null value belong to no
          group."""
        if _is_plain(plan):
            return self._bmw(weights, k, doc_filter)
        ids, scores = self._matches(weights, plan["must"], plan["must_not"],
                                    doc_filter)
        if plan["positional"]:
            return list(zip(ids.tolist(), scores.tolist()))
        if plan["collapse"]:
            return self._leaders(ids, scores, plan["collapse"])
        if plan["after"]:
            s0, d0 = plan["after"]
            keep = (scores < s0) | ((scores == s0) & (ids > d0))
            ids, scores = ids[keep], scores[keep]
        if plan["exclude_doc"] is not None:
            keep = ids != plan["exclude_doc"]
            ids, scores = ids[keep], scores[keep]
        return rank_topk(ids, scores, k)

    def _leaders(self, ids: np.ndarray, scores: np.ndarray,
                 field: str) -> list[tuple]:
        codes, values = self.meta_codes(field)
        g = codes[ids]
        grouped = g >= 0
        ids, scores, g = ids[grouped], scores[grouped], g[grouped]
        if not len(ids):
            return []
        order = np.lexsort((ids, -scores))  # score desc, doc_id asc
        uniq, first = np.unique(g[order], return_index=True)
        counts = np.bincount(g, minlength=len(values))
        return [
            (int(ids[order[f]]), float(scores[order[f]]), values[int(c)],
             int(counts[int(c)]))
            for c, f in zip(uniq.tolist(), first.tolist())
        ]

    def match_ids(self, query: str, doc_filter=None) -> np.ndarray:
        """Sorted doc ids (owned shards) containing AT LEAST ONE query
        term — the OR match set before the top-k cut, and the
        population facet counts aggregate over. Tombstones and the
        optional metadata filter excluded exactly as in ranked
        search."""
        return self._matches(dict.fromkeys(self.tokenize(query), 1.0),
                             doc_filter=doc_filter)[0]

    def conjunctive_scores(
        self, terms: list[str], doc_filter=None,
        weights: dict[str, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Docs containing EVERY term in ``terms`` (AND semantics), with
        their full BM25 scores — the candidate stage of the positional
        modes; (doc_ids, scores) sorted by doc_id. A term absent from
        the index empties the conjunction."""
        return self._matches(self._term_weights(terms, weights),
                             must=sorted(set(terms)), doc_filter=doc_filter)

    def facet_counts(
        self, query: str, facet_cols: list[str], doc_filter=None,
    ) -> dict[str, dict[str, int]]:
        """Facet counts over the FULL match set (every doc containing
        ≥1 query term — not just the top-k page): for each requested
        docmeta column, {value: n_matching_docs}. The Lucene faceting
        shape: the ranked page answers "what are the best hits", the
        facets answer "how does the whole result set distribute".
        Vectorized: one match-mask pass + one ``bincount`` per column
        over the cached code array; additive across shard subsets, so
        the sharded service sums per-actor partial dicts."""
        ids = self.match_ids(query, doc_filter)
        out: dict[str, dict[str, int]] = {}
        for col in facet_cols:
            codes, values = self.meta_codes(col)
            c = codes[ids]
            c = c[c >= 0]
            cnt = np.bincount(c, minlength=len(values))
            out[col] = {v: int(n) for v, n in zip(values, cnt) if n}
        return out

    def length_facets(
        self, query: str, edges: list[int], doc_filter=None,
    ) -> list[dict]:
        """Numeric range-facet counts (the Elasticsearch range /
        histogram aggregation shape) of the FULL OR match set over the
        per-doc token length: bucket i covers ``[edges[i],
        edges[i+1])`` with the last bucket open-ended; ``edges`` must
        be ascending and start low enough to cover every matched doc
        (0 always works — a matched doc has >= 1 token). Presence
        only, no idf — so the sharded service needs no df exchange and
        per-actor partials over owned docs SUM exactly at the router.
        Returns only non-empty buckets, ascending by ``lo``."""
        ids = self.match_ids(query, doc_filter)
        if not len(ids):
            return []
        e = np.asarray(edges, dtype=np.float64)
        idx = np.searchsorted(e, self.doc_len[ids], side="right") - 1
        cnt = np.bincount(idx[idx >= 0], minlength=len(edges))
        return [
            {"lo": int(edges[i]), "n": int(n)}
            for i, n in enumerate(cnt) if n
        ]

    def explain(
        self, query: str, doc_ids, weights: dict[str, float] | None = None,
        df_override: dict[str, int] | None = None,
    ) -> list[dict]:
        """Lucene-style scoring explanation: for each requested doc and
        each query term the doc contains, the BM25 components —
        ``tf`` (term frequency in the doc), ``df`` (exact global
        document frequency), ``idf``, ``dl`` (doc length), the
        length-normalized tf ``partial``, and ``contribution =
        idf * partial``. A doc's contributions sum to exactly its
        ``search_taat`` score (same float64 adds in the same
        term-ascending order), so explain is an audit of the ranked
        page, not a second scorer. Tombstoned docs are skipped (they
        can never appear on a ranked page). Rows come back
        (doc_id asc, term asc); an explanation is per-query-rare, so
        the full posting decode per term reuses the shard row access
        the scorer itself uses.

        Sharded serving passes ``weights`` (global idf from the
        router's df exchange) and ``df_override`` (the summed global
        df) — a shard-subset reader's own df is shard-local."""
        targets = np.asarray(
            sorted({int(d) for d in doc_ids}), dtype=np.int64)
        if len(self.tombstones):
            from .maintenance import is_tombstoned

            targets = targets[~is_tombstoned(self.tombstones, targets)]
        if not len(targets):
            return []
        k1, b = self.params.k1, self.params.b
        rows: list[dict] = []
        for t, w, locs in self._term_infos(
                self._term_weights(self.tokenize(query), weights)):
            df_global = (
                df_override[t] if df_override is not None and t in df_override
                else sum(self.shards[s].df_local_at(i) for s, i in locs)
            )
            for s, i in locs:
                sh = self.shards[s]
                in_span = targets[(targets >= sh.lo) & (targets < sh.hi)]
                if not len(in_span):
                    continue
                ids_u, tfs = decode_all_blocks(sh.row(i), self.block_size)
                ids = ids_u.astype(np.int64)
                pos = np.searchsorted(ids, in_span)
                pos_c = np.minimum(pos, max(len(ids) - 1, 0))
                hit = (pos < len(ids)) & (ids[pos_c] == in_span)
                for d, p in zip(in_span[hit], pos_c[hit]):
                    tf = float(tfs[p])
                    dl = float(self.doc_len[d])
                    part = tf * (k1 + 1.0) / (
                        tf + k1 * (1.0 - b + b * dl / self.avgdl))
                    rows.append({
                        "doc_id": int(d), "term": t, "tf": int(tfs[p]),
                        "df": int(df_global), "idf": w, "dl": int(dl),
                        "partial": part, "contribution": w * part,
                    })
        rows.sort(key=lambda r: (r["doc_id"], r["term"]))
        return rows

    def significant_terms(
        self, query: str, k: int = 10, sample_n: int = 50, doc_filter=None,
    ) -> list[dict]:
        """Significant-terms aggregation (the Elasticsearch shape):
        terms unusually frequent in the query's match set relative to
        the whole corpus — "what is this result set ABOUT". Foreground
        = the first ``sample_n`` matched doc ids ascending (the
        deterministic sample a SQL oracle can mirror), read with one
        doc_id-pruned docterms fetch; per candidate term the add-one
        log-odds of its foreground doc rate vs its corpus doc rate,
        query terms themselves excluded (they are significant by
        construction, like MLT's anchor exclusion). Top-``k`` by
        (lor desc, term asc). Rows: {"term", "fg_df", "df", "lor"}."""
        ids = self.match_ids(query, doc_filter)[:sample_n].tolist()
        exclude = set(self.tokenize(query))
        fg = _sample_doc_freqs(self.index_dir, ids)
        cand = sorted(t for t in fg if t not in exclude)
        dfs = self.df_locals(cand)
        return _score_significant(fg, dfs, len(ids), self.n_docs, cand, k)

    # -- dictionary expansion -------------------------------------------------
    def expand_batch(self, specs: list[tuple]) -> list[list[str]]:
        """The term list of each (kind, arg, cap) expansion spec (see
        ``compile_plan``) over the owned shards."""
        out = []
        for kind, arg, cap in specs:
            if kind == "fuzzy":
                word, max_edits, prefix_len = arg
                out.append(self.expand_fuzzy(word, max_edits, prefix_len, cap))
            else:
                out.append(getattr(self, f"expand_{kind}")(arg, cap))
        return out

    def _dicts(self):
        """The owned shards that hold a term dictionary."""
        return [sh for sh in self.shards if sh is not None and sh._terms is not None]

    def expand_prefix(self, prefix: str, max_expansions: int = 64) -> list[str]:
        """Dictionary terms starting with ``prefix``: per shard, one
        binary search on the C-sorted term column finds the range start,
        then a contiguous forward scan collects matches (prefix matches
        ARE contiguous under lexicographic order). Union across owned
        shards, sorted ascending, capped at the lexicographically first
        ``max_expansions`` — a deterministic cap (Lucene's
        max_expansions contract), mirrored by the oracle's
        ``ORDER BY term LIMIT n``. Cost: O(log V + matches) per shard —
        never a vocabulary scan."""
        out: set[str] = set()
        for sh in self._dicts():
            out.update(_dict_range(sh._terms, prefix))
        return sorted(out)[:max_expansions]

    def expand_wildcard(
        self, pattern: str, max_expansions: int = 64,
    ) -> list[str]:
        """Dictionary terms matching a ``*``-wildcard pattern (the
        Lucene WildcardQuery shape: ``foo*``, ``*bar``, ``fo*ar``,
        ``*mid*``). The literal prefix before the first ``*`` prunes to
        one contiguous dictionary range (binary search, as in
        expand_prefix); the full pattern is then checked with one
        compiled anchored regex. A leading ``*`` with a literal TAIL
        (``*bar``, ``*mi*ar``) prunes the same way against the
        per-shard REVERSED-term dictionary (built lazily, see
        ``_ShardIndex.rev_terms``) — the suffix becomes a contiguous
        prefix range on reversed terms, so neither anchored variant
        ever scans the vocabulary. Only the doubly-open ``*mid*``
        shape remains a scan (exact; the production answer for infix
        at web scale is a term n-gram index, out of scope here).
        Sorted + capped like expand_prefix (mirrored by the oracle's
        ORDER BY/LIMIT)."""
        import re as _re

        pattern = pattern.lower()
        pfx = pattern.split("*", 1)[0]
        sfx = pattern.rsplit("*", 1)[-1] if "*" in pattern else ""
        rx = _re.compile(
            ".*".join(_re.escape(p) for p in pattern.split("*")) + r"\Z")
        out: set[str] = set()
        for sh in self._dicts():
            if pfx or not sfx:
                out.update(v for v in _dict_range(sh._terms, pfx) if rx.match(v))
            else:
                for v in _dict_range(sh.rev_terms(), sfx[::-1]):
                    if rx.match(v[::-1]):
                        out.add(v[::-1])
        return sorted(out)[:max_expansions]

    def expand_regex(self, pattern: str, max_expansions: int = 64) -> list[str]:
        """Dictionary terms fully matching a regular expression (the
        Lucene RegexpQuery shape). The pattern's LITERAL PREFIX — the
        chars before its first regex metacharacter, dropping the last
        one when a quantifier follows it (``so*rt`` pins only ``s``:
        the ``o`` is optional) — prunes the probe to one contiguous
        dictionary range exactly as in ``expand_prefix``; a pattern
        with no literal prefix (class or alternation head, e.g.
        ``[sb]ort``) degrades to a dictionary scan (exact; the
        production answer at web scale is the same term n-gram index
        that doubly-open wildcard infix needs). Anchored full-match
        semantics (``re.fullmatch``), sorted + capped like
        ``expand_prefix`` (mirrored by the oracle's ORDER BY/LIMIT)."""
        import re as _re

        pattern = pattern.lower()
        rx = _re.compile(pattern)
        meta = set(".^$*+?()[]{}|\\")
        lit: list[str] = []
        for ch in pattern:
            if ch in meta:
                break
            lit.append(ch)
        if len(lit) < len(pattern) and pattern[len(lit)] in "*+?{" and lit:
            lit.pop()  # quantifier binds the previous atom
        pfx = "".join(lit)
        out: set[str] = set()
        for sh in self._dicts():
            out.update(v for v in _dict_range(sh._terms, pfx) if rx.fullmatch(v))
        return sorted(out)[:max_expansions]

    def expand_fuzzy(
        self, word: str, max_edits: int = 1, prefix_len: int = 1,
        max_expansions: int = 64,
    ) -> list[str]:
        """Dictionary terms within ``max_edits`` Levenshtein edits of
        ``word`` whose first ``prefix_len`` chars match (the standard
        FuzzyQuery prefix_length pruning — candidates live in ONE
        contiguous dictionary range, found by the prefix binary search;
        ``prefix_len=0`` degrades to a full dictionary scan and is for
        small vocabularies only). Within the range, a cheap
        |len| <= max_edits prefilter runs before the banded edit-distance
        check. Sorted + capped like ``expand_prefix``."""
        out: set[str] = set()
        wl = len(word)
        for sh in self._dicts():
            for v in _dict_range(sh._terms, word[:prefix_len]):
                if v not in out and abs(len(v) - wl) <= max_edits \
                        and _levenshtein_leq(v, word, max_edits):
                    out.add(v)
        return sorted(out)[:max_expansions]

    # -- serial entry points: one plan through PlanRunner.topk ----------------
    def _search(self, mode: str, query: str, k: int, doc_filter=None,
                **params) -> list[tuple[int, float]]:
        hits = self.topk([self.compile(mode, query, params)], k, doc_filter)
        return [(h["doc_id"], h["score"]) for h in hits]

    def search_boolean(
        self, must: str = "", should: str = "", must_not: str = "",
        k: int = 10, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Boolean-clause retrieval (the Lucene BooleanQuery shape): a
        doc is a candidate iff it contains EVERY must term and NO
        must_not term; with no must terms, any doc matching at least
        one should term. Candidates rank by the BM25 sum over the
        DISTINCT (must ∪ should) terms they contain — must_not only
        excludes, never scores."""
        return self._search("boolean", "", k, doc_filter, must=must,
                            should=should, must_not=must_not)

    def search_prefix(
        self, prefix: str, k: int = 10, max_expansions: int = 64, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Prefix (``pre*``) retrieval: expand against the term
        dictionary, then OR-score the expansions — each expanded term
        contributes with its own idf (rare completions outrank
        stopword-ish ones)."""
        return self._search("prefix", prefix, k, doc_filter,
                            max_expansions=max_expansions)

    def search_wildcard(
        self, pattern: str, k: int = 10, max_expansions: int = 64,
        doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Wildcard retrieval: OR-score the pattern's dictionary
        expansions (see ``expand_wildcard``) with per-term idf."""
        return self._search("wildcard", pattern, k, doc_filter,
                            max_expansions=max_expansions)

    def search_regex(
        self, pattern: str, k: int = 10, max_expansions: int = 64,
        doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Regex retrieval: OR-score the pattern's anchored full-match
        dictionary expansions (see ``expand_regex``) with per-term
        idf."""
        return self._search("regex", pattern, k, doc_filter,
                            max_expansions=max_expansions)

    def search_fuzzy(
        self, word: str, k: int = 10, max_edits: int = 1, prefix_len: int = 1,
        max_expansions: int = 64, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Fuzzy (edit-distance) retrieval: OR-score the dictionary
        terms within ``max_edits`` of ``word`` (see ``expand_fuzzy``)
        with per-term idf — an exact vocabulary term ranks its own
        postings first because rarer variants carry higher idf."""
        return self._search("fuzzy", word, k, doc_filter, max_edits=max_edits,
                            prefix_len=prefix_len,
                            max_expansions=max_expansions)

    def search_boosted(
        self, query: str, k: int = 10, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Query-time term boosting (Lucene ``term^2.5`` clause syntax,
        see ``parse_boosted_query``): each term scores with boost·idf,
        so an all-1.0 query reproduces ``search_taat`` bitwise and a
        boosted out-of-vocabulary term contributes nothing."""
        return self._search("boosted", query, k, doc_filter)

    def search_synonym(
        self, query: str, k: int = 10, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Query-time synonym expansion (frozen ``flagship.SYNONYMS``
        map, one hop — expansions never chain), OR-scored with
        per-term idf. Out-of-vocabulary expansions contribute
        nothing."""
        return self._search("synonym", query, k, doc_filter)

    def search_after(
        self, query: str, k: int = 10,
        after: tuple[float, int] | None = None, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Cursor paging (the Elasticsearch ``search_after`` shape):
        the top-``k`` hits STRICTLY AFTER the ``(score, doc_id)``
        cursor in the engine-wide (score desc, doc_id asc) total
        order — a cursor walk fetches k per page no matter how deep.
        ``after=None`` is page one (== top-k)."""
        return self._search("bm25", query, k, doc_filter, search_after=after)

    def search_collapse(
        self, query: str, field: str, k: int = 10, doc_filter=None,
    ) -> list[dict]:
        """Field-collapsed top-k (the Elasticsearch ``collapse`` shape):
        each ``docmeta[field]`` group is represented by its (score
        desc, doc_id asc) leader, the best ``k`` groups ranked by their
        leaders. Rows {"rank", "value", "doc_id", "score", "n"}, ``n``
        the group's full match-set size."""
        hits = self.topk([self.compile("collapse", query, {"collapse_field": field})],
                         k, doc_filter)
        return [
            {"rank": h["rank"], "value": h["group"], "doc_id": h["doc_id"],
             "score": h["score"], "n": h["group_n"]}
            for h in hits
        ]

    def more_like_this(
        self, doc_tokens: list[str], exclude_doc: int | None = None,
        k: int = 10, max_terms: int = 8, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Similar-document retrieval (Lucene MoreLikeThis): OR-score
        the source's ``max_terms`` highest-tf·idf terms, drop the
        source doc itself, top-k. The source's TOKENS are the input —
        the caller owns text access."""
        plan = self.compile("more_like_this", "",
                            {"max_terms": max_terms, "exclude_doc": exclude_doc})
        plan["feedback"]["tokens"] = list(doc_tokens)
        return [(h["doc_id"], h["score"]) for h in self.topk([plan], k, doc_filter)]

    def search_prf(
        self, query: str, k: int = 10, fb_docs: int = 5, fb_terms: int = 8,
        beta: float = 0.5, doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Pseudo-relevance-feedback retrieval (Rocchio-style query
        expansion, public IR knowledge — Rocchio 1971, RM3 family): the
        query's top ``fb_docs`` hits are taken as relevant, their
        ``fb_terms`` highest (summed tf)·idf terms join the query at
        ``beta``·idf (see ``PlanRunner._resolve_feedback``)."""
        return self._search("prf", query, k, doc_filter, fb_docs=fb_docs,
                            fb_terms=fb_terms, beta=beta)

    def search_or_terms(
        self, terms: list[str], k: int = 10, doc_filter=None,
        weights: dict[str, float] | None = None,
    ) -> list[tuple[int, float]]:
        """Exhaustive OR-of-terms top-k over an EXPLICIT, already
        normalized term list; ``weights`` overrides idf per term."""
        return rank_topk(*self._matches(self._term_weights(terms, weights),
                                        doc_filter=doc_filter), k)

    def search_page(
        self, query: str, k: int = 10, offset: int = 0, algo: str = "bmw",
        doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Deterministic deep paging: ranks offset+1..offset+k of the
        (score desc, doc_id asc) total order — fetch top-(offset+k)
        and slice, the standard exact form (the total order makes a
        page stable across calls; cursor/search_after is the same slice
        keyed by the last (score, doc_id) seen)."""
        hits = getattr(self, f"search_{algo}")(
            query, k + offset, doc_filter=doc_filter)
        return hits[offset : offset + k]

    # -- exhaustive TAAT ------------------------------------------------------
    def search_taat(
        self, query: str, k: int = 10, weights: dict[str, float] | None = None,
        doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Exhaustive term-at-a-time top-k. ``doc_filter``: optional
        search-time metadata restriction — ("col", "value") against
        docmeta, or a precomputed bool mask over the doc-id span.
        Corpus stats (idf, avgdl) stay GLOBAL; only result membership
        is restricted (tombstone semantics)."""
        return self.search_or_terms(self.tokenize(query), k, doc_filter, weights)

    # -- block-max WAND (vectorized block-at-a-time variant) ------------------
    def search_bmw(
        self, query: str, k: int = 10, weights: dict[str, float] | None = None,
        doc_filter=None,
    ) -> list[tuple[int, float]]:
        """Block-max top-k (Ding & Suel BMW, windowed variant): the doc
        space is swept in windows ending at the nearest block boundary
        (skip pointer) among the live terms; a window whose summed
        block-max upper bound cannot beat the heap threshold is skipped
        WITHOUT decoding any postings; a surviving window is decoded and
        scored fully-vectorized (numpy over <= block_size postings per
        term), accumulating each doc's terms in sorted-term float64
        order — bit-identical to search_taat, hence rank-identical to
        the brute-force oracle."""
        return self._bmw(self._term_weights(self.tokenize(query), weights), k,
                         doc_filter)

    def _bmw(self, weights: dict[str, float], k: int,
             doc_filter=None) -> list[tuple[int, float]]:
        infos = self._term_infos(weights)
        if len(infos) <= 1:
            # single-term: no WAND pruning exists (one cursor), and on
            # flat tf distributions block-max skipping degenerates to a
            # per-block python loop — the canonical fast path is one
            # vectorized exhaustive scan (bitwise-identical scores)
            return rank_topk(*self._matches(weights, doc_filter=doc_filter), k)
        # dense-query dispatch: when EVERY term is stopword-like (df
        # over this reader's shards >= dense_query_cutoff of its doc
        # span), nearly every doc matches every term, block-max tables
        # are flat, and no window's upper bound ever drops below the
        # heap threshold — BMW then pays its per-window bookkeeping on
        # top of a full decode. The vectorized exhaustive scan wins
        # (and is bitwise rank/score-identical by construction; with
        # one selective term present, WAND's skipping stays worth it).
        owned_docs = sum(sh.hi - sh.lo for sh in self.shards if sh is not None)
        cutoff = self.dense_query_cutoff * max(1, owned_docs)
        if all(
            sum(self.shards[s].df_local_at(i) for s, i in locs) >= cutoff
            for _, _, locs in infos
        ):
            return rank_topk(*self._matches(weights, doc_filter=doc_filter), k)
        # masking only WITHHOLDS docs from the heap: window upper
        # bounds stay valid (they over-estimate the filtered subset),
        # so pruning remains admissible — just less tight (theta grows
        # from filtered survivors only). Scores of survivors are
        # accumulated identically, hence still bitwise == search_taat.
        mask = self._resolve_filter(doc_filter)
        heap: list[tuple[float, int]] = []  # (score, -doc_id) min-heap of top-k
        for s, sh in enumerate(self.shards):
            if sh is None:
                continue
            cursors = [
                _BlockCursor(t, w, sh.row(i), self.block_size)
                for (t, w, locs) in infos
                for (ss, i) in locs
                if ss == s
            ]  # infos follow sorted `terms` -> cursors stay term-sorted
            self._bmw_shard(sh, cursors, k, heap, mask)
        out = sorted(heap, key=lambda e: (-e[0], -e[1]))[:k]
        return [(-negid, score) for score, negid in out]

    def _bmw_shard(self, sh: _ShardIndex, cursors: list["_BlockCursor"], k: int,
                   heap: list[tuple[float, int]],
                   mask: np.ndarray | None = None) -> None:
        if not cursors:
            return
        k1, b = self.params.k1, self.params.b
        avgdl = self.avgdl
        doc_len = self.doc_len

        stride = 1  # adaptive window width in blocks of the min cursor:
        # doubles while windows keep being scored (pruning ineffective ->
        # amortize the python loop), resets to 1 after a skip (pruning
        # effective -> keep block-granular skipping)
        while True:
            live = [c for c in cursors if not c.exhausted]
            if not live:
                return
            theta = heap[0][0] if len(heap) >= k else -np.inf
            if sum(c.max_score for c in live) <= theta:
                return  # no remaining doc in this shard can beat theta
            cmin = min(live, key=lambda c: c.cur_block_last())
            j = min(cmin.bi + stride - 1, cmin.nblocks - 1)
            window_end = int(cmin.block_last[j])
            ub = sum(c.window_max(window_end) for c in live)
            if ub <= theta:
                # skip: nothing in (floor, window_end] can make top-k
                for c in live:
                    c.skip_to(window_end)
                stride = 1
                continue
            stride = min(stride * 2, 64)
            # score the window: decode each live term's slice, then
            # accumulate per-doc in sorted-term order (== TAAT order)
            slices = []
            for c in live:
                ids, tfs = c.take_upto(window_end)
                if len(ids):
                    slices.append((c.weight, ids, tfs))
            if slices:
                all_ids = (
                    slices[0][1]
                    if len(slices) == 1
                    else np.unique(np.concatenate([s[1] for s in slices]))
                )
                scores = np.zeros(len(all_ids), dtype=np.float64)
                for w, ids, tfs in slices:
                    idx = np.searchsorted(all_ids, ids)
                    tfs_f = tfs.astype(np.float64)
                    dl = doc_len[ids.astype(np.int64)]
                    scores[idx] += w * (
                        tfs_f * (k1 + 1.0)
                        / (tfs_f + k1 * (1.0 - b + b * dl / avgdl))
                    )
                if mask is not None:  # filtered-out docs never enter the heap
                    keepm = mask[all_ids.astype(np.int64)]
                    all_ids, scores = all_ids[keepm], scores[keepm]
                if len(self.tombstones):  # deleted docs never enter the heap
                    from .maintenance import is_tombstoned

                    live = ~is_tombstoned(
                        self.tombstones, all_ids.astype(np.int64)
                    )
                    all_ids, scores = all_ids[live], scores[live]
                if len(heap) >= k:  # vectorized pre-filter vs current theta
                    sel = scores > heap[0][0]
                    all_ids, scores = all_ids[sel], scores[sel]
                for doc, score in zip(all_ids, scores):
                    entry = (float(score), -int(doc))
                    if len(heap) < k:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)


class _BlockCursor:
    """Posting cursor over one term's blocks: skip pointers + per-block
    score bounds come from the block metadata (no decode needed to
    skip); the posting payload is bulk-decoded lazily in one vectorized
    pass on first contact (decode_all_blocks), after which window
    slices are searchsorted views."""

    __slots__ = ("term", "weight", "row", "block_last", "bmax", "nblocks",
                 "bi", "floor", "pos", "ids", "tfs", "bs", "max_score")

    def __init__(self, term: str, weight: float, row: dict, block_size: int):
        self.term = term
        self.weight = weight
        self.row = row
        self.bs = block_size
        self.block_last = np.asarray(row["block_last_doc"], dtype=np.uint64)
        self.bmax = np.asarray(row["block_max_partial"], dtype=np.float64)
        self.nblocks = len(self.block_last)
        self.bi = 0  # first block whose last doc exceeds `floor`
        self.floor = -1  # docs <= floor are pruned/consumed
        self.pos = 0  # decoded-array position (valid once decoded)
        self.ids = None
        self.tfs = None
        self.max_score = weight * row["max_partial"]

    @property
    def exhausted(self) -> bool:
        return self.bi >= self.nblocks

    def cur_block_last(self) -> int:
        return int(self.block_last[self.bi])

    def cur_block_max(self) -> float:
        return self.weight * float(self.bmax[self.bi])

    def window_max(self, window_end: int) -> float:
        """Upper bound of this term's partial over docs in
        (floor, window_end] — max block_max over the touched blocks
        (conservatively includes the current block even when it only
        partially overlaps)."""
        if self.exhausted:
            return 0.0
        bl = self.block_last
        bi = self.bi
        if bl[bi] >= window_end:
            return self.weight * float(self.bmax[bi])
        j = int(np.searchsorted(bl, np.uint64(window_end), side="left"))
        j = min(j, self.nblocks - 1)
        return self.weight * float(self.bmax[bi: j + 1].max())

    def skip_to(self, boundary: int) -> None:
        """Prune all docs <= boundary — block-metadata only, O(log nb),
        the payload of fully-skipped cursors is never decoded."""
        if boundary > self.floor:
            self.floor = boundary
            if self.ids is not None:
                self.pos = max(
                    self.pos,
                    int(np.searchsorted(self.ids, np.uint64(boundary), side="right")),
                )
            if not self.exhausted and self.block_last[self.bi] <= boundary:
                self.bi = int(
                    np.searchsorted(self.block_last, np.uint64(boundary), side="right")
                )

    def take_upto(self, boundary: int) -> tuple[np.ndarray, np.ndarray]:
        """Consume and return (ids, tfs) views with floor < doc <=
        boundary."""
        if self.exhausted:
            return _EMPTY_U64, _EMPTY_U64
        if self.ids is None:
            self.ids, self.tfs = decode_all_blocks(self.row, self.bs)
            self.pos = int(
                np.searchsorted(self.ids, np.uint64(max(self.floor, 0)), side="right")
            ) if self.floor >= 0 else 0
        start = self.pos
        end = int(np.searchsorted(self.ids, np.uint64(boundary), side="right"))
        out = (self.ids[start:end], self.tfs[start:end])
        self.pos = end
        self.skip_to(boundary)
        return out


_EMPTY_U64 = np.empty(0, dtype=np.uint64)


class QueryScorer:
    """Actor-pool callable: batch of (qid, query) -> top-k rows.

    Usage: ``queries_ds.map_batches(QueryScorer,
    fn_constructor_kwargs={"index_dir": ..., "k": 10},
    batch_format="pandas", concurrency=N)``.

    ``reader_ref`` (an ``ray.ObjectRef`` of an already-loaded
    ``IndexReader``, from ``ray.put(IndexReader(index_dir))``; the
    caller must keep the ref alive until the pool finishes) makes
    pool startup O(1)
    per actor instead of each actor re-reading + re-decompressing the
    whole index from parquet: the driver (or any one task) loads once,
    ``ray.put``s it, and every actor gets zero-copy plasma-backed
    views of the numpy/Arrow state — one physical copy per NODE, which
    is exactly the cluster-scale layout (each node's object store
    holds the index once, all its scorer actors share it).
    """

    def __init__(
        self,
        index_dir: str | None = None,
        k: int = 10,
        algo: str = "taat",
        reader_ref=None,
        doc_filter=None,
        fb_docs: int = 5,
        fb_terms: int = 8,
        beta: float = 0.5,
    ):
        if reader_ref is not None:
            import ray as _ray

            self.reader = _ray.get(reader_ref)
        else:
            self.reader = IndexReader(index_dir)
        self.k = k
        self.algo = algo
        self.fb_docs, self.fb_terms, self.beta = fb_docs, fb_terms, beta
        # resolve ("col", value) -> mask ONCE per actor, not per batch
        # (the plasma-shared reader's mask cache is per-actor local)
        self.doc_filter = (
            self.reader._resolve_filter(doc_filter) if doc_filter is not None else None
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self.algo == "prf":
            def search(query, k, doc_filter=None):
                return self.reader.search_prf(
                    query, k, fb_docs=self.fb_docs, fb_terms=self.fb_terms,
                    beta=self.beta, doc_filter=doc_filter)
        else:
            search = (
                self.reader.search_bmw if self.algo == "bmw"
                else self.reader.search_taat
            )
        out = {"qid": [], "rank": [], "doc_id": [], "score": []}
        for qid, query in zip(batch["qid"], batch["query"]):
            for rank, (doc, score) in enumerate(
                search(query, self.k, doc_filter=self.doc_filter), start=1
            ):
                out["qid"].append(qid)
                out["rank"].append(rank)
                out["doc_id"].append(doc)
                out["score"].append(score)
        # explicit dtypes: an all-empty batch must emit the SAME schema
        # as a non-empty one (pandas infers float64 for empty lists,
        # which makes Ray warn about mixed block schemas downstream)
        return pd.DataFrame(
            {
                "qid": pd.Series(out["qid"], dtype="int64"),
                "rank": pd.Series(out["rank"], dtype="int64"),
                "doc_id": pd.Series(out["doc_id"], dtype="int64"),
                "score": pd.Series(out["score"], dtype="float64"),
            }
        )


def hydrate_hits(hits_df: pd.DataFrame, index_dir: str) -> pd.DataFrame:
    """Join top-k hits with document metadata (the reference's
    per-hit SQLite lookup, server.py:165 + db.py:393-397, re-expressed
    as ONE pushdown semi-join against docmeta).

    The tiny hit doc_id set drives the read, pruning twice:

    1. **partition prune** — docmeta is hive-partitioned by shard; only
       the hit doc_ids' shard directories are even opened (shard =
       searchsorted(shard_bounds, doc_id)), so at 10^12 docs a 10-hit
       hydration touches k directories, not the whole table;
    2. **row-group prune** — within those files a
       ``field("doc_id").isin(hit_ids)`` predicate is pushed to the
       parquet reader, which skips row groups whose min/max statistics
       exclude every hit.

    Nothing docmeta-sized ever reaches the driver
    (tests/test_build_query.py::test_hydration_reads_only_hit_shards
    proves non-hit shards are never read)."""
    import pyarrow.dataset as pads

    docmeta_dir = os.path.join(index_dir, "docmeta")
    ids = np.unique(hits_df["doc_id"].to_numpy()).astype(np.int64) if len(hits_df) else np.empty(0, np.int64)

    stats_path = os.path.join(index_dir, "stats.json")
    files: list[str] = []
    if os.path.exists(stats_path) and len(ids):
        from .build import make_shard_of

        with open(stats_path) as f:
            bounds = json.load(f)["shard_bounds"]
        hit_shards = np.unique(make_shard_of(bounds)(ids))
        for s in hit_shards:
            files.extend(
                sorted(glob.glob(os.path.join(docmeta_dir, f"shard={int(s)}", "*.parquet")))
            )
    if not files:  # legacy non-partitioned layout, or schema-only (0 hits)
        files = sorted(
            glob.glob(os.path.join(docmeta_dir, "**", "*.parquet"), recursive=True)
        )
        if not files:
            return hits_df
        if not len(ids):  # 0 hits: one row-group-pruned read just for schema
            files = files[:1]

    tbl = pads.dataset(files, format="parquet").to_table(
        filter=pads.field("doc_id").isin(ids)
    )
    meta = tbl.to_pandas()
    meta["content_sha256"] = meta["content_sha256"].map(
        lambda b: bytes(b).hex() if b is not None else None
    )
    return hits_df.merge(meta, on="doc_id", how="left")
