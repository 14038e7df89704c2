"""Evaluation-harness pipelines: the Ray-native re-expression of the
reference's metric scripts (SURVEY.md §2.5 G2-G5):

- token-set precision/recall/F1  (/root/reference/caption_generator_post.py:11-27)
- average precision + MAP        (/root/reference/MAP.py:1-31)
- overlap@k of two ranked lists  (/root/reference/post_test_score.py:34-79)

The reference compares two caption models' outputs; our engine compares
two *retrieval configurations* over the same corpus — BM25 top-k vs a
tf-only ranking — and token sets of a truncated candidate vs the full
document. Everything is deterministic and (apart from the index build)
SQL-expressible, so each op has a DuckDB oracle in __ray_entry__.py.

Scale notes: per-doc metrics are embarrassingly parallel map_batches;
ranked-list evaluation touches only qids x k rows (driver-side merge is
O(k) like the reference's per-query loop, post_test_score.py:43-66);
the tf-only ranking uses per-batch partial top-k + tiny driver merge —
no global sort of scores.
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.tokenizer import get_tokenizer
from .analysis import e6


# ---------------------------------------------------------------------------
def token_prf(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    """Per-doc token-set precision/recall/F1 of a truncated candidate
    (first half of the text, by characters) against the full text
    (reference: calculate_precision_recall over gemini-vs-reference
    token sets, caption_generator_post.py:11-27)."""
    tok = get_tokenizer(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        prec, rec, f1 = [], [], []
        for text in batch["text"].to_pylist():
            text = text or ""
            ref = set(tok(text))
            cand = set(tok(text[: len(text) // 2]))
            tp = len(cand & ref)
            p = tp / len(cand) if cand else 0.0
            r = tp / len(ref) if ref else 0.0
            f = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
            prec.append(p)
            rec.append(r)
            f1.append(f)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "precision_e6": pa.array(e6(np.array(prec)), pa.int64()),
                "recall_e6": pa.array(e6(np.array(rec)), pa.int64()),
                "f1_e6": pa.array(e6(np.array(f1)), pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
def _query_term_sets(queries, tokenizer: str) -> dict[int, list[str]]:
    tok = get_tokenizer(tokenizer)
    return {q["qid"]: sorted(set(tok(q["query"]))) for q in queries}


def conjunctive_matches(
    ds: ray.data.Dataset, qterms: dict[int, list[str]], tokenizer: str = "simple"
) -> pd.DataFrame:
    """(qid, doc_id) for docs containing ALL of a query's terms — the
    relevance oracle for rank-aware metrics. Distributed containment
    scan; only matching pairs leave the map task."""
    tok = get_tokenizer(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        qids, dids = [], []
        doc_ids = batch["doc_id"].to_pylist()
        for i, text in enumerate(batch["text"].to_pylist()):
            toks = set(tok(text or ""))
            for qid, terms in qterms.items():
                if terms and all(t in toks for t in terms):
                    qids.append(qid)
                    dids.append(doc_ids[i])
        return pa.table(
            {
                "qid": pa.array(qids, pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
            }
        )

    out = ds.map_batches(fn, batch_format="pyarrow").to_pandas()
    return out


def average_precision_at_k(
    hits: pd.DataFrame, rel: pd.DataFrame, qids: list[int], k: int = 10
) -> pd.DataFrame:
    """Per-query (qid, n_rel, ap_e6): AP@k with precision accumulated at
    each relevant rank (reference calculate_average_precision,
    MAP.py:1-18), denominator min(n_rel, k)."""
    rel_sets = {qid: set(g["doc_id"]) for qid, g in rel.groupby("qid")}
    rows = []
    for qid in qids:
        rset = rel_sets.get(qid, set())
        n_rel = len(rset)
        ranked = hits[hits["qid"] == qid].sort_values("rank")
        cum = 0
        ap = 0.0
        for r, doc in enumerate(ranked["doc_id"], start=1):
            if doc in rset:
                cum += 1
                ap += cum / r
        denom = min(n_rel, k)
        ap = ap / denom if denom else 0.0
        rows.append((qid, n_rel, int(e6(np.array([ap]))[0])))
    return pd.DataFrame(rows, columns=["qid", "n_rel", "ap_e6"]).astype("int64")


def tf_only_topk(
    ds: ray.data.Dataset,
    qterms: dict[int, list[str]],
    k: int = 10,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """Per-query top-k by summed raw tf, tie-break (tfsum desc, doc_id
    asc). Per-batch partial top-k; the driver merges qids x k rows."""
    tok = get_tokenizer(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        counters = [Counter(tok(t or "")) for t in batch["text"].to_pylist()]
        qq, dd, ss = [], [], []
        for qid, terms in qterms.items():
            scored = []
            for i, c in enumerate(counters):
                s = sum(c[t] for t in terms)
                if s > 0:
                    scored.append((s, -doc_ids[i]))
            for s, negd in heapq.nlargest(k, scored):
                qq.append(qid)
                dd.append(-negd)
                ss.append(s)
        return pa.table(
            {
                "qid": pa.array(qq, pa.int64()),
                "doc_id": pa.array(dd, pa.int64()),
                "tfsum": pa.array(ss, pa.int64()),
            }
        )

    parts = ds.map_batches(fn, batch_format="pyarrow").to_pandas()
    out = []
    for qid in qterms:
        g = parts[parts["qid"] == qid].sort_values(
            ["tfsum", "doc_id"], ascending=[False, True]
        ).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        out.append(g)
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["qid", "doc_id", "tfsum", "rank"]
    )


# ---------------------------------------------------------------------------
# sf_dir-level wrappers over the driver `documents` table


def _docs(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def token_prf_documents(sf_dir: str) -> pd.DataFrame:
    """``token_prf`` over the documents table, rows in doc_id order
    (the Dataset's own row order varies between runs)."""
    return token_prf(_docs(sf_dir)).to_pandas().sort_values(
        "doc_id", kind="stable", ignore_index=True)


def map_at_k_documents(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """(qid, n_rel, ap_e6) for the frozen BM25 battery, relevance =
    conjunctive term containment."""
    from .flagship import BM25_QUERIES, run_bm25_queries

    qterms = _query_term_sets(BM25_QUERIES, "simple")
    hits = run_bm25_queries(sf_dir, k=k)[["qid", "rank", "doc_id"]]
    rel = conjunctive_matches(_docs(sf_dir), qterms)
    return average_precision_at_k(hits, rel, [q["qid"] for q in BM25_QUERIES], k)


def overlap_documents(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """(qid, common, overlap_e6) between BM25 top-k and tf-only top-k."""
    from .flagship import BM25_QUERIES, run_bm25_queries

    qterms = _query_term_sets(BM25_QUERIES, "simple")
    bm = run_bm25_queries(sf_dir, k=k)
    tf = tf_only_topk(_docs(sf_dir), qterms, k)
    return overlap_topk(bm, tf, [q["qid"] for q in BM25_QUERIES], k)


def overlap_topk(
    bm25_hits: pd.DataFrame, tf_hits: pd.DataFrame, qids: list[int], k: int = 10
) -> pd.DataFrame:
    """Per-query overlap@k between the BM25 and tf-only rankings
    (reference evaluate_top_n_similarity, post_test_score.py:34-79;
    doc ids are unique per list so multiset pop == set intersect)."""
    rows = []
    for qid in qids:
        a = set(bm25_hits[bm25_hits["qid"] == qid]["doc_id"])
        b = set(tf_hits[tf_hits["qid"] == qid]["doc_id"])
        common = len(a & b)
        rows.append((qid, common, int(e6(np.array([common / k]))[0])))
    return pd.DataFrame(rows, columns=["qid", "common", "overlap_e6"]).astype("int64")


# ---------------------------------------------------------------------------
# nDCG@k with graded relevance (the third standard rank metric next to
# the reference's MAP and overlap@k): grade(doc, q) = number of
# distinct query terms the doc contains.


def graded_scan(
    ds: ray.data.Dataset,
    qterms: dict[int, list[str]],
    hit_keys: set[tuple[int, int]],
    tokenizer: str = "simple",
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """ONE distributed containment pass returning the two small things
    nDCG needs: (a) per-(qid, grade) doc COUNTS over the whole corpus
    (for the ideal DCG — a vocabulary-of-grades-sized aggregate, never
    one row per document), and (b) exact grades for the broadcast
    top-k hit set only. Nothing corpus-sized reaches the driver."""
    tok = get_tokenizer(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        counts: dict[tuple[int, int], int] = {}
        hq, hd, hg = [], [], []
        for i, text in enumerate(batch["text"].to_pylist()):
            toks = set(tok(text or ""))
            for qid, terms in qterms.items():
                g = sum(1 for t in terms if t in toks)
                if g:
                    counts[(qid, g)] = counts.get((qid, g), 0) + 1
                if (qid, doc_ids[i]) in hit_keys:
                    hq.append(qid)
                    hd.append(doc_ids[i])
                    hg.append(g)
        kq = [k[0] for k in counts]
        kg = [k[1] for k in counts]
        return pa.table(
            {
                "kind": pa.array(["count"] * len(kq) + ["hit"] * len(hq), pa.string()),
                "qid": pa.array(kq + hq, pa.int64()),
                "grade": pa.array(kg + hg, pa.int64()),
                "n": pa.array(list(counts.values()) + [1] * len(hq), pa.int64()),
                "doc_id": pa.array([-1] * len(kq) + hd, pa.int64()),
            }
        )

    out = ds.map_batches(fn, batch_format="pyarrow").to_pandas()
    counts = (
        out[out["kind"] == "count"]
        .groupby(["qid", "grade"], as_index=False)["n"].sum()
    )
    hits = out[out["kind"] == "hit"][["qid", "doc_id", "grade"]]
    return counts, hits


def ndcg_at_k_documents(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """(qid, n_graded, ndcg_e6) for the frozen BM25 battery:
    DCG@k over the BM25 ranking with gain 2^grade - 1, normalized by
    the ideal DCG built from the per-grade corpus counts."""
    from .flagship import BM25_QUERIES, run_bm25_queries

    qterms = _query_term_sets(BM25_QUERIES, "simple")
    hits = run_bm25_queries(sf_dir, k=k)[["qid", "rank", "doc_id"]]
    hit_keys = set(zip(hits["qid"].astype(int), hits["doc_id"].astype(int)))
    counts, hit_grades = graded_scan(_docs(sf_dir), qterms, hit_keys)
    gmap = {(int(r["qid"]), int(r["doc_id"])): int(r["grade"])
            for _, r in hit_grades.iterrows()}
    rows = []
    for q in BM25_QUERIES:
        qid = q["qid"]
        ranked = hits[hits["qid"] == qid].sort_values("rank")
        dcg = 0.0
        for rank, doc in zip(ranked["rank"], ranked["doc_id"]):
            g = gmap.get((int(qid), int(doc)), 0)
            dcg += (2.0 ** g - 1.0) / np.log2(rank + 1.0)
        qc = counts[counts["qid"] == qid].sort_values("grade", ascending=False)
        idcg = 0.0
        rank = 1
        n_graded = int(qc["n"].sum())
        for _, r in qc.iterrows():
            for _ in range(int(r["n"])):
                if rank > k:
                    break
                idcg += (2.0 ** int(r["grade"]) - 1.0) / np.log2(rank + 1.0)
                rank += 1
            if rank > k:
                break
        nd = dcg / idcg if idcg > 0 else 0.0
        rows.append((qid, n_graded, int(e6(np.array([nd]))[0])))
    return pd.DataFrame(rows, columns=["qid", "n_graded", "ndcg_e6"]).astype("int64")


def mrr_at_k(
    hits: pd.DataFrame, rel: pd.DataFrame, qids: list[int], k: int = 10
) -> pd.DataFrame:
    """Per-query (qid, first_rel_rank, rr_e6): reciprocal rank of the
    FIRST relevant hit within the top-k (0 / rr 0 when none) — the
    fourth standard rank metric next to MAP, overlap@k and nDCG@k.
    Relevance = the same conjunctive-containment oracle as MAP."""
    rel_sets = {qid: set(g["doc_id"]) for qid, g in rel.groupby("qid")}
    rows = []
    for qid in qids:
        rset = rel_sets.get(qid, set())
        # enforce the k contract HERE, not in the caller: a deeper hits
        # frame (page-2, k mismatch) must not silently change the metric
        ranked = hits[(hits["qid"] == qid) & (hits["rank"] <= k)].sort_values("rank")
        first = 0
        for r, doc in zip(ranked["rank"], ranked["doc_id"]):
            if doc in rset:
                first = int(r)
                break
        rr = 1.0 / first if first else 0.0
        rows.append((qid, first, int(e6(np.array([rr]))[0])))
    return pd.DataFrame(
        rows, columns=["qid", "first_rel_rank", "rr_e6"]
    ).astype("int64")


def mrr_documents(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """(qid, first_rel_rank, rr_e6) for the frozen BM25 battery."""
    from .flagship import BM25_QUERIES, run_bm25_queries

    qterms = _query_term_sets(BM25_QUERIES, "simple")
    hits = run_bm25_queries(sf_dir, k=k)[["qid", "rank", "doc_id"]]
    rel = conjunctive_matches(_docs(sf_dir), qterms)
    return mrr_at_k(hits, rel, [q["qid"] for q in BM25_QUERIES], k)


def recall_at_k(
    hits: pd.DataFrame, rel: pd.DataFrame, qids: list[int], k: int = 10
) -> pd.DataFrame:
    """Per-query (qid, n_rel, n_hit, recall_e6): the fraction of ALL
    relevant docs retrieved in the top-k — the fifth standard rank
    metric, the one a top-k page can never max out when the relevant
    set is deeper than k (recall ceiling = k / n_rel). Relevance = the
    same conjunctive-containment oracle as MAP/MRR/nDCG; queries with
    an empty relevant set report recall 0."""
    rel_sets = {qid: set(g["doc_id"]) for qid, g in rel.groupby("qid")}
    rows = []
    for qid in qids:
        rset = rel_sets.get(qid, set())
        ranked = hits[(hits["qid"] == qid) & (hits["rank"] <= k)]
        n_hit = sum(1 for d in ranked["doc_id"] if d in rset)
        r = n_hit / len(rset) if rset else 0.0
        rows.append((qid, len(rset), n_hit, int(e6(np.array([r]))[0])))
    return pd.DataFrame(
        rows, columns=["qid", "n_rel", "n_hit", "recall_e6"]
    ).astype("int64")


def recall_documents(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """(qid, n_rel, n_hit, recall_e6) for the frozen BM25 battery."""
    from .flagship import BM25_QUERIES, run_bm25_queries

    qterms = _query_term_sets(BM25_QUERIES, "simple")
    hits = run_bm25_queries(sf_dir, k=k)[["qid", "rank", "doc_id"]]
    rel = conjunctive_matches(_docs(sf_dir), qterms)
    return recall_at_k(hits, rel, [q["qid"] for q in BM25_QUERIES], k)
