"""Hybrid retrieval: lexical BM25 top-N fused with embedding-cosine
top-N by reciprocal rank fusion (RRF, Cormack/Clarke/Buettcher,
SIGIR 2009: score(d) = sum over rankings of 1/(k0 + rank(d))).

The reference serves the two retrieval modes separately — BM25-style
caption scoring (server.py:147-166) and a Milvus vector search
(vector_db.py:93-103); fusing them is the standard production IR
surface over exactly those two rankers.

Scale shape: each side produces its per-query top-N through its own
fully distributed path (inverted-index scorer pool / broadcast-matmul
partial top-k); the fusion itself only ever touches the two nq x N
id+rank lists — tiny by construction — so it runs driver-side, the
same contract as similarity._merge_partials. Nothing about the corpus
size reaches the fusion step.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from . import flagship, similarity


def rrf_fuse(
    lex: pd.DataFrame,
    vec: pd.DataFrame,
    k: int = 10,
    k0: int = 60,
) -> pd.DataFrame:
    """Fuse two (qid, doc_id, rank) rankings: rrf = 1/(k0+rank_lex) +
    1/(k0+rank_vec), absent side contributes 0. Output (qid, rank,
    doc_id, rrf_e6) with (rrf desc, doc_id asc) tie-break."""
    lx = lex[["qid", "doc_id", "rank"]].rename(columns={"rank": "rb"})
    vx = vec[["qid", "doc_id", "rank"]].rename(columns={"rank": "rv"})
    f = lx.merge(vx, on=["qid", "doc_id"], how="outer")
    rb = f["rb"].to_numpy(np.float64)
    rv = f["rv"].to_numpy(np.float64)
    # lex term + vec term, in this order on both sides (the SQL oracle
    # adds coalesce(lex)+coalesce(vec)) so the float64 sum is bitwise
    # reproducible
    rrf = np.where(np.isnan(rb), 0.0, 1.0 / (k0 + rb)) + np.where(
        np.isnan(rv), 0.0, 1.0 / (k0 + rv)
    )
    f = f.assign(rrf=rrf)
    frames = []
    for qid, g in f.groupby("qid", sort=True):
        ids = g["doc_id"].to_numpy(np.int64)
        sc = g["rrf"].to_numpy(np.float64)
        idx = np.lexsort((ids, -sc))[: min(k, len(ids))]
        frames.append(pd.DataFrame({
            "qid": np.full(len(idx), qid, np.int64),
            "rank": np.arange(1, len(idx) + 1, dtype=np.int64),
            "doc_id": ids[idx],
            "rrf_e6": np.floor(sc[idx] * 1_000_000 + 0.5).astype(np.int64),
        }))
    if not frames:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["qid", "rank", "doc_id", "rrf_e6"]}
        )
    return pd.concat(frames, ignore_index=True)


def fetch_anchor_vectors(path: str, qids) -> np.ndarray:
    """Fetch the ``len(qids)`` anchor embeddings as an (nq, dim) float64
    matrix via a predicate-pushdown parquet read: row-group statistics
    prune every row group whose vec_id range excludes the anchors, so
    only O(nq) rows' data pages are ever decoded — never a full-table
    driver materialization (the 100-TB-safe anchor-fetch contract;
    verified by the corrupted-non-anchor-row-group spy test)."""
    import functools
    import operator

    import pyarrow.dataset as pads

    # An OR-of-equalities, NOT .isin(): pyarrow's row-group pruner only
    # evaluates comparison expressions against parquet statistics, so an
    # isin filter would decode every row group (verified empirically —
    # the spy test fails with it). nq is ~10, the expression stays tiny.
    f = pads.field("vec_id")
    pred = functools.reduce(operator.or_, [(f == int(i)) for i in qids])
    anchor_t = pads.dataset(path, format="parquet").to_table(
        columns=["vec_id", "embedding"], filter=pred
    )
    by_id = dict(
        zip(anchor_t["vec_id"].to_pylist(), anchor_t["embedding"].to_pylist())
    )
    missing = [i for i in qids if i not in by_id]
    if missing:
        raise KeyError(f"anchor vec_ids not found in {path}: {missing}")
    return np.stack([np.asarray(by_id[i], np.float64) for i in qids])


def hybrid_rrf_documents(
    sf_dir: str,
    queries=None,
    k: int = 10,
    n_each: int = 20,
    k0: int = 60,
) -> pd.DataFrame:
    """The frozen battery, hybrid: per qid, BM25 top-``n_each`` over
    ``documents`` fused with cosine top-``n_each`` over ``embeddings``
    (query vector = the embedding of vec_id == qid; doc_id and vec_id
    share one id space in these tables)."""
    queries = flagship.BM25_QUERIES if queries is None else queries
    qids = [q["qid"] for q in queries]

    lex = flagship.run_bm25_queries(sf_dir, queries=queries, k=n_each)

    qmat = fetch_anchor_vectors(f"{sf_dir}/embeddings.parquet", qids)
    emb_ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    vec = similarity.knn_bruteforce(emb_ds, qmat, k=n_each)
    # knn qids are positional 0..nq-1 -> map back to battery qids
    vec = vec.assign(
        qid=np.asarray(qids, np.int64)[vec["qid"].to_numpy(np.int64)]
    ).rename(columns={"vec_id": "doc_id"})
    return rrf_fuse(lex, vec, k=k, k0=k0)
