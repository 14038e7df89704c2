"""BM25 scoring math + a brute-force oracle.

Parameters fixed by the north_star: k1=1.2, b=0.75,
idf = ln(1 + (N - df + 0.5) / (df + 0.5)), tie-break (score desc,
doc_id asc). The oracle here is intentionally *naive* (dict-of-Counters,
no compression, no pruning) so it is an independent code path from the
engine; engine output must be rank-identical to it
(tests/test_build_query.py), mirroring how the reference freezes golden
CSVs from frozen inputs (/root/reference/post_test_score.py:9-79,
results/similarity_scores_*.csv).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75


def idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def tf_partial(tf, doc_len, avgdl: float, params: BM25Params = BM25Params()):
    """The doc-dependent factor: tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)).

    Vectorized (numpy arrays in, float64 out). Full score contribution
    of one term in one doc = idf(term) * tf_partial(...).
    """
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(doc_len, dtype=np.float64)
    k1, b = params.k1, params.b
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def rank_topk(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Deterministic top-k with (score desc, doc_id asc) tie-break.

    O(n) selection first (np.partition for the k-th largest score, keep
    only candidates >= it — ties at the boundary survive, so the
    doc_id-asc tie-break is decided by the final lexsort over the small
    candidate set, byte-identical to lexsorting everything). A full
    lexsort of every scored doc was the dominant cost of stopword-ish
    queries on large corpora (1.6M scored docs -> top-10). A ``k`` of
    0 or less selects nothing."""
    if k <= 0:
        return []
    n = len(doc_ids)
    if n > 4 * k and n > 1024:
        kth = np.partition(scores, n - k)[n - k]  # k-th largest score
        sel = scores >= kth
        doc_ids, scores = doc_ids[sel], scores[sel]
    order = np.lexsort((doc_ids, -scores))[:k]
    return [(int(doc_ids[i]), float(scores[i])) for i in order]


def bm25_brute_force(
    docs_tokens: dict[int, list[str]],
    query_terms: list[str],
    k: int = 10,
    params: BM25Params = BM25Params(),
) -> list[tuple[int, float]]:
    """Score every document against unique query terms; return top-k.

    Independent oracle: pure-python tf counting, per-doc python loop.
    Accumulation order is sorted(unique terms) in float64 — the engine
    scores in the same order, so scores agree to ~1e-12.
    """
    n = len(docs_tokens)
    if n == 0:
        return []
    doc_tf = {d: Counter(toks) for d, toks in docs_tokens.items()}
    doc_len = {d: len(toks) for d, toks in docs_tokens.items()}
    avgdl = sum(doc_len.values()) / n
    terms = sorted(set(query_terms))
    dfs = {t: sum(1 for c in doc_tf.values() if t in c) for t in terms}
    scores: dict[int, float] = {}
    for t in terms:
        df = dfs[t]
        if df == 0:
            continue
        w = idf(n, df)
        for d, c in doc_tf.items():
            tf = c.get(t)
            if tf:
                dl = doc_len[d]
                part = tf * (params.k1 + 1.0) / (
                    tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl)
                )
                scores[d] = scores.get(d, 0.0) + w * part
    if not scores:
        return []
    ids = np.fromiter(scores.keys(), dtype=np.int64, count=len(scores))
    vals = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    return rank_topk(ids, vals, k)
