import math

import numpy as np

from information_retrieval_images_ray.functions.bm25 import (
    BM25Params,
    bm25_brute_force,
    idf,
    rank_topk,
    tf_partial,
)


def test_idf_monotone():
    assert idf(100, 1) > idf(100, 50) > idf(100, 100) > 0


def test_idf_formula():
    assert math.isclose(idf(10, 3), math.log(1 + (10 - 3 + 0.5) / 3.5))


def test_tf_partial_saturates():
    p = BM25Params()
    lo = tf_partial(np.array([1]), np.array([10]), 10.0, p)[0]
    hi = tf_partial(np.array([100]), np.array([10]), 10.0, p)[0]
    assert lo < hi < p.k1 + 1.0  # bounded by k1+1


def test_rank_topk_tiebreak():
    ids = np.array([5, 3, 9, 1])
    scores = np.array([1.0, 2.0, 1.0, 2.0])
    # score desc, doc_id asc: (1,2.0),(3,2.0),(5,1.0),(9,1.0)
    assert rank_topk(ids, scores, 3) == [(1, 2.0), (3, 2.0), (5, 1.0)]


def test_rank_topk_k_zero_or_less_is_empty():
    """k <= 0 selects nothing, also past the selection threshold
    (more than 1,024 candidates)."""
    rng = np.random.default_rng(3)
    for n in (5, 2000):
        ids, scores = np.arange(n), rng.random(n)
        assert rank_topk(ids, scores, 0) == [] and rank_topk(ids, scores, -1) == []


def test_brute_force_hand_check():
    docs = {0: ["a", "b", "a"], 1: ["b", "c"], 2: ["c", "c", "c"]}
    top = bm25_brute_force(docs, ["a"], k=2)
    assert [d for d, _ in top] == [0]
    top = bm25_brute_force(docs, ["c"], k=3)
    assert [d for d, _ in top] == [2, 1]
    # no-hit query
    assert bm25_brute_force(docs, ["zzz"], k=3) == []


def test_brute_force_multi_term_order_independent_of_query_order():
    docs = {i: [f"t{i % 3}", "common"] for i in range(10)}
    a = bm25_brute_force(docs, ["t1", "common"], k=5)
    b = bm25_brute_force(docs, ["common", "t1"], k=5)
    assert a == b  # internal sorted-term accumulation
