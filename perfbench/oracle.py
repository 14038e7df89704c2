"""The benchmark's own brute-force BM25 and output checks.

Scores come from the generator's ground truth (the terms each
identifier emits), never from the engine's tokenizer or index:
k1=1.2, b=0.75, idf = ln(1 + (N - df + 0.5) / (df + 0.5)), terms
accumulated in sorted order in float64, ties broken by doc_id asc.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .corpus import STEMS, Corpus

K1, B = 1.2, 0.75
SCORE_TOL = 1e-6


class Oracle:
    """Term postings of every document the index should hold; grows
    with each /extend payload so later responses are checked against
    the collection they were served from."""

    def __init__(self, corpus: Corpus):
        self.vocab = corpus.vocab
        self.term_id = {t: i for i, t in enumerate(self.vocab.terms)}
        self.sha256 = list(corpus.sha256)
        self._pairs = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        self.doc_len = np.empty(0, np.float64)
        self._add(corpus.doc_ptr, corpus.doc_idents, {})

    @property
    def n_docs(self) -> int:
        return len(self.doc_len)

    def add_delta(self, docs: list[dict], doc_ptr: np.ndarray, doc_idents: np.ndarray,
                  marker: str) -> int:
        """Append an /extend payload (marker token in its first doc);
        returns the doc_id the engine assigns to that first doc."""
        first = self.n_docs
        if marker not in self.term_id:
            self.term_id[marker] = len(self.term_id)
        self._add(doc_ptr, doc_idents, {0: self.term_id[marker]})
        self.sha256.extend(hashlib.sha256(d["content"].encode()).hexdigest() for d in docs)
        return first

    def _add(self, doc_ptr: np.ndarray, doc_idents: np.ndarray, extra: dict[int, int]) -> None:
        v = self.vocab
        n_new = len(doc_ptr) - 1
        lens = v.ident_ptr[doc_idents + 1] - v.ident_ptr[doc_idents]
        offs = np.repeat(np.cumsum(lens) - lens, lens)
        terms = v.ident_terms[np.repeat(v.ident_ptr[doc_idents], lens) + (np.arange(lens.sum()) - offs)]
        docs = np.repeat(np.repeat(np.arange(n_new), np.diff(doc_ptr)), lens)
        if extra:
            docs = np.concatenate([docs, np.fromiter(extra, np.int64)])
            terms = np.concatenate([terms, np.fromiter(extra.values(), np.int64)])
        doc_len = np.bincount(docs, minlength=n_new).astype(np.float64)
        key, tf = np.unique((docs + self.n_docs) * (1 << 32) + terms, return_counts=True)
        d_new, t_new = key >> 32, key & ((1 << 32) - 1)
        d, t, f = (np.concatenate([a, b]) for a, b in zip(self._pairs, (d_new, t_new, tf)))
        order = np.lexsort((d, t))
        self._pairs = (d[order], t[order], f[order])
        self._term_ptr = np.searchsorted(self._pairs[1], np.arange(len(self.term_id) + 1))
        self.doc_len = np.concatenate([self.doc_len, doc_len])

    def df(self, term_ids: np.ndarray) -> np.ndarray:
        return self._term_ptr[term_ids + 1] - self._term_ptr[term_ids]

    def topk(self, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
        n = self.n_docs
        avgdl = self.doc_len.sum() / n
        scores = np.zeros(n, dtype=np.float64)
        docs, _, tfs = self._pairs
        for term in sorted(set(terms)):
            i = self.term_id.get(term)
            if i is None or self._term_ptr[i] == self._term_ptr[i + 1]:
                continue
            lo, hi = self._term_ptr[i], self._term_ptr[i + 1]
            df = hi - lo
            w = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            d, tf = docs[lo:hi], tfs[lo:hi].astype(np.float64)
            scores[d] += w * (tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * self.doc_len[d] / avgdl)))
        ids = np.flatnonzero(scores)
        top = np.lexsort((ids, -scores[ids]))[:k]
        return [(int(ids[j]), float(scores[ids[j]])) for j in top]

    def check(self, terms: list[str], hits: list[dict], k: int = 10) -> str | None:
        """None when ``hits`` has the oracle's ranks, scores within
        SCORE_TOL; else a one-line description of the first mismatch."""
        want = self.topk(terms, k)
        got = [(int(h["doc_id"]), float(h["score"])) for h in hits]
        if [d for d, _ in got] != [d for d, _ in want]:
            return f"ranks differ: got {[d for d, _ in got]} want {[d for d, _ in want]}"
        for rank, ((d, s), (_, w)) in enumerate(zip(got, want), 1):
            if abs(s - w) > SCORE_TOL:
                return f"rank {rank} doc {d}: score {s!r} want {w!r}"
        return None

    def check_hydration(self, hits: list[dict]) -> str | None:
        for h in hits:
            d = int(h["doc_id"])
            if d >= len(self.sha256) or h.get("content_sha256") != self.sha256[d]:
                return f"doc {d}: content_sha256 {h.get('content_sha256')!r} is not the generated content's"
        return None


def _zipf_pick(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return rng.choice(n, size=min(k, n), replace=False, p=p / p.sum())


def make_queries(oracle: Oracle, kind: str, seed: int, n: int,
                 tail_df: tuple[int, int]) -> list[tuple[str, list[str]]]:
    """``n`` (query text, query terms) pairs.

    hot: 1-3 distinct stems, Zipf-weighted by df rank among stems that
    occur in at least 30% of documents (every term dense).
    tail: one compound identifier whose compound term has df in
    ``tail_df``, drawn uniformly, plus 1-2 Zipf-weighted hot stems."""
    rng = np.random.default_rng([7, seed, 0 if kind == "hot" else 1])
    v = oracle.vocab
    stem_ids = np.array([oracle.term_id[s] for s in STEMS])
    stem_df = oracle.df(stem_ids)
    hot = [STEMS[i] for i in np.argsort(-stem_df, kind="stable")
           if stem_df[i] >= 0.3 * oracle.n_docs]
    comp = np.flatnonzero(v.compound_term >= 0)
    cdf = oracle.df(v.compound_term[comp])
    rare = comp[(cdf >= tail_df[0]) & (cdf <= tail_df[1])]
    out = []
    for _ in range(n):
        if kind == "hot":
            stems = [hot[i] for i in _zipf_pick(rng, len(hot), int(rng.integers(1, 4)))]
            out.append((" ".join(stems), stems))
        else:
            ident = int(rare[rng.integers(0, len(rare))])
            stems = [hot[i] for i in _zipf_pick(rng, len(hot), int(rng.integers(1, 3)))]
            terms = [v.terms[t] for t in v.ident_terms[v.ident_ptr[ident]:v.ident_ptr[ident + 1]]]
            out.append((" ".join([v.ident_text[ident], *stems]), terms + stems))
    return out


def shape(oracle: Oracle) -> dict:
    """Corpus shape: documents, distinct terms and a df histogram."""
    df = oracle.df(np.arange(len(oracle.term_id)))
    df = df[df > 0]
    edges = [1, 2, 5, 20, 100, 500, 10**9]
    buckets = {f"df{lo}-{hi - 1}" if hi < 10**9 else f"df>={lo}": int(((df >= lo) & (df < hi)).sum())
               for lo, hi in zip(edges, edges[1:])}
    return {"documents": oracle.n_docs, "distinct_terms": int(len(df)),
            "tokens": int(oracle.doc_len.sum()), **buckets}
