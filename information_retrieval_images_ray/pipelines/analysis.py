"""Text-analysis pipelines over a documents Dataset.

Large-scale training-data operators: token statistics, document
lengths, corpus stats, quality scoring, language-ID heuristic and
document fingerprinting — each a vectorized ``map_batches`` stage with
partial (combiner-style) aggregation before any shuffle, per the
pre-aggregation rule for wide ops.

The reference analogue is its text-normalizer + token-set metrics
(/root/reference/MAP.py:5-6, caption_generator_post.py:11-27) — we
generalize per-caption token P/R/F1 into corpus-level term stats and
per-doc quality features.

Determinism/oracle convention: every fractional output is emitted as a
fixed-point BIGINT ``*_e6 = floor(x * 1e6 + 0.5)`` so the driver's
value-hash comparison against DuckDB never trips over float summation
order or ROUND() tie rules.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions.tokenizer import get_tokenizer

logger = logging.getLogger(__name__)

# Frozen English stopword list (shared verbatim with the SQL oracle).
EN_STOPWORDS = (
    "the", "a", "an", "and", "or", "of", "to", "in", "is", "on", "for",
    "with", "as", "at", "by", "it", "this", "that", "be", "are",
)


def e6(x: np.ndarray) -> np.ndarray:
    """Fixed-point encode: floor(x*1e6 + 0.5) as int64 (SQL:
    CAST(FLOOR(x*1000000 + 0.5) AS BIGINT))."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5).astype(np.int64)


def _tok_fn(tokenizer: str):
    return get_tokenizer(tokenizer)


# ---------------------------------------------------------------------------
def term_stats(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    """(term, df, tf) over the corpus — partial counts per batch, then a
    small groupby-sum (the combiner pattern; the full posting explode
    never leaves the map task)."""
    tok = _tok_fn(tokenizer)

    def partials(batch: pa.Table) -> pa.Table:
        df_c: dict[str, int] = {}
        tf_c: dict[str, int] = {}
        for text in batch["text"].to_pylist():
            seen: dict[str, int] = {}
            for t in tok(text or ""):
                seen[t] = seen.get(t, 0) + 1
            for t, c in seen.items():
                df_c[t] = df_c.get(t, 0) + 1
                tf_c[t] = tf_c.get(t, 0) + c
        terms = list(df_c.keys())
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df_p": pa.array([df_c[t] for t in terms], pa.int64()),
                "tf_p": pa.array([tf_c[t] for t in terms], pa.int64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df_p", alias_name="df"), Sum("tf_p", alias_name="tf"))
    )


def doc_lengths(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    tok = _tok_fn(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        lens = [len(tok(t or "")) for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "doc_len": pa.array(lens, pa.int64())}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def corpus_stats(ds: ray.data.Dataset, tokenizer: str = "simple") -> pd.DataFrame:
    """Single-row corpus summary (n_docs, total_tokens, avgdl_e6,
    vocab_size, max_doc_len) in ONE corpus scan: the per-batch combiner
    emits term-df partial rows PLUS one sentinel row (term='' — the
    tokenizer can never produce an empty token) carrying the batch's
    doc-count / token-sum / max-len partials. A single term groupby
    then yields both the vocabulary (group count minus the sentinel)
    and, via the sentinel group, the doc-level aggregates. Previously
    this was two full corpus reads (doc_lengths + term_stats.count())."""
    tok = _tok_fn(tokenizer)

    def partials(batch: pa.Table) -> pa.Table:
        df_c: dict[str, int] = {}
        nd = tt = mx = 0
        for text in batch["text"].to_pylist():
            toks = tok(text or "")
            nd += 1
            tt += len(toks)
            mx = max(mx, len(toks))
            for t in set(toks):
                df_c[t] = df_c.get(t, 0) + 1
        terms = [""] + list(df_c)
        zeros = [0] * len(df_c)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "nd_p": pa.array([nd] + zeros, pa.int64()),
                "tt_p": pa.array([tt] + zeros, pa.int64()),
                "mx_p": pa.array([mx] + zeros, pa.int64()),
            }
        )

    grouped = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("term")
        .aggregate(
            Sum("nd_p", alias_name="nd"),
            Sum("tt_p", alias_name="tt"),
            Max("mx_p", alias_name="mx"),
        )
    )
    agg = grouped.aggregate(
        Count(alias_name="n_groups"),
        Sum("nd", alias_name="n_docs"),
        Sum("tt", alias_name="total_tokens"),
        Max("mx", alias_name="max_doc_len"),
    )
    n_docs = int(agg["n_docs"])
    total = int(agg["total_tokens"])
    return pd.DataFrame(
        [
            {
                "n_docs": n_docs,
                "total_tokens": total,
                "avgdl_e6": int(e6(np.array([total / n_docs if n_docs else 0.0]))[0]),
                "vocab_size": int(agg["n_groups"]) - 1,
                "max_doc_len": int(agg["max_doc_len"]),
            }
        ]
    )


class QualityStage:
    """Per-doc quality features (actor-pool stage: regex + stopword set
    compiled once per actor).

    Features (all SQL-expressible for the oracle): token count, distinct
    token count, stopword ratio, mean token length, alpha char ratio.
    """

    def __init__(self, tokenizer: str = "simple"):
        self._tok = _tok_fn(tokenizer)
        self._stops = frozenset(EN_STOPWORDS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_tok, n_distinct, stop_ratio, mean_len, alpha_ratio = [], [], [], [], []
        for text in batch["text"].to_pylist():
            text = text or ""
            toks = self._tok(text)
            n = len(toks)
            n_tok.append(n)
            n_distinct.append(len(set(toks)))
            nstop = sum(1 for t in toks if t in self._stops)
            stop_ratio.append(nstop / n if n else 0.0)
            mean_len.append(sum(len(t) for t in toks) / n if n else 0.0)
            nalpha = sum(1 for ch in text if ch.isalpha())
            alpha_ratio.append(nalpha / len(text) if text else 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_distinct": pa.array(n_distinct, pa.int64()),
                "stop_ratio_e6": pa.array(e6(np.array(stop_ratio)), pa.int64()),
                "mean_token_len_e6": pa.array(e6(np.array(mean_len)), pa.int64()),
                "alpha_ratio_e6": pa.array(e6(np.array(alpha_ratio)), pa.int64()),
            }
        )


def quality_scores(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    return ds.map_batches(
        QualityStage,
        fn_constructor_kwargs={"tokenizer": tokenizer},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


def fingerprints(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    """Document fingerprint = md5 hex of the normalized token stream
    (SQL: md5(array_to_string(regexp_extract_all(lower(text),
    '[a-z0-9]+'), ' ')))."""
    tok = _tok_fn(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5(" ".join(tok(t or "")).encode()).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table({"doc_id": batch["doc_id"], "fingerprint": pa.array(fps, pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


def token_count_by_lang(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    """(lang, n_docs, total_tokens) — combiner-style partials per batch,
    then a tiny groupby-sum."""
    tok = _tok_fn(tokenizer)

    def partials(batch: pa.Table) -> pa.Table:
        counts: dict[str, list[int]] = {}
        for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
            c = counts.setdefault(lang, [0, 0])
            c[0] += 1
            c[1] += len(tok(text or ""))
        langs = sorted(counts)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "nd_p": pa.array([counts[l][0] for l in langs], pa.int64()),
                "tt_p": pa.array([counts[l][1] for l in langs], pa.int64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("nd_p", alias_name="n_docs"), Sum("tt_p", alias_name="total_tokens"))
    )


# Language-ID heuristic: score each language by its stopword hit-rate,
# predict the argmax. Works on real text; the testdata documents table
# has synthetic identical-distribution text, so accuracy there is
# meaningless — the pytest covers it with multilingual snippets.
LANG_STOPWORDS = {
    "en": EN_STOPWORDS,
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "eine", "zu", "mit", "von"),
    "fr": ("le", "la", "les", "et", "est", "un", "une", "des", "du", "que", "pour"),
    "es": ("el", "la", "los", "las", "y", "es", "un", "una", "de", "que", "por"),
    "it": ("il", "la", "e", "che", "un", "una", "di", "per", "non", "sono"),
}


class LangIdStage:
    def __init__(self, tokenizer: str = "simple"):
        self._tok = _tok_fn(tokenizer)
        self._profiles = {lang: frozenset(ws) for lang, ws in LANG_STOPWORDS.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds, confs = [], []
        for text in batch["text"].to_pylist():
            toks = self._tok(text or "")
            n = max(1, len(toks))
            scores = {
                lang: sum(1 for t in toks if t in prof) / n
                for lang, prof in self._profiles.items()
            }
            best = max(sorted(scores), key=lambda k: scores[k])
            preds.append(best if scores[best] > 0 else "unknown")
            confs.append(scores[best])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": pa.array(preds, pa.string()),
                "confidence_e6": pa.array(e6(np.array(confs)), pa.int64()),
            }
        )


def langid(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    return ds.map_batches(
        LangIdStage,
        fn_constructor_kwargs={"tokenizer": tokenizer},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


def tfidf_top_terms(
    ds: ray.data.Dataset, k: int = 5, tokenizer: str = "simple"
) -> ray.data.Dataset:
    """Keyword extraction: the top-``k`` terms per doc by
    tf * ln(N / df), tie-break (score desc, term asc) — the classic
    TF-IDF summary an LLM-data pipeline uses for doc tagging.

    Scale shape: df comes from the term_stats combiner (partial counts
    per batch, one SMALL vocab-sized groupby), is broadcast once via
    ray.put, and the scoring pass then computes each doc's final top-k
    entirely inside its map task — the (doc, term) explosion never
    leaves the worker and there is NO doc-keyed shuffle at all. For
    corpora whose vocabulary outgrows a broadcast (rare: vocab grows
    ~sublinearly), the seam is a term-keyed exchange of the docterms
    table joined against df, then a doc-keyed re-exchange — the
    documented fallback, not built until needed."""
    tok = _tok_fn(tokenizer)
    n_docs = float(ds.count())
    stats = term_stats(ds, tokenizer).to_pandas()
    idf = dict(zip(
        stats["term"],
        np.log(n_docs / stats["df"].to_numpy(np.float64)),
    ))
    idf_ref = ray.put(idf)

    class TopTerms:
        def __init__(self):
            self.idf = ray.get(idf_ref)  # zero-copy-ish, once per actor

        def __call__(self, batch: pa.Table) -> pa.Table:
            out_id, out_rank, out_term, out_s = [], [], [], []
            for doc_id, text in zip(
                batch["doc_id"].to_pylist(), batch["text"].to_pylist()
            ):
                cnt: dict[str, int] = {}
                for t in tok(text or ""):
                    cnt[t] = cnt.get(t, 0) + 1
                if not cnt:
                    continue
                terms = sorted(cnt)  # pre-sorted so stable sort ties on term asc
                scores = np.array(
                    [cnt[t] * self.idf[t] for t in terms], np.float64
                )
                order = np.argsort(-scores, kind="stable")[: min(k, len(terms))]
                for r, j in enumerate(order, 1):
                    out_id.append(doc_id)
                    out_rank.append(r)
                    out_term.append(terms[j])
                    out_s.append(scores[j])
            return pa.table(
                {
                    "doc_id": pa.array(out_id, pa.int64()),
                    "rank": pa.array(out_rank, pa.int64()),
                    "term": pa.array(out_term, pa.string()),
                    "tfidf_e6": pa.array(e6(np.array(out_s)), pa.int64()),
                }
            )

    return ds.map_batches(TopTerms, batch_format="pyarrow", concurrency=(1, 4))


def split_summary(
    ds: ray.data.Dataset, train: int = 80, val: int = 10,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """Deterministic train/val/test assignment + per-(split, lang)
    counts — the reproducible-split primitive of a training-data
    pipeline: bucket = md5(doc_id) % 100, ``< train`` -> train,
    ``< train+val`` -> val, else test. Hash-based (not seeded-RNG)
    so the assignment is stable under re-partitioning, re-ordering,
    resumes and incremental extends — a doc NEVER migrates between
    splits when the corpus grows (the leakage bug seeded shuffles
    have). One combiner pass, one (split, lang) exchange.
    """
    from ..functions.hashing import md5_u64

    tok = get_tokenizer(tokenizer)
    cut_val = train + val

    def partials(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        counts: dict[tuple[str, str], list[int]] = {}
        for i, (did, lang) in enumerate(zip(ids, langs)):
            b = md5_u64(str(did)) % 100
            split = "train" if b < train else ("val" if b < cut_val else "test")
            nt = len(tok(batch["text"][i].as_py() or ""))
            agg = counts.setdefault((split, lang), [0, 0])
            agg[0] += 1
            agg[1] += nt
        keys = list(counts)
        return pa.table(
            {
                "split": pa.array([k[0] for k in keys], pa.string()),
                "lang": pa.array([k[1] for k in keys], pa.string()),
                "nd": pa.array([counts[k][0] for k in keys], pa.int64()),
                "tt": pa.array([counts[k][1] for k in keys], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["split", "lang"])
        .aggregate(Sum("nd", alias_name="n_docs"),
                   Sum("tt", alias_name="total_tokens"))
        .to_pandas()
    )
    return (
        out.sort_values(["split", "lang"]).reset_index(drop=True)
        .astype({"n_docs": "int64", "total_tokens": "int64"})
    )


def term_cooccurrence(
    ds: ray.data.Dataset, window: int = 10, k: int = 50,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """Collocation mining: the top-``k`` unordered term pairs
    co-occurring within a ``window``-token span, counted per position
    pair — the corpus statistic behind phrase/stopword discovery and
    PMI features. Per-batch counting is an O(L*window) in-task pass
    (pairs never explode into the exchange row-by-row: each batch
    emits its aggregated (t1, t2, cnt) partials), one hash exchange
    sums them — bounded by the observed pair vocabulary, not corpus
    size — and the final top-k is a Ray sort+limit, so only k rows
    reach the driver. At web scale the pair vocabulary is the cost
    driver; the standard mitigations (min-count floor inside the
    combiner, per-batch top-M truncation with logged drops) slot into
    ``partials`` without changing the contract.
    """
    tok = _tok_fn(tokenizer)

    def partials(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        for text in batch["text"].to_pylist():
            toks = tok(text or "")
            L = len(toks)
            for i in range(L):
                ti = toks[i]
                for j in range(i + 1, min(i + 1 + window, L)):
                    tj = toks[j]
                    if ti == tj:
                        continue
                    key = (ti, tj) if ti < tj else (tj, ti)
                    counts[key] = counts.get(key, 0) + 1
        keys = list(counts)
        return pa.table(
            {
                "t1": pa.array([p[0] for p in keys], pa.string()),
                "t2": pa.array([p[1] for p in keys], pa.string()),
                "cnt": pa.array([counts[p] for p in keys], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["t1", "t2"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "t1", "t2"], descending=[True, False, False])
        .limit(k)
        .to_pandas()
    )
    if out.empty:  # all-filtered collect loses the schema
        return pd.DataFrame({
            "t1": pd.Series(dtype="object"), "t2": pd.Series(dtype="object"),
            "cnt": pd.Series(dtype="int64"),
        })
    return out.reset_index(drop=True).astype({"cnt": "int64"})


def pack_sequences(
    ds: ray.data.Dataset,
    budget: int = 2048,
    bucket_width: int = 4096,
    tokenizer: str = "simple",
) -> ray.data.Dataset:
    """Context-window packing: assign every doc (in doc_id order) a
    position in the concatenate-and-chunk token stream — the standard
    pre-training packing step (concatenate all docs, cut fixed
    ``budget``-token windows; docs may straddle a cut). Output per doc:
    ``seq_id = prev // budget`` and ``seq_off = prev % budget`` where
    ``prev`` is the exact number of tokens in all lower-doc_id docs.

    The global ordered cumsum is computed scale-out, not on the
    driver: (1) ONE tokenize pass emits the thin (doc_id, doc_len)
    table, materialized so the two downstream consumers don't re-read
    the corpus (~16 B/row — at extreme corpus sizes swap the
    materialize for a tmp parquet spill); (2) per-bucket
    (doc_id // bucket_width) token sums — a small exchange, N/4096
    rows to the driver for the exclusive prefix; (3) a bucket groupby
    assigns in-group positions from the broadcast offsets. No stage
    ever holds more than one bucket of rows.
    """
    import ray

    tok = _tok_fn(tokenizer)

    def lens_fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        lens = [len(tok(t or "")) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "bucket": pa.array([i // bucket_width for i in ids], pa.int64()),
                "doc_len": pa.array(lens, pa.int64()),
            }
        )

    lens = ds.map_batches(lens_fn, batch_format="pyarrow").materialize()
    totals = (
        lens.groupby("bucket")
        .aggregate(Sum("doc_len", alias_name="bt"))
        .to_pandas()
        .sort_values("bucket")
    )
    run = totals["bt"].cumsum().shift(fill_value=0)
    offsets_ref = ray.put(dict(zip(totals["bucket"].astype(int), run.astype(int))))

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        offsets = ray.get(offsets_ref)  # plasma-shared, cached per node
        g = g.sort_values("doc_id")
        dl = g["doc_len"].to_numpy(np.int64)
        prev = offsets[int(g["bucket"].iloc[0])] + np.cumsum(dl) - dl
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "doc_len": dl,
                "seq_id": prev // budget,
                "seq_off": prev % budget,
            }
        )

    return lens.groupby("bucket").map_groups(assign, batch_format="pandas")


# PII patterns (ASCII-explicit so Python `re` and DuckDB's RE2 agree
# exactly; shared verbatim with the SQL oracle). Redaction applies the
# classes in PII_ORDER sequentially; counts are over the original text.
PII_PATTERNS = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "url": r"https?://[^ \t\n\r]+",
    "ipv4": r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b",
    "phone": r"\b[0-9]{3}-[0-9]{3}-[0-9]{4}\b",
    "id": r"\b[0-9]{9,}\b",
}
PII_ORDER = ("email", "url", "ipv4", "phone", "id")


class PIIScanStage:
    """Per-doc PII scan + redaction (actor-pool stage: the five class
    regexes compile once per actor). Emits per-class match counts
    (over the original text), the redacted text's length and the first
    16 hex chars of its sha256 — so the oracle verifies the full
    redaction transform per doc without shipping text. The scrubbing
    pass every training-data pipeline runs before tokenization; same
    shape as the reference's caption normalizer
    (/root/reference/caption_generator_post.py:11-27) but
    class-counted and hash-attested."""

    def __init__(self) -> None:
        import re

        self.pats = [(k, re.compile(PII_PATTERNS[k])) for k in PII_ORDER]

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts: dict[str, list[int]] = {k: [] for k in PII_ORDER}
        red_len, red_sha = [], []
        for text in batch["text"].to_pylist():
            t = text or ""
            red = t
            for k, p in self.pats:
                counts[k].append(len(p.findall(t)))
                red = p.sub(f"<{k.upper()}>", red)
            red_len.append(len(red))
            red_sha.append(hashlib.sha256(red.encode("utf-8")).hexdigest()[:16])
        n = np.zeros(len(red_len), dtype=np.int64)
        cols: dict[str, pa.Array] = {"doc_id": batch["doc_id"]}
        for k in PII_ORDER:
            arr = np.asarray(counts[k], dtype=np.int64)
            n += arr
            cols[f"n_{k}"] = pa.array(arr, pa.int64())
        cols["n_pii"] = pa.array(n, pa.int64())
        cols["red_len"] = pa.array(red_len, pa.int64())
        cols["red_sha16"] = pa.array(red_sha, pa.string())
        return pa.table(cols)


def pii_scan(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(PIIScanStage, batch_format="pyarrow", concurrency=(1, 8))


# Deterministic misspelled-word battery for the spell-suggest oracle
# (typos of frequent corpus terms; shared verbatim with the SQL VALUES).
SPELL_BATTERY = ("memrge", "fitler", "custmer", "windoq", "strema", "qery")


def _lev_capped(a: str, b: str, cap: int) -> int | None:
    """Exact unit-cost Levenshtein distance if <= cap else None.
    Banded DP (cells within ``cap`` of the diagonal), same unit-cost
    metric as DuckDB's ``levenshtein`` and query._levenshtein_leq."""
    if abs(len(a) - len(b)) > cap:
        return None
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j in range(1, len(b) + 1):
        cur = [j] + [cap + 1] * len(a)
        lo, hi = max(1, j - cap), min(len(a), j + cap)
        for i in range(lo, hi + 1):
            cur[i] = min(
                prev[i] + 1,
                cur[i - 1] + 1,
                prev[i - 1] + (a[i - 1] != b[j - 1]),
            )
        prev = cur
    return prev[len(a)] if prev[len(a)] <= cap else None


def spell_suggest(
    ds: ray.data.Dataset,
    words: tuple[str, ...] = SPELL_BATTERY,
    max_edits: int = 2,
    k: int = 3,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """Did-you-mean suggestions: for each battery word, the top-``k``
    corpus-vocabulary terms within ``max_edits`` Levenshtein edits,
    ranked (dist asc, df desc, term asc) — the DirectSpellChecker
    contract. The dictionary is the distributed term_stats output; the
    tiny battery rides in the closure and every dictionary batch emits
    only its candidate hits (length-prefiltered, banded DP), so the
    exchange is candidates-only — at web scale the vocab scan is the
    cost and a prefix-pinned variant (reader.expand_fuzzy) serves the
    online path; this is the exact batch form."""
    cands = term_stats(ds, tokenizer)

    def match(batch: pa.Table) -> pa.Table:
        out_w, out_t, out_df, out_d = [], [], [], []
        dfs = batch["df"].to_pylist()
        for i, term in enumerate(batch["term"].to_pylist()):
            for w in words:
                d = _lev_capped(w, term, max_edits)
                if d is not None:
                    out_w.append(w)
                    out_t.append(term)
                    out_df.append(dfs[i])
                    out_d.append(d)
        return pa.table(
            {
                "word": pa.array(out_w, pa.string()),
                "term": pa.array(out_t, pa.string()),
                "df": pa.array(out_df, pa.int64()),
                "dist": pa.array(out_d, pa.int64()),
            }
        )

    out = cands.map_batches(match, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "word": pd.Series(dtype="object"),
                "rank": pd.Series(dtype="int64"),
                "term": pd.Series(dtype="object"),
                "df": pd.Series(dtype="int64"),
                "dist": pd.Series(dtype="int64"),
            }
        )
    out = out.sort_values(
        ["word", "dist", "df", "term"], ascending=[True, True, False, True]
    ).reset_index(drop=True)
    out["rank"] = out.groupby("word").cumcount() + 1
    out = out[out["rank"] <= k]
    return out[["word", "rank", "term", "df", "dist"]].reset_index(drop=True)


def repetition_stats(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    """Per-doc repetition signals (the Gopher quality-filter family,
    Rae et al. 2021 §A1.1, token-level): the token fraction claimed by
    the single most frequent 2-/3-/4-gram, and the fraction of token
    positions covered by any 5-gram that occurs at least twice —
    high values flag boilerplate/spam docs a training pipeline drops.
    Pure per-doc map (no exchange); fixed-point *_e6 outputs."""
    tok = _tok_fn(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        n_toks, tops, dup5 = [], {2: [], 3: [], 4: []}, []
        for text in batch["text"].to_pylist():
            ts = tok(text or "")
            n = len(ts)
            n_toks.append(n)
            for g in (2, 3, 4):
                counts: dict[tuple, int] = {}
                for i in range(n - g + 1):
                    gm = tuple(ts[i : i + g])
                    counts[gm] = counts.get(gm, 0) + 1
                top = max(counts.values()) if counts else 0
                tops[g].append(top * g / n if n else 0.0)
            starts: dict[tuple, list[int]] = {}
            for i in range(n - 4):
                starts.setdefault(tuple(ts[i : i + 5]), []).append(i)
            covered = np.zeros(n, dtype=bool)
            for pos in starts.values():
                if len(pos) >= 2:
                    for i in pos:
                        covered[i : i + 5] = True
            dup5.append(int(covered.sum()) / n if n else 0.0)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n_toks, pa.int64()),
                "top2_frac_e6": pa.array(e6(np.array(tops[2]))),
                "top3_frac_e6": pa.array(e6(np.array(tops[3]))),
                "top4_frac_e6": pa.array(e6(np.array(tops[4]))),
                "dup5_frac_e6": pa.array(e6(np.array(dup5))),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# Gopher-rule thresholds for quality_filter, expressed as exact integer
# comparisons (no float boundaries to disagree on with the SQL oracle):
#   length:    MIN_TOKENS <= n <= MAX_TOKENS
#   word len:  3*n <= sum(len(tok)) <= 10*n        (mean in [3, 10])
#   stopwords: 100*n_stop >= 2*n                   (ratio >= 0.02)
#   top2gram:  10*top2_count <= n                  (2*top2/n <= 0.2)
#   dup5gram:  10*covered <= 3*n                   (coverage <= 0.3)
QF_MIN_TOKENS, QF_MAX_TOKENS = 10, 100_000


def quality_filter(
    ds: ray.data.Dataset, tokenizer: str = "simple",
    passthrough: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """The actionable keep/drop decision of the Gopher quality rules
    (Rae et al. 2021 §A1.1): per doc, five pass/fail flags plus the
    conjunction ``keep``. All comparisons are integer-exact (scaled to
    avoid division) so the SQL oracle matches bit-for-bit. ONE per-doc
    map pass computes every signal (token stats, stopword count, top
    2-gram count, duplicated-5-gram coverage) — the fused form of
    quality_scores + repetition_stats for the filter path, so the drop
    stage of a training pipeline costs a single corpus read."""
    tok = _tok_fn(tokenizer)
    stops = frozenset(EN_STOPWORDS)

    def fn(batch: pa.Table) -> pa.Table:
        cols = {k: [] for k in
                ("n_tokens", "pass_len", "pass_wordlen", "pass_stop",
                 "pass_top2", "pass_dup5", "keep")}
        for text in batch["text"].to_pylist():
            ts = tok(text or "")
            n = len(ts)
            sum_len = sum(len(t) for t in ts)
            n_stop = sum(1 for t in ts if t in stops)
            c2: dict[tuple, int] = {}
            for i in range(n - 1):
                gm = (ts[i], ts[i + 1])
                c2[gm] = c2.get(gm, 0) + 1
            top2 = max(c2.values()) if c2 else 0
            starts: dict[tuple, list[int]] = {}
            for i in range(n - 4):
                starts.setdefault(tuple(ts[i : i + 5]), []).append(i)
            covered = np.zeros(n, dtype=bool)
            for pos in starts.values():
                if len(pos) >= 2:
                    for i in pos:
                        covered[i : i + 5] = True
            ncov = int(covered.sum())
            p_len = int(QF_MIN_TOKENS <= n <= QF_MAX_TOKENS)
            p_wl = int(3 * n <= sum_len <= 10 * n)
            p_st = int(100 * n_stop >= 2 * n)
            p_t2 = int(10 * top2 <= n)
            p_d5 = int(10 * ncov <= 3 * n)
            for k, v in (("n_tokens", n), ("pass_len", p_len),
                         ("pass_wordlen", p_wl), ("pass_stop", p_st),
                         ("pass_top2", p_t2), ("pass_dup5", p_d5),
                         ("keep", p_len & p_wl & p_st & p_t2 & p_d5)):
                cols[k].append(v)
        return pa.table(
            {"doc_id": batch["doc_id"],
             **{c: batch[c] for c in passthrough},
             **{k: pa.array(v, pa.int64()) for k, v in cols.items()}}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def quality_filter_rates(ds: ray.data.Dataset, tokenizer: str = "simple") -> pd.DataFrame:
    """Per-language keep rates of the Gopher quality filter — the
    report a data-mixing decision actually reads (which languages the
    thresholds bite). Same fused per-doc pass with the lang column
    carried through, then one lang-sized exchange."""
    per_doc = quality_filter(ds, tokenizer, passthrough=("lang",))
    out = (
        per_doc.groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("keep", alias_name="n_keep"))
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    nd = out["n_docs"].to_numpy(np.float64)
    nk = out["n_keep"].to_numpy(np.float64)
    out["keep_rate_e6"] = e6(np.where(nd > 0, nk / np.maximum(nd, 1), 0.0))
    return out.astype(
        {"n_docs": "int64", "n_keep": "int64", "keep_rate_e6": "int64"}
    )


def source_mix(ds: ray.data.Dataset) -> pd.DataFrame:
    """Domain-mixing summary: deterministic hash-based downsampling of
    each source to its target rate — the data-mixing step that rebalances
    domains before training. A doc survives iff
    ``md5('source:doc_id') % 1e6 < rate_ppm(source)`` where the target
    ``rate_ppm = 100000 * (1 + md5(source) % 9)`` (a stable 0.1–0.9
    rate per source, scale-agnostic: no config table to ship). Like
    split_summary the decision is pure hash — stable under reorder,
    resume and extend, never re-sampling a doc the way seeded shuffles
    do. Combiner partials per batch, one (source) exchange; returns
    (source, rate_ppm, n_docs, n_sampled) sorted by source."""
    from ..functions.hashing import md5_u64

    def partials(batch: pa.Table) -> pa.Table:
        counts: dict[str, list[int]] = {}
        for did, src in zip(
            batch["doc_id"].to_pylist(), batch["source"].to_pylist()
        ):
            rate_ppm = 100_000 * (1 + md5_u64(src) % 9)
            keep = md5_u64(f"{src}:{did}") % 1_000_000 < rate_ppm
            agg = counts.setdefault(src, [0, 0])
            agg[0] += 1
            agg[1] += int(keep)
        keys = sorted(counts)
        return pa.table(
            {
                "source": pa.array(keys, pa.string()),
                "nd": pa.array([counts[k][0] for k in keys], pa.int64()),
                "ns": pa.array([counts[k][1] for k in keys], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("nd", alias_name="n_docs"), Sum("ns", alias_name="n_sampled"))
        .to_pandas()
    )
    out["rate_ppm"] = [100_000 * (1 + md5_u64(s) % 9) for s in out["source"]]
    return (
        out[["source", "rate_ppm", "n_docs", "n_sampled"]]
        .sort_values("source").reset_index(drop=True)
        .astype({"rate_ppm": "int64", "n_docs": "int64", "n_sampled": "int64"})
    )


def train_order(ds: ray.data.Dataset, seed: int = 17) -> ray.data.Dataset:
    """Deterministic global training order: position of every doc in
    the seeded pseudo-random permutation ``sort by md5(seed:doc_id)``
    — the reproducible global shuffle a training run needs (same seed
    => same order on any cluster shape / partitioning / resume, unlike
    ``random_shuffle``; a new epoch is just a new seed). The exact
    global rank is computed scale-out with the same bucketed two-phase
    prefix as pack_sequences: the u64 hash key's top 10 bits bucket
    uniformly (1024 driver-side counts), in-bucket ranks come from a
    per-group sort, positions = bucket offset + in-bucket rank. Ties
    (md5 collisions) break by doc_id, mirrored in the oracle."""
    import ray

    from ..functions.hashing import md5_u64

    def key_fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        keys = [md5_u64(f"{seed}:{d}") for d in ids]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "key": pa.array(keys, pa.uint64()),
                "bucket": pa.array([k >> 54 for k in keys], pa.int64()),
            }
        )

    keyed = ds.map_batches(key_fn, batch_format="pyarrow").materialize()
    counts = (
        keyed.groupby("bucket")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values("bucket")
    )
    run = counts["n"].cumsum().shift(fill_value=0)
    offsets_ref = ray.put(dict(zip(counts["bucket"].astype(int), run.astype(int))))

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        offsets = ray.get(offsets_ref)
        g = g.sort_values(["key", "doc_id"])
        start = offsets[int(g["bucket"].iloc[0])]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "pos": np.arange(start, start + len(g), dtype=np.int64),
            }
        )

    return keyed.groupby("bucket").map_groups(rank, batch_format="pandas")


# BPE-ish pre-tokenizer pattern (GPT-2 shape, ASCII-explicit so Python
# `re` and DuckDB's RE2 agree exactly: contractions, space-prefixed
# letter runs, digit runs, punctuation runs). Shared with the oracle.
BPE_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[a-z]+| ?[0-9]+| ?[^ a-z0-9']+"
WS_PATTERN = r"[^ \t\n\r]+"


def token_counts(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-doc token counting both ways a budget estimate is done:
    whitespace tokens and BPE-ish pre-tokenizer tokens (the GPT-2
    pre-tokenization shape — the cheap proxy for "how many tokens will
    the model see"), plus their fixed-point ratio. One vectorizable
    per-doc map; regexes compile once per actor."""

    class Stage:
        def __init__(self) -> None:
            import re

            self.bpe = re.compile(BPE_PATTERN)
            self.ws = re.compile(WS_PATTERN)

        def __call__(self, batch: pa.Table) -> pa.Table:
            n_ws, n_bpe = [], []
            for text in batch["text"].to_pylist():
                t = (text or "").lower()
                n_ws.append(len(self.ws.findall(t)))
                n_bpe.append(len(self.bpe.findall(t)))
            ws = np.asarray(n_ws, dtype=np.int64)
            bp = np.asarray(n_bpe, dtype=np.int64)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(ws > 0, bp / np.maximum(ws, 1), 0.0)
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "n_ws_tokens": pa.array(ws, pa.int64()),
                    "n_bpe_tokens": pa.array(bp, pa.int64()),
                    "bpe_per_ws_e6": pa.array(e6(ratio), pa.int64()),
                }
            )

    return ds.map_batches(Stage, batch_format="pyarrow", concurrency=(1, 8))


# ---------------------------------------------------------------------------
# HyperLogLog distinct-term sketch (Flajolet et al. 2007). m = 64
# registers (6-bit bucket index off the md5-u64 hash top bits); rho =
# 1-based position of the leftmost 1 bit in the remaining 58 bits.
HLL_M = 64
_HLL_REST_BITS = 58
_HLL_ALPHA = 0.709  # alpha_64 from the paper


def hll_registers(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    """The distributed sketch itself: every batch computes its local
    64 max-rho registers over its DISTINCT tokens (a combiner — the
    full term stream never leaves the map task), one tiny
    groupby(bucket).max merges them. Registers are pure integers, so
    the oracle is exact (DuckDB mirrors bit_length with len(bin(x))).
    Missing buckets mean register 0. This is the mergeable-state
    pattern every streaming distinct-count needs at 10^12 rows —
    union of sketches == sketch of union."""
    from ..functions.hashing import md5_u64

    tok = _tok_fn(tokenizer)
    mask = (1 << _HLL_REST_BITS) - 1

    def fn(batch: pa.Table) -> pa.Table:
        regs: dict[int, int] = {}
        for text in batch["text"].to_pylist():
            for t in set(tok(text or "")):
                h = md5_u64(t)
                b = h >> _HLL_REST_BITS
                rest = h & mask
                rho = (
                    _HLL_REST_BITS + 1
                    if rest == 0
                    else _HLL_REST_BITS - rest.bit_length() + 1
                )
                if rho > regs.get(b, 0):
                    regs[b] = rho
        keys = sorted(regs)
        return pa.table(
            {
                "bucket": pa.array(keys, pa.int64()),
                "reg": pa.array([regs[k] for k in keys], pa.int64()),
            }
        )

    return (
        ds.map_batches(fn, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Max("reg", alias_name="reg"))
    )


def hll_distinct(ds: ray.data.Dataset, tokenizer: str = "simple") -> pd.DataFrame:
    """One-row summary: the raw HLL estimate (integer-exact register
    sum scaled by 2^63 — no float accumulation, so the oracle divides
    the SAME two numbers) next to the exact distinct-term count. The
    raw estimator is the operative branch at web scale (vocab >> m);
    production code would add the linear-counting small-range branch,
    deliberately omitted here because ln() is not bit-portable across
    engines and the driver compares hashes."""
    regs = hll_registers(ds, tokenizer).to_pandas()
    s_int = sum(1 << (63 - int(r)) for r in regs["reg"])
    s_int += (HLL_M - len(regs)) * (1 << 63)
    est = _HLL_ALPHA * HLL_M * HLL_M * 9223372036854775808.0 / float(s_int)
    exact = int(term_stats(ds, tokenizer).count())
    return pd.DataFrame(
        [
            {
                "m": HLL_M,
                "n_buckets_hit": len(regs),
                "est_e6": int(e6(np.array([est]))[0]),
                "exact_distinct": exact,
            }
        ]
    ).astype("int64")


def hll_by_group(
    ds: ray.data.Dataset, key: str = "lang", tokenizer: str = "simple"
) -> pd.DataFrame:
    """Per-group HLL distinct-term estimates — the grouped form of
    ``hll_distinct`` (the ES `cardinality` sub-aggregation shape): one
    64-register sketch per ``key`` value, merged with a
    groupby((key, bucket)).max exchange of at most groups x 64 thin
    rows. The per-batch combiner sketches its DISTINCT (group, term)
    pairs locally, so the raw token stream never leaves the map task;
    the exact per-group count (for the report column) rides the same
    distinct-pair exchange the vocabulary stats already pay. Returns
    one row per group: (key, n_buckets_hit, est_e6, exact_distinct),
    integer-exact so the oracle divides the same two numbers. A NULL
    key forms no group (its rows are skipped, as the oracle's equality
    join drops them); ``""`` is a group of its own."""
    from ..functions.hashing import md5_u64

    tok = _tok_fn(tokenizer)
    mask = (1 << _HLL_REST_BITS) - 1

    def reg_fn(batch: pa.Table) -> pa.Table:
        regs: dict[tuple[str, int], int] = {}
        for g, text in zip(batch[key].to_pylist(), batch["text"].to_pylist()):
            if g is None:
                continue
            for t in set(tok(text or "")):
                h = md5_u64(t)
                b = h >> _HLL_REST_BITS
                rest = h & mask
                rho = (
                    _HLL_REST_BITS + 1
                    if rest == 0
                    else _HLL_REST_BITS - rest.bit_length() + 1
                )
                if rho > regs.get((g, b), 0):
                    regs[(g, b)] = rho
        keys = sorted(regs)
        return pa.table(
            {
                key: pa.array([k[0] for k in keys], pa.string()),
                "bucket": pa.array([k[1] for k in keys], pa.int64()),
                "reg": pa.array([regs[k] for k in keys], pa.int64()),
            }
        )

    regs = (
        ds.map_batches(reg_fn, batch_format="pyarrow")
        .groupby([key, "bucket"])
        .aggregate(Max("reg", alias_name="reg"))
        .to_pandas()
    )

    def pair_fn(batch: pa.Table) -> pa.Table:
        pairs = {
            (g, t)
            for g, text in zip(batch[key].to_pylist(), batch["text"].to_pylist())
            if g is not None
            for t in set(tok(text or ""))
        }
        keys = sorted(pairs)
        return pa.table(
            {
                key: pa.array([p[0] for p in keys], pa.string()),
                "term": pa.array([p[1] for p in keys], pa.string()),
            }
        )

    exact = (
        ds.map_batches(pair_fn, batch_format="pyarrow")
        .groupby([key, "term"])
        .aggregate(Count())
        .groupby(key)
        .aggregate(Count())
        .to_pandas()
        .rename(columns={"count()": "exact_distinct"})
    )

    rows = []
    for g, grp in regs.groupby(key):
        s_int = sum(1 << (63 - int(r)) for r in grp["reg"])
        s_int += (HLL_M - len(grp)) * (1 << 63)
        est = _HLL_ALPHA * HLL_M * HLL_M * 9223372036854775808.0 / float(s_int)
        rows.append((g, len(grp), int(e6(np.array([est]))[0])))
    out = pd.DataFrame(rows, columns=[key, "n_buckets_hit", "est_e6"])
    out = out.merge(exact, on=key, how="left")
    out["exact_distinct"] = out["exact_distinct"].fillna(0).astype("int64")
    for c in ("n_buckets_hit", "est_e6"):
        out[c] = out[c].astype("int64")
    return out.sort_values(key).reset_index(drop=True)


# Frozen autocomplete battery (shared with the SQL VALUES list).
AUTOCOMPLETE_BATTERY = ("s", "st", "co", "w", "qu", "zz")


def autocomplete(
    ds: ray.data.Dataset,
    prefixes: tuple[str, ...] = AUTOCOMPLETE_BATTERY,
    k: int = 5,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """Search-as-you-type completions: for each prefix, the top-``k``
    vocabulary terms ranked by document frequency (df desc, term asc)
    — the suggest box every search engine serves. The dictionary is
    the distributed term_stats output; the tiny prefix battery rides
    in the closure and each dictionary batch emits AT MOST k candidates
    per prefix (vectorized startswith + per-batch top-k combiner — the
    exact max-merge property: the global top-k is contained in the
    union of per-batch top-ks), so the driver merge is bounded by
    prefixes x k x num_batches even for a 1-char prefix over a 10^9
    term vocabulary. The index-backed online form is
    reader.expand_prefix + df ranking; this is the exact batch form
    over the corpus."""
    stats = term_stats(ds, tokenizer)

    def match(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tbl_parts = []
        for p in prefixes:
            mask = pc.starts_with(batch["term"], p)
            sub = batch.filter(mask)
            if sub.num_rows:
                order = pc.sort_indices(
                    sub,
                    sort_keys=[("df", "descending"), ("term", "ascending")],
                )[: k]
                sub = sub.take(order)
                tbl_parts.append(
                    pa.table(
                        {
                            "prefix": pa.array([p] * sub.num_rows, pa.string()),
                            "term": sub["term"],
                            "df": sub["df"],
                        }
                    )
                )
        if not tbl_parts:
            return pa.table(
                {
                    "prefix": pa.array([], pa.string()),
                    "term": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(tbl_parts)

    out = stats.map_batches(match, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "prefix": pd.Series(dtype="object"),
                "rank": pd.Series(dtype="int64"),
                "term": pd.Series(dtype="object"),
                "df": pd.Series(dtype="int64"),
            }
        )
    out = out.sort_values(
        ["prefix", "df", "term"], ascending=[True, False, True]
    ).reset_index(drop=True)
    out["rank"] = out.groupby("prefix").cumcount() + 1
    out = out[out["rank"] <= k]
    out["df"] = out["df"].astype("int64")
    return out[["prefix", "rank", "term", "df"]].reset_index(drop=True)


# Frozen percolation subscriptions (shared with the SQL VALUES list):
# conjunctive term sets a stored query subscribes with — single term,
# common pair, rare triple, and a never-matching set.
PERCOLATE_SUBSCRIPTIONS = [
    {"qid": 1, "query": "merge sort"},
    {"qid": 2, "query": "window"},
    {"qid": 3, "query": "fast key order"},
    {"qid": 4, "query": "zebra quantum"},
]


def percolate(
    ds: ray.data.Dataset,
    subscriptions=PERCOLATE_SUBSCRIPTIONS,
    tokenizer: str = "simple",
) -> ray.data.Dataset:
    """Reverse search (the Elasticsearch percolator): route each
    incoming DOCUMENT to the stored queries it satisfies — the
    streaming-ingest alerting shape ("tell me when a doc matching my
    query arrives"). Stored queries are conjunctive term sets; a doc
    matches when it contains EVERY term. The subscription table is the
    broadcast small side (compiled to frozensets once per actor in
    ``__init__``); the corpus streams through ``map_batches`` with one
    vectorized set-membership pass per doc — no shuffle at all, the
    output is the only exchange. Emits (qid, doc_id) match pairs."""

    class Percolator:
        def __init__(self):
            tok = _tok_fn(tokenizer)
            self._subs = [
                (int(s["qid"]), frozenset(tok(s["query"])))
                for s in subscriptions
            ]
            self._tok = tok

        def __call__(self, batch: pa.Table) -> pa.Table:
            qids, dids = [], []
            for d, text in zip(batch["doc_id"].to_pylist(),
                               batch["text"].to_pylist()):
                toks = frozenset(self._tok(text or ""))
                for qid, terms in self._subs:
                    if terms <= toks:
                        qids.append(qid)
                        dids.append(int(d))
            return pa.table({
                "qid": pa.array(qids, pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
            })

    return ds.map_batches(Percolator, batch_format="pyarrow", concurrency=2)


def stratified_sample(
    ds: ray.data.Dataset, n_per_group: int = 20, group_col: str = "lang",
) -> pd.DataFrame:
    """Deterministic stratified sampling: per group the ``n`` docs
    with the SMALLEST 60-bit md5(text) hash — a uniform, seedless,
    reproducible subsample (the training-mix "give me n docs per
    language" cut) that is REORDER- and PARTITION-invariant by
    construction and stable under corpus growth (a new doc displaces a
    sampled one only by hashing below it — no reshuffling of the
    survivors, the same property the md5-bucket splits rely on).
    Per-batch combiner: each batch emits only its local n smallest
    (hash, doc_id) per group — the global n smallest live in the union
    of per-batch n smallest (max-merge), so the driver merge is
    bounded by groups x n x num_batches, never corpus-sized. The
    60-bit hex-prefix hash is the `dedup._md5_60` form DuckDB mirrors
    exactly. Columns: {group_col}, rank, doc_id, h."""
    import heapq

    from .dedup import _md5_60

    def partials(batch: pa.Table) -> pa.Table:
        best: dict[str, list] = {}
        for g, d, text in zip(
            batch[group_col].to_pylist(), batch["doc_id"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            if g is None:
                continue
            key = (-_md5_60(text or ""), -int(d))
            heap = best.setdefault(str(g), [])
            if len(heap) < n_per_group:
                heapq.heappush(heap, key)
            elif key > heap[0]:  # smaller (h, doc_id) than current max
                heapq.heapreplace(heap, key)
        gs, dids, hs = [], [], []
        for g, heap in best.items():
            for nh, nd in heap:
                gs.append(g)
                dids.append(-nd)
                hs.append(-nh)
        return pa.table({
            group_col: pa.array(gs, pa.string()),
            "doc_id": pa.array(dids, pa.int64()),
            "h": pa.array(hs, pa.int64()),
        })

    agg = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    cols = [group_col, "rank", "doc_id", "h"]
    if agg.empty:
        return pd.DataFrame({
            c: pd.Series(dtype="object" if c == group_col else "int64")
            for c in cols
        })
    agg = agg.sort_values([group_col, "h", "doc_id"], kind="mergesort")
    agg["rank"] = agg.groupby(group_col).cumcount() + 1
    out = agg[agg["rank"] <= n_per_group][cols].reset_index(drop=True)
    for c in ("rank", "doc_id", "h"):
        out[c] = out[c].astype("int64")
    return out


def distinctive_terms(
    ds: ray.data.Dataset, k: int = 3, tokenizer: str = "simple"
) -> pd.DataFrame:
    """Per-source distinctive vocabulary: the top-``k`` terms by
    add-one-smoothed log-odds ratio of the term's token share inside
    the source vs the rest of the corpus — the domain-characterization
    report a data-mixing decision reads. One combiner pass emits
    per-batch (source, term, cnt) partials; one groupby-sum exchange
    bounded by sources x vocabulary; the odds math and per-source
    ranking run on that aggregate (small relative to the corpus — at
    web scale it is the exchange, not the rank, that costs). ln() is
    bit-identical between numpy and DuckDB's RE2-side ln (the BM25
    oracles already rely on this), so lor_e6 hashes exactly."""
    tok = _tok_fn(tokenizer)

    def partials(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        for src, text in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            for t in tok(text or ""):
                counts[(src, t)] = counts.get((src, t), 0) + 1
        keys = list(counts)
        return pa.table(
            {
                "source": pa.array([s for s, _ in keys], pa.string()),
                "term": pa.array([t for _, t in keys], pa.string()),
                "cnt": pa.array([counts[p] for p in keys], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "term"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    if agg.empty:
        return pd.DataFrame({
            "source": pd.Series(dtype="object"),
            "rank": pd.Series(dtype="int64"),
            "term": pd.Series(dtype="object"),
            "cnt": pd.Series(dtype="int64"),
            "lor_e6": pd.Series(dtype="int64"),
        })
    tot_s = agg.groupby("source")["cnt"].transform("sum").to_numpy(np.float64)
    tot_t = agg.groupby("term")["cnt"].transform("sum").to_numpy(np.float64)
    total = float(agg["cnt"].sum())
    c_s = agg["cnt"].to_numpy(np.float64)
    c_r = tot_t - c_s
    rest = total - tot_s
    lor = (
        np.log((c_s + 1.0) / (tot_s - c_s + 1.0))
        - np.log((c_r + 1.0) / (rest - c_r + 1.0))
    )
    agg = agg.assign(lor_e6=e6(lor))
    agg = agg.sort_values(
        ["source", "lor_e6", "term"], ascending=[True, False, True]
    ).reset_index(drop=True)
    agg["rank"] = agg.groupby("source").cumcount() + 1
    out = agg[agg["rank"] <= k]
    return (
        out[["source", "rank", "term", "cnt", "lor_e6"]]
        .reset_index(drop=True)
        .astype({"rank": "int64", "cnt": "int64", "lor_e6": "int64"})
    )


def length_histogram(
    ds: ray.data.Dataset, bucket_width: int = 10, tokenizer: str = "simple"
) -> pd.DataFrame:
    """Corpus doc-length histogram: token-count buckets of width
    ``bucket_width`` with doc counts and per-bucket token totals — the
    distribution every batch/packing/truncation decision reads. One
    combiner pass (per-batch bucket partials), one bucket-sized
    exchange."""
    tok = _tok_fn(tokenizer)

    def partials(batch: pa.Table) -> pa.Table:
        counts: dict[int, list[int]] = {}
        for text in batch["text"].to_pylist():
            n = len(tok(text or ""))
            b = n // bucket_width
            agg = counts.setdefault(b, [0, 0])
            agg[0] += 1
            agg[1] += n
        keys = sorted(counts)
        return pa.table(
            {
                "bucket_lo": pa.array([k * bucket_width for k in keys], pa.int64()),
                "nd": pa.array([counts[k][0] for k in keys], pa.int64()),
                "tt": pa.array([counts[k][1] for k in keys], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("bucket_lo")
        .aggregate(Sum("nd", alias_name="n_docs"), Sum("tt", alias_name="total_tokens"))
        .to_pandas()
    )
    return (
        out.sort_values("bucket_lo").reset_index(drop=True)
        .astype({"bucket_lo": "int64", "n_docs": "int64", "total_tokens": "int64"})
    )


def bigram_lm_scores(ds: ray.data.Dataset, tokenizer: str = "simple") -> pd.DataFrame:
    """Corpus-trained bigram language-model fluency scoring — the
    CCNet-style "perplexity filter" shape (Wenzek et al., "CCNet:
    Extracting High Quality Monolingual Datasets", LREC 2020) with the
    LM trained on the corpus itself and INTEGER-exact arithmetic so the
    oracle matches bitwise.

    Pass 1 trains the model: bigram counts c(w1,w2) over adjacent
    token pairs via a per-batch Arrow combiner + one small groupby
    exchange; context totals c(w1) = sum_w2 c(w1,w2) derive from the
    same table on the driver (vocab-bounded). Pass 2 broadcasts the
    conditional-probability table (``ray.put`` once, plasma-shared per
    node) and scores every doc with a vectorized pandas merge:
    p_e6(w1,w2) = floor(1e6 * c12/c1 + 0.5) computed as the pure
    integer form (2_000_000*c12 + c1) // (2*c1) — no float division on
    either side.

    Returns one row per doc: (doc_id, n_bigrams, sum_p_e6, avg_p_e6);
    docs with < 2 tokens score 0. avg_p_e6 is the fluency signal (high
    = the doc's transitions are the corpus's common transitions; low =
    rare/garbled transitions — what a perplexity filter retires).

    Scale shape: the broadcast table is vocab^2-bounded by what the
    corpus actually contains; at open-vocabulary scale the documented
    variant prunes to the top-K bigrams and scores misses as 0 (OOV),
    which only strengthens the filter's discrimination while keeping
    the broadcast small.
    """
    tok = get_tokenizer(tokenizer)

    def bigram_counts(batch: pa.Table) -> pa.Table:
        w1s: list[str] = []
        w2s: list[str] = []
        for txt in batch["text"].to_pylist():
            ts = tok(txt or "")
            if len(ts) >= 2:
                w1s.extend(ts[:-1])
                w2s.extend(ts[1:])
        t = pa.table({"w1": pa.array(w1s, pa.string()),
                      "w2": pa.array(w2s, pa.string())})
        g = pa.TableGroupBy(t, ["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table({"w1": g["w1"], "w2": g["w2"], "n": g["count_all"]})

    counts = (
        ds.map_batches(bigram_counts, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("n", alias_name="c12"))
        .to_pandas()
    )
    if counts.empty:
        model = pd.DataFrame({"w1": pd.Series(dtype="object"),
                              "w2": pd.Series(dtype="object"),
                              "p_e6": pd.Series(dtype="int64")})
    else:
        c1 = (counts.groupby("w1", as_index=False)["c12"].sum()
              .rename(columns={"c12": "c1"}))
        model = counts.merge(c1, on="w1")
        c12v = model["c12"].astype("int64")
        c1v = model["c1"].astype("int64")
        model["p_e6"] = (2_000_000 * c12v + c1v) // (2 * c1v)
        model = model[["w1", "w2", "p_e6"]]
    model_ref = ray.put(model)

    class BigramScorer:
        def __init__(self, model_ref):
            # fn_constructor_args does NOT auto-deref ObjectRefs —
            # fetch once per actor (plasma-shared per node)
            self.model = ray.get(model_ref)
            self.tok = get_tokenizer(tokenizer)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            rows_i: list[np.ndarray] = []
            rows_w1: list[list[str]] = []
            rows_w2: list[list[str]] = []
            nb = np.zeros(len(ids), np.int64)
            for i, txt in enumerate(batch["text"].to_pylist()):
                ts = self.tok(txt or "")
                if len(ts) < 2:
                    continue
                nb[i] = len(ts) - 1
                rows_i.append(np.full(len(ts) - 1, i, np.int64))
                rows_w1.append(ts[:-1])
                rows_w2.append(ts[1:])
            s = np.zeros(len(ids), np.int64)
            if rows_i:
                bg = pd.DataFrame({
                    "i": np.concatenate(rows_i),
                    "w1": [w for ws in rows_w1 for w in ws],
                    "w2": [w for ws in rows_w2 for w in ws],
                })
                hit = bg.merge(self.model, on=["w1", "w2"], how="left")
                # full-corpus model => every bigram matches; fillna is
                # the pruned-top-K variant's OOV=0 path
                agg = hit["p_e6"].fillna(0).astype("int64").groupby(hit["i"]).sum()
                s[agg.index.to_numpy()] = agg.to_numpy(np.int64)
            avg = np.where(nb > 0, s // np.maximum(nb, 1), 0)
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "n_bigrams": pa.array(nb, pa.int64()),
                "sum_p_e6": pa.array(s, pa.int64()),
                "avg_p_e6": pa.array(avg, pa.int64()),
            })

    out = ds.map_batches(
        BigramScorer,
        fn_constructor_args=(model_ref,),
        batch_format="pyarrow",
        concurrency=(1, 8),
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


def length_quartiles(ds: ray.data.Dataset, tiles: int = 4,
                     tokenizer: str = "simple") -> pd.DataFrame:
    """NTILE window shape: per language, docs ranked by (token count,
    doc_id) split into ``tiles`` equal-as-possible tiles (SQL NTILE
    semantics: the first n % k tiles take one extra row), summarized
    as (lang, tile, n_docs, min_tokens, max_tokens) — the
    length-stratification report a curriculum/packing pipeline uses to
    pick sequence-length buckets.

    Distribution: a thin (lang, doc_id, n_tokens) projection computed
    in a stateless batch map, then one ``groupby(lang)`` exchange of
    those THIN rows (never text) with the tile assignment vectorized
    inside the group — the same per-key-locality contract as the other
    window shapes; output is tiles x langs rows.
    """
    tok = get_tokenizer(tokenizer)

    def project(batch: pa.Table) -> pa.Table:
        n = [len(tok(t or "")) for t in batch["text"].to_pylist()]
        return pa.table({
            "lang": batch["lang"],
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n, pa.int64()),
        })

    def tile_group(g: pd.DataFrame) -> pd.DataFrame:
        nt = g["n_tokens"].to_numpy(np.int64)
        did = g["doc_id"].to_numpy(np.int64)
        order = np.lexsort((did, nt))
        nt = nt[order]
        n = len(nt)
        base, extra = divmod(n, tiles)
        sizes = np.array([base + (1 if i < extra else 0) for i in range(tiles)])
        sizes = sizes[sizes > 0]
        ends = np.cumsum(sizes)
        starts = np.concatenate([[0], ends[:-1]])
        return pd.DataFrame({
            "lang": g["lang"].iloc[0],
            "tile": np.arange(1, len(sizes) + 1, dtype=np.int64),
            "n_docs": sizes.astype(np.int64),
            "min_tokens": nt[starts],
            "max_tokens": nt[ends - 1],
        })

    out = (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(tile_group, batch_format="pandas")
        .to_pandas()
    )
    return (
        out.sort_values(["lang", "tile"]).reset_index(drop=True)
        .astype({c: "int64" for c in out.columns if c != "lang"})
    )


def dup_rate_by_source(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-source exact-duplicate rates — the crawl-health report every
    corpus intake runs (a source whose dup rate spikes is re-crawling
    itself): (source, n_docs, n_distinct, dup_rate_e6) with
    dup_rate = (n_docs - n_distinct) / n_docs in the pure-integer
    fixed-point form.

    Shape: one (source, md5) exchange of hash rows (never text) counts
    multiplicity per distinct content; a second tiny exchange on
    source reduces to the report. Both aggregates are combiner-safe.
    """

    def hash_rows(batch: pa.Table) -> pa.Table:
        hs = [hashlib.md5((t or "").encode()).hexdigest()
              for t in batch["text"].to_pylist()]
        return pa.table({"source": batch["source"],
                         "h": pa.array(hs, pa.string())})

    per_content = (
        ds.map_batches(hash_rows, batch_format="pyarrow")
        .groupby(["source", "h"])
        .aggregate(Count(alias_name="n"))
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(["source", "n"]), ["source"]).aggregate(
            [("n", "sum"), ("n", "count")]
        )
        return pa.table({"source": g["source"], "n_docs_p": g["n_sum"],
                         "n_distinct_p": g["n_count"]})

    out = (
        per_content.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs_p", alias_name="n_docs"),
                   Sum("n_distinct_p", alias_name="n_distinct"))
        .to_pandas()
    )
    nd = out["n_docs"].astype("int64")
    dups = nd - out["n_distinct"].astype("int64")
    out["dup_rate_e6"] = (2_000_000 * dups + nd) // (2 * nd)
    return (
        out.sort_values("source").reset_index(drop=True)
        .astype({c: "int64" for c in out.columns if c != "source"})
    )


def vocab_growth(ds: ray.data.Dataset, bucket: int = 50,
                 tokenizer: str = "simple") -> pd.DataFrame:
    """Heaps-law vocabulary growth curve: distinct terms seen up
    through each ``bucket``-doc prefix of the corpus in doc_id order —
    the saturation diagnostic for tokenizer/vocab sizing (when the
    curve flattens, new data stops adding words).

    Shape: the distributed part is term -> min(doc_id) (one groupby of
    token rows — the term_stats exchange); per-bucket first-seen
    counts then reduce in a per-batch combiner, and only
    ceil(n_docs/bucket) tiny rows reach the driver for the cumsum.
    Columns: (up_to_doc, vocab_size) where up_to_doc is the exclusive
    bucket end (doc_id < up_to_doc).
    """
    tok = get_tokenizer(tokenizer)

    def token_rows(batch: pa.Table) -> pa.Table:
        ids, terms = [], []
        for did, txt in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
            for t in set(tok(txt or "")):
                ids.append(did)
                terms.append(t)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "term": pa.array(terms, pa.string())})

    first_seen = (
        ds.map_batches(token_rows, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Min("doc_id", alias_name="first_doc"))
    )

    def bucket_counts(batch: pa.Table) -> pa.Table:
        b = batch["first_doc"].to_numpy(zero_copy_only=False) // bucket
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(u, pa.int64()),
                         "new_terms": pa.array(c.astype(np.int64), pa.int64())})

    per_bucket = (
        first_seen.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("new_terms", alias_name="new_terms"))
        .to_pandas()
    )
    if per_bucket.empty:
        return pd.DataFrame({"up_to_doc": pd.Series(dtype="int64"),
                             "vocab_size": pd.Series(dtype="int64")})
    per_bucket = per_bucket.sort_values("bucket").reset_index(drop=True)
    # buckets with no new terms still appear on the curve
    hi = int(per_bucket["bucket"].max())
    full = pd.DataFrame({"bucket": np.arange(hi + 1, dtype=np.int64)})
    full = full.merge(per_bucket, on="bucket", how="left").fillna(0)
    full["up_to_doc"] = (full["bucket"] + 1) * bucket
    full["vocab_size"] = full["new_terms"].astype("int64").cumsum()
    return full[["up_to_doc", "vocab_size"]].astype("int64")


def doc_token_entropy(ds: ray.data.Dataset, tokenizer: str = "simple") -> ray.data.Dataset:
    """Per-doc Shannon entropy of the token distribution (bits) — the
    repetitiveness/diversity quality signal (low-entropy docs are
    keyword-stuffed or template spam; CCNet/Gopher-family filters use
    it next to the repetition ratios). One shuffle-free ``map_batches``
    pass. Bit-portability: each term's contribution
    (tf/n)·log2(n/tf) is rounded to an INTEGER e12 fixed-point first
    and the per-doc sum runs over those integers, so the result is
    independent of summation order — the same trick as
    ``bigram_lm_scores`` (float entropy sums are not associative).
    Returns (doc_id, n_tokens, distinct_terms, entropy_e6)."""
    tok = _tok_fn(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        doc_ids, n_toks, n_dist, ents = [], [], [], []
        for d, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ts = tok(text or "")
            n = len(ts)
            doc_ids.append(d)
            n_toks.append(n)
            if n == 0:
                n_dist.append(0)
                ents.append(0)
                continue
            _, counts = np.unique(np.asarray(ts, dtype=object), return_counts=True)
            p = counts.astype(np.float64) / n
            e12 = np.floor(p * np.log2(n / counts.astype(np.float64))
                           * 1e12 + 0.5).astype(np.int64)
            n_dist.append(len(counts))
            ents.append(int(np.floor(int(e12.sum()) / 1e6 + 0.5)))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_tokens": pa.array(n_toks, pa.int64()),
                "distinct_terms": pa.array(n_dist, pa.int64()),
                "entropy_e6": pa.array(ents, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def source_kl_divergence(
    ds: ray.data.Dataset, key: str = "source", tokenizer: str = "simple"
) -> pd.DataFrame:
    """Per-source KL divergence D(P_source || P_corpus) over unigram
    token distributions — the corpus-drift / domain-shift diagnostic
    (which crawl sources diverge most from the corpus mix). Shape:

    1. per-batch (source, term) count partials -> ONE
       groupby((source, term)).sum exchange of thin count rows;
    2. corpus term totals from a second small groupby over those rows
       (never re-tokenizing), broadcast via ``ray.put`` with the
       per-source and corpus token totals;
    3. a map_batches pass turns each (source, term, n) row into an
       INTEGER e12 contribution (n/N_s)·ln((n·N_c)/(N_s·n_ct)),
       summed per source by one tiny groupby — integer sums make the
       result order-independent (same fixed-point discipline as
       ``bigram_lm_scores``/``doc_token_entropy``).

    At web scale the corpus term-total broadcast is vocabulary-sized;
    the documented path is top-K pruning with a residual bucket (the
    ``bigram_lm_scores`` open-vocabulary note). Returns one row per
    source: (source, n_terms, n_tokens, kl_e6). A NULL source gets no
    row, but its tokens still count in the corpus totals; ``""`` is a
    source of its own."""
    import pyarrow.compute as pc

    tok = _tok_fn(tokenizer)

    def count_fn(batch: pa.Table) -> pa.Table:
        # keyed (source is NULL, source or "", term): the flag keeps
        # NULL apart from "" without grouping on a null key
        counts: dict[tuple[bool, str, str], int] = {}
        for s, text in zip(batch[key].to_pylist(), batch["text"].to_pylist()):
            for t in tok(text or ""):
                k = (s is None, s or "", t)
                counts[k] = counts.get(k, 0) + 1
        keys = sorted(counts)
        return pa.table(
            {
                "null_key": pa.array([k[0] for k in keys], pa.bool_()),
                key: pa.array([k[1] for k in keys], pa.string()),
                "term": pa.array([k[2] for k in keys], pa.string()),
                "n": pa.array([counts[k] for k in keys], pa.int64()),
            }
        )

    st = (
        ds.map_batches(count_fn, batch_format="pyarrow")
        .groupby(["null_key", key, "term"])
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    term_tot = st.groupby("term").aggregate(Sum("n", alias_name="nc")).to_pandas()
    src_tot = st.groupby(["null_key", key]).aggregate(
        Sum("n", alias_name="ns"), Count()
    ).to_pandas().rename(columns={"count()": "n_terms"})
    src_tot = src_tot[~src_tot["null_key"].astype(bool)]
    n_corpus = int(term_tot["nc"].sum())
    ct_ref = ray.put(dict(zip(term_tot["term"], term_tot["nc"].astype(int))))
    ns_by_src = dict(zip(src_tot[key], src_tot["ns"].astype(int)))
    ns_ref = ray.put(ns_by_src)

    def contrib_fn(batch: pa.Table) -> pa.Table:
        ct = ray.get(ct_ref)
        ns = ray.get(ns_ref)
        batch = batch.filter(pc.invert(batch["null_key"]))
        srcs = batch[key].to_pylist()
        terms = batch["term"].to_pylist()
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        n_s = np.array([ns[s] for s in srcs], np.float64)
        n_ct = np.array([ct[t] for t in terms], np.float64)
        e12 = np.floor(
            (n / n_s) * np.log((n * n_corpus) / (n_s * n_ct)) * 1e12 + 0.5
        ).astype(np.int64)
        return pa.table({key: pa.array(srcs, pa.string()),
                         "e12": pa.array(e12, pa.int64())})

    kl = (
        st.map_batches(contrib_fn, batch_format="pyarrow")
        .groupby(key)
        .aggregate(Sum("e12", alias_name="e12"))
        .to_pandas()
    )
    out = src_tot.merge(kl, on=key, how="left")
    out["e12"] = out["e12"].fillna(0).astype("int64")
    out["kl_e6"] = np.floor(out["e12"] / 1e6 + 0.5).astype("int64")
    out = out.rename(columns={"ns": "n_tokens"})
    for c in ("n_terms", "n_tokens"):
        out[c] = out[c].astype("int64")
    return (
        out[[key, "n_terms", "n_tokens", "kl_e6"]]
        .sort_values(key)
        .reset_index(drop=True)
    )


def tfidf_cosine_pairs(
    ds: ray.data.Dataset,
    max_df: int = 50,
    min_df: int = 2,
    threshold: float = 0.1,
    tokenizer: str = "simple",
    max_group: int | None = 1024,
) -> pd.DataFrame:
    """ALL-PAIRS document similarity over sparse TF-IDF vectors — the
    inverted-index-native form (Bayardo et al., "Scaling Up All Pairs
    Similarity Search", WWW 2007): candidate pairs are generated only
    through SHARED terms, and the classic df-pruning makes that
    tractable — terms with df > ``max_df`` (stopword-ish: they pair
    everything with everything) and df < ``min_df`` (can't pair) are
    excluded from the similarity space, so the per-term pair groups
    stay small by construction. The metric is cosine over the pruned
    term space with w = tf * ln(N/df).

    Bit-portability: per-term dot contributions and per-doc squared
    norms round to INTEGER e6 before summing (order-free integer
    sums, the ``bigram_lm_scores`` discipline); the final division
    runs on the same two float64 numbers in both engines.

    Scale shape: one broadcast idf dict (the ``tfidf_top_terms``
    vocab-broadcast seam), w-rows exchanged by term, per-term pair
    emission capped at ``max_group`` docs with a logged sentinel
    (the ``ngram_jaccard_pairs`` hot-key pattern), one per-pair
    groupby; only thresholded pairs reach the driver.

    Returns (doc_a, doc_b, common, cos_e6) for cos >= threshold,
    sorted by (doc_a, doc_b)."""
    from ray.data.aggregate import Count, Min, Sum

    if max_group is not None and max_df > max_group:
        # a dropped hot-term group would still weigh in every member's
        # norm, biasing the surviving pairs' cosines low
        raise ValueError(
            f"max_df={max_df} exceeds max_group={max_group}: terms over "
            "max_group would count in the norms but not in the dot products")
    tok = _tok_fn(tokenizer)
    n_docs = float(ds.count())
    stats = term_stats(ds, tokenizer).to_pandas()
    keep = (stats["df"] >= min_df) & (stats["df"] <= max_df)
    idf = dict(zip(
        stats.loc[keep, "term"],
        np.log(n_docs / stats.loc[keep, "df"].to_numpy(np.float64)),
    ))
    idf_ref = ray.put(idf)
    thr_e6 = int(np.floor(threshold * 1e6 + 0.5))

    def w_rows(batch: pa.Table) -> pa.Table:
        idf_d = ray.get(idf_ref)
        terms_o, docs_o, w_o, n2_o = [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            cnt: dict[str, int] = {}
            for t in tok(text or ""):
                if t in idf_d:
                    cnt[t] = cnt.get(t, 0) + 1
            if not cnt:
                continue
            ws = {t: c * idf_d[t] for t, c in cnt.items()}
            n2 = int(sum(
                int(np.floor(w * w * 1e6 + 0.5)) for w in ws.values()
            ))
            for t, w in ws.items():
                terms_o.append(t)
                docs_o.append(doc_id)
                w_o.append(w)
                n2_o.append(n2)
        return pa.table({
            "term": pa.array(terms_o, pa.string()),
            "doc_id": pa.array(docs_o, pa.int64()),
            "w": pa.array(w_o, pa.float64()),
            "n2": pa.array(n2_o, pa.int64()),
        })

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["doc_id"].to_numpy(np.int64))
        ids = g["doc_id"].to_numpy(np.int64)[order]
        ws = g["w"].to_numpy(np.float64)[order]
        n2s = g["n2"].to_numpy(np.int64)[order]
        if max_group is not None and len(ids) > max_group:
            return pd.DataFrame({
                "doc_a": [-1], "doc_b": [-1], "c_e6": [0],
                "na2": [0], "nb2": [0],
            }).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({
            "doc_a": ids[a], "doc_b": ids[b],
            "c_e6": np.floor(ws[a] * ws[b] * 1e6 + 0.5).astype(np.int64),
            "na2": n2s[a], "nb2": n2s[b],
        })

    pairs = (
        ds.map_batches(w_rows, batch_format="pyarrow")
        .groupby("term")
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(
            Sum("c_e6", alias_name="dot_e6"),
            Count(alias_name="common"),
            Min("na2", alias_name="na2"),
            Min("nb2", alias_name="nb2"),
        )
        .to_pandas()
    )
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in
                          ["doc_a", "doc_b", "common", "cos_e6"]})
    if pairs.empty:
        return empty
    sentinel = pairs["doc_a"].to_numpy() < 0
    n_hot = int(pairs.loc[sentinel, "common"].sum())
    if n_hot:
        logger.warning("tfidf_cosine_pairs: %d hot terms over max_group=%d "
                       "dropped from pair emission", n_hot, max_group)
    t = pairs[~sentinel]
    if t.empty:
        return empty
    denom = np.sqrt(t["na2"].to_numpy(np.float64)
                    * t["nb2"].to_numpy(np.float64))
    cos_e6 = np.floor(
        t["dot_e6"].to_numpy(np.int64) / denom * 1e6 + 0.5
    ).astype(np.int64)
    keep_m = cos_e6 >= thr_e6
    out = pd.DataFrame({
        "doc_a": t["doc_a"].to_numpy(np.int64)[keep_m],
        "doc_b": t["doc_b"].to_numpy(np.int64)[keep_m],
        "common": t["common"].to_numpy(np.int64)[keep_m],
        "cos_e6": cos_e6[keep_m],
    })
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True).astype("int64")


def length_entropy_correlation(
    ds: ray.data.Dataset, tokenizer: str = "simple"
) -> pd.DataFrame:
    """Pearson correlation between doc length (tokens) and token
    entropy — the diagnostic behind 'does the low-entropy tail just
    mean short docs?' when tuning repetition filters. The point of the
    op is its SHAPE: the mergeable moments sketch — every batch emits
    one (n, Σx, Σy, Σxy, Σx², Σy²) partial row and partials merge by
    plain addition (the same ADD-mergeability as the CMS), so the
    stream never leaves the map tasks and ANY distributed variance /
    covariance / regression reduces to this one pattern. Moments
    accumulate as exact Python ints (x = token count, y = entropy_e6
    — both integers), so the final float evaluation runs on identical
    numbers in both engines.

    Returns one row: (n_docs, r_e6)."""
    ent = doc_token_entropy(ds, tokenizer)

    moments = ("n", "sx", "sy", "sxy", "sx2", "sy2")

    def partial(batch: pa.Table) -> pa.Table:
        x = batch["n_tokens"].to_numpy(zero_copy_only=False).astype(object)
        y = batch["entropy_e6"].to_numpy(zero_copy_only=False).astype(object)
        # object dtype -> Python-int arithmetic; the partials travel as
        # decimal strings because sy2 (~1e14 per doc) outgrows int64
        # within one large batch, let alone across batches
        vals = (len(x), sum(x), sum(y), sum(a * b for a, b in zip(x, y)),
                sum(a * a for a in x), sum(b * b for b in y))
        return pa.table({
            m: pa.array([str(int(v))], pa.string())
            for m, v in zip(moments, vals)
        })

    parts = ent.map_batches(partial, batch_format="pyarrow").to_pandas()
    # exact Python-int sums: a numpy int64 .sum() wraps silently
    n, sx, sy, sxy, sx2, sy2 = (
        sum(int(v) for v in parts[m]) if len(parts) else 0 for m in moments
    )
    if n == 0:
        return pd.DataFrame([{"n_docs": 0, "r_e6": 0}]).astype("int64")
    num = float(n * sxy - sx * sy)
    den = np.sqrt(float(n * sx2 - sx * sx) * float(n * sy2 - sy * sy))
    r = 0.0 if den == 0 else num / den
    return pd.DataFrame([{
        "n_docs": n,
        "r_e6": int(np.floor(r * 1e6 + 0.5)),
    }]).astype("int64")


def tfidf_related_docs(
    ds: ray.data.Dataset,
    k: int = 3,
    max_df: int = 50,
    min_df: int = 2,
    threshold: float = 0.1,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """'Related documents' — per doc the top-``k`` most similar other
    docs by TF-IDF cosine (the related-articles panel every search
    engine ships), derived from the sparse all-pairs graph: symmetrize
    the ``tfidf_cosine_pairs`` output (each undirected pair serves
    both endpoints) and rank per source doc by (cos desc, neighbor
    asc). Docs with no pair above threshold emit no rows.

    Returns (doc_id, rank, neighbor_id, cos_e6) sorted by
    (doc_id, rank)."""
    pairs = tfidf_cosine_pairs(ds, max_df=max_df, min_df=min_df,
                               threshold=threshold, tokenizer=tokenizer)
    if pairs.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                             ["doc_id", "rank", "neighbor_id", "cos_e6"]})
    sym = pd.concat([
        pairs.rename(columns={"doc_a": "doc_id", "doc_b": "neighbor_id"}),
        pairs.rename(columns={"doc_b": "doc_id", "doc_a": "neighbor_id"}),
    ], ignore_index=True)[["doc_id", "neighbor_id", "cos_e6"]]
    sym = sym.sort_values(["doc_id", "cos_e6", "neighbor_id"],
                          ascending=[True, False, True], kind="mergesort")
    sym["rank"] = sym.groupby("doc_id").cumcount() + 1
    out = sym[sym["rank"] <= k]
    return (out[["doc_id", "rank", "neighbor_id", "cos_e6"]]
            .reset_index(drop=True).astype("int64"))
